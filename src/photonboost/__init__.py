"""Lorentz boosts of polarization-entangled photon beams.

Builds boosted two-photon reduced polarization density matrices for
Gaussian-spread beams and evaluates their log negativity as a function of
boost direction, rapidity and angular spread.  The package namespace holds
what the CLI runs, the boost-to-log-negativity pipeline, and the
transformation law itself: a boost multiplies each momentum-helicity state
by the phase exp(-i lambda Theta) of its Wigner angle.
"""
from .beams import BeamSpec, build_grid, reduced_density
from .entanglement import log_negativity
from .sweep import (
    ConfigError,
    SweepConfig,
    make_boost,
    preset_fig2,
    preset_fig3,
    run_sweep,
)
from .validation import validate
from .wigner import boost_helicity_state, wigner_angle_stack

__version__ = "0.1.0"

__all__ = [
    "BeamSpec",
    "ConfigError",
    "SweepConfig",
    "boost_helicity_state",
    "build_grid",
    "log_negativity",
    "make_boost",
    "preset_fig2",
    "preset_fig3",
    "reduced_density",
    "run_sweep",
    "validate",
    "wigner_angle_stack",
]
