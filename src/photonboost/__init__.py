"""Lorentz boosts of polarization-entangled photon beams.

Builds boosted two-photon reduced polarization density matrices for
Gaussian-spread beams and evaluates their log negativity as a function of
boost direction, rapidity and angular spread.  The package namespace holds
what the CLI runs, the boost-to-log-negativity pipeline, and the
transformation law itself: a boost multiplies each momentum-helicity state
by the phase exp(-i lambda Theta) of its Wigner angle.  validate and the
transformation law are imported on first access, so a sweep never loads
the validation and wigner modules.
"""
import importlib

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

# the public names whose modules load on first access, and those modules
_LAZY = {
    "validate": "validation",
    "boost_helicity_state": "wigner",
    "wigner_angle_stack": "wigner",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
