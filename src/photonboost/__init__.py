"""Lorentz boosts of polarization-entangled photon beams.

Builds boosted two-photon reduced polarization density matrices for
Gaussian-spread beams and evaluates their log negativity as a function of
boost direction, rapidity and angular spread.
"""
from .beams import (
    BeamSpec,
    DensityMatrix,
    QuadratureGrid,
    angular_weight,
    build_grid,
    reduced_density,
)
from .entanglement import hermitian_eigenvalues, log_negativity, partial_transpose_A
from .lorentz import (
    BOOST_Z,
    ROT_Y,
    ROT_Z,
    Direction,
    FourVector,
    LorentzTransform,
    boost_z,
    compose,
    from_factors,
    identity,
    minkowski_dot,
    null_momentum,
    rot_y,
    rot_z,
    rotation_to,
    standard_boost,
)
from .polarization import d_gauge_form, d_rotation_form, epsilon, h_vec, v_vec
from .sweep import (
    ConfigError,
    QuadratureConvergenceWarning,
    SweepConfig,
    SweepRow,
    make_boost,
    preset_fig2,
    preset_fig3,
    run_sweep,
)
from .validation import ValidationReport, validate
from .wigner import (
    LittleGroupError,
    boost_helicity_state,
    wigner_angle,
    wigner_angle_oracle,
    wigner_angles,
)

__version__ = "0.1.0"

__all__ = [
    "BOOST_Z",
    "ROT_Y",
    "ROT_Z",
    "BeamSpec",
    "ConfigError",
    "DensityMatrix",
    "Direction",
    "FourVector",
    "LittleGroupError",
    "LorentzTransform",
    "QuadratureConvergenceWarning",
    "QuadratureGrid",
    "SweepConfig",
    "SweepRow",
    "ValidationReport",
    "angular_weight",
    "boost_helicity_state",
    "boost_z",
    "build_grid",
    "compose",
    "d_gauge_form",
    "d_rotation_form",
    "epsilon",
    "from_factors",
    "h_vec",
    "hermitian_eigenvalues",
    "identity",
    "log_negativity",
    "make_boost",
    "minkowski_dot",
    "null_momentum",
    "partial_transpose_A",
    "preset_fig2",
    "preset_fig3",
    "reduced_density",
    "rot_y",
    "rot_z",
    "rotation_to",
    "run_sweep",
    "standard_boost",
    "v_vec",
    "validate",
    "wigner_angle",
    "wigner_angle_oracle",
    "wigner_angles",
]
