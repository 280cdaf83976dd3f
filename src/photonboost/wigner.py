"""Little-group rotation angles for massless momenta and helicity phases.

A Lorentz transform L sends the momentum-helicity state at p to the one at
L p times a phase exp(-i * lambda * Theta(L, p)).  Theta is the rotation
angle of the little-group element W = H(Lp)^-1 L H(p), where H is the
standard boost from lorentz.standard_boost; W leaves the reference null
momentum k = (1, 0, 0, 1) invariant, and its x-y rotation block is
unaffected by the Euclidean translation part, so the angle is read off as
atan2(W_yx, W_xx).

Two independent routes to Theta are provided:

* ``wigner_angle`` folds closed-form per-generator rules over the factor
  list of the transform, updating the momentum as it goes (the rotation
  angles of successive little-group elements add);
* ``wigner_angle_oracle`` builds W explicitly and extracts the angle from
  the matrix.

They must agree modulo 2*pi to ~1e-9 for any transform built from
generators; the test suite enforces this on large seeded samples.

Per-generator rules, for p at polar angles (theta, phi):

* boost along z: 0;
* rotation about z: 0 off axis, +gamma at the +z pole, -gamma at the -z
  pole (helicity there is measured against -z);
* rotation about y by gamma: atan2(A, B) with

      A = sin(gamma) * sin(phi)
      B = sin(gamma) * cos(theta) * cos(phi) + cos(gamma) * sin(theta).

The quadrant matters, so the two-argument arctangent is used; a single-
argument arctan of A/B loses the branch and breaks the composition law.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

from .lorentz import (
    BOOST_Z,
    POLE_TOL,
    ROT_Y,
    ROT_Z,
    Direction,
    FourVector,
    LorentzTransform,
    generator_matrix,
    standard_boost,
)

REFERENCE_MOMENTUM = FourVector(1.0, 0.0, 0.0, 1.0)

# tolerance on |W k - k| before W stops counting as a little-group element;
# two standard-boost inversions accumulate rounding
LITTLE_GROUP_TOL = 1e-9

_HELICITIES = (1, -1)


class LittleGroupError(RuntimeError):
    """W = H(Lp)^-1 L H(p) failed to fix the reference momentum.

    This cannot happen for a metric-preserving transform and a null
    momentum, so it signals an upstream bug rather than bad user input.
    """


def check_helicity(lam: int) -> int:
    if lam not in _HELICITIES:
        raise ValueError(f"helicity must be +1 or -1, got {lam!r}")
    return lam


def principal_angle(x):
    """Reduce an angle (array ok) to the branch (-pi, pi]."""
    a = np.mod(np.asarray(x) + np.pi, 2.0 * np.pi) - np.pi
    return np.where(a == -np.pi, np.pi, a)


def _require_null_future(p: np.ndarray) -> None:
    t = p[0]
    tt = t * t
    ok = (t > 0.0) & (abs(tt - (p[1:] * p[1:]).sum(axis=0)) <= 1e-10 * np.maximum(1.0, tt))
    if not ok.all():  # NaN fails too
        raise ValueError("momentum must be null and future-pointing")


def _rot_y_angle(gamma: float, cos_theta, sin_theta, phi):
    a = math.sin(gamma) * np.sin(phi)
    b = math.sin(gamma) * cos_theta * np.cos(phi) + math.cos(gamma) * sin_theta
    return np.arctan2(a, b)


def _rot_z_angle(gamma: float, cos_theta, sin_theta):
    on_axis = sin_theta < POLE_TOL
    signed = np.where(cos_theta > 0.0, gamma, -gamma)
    return np.where(on_axis, signed, 0.0)


def generator_angle(kind: str, parameter: float, cos_theta, sin_theta, phi):
    """Elementwise little-group angle of one generator at (theta, phi)."""
    if kind == BOOST_Z:
        return np.zeros(np.shape(cos_theta))
    if kind == ROT_Z:
        return _rot_z_angle(parameter, cos_theta, sin_theta)
    if kind == ROT_Y:
        return _rot_y_angle(parameter, cos_theta, sin_theta, phi)
    raise ValueError(f"unknown generator kind {kind!r}")


def wigner_angles(L: LorentzTransform, momenta: np.ndarray) -> np.ndarray:
    """Fold the generator rules over L.factors for a (4, n) momentum batch.

    Factors are consumed right to left (the rightmost factor acts on the
    momenta first), each contributing its angle at the momentum current at
    that point in the chain.  Angles are returned on the branch (-pi, pi].
    """
    p = np.asarray(momenta, dtype=float)
    squeeze = p.ndim == 1
    if squeeze:
        p = p[:, None]
    if p.shape[0] != 4:
        raise ValueError(f"expected momenta of shape (4, n), got {p.shape}")
    _require_null_future(p)
    total = np.zeros(p.shape[1])
    for kind, par in reversed(L.factors):
        rho = np.hypot(p[1], p[2])
        r = np.hypot(rho, p[3])
        total += generator_angle(kind, par, p[3] / r, rho / r, np.arctan2(p[2], p[1]))
        p = generator_matrix(kind, par) @ p
    out = principal_angle(total)
    return float(out[0]) if squeeze else out


def wigner_angle(L: LorentzTransform, p: FourVector) -> float:
    """Closed-form Theta(L, p) on the branch (-pi, pi]."""
    return float(wigner_angles(L, p.as_array()))


def wigner_angle_oracle(L: LorentzTransform, p: FourVector) -> float:
    """Theta(L, p) extracted from the little-group matrix itself."""
    arr = p.as_array()
    _require_null_future(arr)
    q = L.apply(p)
    h_p = standard_boost(Direction.from_vector(p.spatial()), p.t)
    h_q = standard_boost(Direction.from_vector(q.spatial()), q.t)
    w = h_q.inverse().matrix @ L.matrix @ h_p.matrix
    k = REFERENCE_MOMENTUM.as_array()
    residual = float(np.abs(w @ k - k).max())
    if residual > LITTLE_GROUP_TOL:
        raise LittleGroupError(
            f"W does not fix the reference momentum (residual {residual:.3e}); "
            "this indicates an internal error"
        )
    return math.atan2(w[2, 1], w[1, 1])


def boost_helicity_state(
    L: LorentzTransform, p: FourVector, lam: int
) -> tuple[FourVector, complex]:
    """Transform a momentum-helicity state: returns (L p, helicity phase)."""
    check_helicity(lam)
    theta_w = wigner_angle(L, p)
    return L.apply(p), cmath.exp(-1j * lam * theta_w)
