"""Polarization 4-vectors of helicity eigenstates and their Lorentz transport.

Polarization vectors are plain complex arrays of length 4 in (t, x, y, z)
order.  Freshly built basis vectors and every transport output have a zero
time component and unit spatial Hermitian norm, and are Minkowski-orthogonal
to their momentum; downstream density-matrix code therefore reads only the
spatial components.

Transport comes in two algebraically equivalent forms:

* the gauge form L eps - ((L eps)^0 / (L p)^0) L p, a momentum-dependent
  gauge subtraction that keeps the transported vector in a zero-time-
  component gauge.  It involves nothing but real matrix algebra on L and
  is the production path: beams.transport applies it to every node of a
  quadrature grid for a whole stack of boosts at once;
* the rotation form, which rotates the vector from the frame at p to the
  frame at L p with the little-group angle in between.  It is manifestly
  norm-preserving and, through the Wigner angle, independent of the gauge
  form, so it serves as the oracle the production path is checked
  against (validate's d_form_equivalence group and the test suite).

The two functions here transport one vector at one momentum each.

The h/v linear basis carries momentum-azimuth phase factors that cancel
the frame winding, so h and v tend to x-hat and y-hat for small polar
angles instead of the polar/azimuthal unit vectors.
"""
from __future__ import annotations

import math

import numpy as np

from . import wigner
from .lorentz import Direction, FourVector, LorentzTransform, rot_z, rotation_to

_SQRT2 = math.sqrt(2.0)

# circular basis at the reference direction: (x +/- i y) / sqrt(2)
_EPS_PLUS = np.array([0.0, 1.0, 1.0j, 0.0]) / _SQRT2
_EPS_MINUS = np.array([0.0, 1.0, -1.0j, 0.0]) / _SQRT2


def epsilon(d: Direction, lam: int) -> np.ndarray:
    """Helicity-lambda polarization 4-vector at direction d."""
    wigner.check_helicity(lam)
    seed = _EPS_PLUS if lam > 0 else _EPS_MINUS
    return rotation_to(d).matrix @ seed


def h_vec(d: Direction) -> np.ndarray:
    """Near-horizontal basis vector; tends to x-hat as theta -> 0."""
    ph = np.exp(1j * d.phi)
    return (ph * epsilon(d, +1) + np.conj(ph) * epsilon(d, -1)) / _SQRT2


def v_vec(d: Direction) -> np.ndarray:
    """Near-vertical basis vector; tends to y-hat as theta -> 0."""
    ph = np.exp(1j * d.phi)
    return -1j * (ph * epsilon(d, +1) - np.conj(ph) * epsilon(d, -1)) / _SQRT2


def _require_transverse(p: FourVector, eps: np.ndarray) -> np.ndarray:
    eps = np.asarray(eps, dtype=complex)
    if eps.shape != (4,):
        raise ValueError(f"expected a polarization 4-vector, got shape {eps.shape}")
    if abs(eps[0]) > 1e-10:
        raise ValueError(f"polarization vector must have zero time component, got {eps[0]!r}")
    parr = p.as_array()
    mdot = eps[0] * parr[0] - eps[1] * parr[1] - eps[2] * parr[2] - eps[3] * parr[3]
    if abs(mdot) > 1e-8 * max(1.0, p.t):
        raise ValueError("polarization vector is not transverse to the momentum")
    return eps


def d_rotation_form(L: LorentzTransform, p: FourVector, eps: np.ndarray) -> np.ndarray:
    """Transport eps from p to L p via frame rotations.

    Applies R(dir(L p)) R_z(Theta(L, p)) R(dir(p))^-1, which acts on the
    circular basis at p as the helicity phase and re-seats the result in
    the frame at L p.
    """
    eps = _require_transverse(p, eps)
    theta_w = wigner.wigner_angle(L, p)
    frame_in = rotation_to(Direction.from_vector(p.spatial()))
    frame_out = rotation_to(Direction.from_vector(L.apply(p).spatial()))
    return frame_out.matrix @ (rot_z(theta_w).matrix @ (frame_in.inverse().matrix @ eps))


def d_gauge_form(L: LorentzTransform, p: FourVector, eps: np.ndarray) -> np.ndarray:
    """Transport eps from p to L p by boosting and re-gauging.

    The subtraction of the momentum-proportional part cancels the time
    component picked up by the raw boost; for a future-pointing null p and
    a proper orthochronous L the denominator (L p)^0 is always positive.
    """
    eps = _require_transverse(p, eps)
    q = L.apply(p)
    if q.t <= 1e-12:
        raise ValueError(f"degenerate transported momentum, (L p)^0 = {q.t!r}")
    boosted = L.matrix @ eps
    return boosted - (boosted[0] / q.t) * q.as_array()
