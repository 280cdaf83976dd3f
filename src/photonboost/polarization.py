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
  is the production path, written once in beams.transport, which applies
  it to every node of a quadrature grid for a whole stack of boosts;
* the rotation form here, which rotates the vector from the frame at p to
  the frame at L p with the little-group angle in between.  It is
  manifestly norm-preserving and, through the Wigner angle, independent of
  the gauge form, so it is the oracle the production path is checked
  against (validate's d_form_equivalence group and the test suite).

Every function here evaluates a stack: ``epsilon_stack``, ``h_vec_stack``
and ``v_vec_stack`` build the basis at arrays of angles (scalar angles
give one (4,) vector), and ``d_rotation_form_stack`` takes a
lorentz.TransformStack and (4, n) momenta and polarizations.

The h/v linear basis carries momentum-azimuth phase factors that cancel
the frame winding, so h and v tend to x-hat and y-hat for small polar
angles instead of the polar/azimuthal unit vectors.
"""
from __future__ import annotations

import math

import numpy as np

from . import lorentz, wigner
from .lorentz import ROT_Z, TransformStack

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _frames(thetas, phis) -> np.ndarray:
    """Frames R(p-hat) at arrays of angles as (3, 3, ...): out[c] is the image of unit vector c."""
    thetas, phis = np.broadcast_arrays(np.asarray(thetas, dtype=float), phis)
    m = lorentz.rotations_to(thetas.ravel(), phis.ravel()).matrices
    return m[:, 1:, 1:].transpose(2, 1, 0).reshape((3, 3) + thetas.shape)


def epsilon_stack(thetas, phis, lam: int) -> np.ndarray:
    """(4, ...) helicity-lambda polarization 4-vectors at angles (thetas, phis).

    R(p-hat) applied to (x + i lambda y) / sqrt(2); the time part is 0.
    """
    wigner.check_helicity(lam)
    f = _frames(thetas, phis)
    spatial = (f[0] + (lam * 1j) * f[1]) * _INV_SQRT2
    return np.concatenate([np.zeros((1,) + spatial.shape[1:], dtype=complex), spatial])


def h_vec_stack(thetas, phis) -> np.ndarray:
    """Near-horizontal basis vectors; they tend to x-hat as theta -> 0."""
    ph = np.exp(1j * np.asarray(phis, dtype=float))
    plus, minus = epsilon_stack(thetas, phis, +1), epsilon_stack(thetas, phis, -1)
    return (ph * plus + ph.conj() * minus) * _INV_SQRT2


def v_vec_stack(thetas, phis) -> np.ndarray:
    """Near-vertical basis vectors; they tend to y-hat as theta -> 0."""
    ph = np.exp(1j * np.asarray(phis, dtype=float))
    plus, minus = epsilon_stack(thetas, phis, +1), epsilon_stack(thetas, phis, -1)
    return -1j * (ph * plus - ph.conj() * minus) * _INV_SQRT2


def d_rotation_form_stack(stack: TransformStack, momenta, eps) -> np.ndarray:
    """Transport each column of eps from p to L p via frame rotations.

    Column i pairs with transform i, or with the only transform of a
    one-transform stack.  Applies R(dir(L p)) R_z(Theta(L, p)) R(dir(p))^-1,
    which acts on the circular basis at p as the helicity phase and
    re-seats the result in the frame at L p; R^-1 is the transpose.
    Raises ValueError unless every p is null and future-pointing and every
    polarization has zero time part and is transverse to its p.
    """
    p = wigner.momentum_columns(stack, momenta)
    eps = np.asarray(eps, dtype=complex)
    if eps.shape != p.shape:
        raise ValueError(f"expected polarization 4-vectors of shape {p.shape}, got {eps.shape}")
    t = np.abs(eps[0])
    if not (t <= 1e-10).all():  # NaN fails too
        raise ValueError(
            f"polarization vector must have zero time component, got {eps[0][~(t <= 1e-10)][0]!r}"
        )
    mdot = eps[0] * p[0] - eps[1] * p[1] - eps[2] * p[2] - eps[3] * p[3]
    if not (np.abs(mdot) <= 1e-8 * np.maximum(1.0, p[0])).all():
        raise ValueError("polarization vector is not transverse to the momentum")
    theta_w = wigner.wigner_angle_stack(stack, p)
    n = p.shape[1]
    # the frames at p and at L p, one stack
    frames = lorentz.rotations_to(*lorentz.direction_angles(np.hstack([p, stack.apply(p)])[1:]))
    spin = TransformStack(np.full((n, 1), ROT_Z), theta_w[:, None])
    v = np.swapaxes(frames.matrices[:n], 1, 2) @ eps.T[:, :, None]
    return (frames.matrices[n:] @ (spin.matrices @ v))[:, :, 0].T

