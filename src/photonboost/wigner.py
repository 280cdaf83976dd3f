"""The helicity transformation law: Wigner angles, helicity phases and polarization transport.

A Lorentz transform L sends the momentum-helicity state at p to the one at
L p times a phase exp(-i * lambda * Theta(L, p)).  Theta is the rotation
angle of the little-group element W = H(Lp)^-1 L H(p), where H is the
standard transformation of lorentz.standard_boosts; W leaves the
reference null momentum k = (1, 0, 0, 1) invariant, and its x-y rotation
block is unaffected by the Euclidean translation part, so the angle is
read off as atan2(W_yx, W_xx).

Two independent routes to Theta are provided, both evaluating a whole
lorentz.TransformStack against (4, n) momenta:

* ``wigner_angle_stack`` folds closed-form per-generator rules over the
  factor list of each transform, updating the momentum as it goes (the
  rotation angles of successive little-group elements add);
* ``wigner_angle_oracle_stack`` builds W explicitly and extracts the angle
  from the matrix.

They must agree modulo 2*pi to ~1e-9 for any transform built from
generators; the test suite enforces this on large seeded samples.

Every momentum of the fold's chain gets one frame R = R_z(phi) R_y(theta)
from lorentz.direction_angles, which decides once whether it lies on a
pole (phi = 0 there), and each factor's angle runs from its input's frame
to its output's.  The chain starts in the frame of p, and a last turn
takes it to the frame of L p as L's matrix gives it: the momenta the
oracle's standard boosts read.  So the angles add up to the oracle's
whatever frames the momenta in between get.  For a factor from the frame
(theta, phi) to the frame (theta', phi'):

* rotation about y by gamma: the angle of R'^T R_y(gamma) R, read off its
  x column;
* rotation about z by gamma, boost along z or the last turn (gamma = 0):
  the turn gamma + phi - phi' of the azimuth, signed by the hemisphere,
  where either frame lies within _NEAR_POLE of a pole: there the phi = 0
  convention, or the rounding of a nearly axial momentum, sets it.
  Elsewhere it is 0 to 1e-10, and the rule gives exactly 0.

Polarization vectors are (4, ...) arrays in (t, x, y, z) order:
``epsilon_stack`` builds the complex helicity basis
R(p-hat) (x + i lambda y)/sqrt 2 at arrays of angles, and ``h_vec_stack``
and ``v_vec_stack`` the real linear basis R(p-hat) R_z(-phi) (x, y), whose
turn by -phi cancels the frame winding so that h and v tend to x-hat and
y-hat as theta -> 0; at a pole, where the frame's azimuth is pinned to 0,
the turn is 0 at theta = 0 and -2 phi at theta = pi, so that both take
their limits along the meridian phi there too.  ``d_rotation_form_stack``
transports polarizations in rotation form: from the frame at p to the
frame at L p with the little-group angle in between.  It is manifestly
norm-preserving and, through the Wigner angle, independent of the
production aberration map (beams.axis_moments, which sums it over a grid
in closed form), so it is the oracle that map is checked against
(validate's d_form_equivalence and omega_independence groups and the
test suite).
"""
from __future__ import annotations

import math

import numpy as np

from .lorentz import (
    PAD,
    POLE_TOL,
    ROT_Y,
    ROT_Z,
    TransformStack,
    direction_angles,
    paired_columns,
    rotations_to,
    standard_boosts,
)

REFERENCE_MOMENTUM = np.array([1.0, 0.0, 0.0, 1.0])
REFERENCE_MOMENTUM.flags.writeable = False

# sin(theta) below which the fold reads the turn of an axial factor or of
# its last turn: two roundings of a momentum can differ in azimuth by
# about 1e-16 / sin(theta), so above it the turn is 0 to 1e-10
_NEAR_POLE = 1e-6

# tolerance on |W k - k| before W stops counting as a little-group element;
# two standard-boost inversions accumulate rounding
LITTLE_GROUP_TOL = 1e-9

_HELICITIES = (1, -1)

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


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
    """Raise ValueError unless every column of a (4, ...) array is null and future-pointing."""
    t = p[0]
    tt = t * t
    ok = (t > 0.0) & (abs(tt - (p[1:] * p[1:]).sum(axis=0)) <= 1e-10 * np.maximum(1.0, tt))
    if not ok.all():  # NaN fails too
        raise ValueError("momentum must be null and future-pointing")


def _frame(vectors) -> tuple[np.ndarray, ...]:
    """cos theta, sin theta, cos phi, sin phi and phi of (3, n) directions' standard frames.

    lorentz.direction_angles decides whether a direction is on a pole,
    where phi = 0.
    """
    theta, phi = direction_angles(vectors)
    return np.cos(theta), np.sin(theta), np.cos(phi), np.sin(phi), phi


def _rot_y_angle(gamma, frame, frame_out):
    """Theta of R_y(gamma) from the _frame of its input to that of its output.

    The angle of R(out)^T R_y(gamma) R(in) with R = R_z(phi) R_y(theta),
    read off its x column; u is R_y(gamma) R(in) x-hat.
    """
    (ct, st, cp, sp, _), (ct_out, st_out, cp_out, sp_out, _) = frame, frame_out
    c, s, a = np.cos(gamma), np.sin(gamma), ct * cp
    ux, uy, uz = c * a - s * st, ct * sp, -s * a - c * st
    return np.arctan2(cp_out * uy - sp_out * ux, ct_out * (cp_out * ux + sp_out * uy) - st_out * uz)


def _axial_angle(gamma, frame, frame_out):
    """Theta of R_z(gamma), or of a boost along z with gamma = 0, between two _frames.

    The factor keeps the z axis and carries the azimuth phi to phi + gamma,
    so W is R_z of the turn gamma + phi - phi' about +z and of its opposite
    about -z.  The turn is what the phi = 0 convention leaves on a pole;
    off the _NEAR_POLE band it is 0 to 1e-10, and exactly 0 is returned.
    """
    turn = gamma + frame[4] - frame_out[4]
    turn -= 2.0 * np.pi * np.round(turn / (2.0 * np.pi))  # gamma itself if it is on (-pi, pi)
    near = np.minimum(frame[1], frame_out[1]) < _NEAR_POLE
    return np.where(near, np.where(frame[0] < 0.0, -turn, turn), 0.0)


def momentum_columns(stack: TransformStack, momenta) -> np.ndarray:
    """momenta as (4, n) columns paired with stack (see lorentz.paired_columns).

    Raises ValueError unless every column is null and future-pointing.
    """
    p = paired_columns(stack, momenta)
    _require_null_future(p)
    return p


def wigner_angle_stack(stack: TransformStack, momenta) -> np.ndarray:
    """Closed-form Theta of each (transform, momentum) pair, on (-pi, pi].

    momenta is (4, n); column i pairs with transform i, or with the only
    transform of a one-transform stack.  Each row's factors are consumed
    right to left (the rightmost acts on the momentum first), each adding
    its angle at the momentum current at that point in the chain, and a
    last turn takes the chain to the frame of L p.  Padding factors add
    exactly 0 and leave the momentum unchanged.
    """
    return _folded_angles(stack, momentum_columns(stack, momenta))


def _folded_angles(stack: TransformStack, p: np.ndarray) -> np.ndarray:
    """wigner_angle_stack on (4, n) columns that momentum_columns has checked."""
    g = stack.factor_matrices()
    width = stack.kinds.shape[1]
    chain = [p.T[:, :, None]]  # the momenta, rightmost factor first
    for j in reversed(range(width)):
        chain.append(g[:, j] @ chain[-1])
    # the last turn goes to the frame of L p as L's matrix gives it, which
    # the oracle, and a caller stepping on, reads
    vectors = np.concatenate([*(v[:, 1:, 0].T for v in chain), stack.apply(p)[1:]], axis=1)
    frames = [f.reshape(width + 2, -1) for f in _frame(vectors)]
    before, after = [f[:-1] for f in frames], [f[1:] for f in frames]
    # (width + 1, k): the factors right to left, then the last turn as a PAD
    kinds = np.hstack([np.full((len(stack), 1), PAD), stack.kinds])[:, ::-1].T
    params = np.hstack([np.zeros((len(stack), 1)), stack.params])[:, ::-1].T
    axial = _axial_angle(np.where(kinds == ROT_Z, params, 0.0), before, after)
    return principal_angle(np.where(kinds == ROT_Y, _rot_y_angle(params, before, after), axial).sum(axis=0))


def wigner_angle_oracle_stack(stack: TransformStack, momenta) -> np.ndarray:
    """Theta of each (transform, momentum) pair from the little-group matrices.

    Pairs columns with transforms as wigner_angle_stack does.  Builds
    W = H(Lp)^-1 L H(p) for every pair and reads atan2(W_yx, W_xx).
    Raises LittleGroupError if any W moves the reference momentum by more
    than LITTLE_GROUP_TOL.
    """
    p = momentum_columns(stack, momenta)
    h_p = standard_boosts(p)
    h_q = standard_boosts(stack.apply(p))
    w = h_q.inverse().matrices @ stack.matrices @ h_p.matrices
    residual = np.abs(w @ REFERENCE_MOMENTUM - REFERENCE_MOMENTUM).max(axis=1)
    if not (residual <= LITTLE_GROUP_TOL).all():  # NaN fails too
        raise LittleGroupError(
            f"W does not fix the reference momentum (residual {float(np.max(residual)):.3e}); "
            "this indicates an internal error"
        )
    return np.arctan2(w[:, 2, 1], w[:, 1, 1])


def boost_helicity_state(stack: TransformStack, momenta, lam: int) -> tuple[np.ndarray, np.ndarray]:
    """Transform momentum-helicity states: (L p, exp(-i lambda Theta(L, p))) per column.

    momenta is (4, n), paired with the stack as wigner_angle_stack pairs
    them; returns the (4, n) boosted momenta and the (n,) helicity phases.
    """
    check_helicity(lam)
    theta_w = wigner_angle_stack(stack, momenta)
    return stack.apply(momenta), np.exp(-1j * lam * theta_w)


def _frames(thetas, phis) -> np.ndarray:
    """Frames R(p-hat) at arrays of angles as (3, 3, ...): out[c] is the image of unit vector c."""
    thetas, phis = np.broadcast_arrays(np.asarray(thetas, dtype=float), phis)
    m = rotations_to(thetas.ravel(), phis.ravel()).matrices
    return m[:, 1:, 1:].transpose(2, 1, 0).reshape((3, 3) + thetas.shape)


def epsilon_stack(thetas, phis, lam: int) -> np.ndarray:
    """(4, ...) helicity-lambda polarization 4-vectors at angles (thetas, phis).

    R(p-hat) applied to (x + i lambda y) / sqrt(2); the time part is 0.
    """
    check_helicity(lam)
    f = _frames(thetas, phis)
    spatial = (f[0] + (lam * 1j) * f[1]) * _INV_SQRT2
    return np.concatenate([np.zeros((1,) + spatial.shape[1:], dtype=complex), spatial])


def _in_frame(thetas, phis, x, y) -> np.ndarray:
    """(4, ...) real 4-vectors R(p-hat)(x, y, 0) at angles (thetas, phis); the time part is 0."""
    f = _frames(thetas, phis)
    return np.concatenate([np.zeros((1,) + f.shape[2:]), x * f[0] + y * f[1]])


def _basis_angles(thetas, phis) -> np.ndarray:
    """The angle g with h = R(p-hat) R_z(-g) x-hat = R_z(phi) R_y(theta) R_z(-phi) x-hat.

    g is phi, except where rotations_to pins the frame's azimuth to 0
    (sin(theta) < POLE_TOL): there R_z(phi) R_y(theta) R_z(-phi) is
    R_y(theta) near theta = 0 and R_y(theta) R_z(-2 phi) near theta = pi,
    so g is 0 and 2 phi.  h and v are then the limits along the meridian
    phi, as their closed forms give them: x-hat at theta = 0 and
    -(cos 2 phi, sin 2 phi, 0) at theta = pi.
    """
    thetas = np.asarray(thetas, dtype=float)
    phis = np.asarray(phis, dtype=float)
    return np.where(np.sin(thetas) < POLE_TOL, np.where(thetas < math.pi / 2, 0.0, 2.0 * phis), phis)


def h_vec_stack(thetas, phis) -> np.ndarray:
    """Near-horizontal basis vectors R(p-hat)(cos g, -sin g, 0); they tend to x-hat as theta -> 0.

    g is phi off the poles (_basis_angles).  They are
    (exp(i g) eps_+ + exp(-i g) eps_-)/sqrt 2 of epsilon_stack's helicity
    vectors, in real arithmetic.
    """
    g = _basis_angles(thetas, phis)
    return _in_frame(thetas, phis, np.cos(g), -np.sin(g))


def v_vec_stack(thetas, phis) -> np.ndarray:
    """Near-vertical basis vectors R(p-hat)(sin g, cos g, 0); they tend to y-hat as theta -> 0.

    g is phi off the poles (_basis_angles).  They are
    -i (exp(i g) eps_+ - exp(-i g) eps_-)/sqrt 2 of epsilon_stack's
    helicity vectors, in real arithmetic.
    """
    g = _basis_angles(thetas, phis)
    return _in_frame(thetas, phis, np.sin(g), np.cos(g))


def d_rotation_form_stack(stack: TransformStack, momenta, eps) -> np.ndarray:
    """Transport each column of eps from p to L p via frame rotations.

    Column i pairs with transform i, or with the only transform of a
    one-transform stack.  Applies R(dir(L p)) R_z(Theta(L, p)) R(dir(p))^-1,
    which acts on the circular basis at p as the helicity phase and
    re-seats the result in the frame at L p; R^-1 is the transpose.  The
    map is real, so real polarizations stay real and others are complex.
    Raises ValueError unless every p is null and future-pointing and every
    polarization has zero time part and is transverse to its p.
    """
    p = momentum_columns(stack, momenta)
    eps = np.asarray(eps, dtype=complex if np.iscomplexobj(eps) else float)
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
    theta_w = _folded_angles(stack, p)
    n = p.shape[1]
    # the frames at p and at L p, one stack
    frames = rotations_to(*direction_angles(np.hstack([p, stack.apply(p)])[1:]))
    spin = TransformStack(np.full((n, 1), ROT_Z), theta_w[:, None])
    v = np.swapaxes(frames.matrices[:n], 1, 2) @ eps.T[:, :, None]
    return (frames.matrices[n:] @ (spin.matrices @ v))[:, :, 0].T

