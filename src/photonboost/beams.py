"""Gaussian-spread photon beams and the boosted two-photon polarization state.

The two beams share one angular amplitude: a Gaussian in the polar angle
theta on a fixed momentum-magnitude shell (the magnitude is integrated out
analytically because it cancels from every transported quantity).  A
quadrature rule discretizes the remaining direction integral with
Gauss-Legendre nodes in theta on [0, pi] and a uniform periodic rule in
phi; the squared amplitude, the sphere Jacobian sin(theta) and the overall
normalization are all folded into the weights, which sum to one.  The
Gauss-Legendre rule is built for each grid by Newton's method on the
Fourier series of P_n (_gauss_legendre): O(n^2) time and O(n) memory,
with no eigensolve and no cache.

The beam is symmetric under the reflection y -> -y, which maps the node
(theta, phi) to (theta, -phi), and the phi rule maps onto itself under
it.  So a grid stores only the nodes with phi in [0, pi]; each stored
node stands for itself and its image at half its weight apiece (a node
on the mirror plane is its own image).  Every boost of a sweep has its
axis in the x-z plane and commutes with the reflection, so the image
nodes cost no transport: their moments are the stored nodes' moments
with signs flipped (see transported_moments).

The pair state is (|h h> - |v v>)/sqrt(2) at every pair of directions.
A transform is split as L = R B(xi, m), a rotation after a pure boost
along the unit axis m.  B moves each direction along its great circle
through m, tan(theta_m'/2) = exp(-xi) tan(theta_m/2), the aberration map
(Penrose 1959), and keeps a polarization's components along theta-hat
and phi-hat about m.  transport applies that map node by node; the
rotation form (wigner.d_rotation_form_stack, through the Wigner angle)
and, in the tests, the gauge form L e - ((L e)^0 / (L p)^0) L p, whose
rounding grows like eps exp(|xi|), are the independent oracles it is
tested against.  The reduced polarization density matrix traces out momentum,
leaving a 9x9 real symmetric state over the spatial components (x, y, z)
of photon A tensor photon B.  The double direction integral factorizes
through 3x3 moment matrices M_ab = sum_i w_i x_a(p_i) x_b(p_i)^T, so the
cost is linear, not quadratic, in the node count.  Along one axis in the
x-z plane, every node's moments are fixed products weighted by 1, g and
g^2 with g = 1 / (1 + exp(-2 xi) t^2), t = tan(theta_m/2), so
transported_moments sums each node once per axis and gets every row of
a block from two matrix products over the nodes (_aberration_sums).

Both photons see the same moments, so the state commutes with photon
exchange exactly, and so does its partial transpose.  The guards read
the state through its exchange blocks (entanglement.exchange_blocks): the
trace is the sum of the blocks' traces, and the smallest eigenvalue is
the least over the spectra of the 6x6 symmetric and 3x3 antisymmetric
blocks.  The same solve yields the partial-transpose spectra that the
log negativity log2(1 + 2 N) reads (density_states), so no 9x9 matrix
is diagonalized.

density_states and transported_moments take a
lorentz.TransformStack of k boosts, whose constructor has guarded them,
and evaluate all k states at once; a single transform is the k = 1 case.
transport takes raw (k, 4, 4) matrices.
"""
from __future__ import annotations

import math
import operator
from dataclasses import InitVar, dataclass, field

import numpy as np

from . import entanglement
from .lorentz import BOOST_Z, PAD, ROT_Y, TransformStack

# PSD tolerance on the assembled density matrix; anything below is an
# internal error, not a tuning problem
_MIN_EIG_TOL = -1e-9

# the unnormalized trace is 1 exactly for unit, mutually orthogonal
# transported h/v vectors; the aberration map keeps it within 4e-15 of 1
# on sweep rows at every accepted rapidity (fig2's and fig3's curves and
# others out to |xi| = 15 on 8^2 to 192^2 grids) and within 9e-15 on
# drawn stacks, a broken transport moves it by O(1)
_TRACE_TOL = 1e-8

# bytes of one working array: _gauss_legendre's (roots x series terms)
# cosines and sines, taken a block of roots at a time, and
# _aberration_sums' (boosts x nodes) weights, taken a block of nodes at
# a time, so neither grows with the grid
_BLOCK_BYTES = 1 << 18

# Newton steps allowed per block of Legendre roots; from Tricomi's angles
# the iteration in t converges cubically and stops after two or three
_NEWTON_CAP = 10

# a block of roots has converged once no Newton step moves an angle by more
_NEWTON_TOL = 1e-12

# s_a s_b / 2 of the pair state (|h h> - |v v>)/sqrt(2) for (a, b) = hh,
# hv, vh, vv, shaped to scale a stack of the four M_ab
_HALF_PAIR_SIGNS = np.array([0.5, -0.5, -0.5, 0.5])[:, None, None, None]

# the reflection y -> -y on 4-vectors, P = diag(1, 1, -1, 1); conjugating
# a boost by it, P L P, flips the signs of these entries
_MIRROR_SIGNS = np.outer([1.0, 1.0, -1.0, 1.0], [1.0, 1.0, -1.0, 1.0])

# the image of a node has h' = P h and v' = -P v, so on index 2i + a of a
# moment block the reflection acts as D = diag(1, -1, -1, 1, 1, -1): the
# spatial sign (1, -1, 1) of i times s_h = +1, s_v = -1; D G D flips these
_IMAGE_SIGNS = np.outer([1.0, -1.0, -1.0, 1.0, 1.0, -1.0], [1.0, -1.0, -1.0, 1.0, 1.0, -1.0])

# the factor row of sweep.make_boost, R_y(a) B_z(xi) R_y(-a): a boost of
# rapidity xi along (sin a, 0, cos a)
_AXIS_BOOST = (ROT_Y, BOOST_Z, ROT_Y)

# the frame index 2f + a of each parity-basis entry of _aberration_sums:
# the even parity (e1 h, e2 v, m h), then the odd one (e2 h, -e1 v, m v)
_PARITY_BASIS = np.zeros((6, 6))
_PARITY_BASIS[[0, 3, 4, 2, 1, 5], range(6)] = [1.0, 1.0, 1.0, 1.0, -1.0, 1.0]

# entries 00, 11, 01, 22, 02 and 12 of one parity's Gram of
# y = (c a - b, a - c b, -s' C), as multiples of its node sums
# (_aberration_sums): a^2, b^2 and ab, then a^2, b^2, ab, C^2, t C a and
# t C b weighted by g, then the same weighted by g^2, the t-sums times
# exp(-xi).  They expand y y^T with c = 2 g - 1, s' = 2 exp(-xi) t g and
# s'^2 = 4 g (1 - g)
_GAMMA = np.array([
    [1, 1, 2, -4, 0, -4, 0, 0, 0, 4, 0, 0, 0, 0, 0],
    [1, 1, 2, 0, -4, -4, 0, 0, 0, 0, 4, 0, 0, 0, 0],
    [-1, -1, -2, 2, 2, 4, 0, 0, 0, 0, 0, -4, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, -4, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 2, 2, 0, 0, 0, 0, -4, 0],
    [0, 0, 0, 0, 0, 0, 0, -2, -2, 0, 0, 0, 0, 0, 4],
], dtype=float)

# _GAMMA for both parities, from the (15, 2) node sums of _aberration_sums
# to the flattened 6x6 Gram in the parity basis
_GRAM_MAP = np.zeros((15, 2, 6, 6))
for _p in (0, 1):
    for _e, (_r, _c) in enumerate(((0, 0), (1, 1), (0, 1), (2, 2), (0, 2), (1, 2))):
        _GRAM_MAP[:, _p, 3 * _p + _r, 3 * _p + _c] = _GAMMA[_e]
        _GRAM_MAP[:, _p, 3 * _p + _c, 3 * _p + _r] = _GAMMA[_e]
_GRAM_MAP = _GRAM_MAP.reshape(30, 36)
del _p, _e, _r, _c

# _node_angles reads a node's distance s from the boost axis as at least
# this: behind the axis t = 2 / s then stays below 2^481, so exp(2 xi) t^2
# stays finite for every |xi| <= MAX_RAPIDITY, and a node within this of
# -m, where the map is the identity, gets g = 1 / (1 + exp(-2 xi) t^2) ~ 0
_S_FLOOR = 2.0 ** -480


@dataclass(frozen=True)
class BeamSpec:
    """Gaussian angular beam of spread sigma_theta (radians).

    The shell momentum is not a parameter: the transport reads only each
    momentum's direction, so no output depends on it.
    """

    sigma_theta: float

    def __post_init__(self) -> None:
        if not (0.0 < self.sigma_theta <= math.pi):
            raise ValueError(f"sigma_theta must lie in (0, pi], got {self.sigma_theta}")


def angular_weight(theta, spec: BeamSpec):
    """Unnormalized squared-amplitude density exp(-theta^2/sigma^2) sin(theta)."""
    theta = np.asarray(theta, dtype=float)
    # for a tiny sigma the square overflows to inf, whose weight exp(-inf) = 0 is right
    with np.errstate(over="ignore"):
        return np.exp(-((theta / spec.sigma_theta) ** 2)) * np.sin(theta)


def _node_vectors(st, ct, sp, cp, weights: np.ndarray) -> np.ndarray:
    """(4, 3, n) real 4-vectors per node: unit-frequency momentum, sqrt(w) h, sqrt(w) v.

    st, ct, sp and cp are the sines and cosines of each node's theta and
    phi.  h = R(p)(cos phi, -sin phi, 0) and v = R(p)(sin phi, cos phi, 0)
    with R(p) = R_z(phi) R_y(theta), written out; both have zero time part.
    """
    amp = np.sqrt(weights)
    out = np.zeros((4, 3, len(st)))
    out[:, 0] = np.ones_like(st), st * cp, st * sp, ct
    out[1:, 1] = cp * cp * ct + sp * sp, sp * cp * (ct - 1.0), -st * cp
    out[1:, 2] = sp * cp * (ct - 1.0), sp * sp * ct + cp * cp, -st * sp
    out[:, 1:] *= amp
    return out


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Stored nodes on the sphere of directions and normalized weights (sum exactly one).

    The rule is the stored nodes plus their images (theta, -phi), each
    image taking half the stored weight and the node keeping the other
    half; the stored weights sum to one.  A node on the mirror plane
    (phi = 0 or pi) is its own image, so it counts once at its weight.

    Weights are nonnegative rather than strictly positive: for narrow
    beams the Gaussian factor underflows to an exact zero on most of the
    sphere, and those nodes simply contribute nothing.  ``vectors`` holds
    the stored node 4-vectors the transport acts on (see _node_vectors),
    computed once per grid.  ``trig``, if given, holds each node's
    (sin theta, cos theta, sin phi, cos phi), which build_grid has taken
    once per theta and per phi value; left out, they are computed per node.
    """

    weights: np.ndarray
    thetas: np.ndarray = field(repr=False)
    phis: np.ndarray = field(repr=False)
    vectors: np.ndarray = field(init=False, repr=False)
    trig: InitVar[tuple | None] = None

    def __post_init__(self, trig) -> None:
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or np.shape(self.thetas) != w.shape or np.shape(self.phis) != w.shape:
            raise ValueError("weights, thetas and phis must be 1-d arrays of one length")
        if np.any(w < 0.0) or not np.any(w > 0.0):
            raise ValueError("weights must be nonnegative with positive total")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {w.sum()!r}")
        for name in ("weights", "thetas", "phis"):
            a = np.asarray(getattr(self, name), dtype=float).copy()
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        if trig is None:
            trig = np.sin(self.thetas), np.cos(self.thetas), np.sin(self.phis), np.cos(self.phis)
        vectors = _node_vectors(*trig, self.weights)
        vectors.flags.writeable = False
        object.__setattr__(self, "vectors", vectors)

    def __len__(self) -> int:
        return len(self.weights)


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes on [-1, 1], ascending, and their weights, in O(n^2) time.

    Newton's method in t runs on the Fourier series
    P_n(cos t) = sum_k a_k a_(n-k) cos((n - 2k) t), a_k = (2k)! / (2^(2k) k!^2)
    (Swarztrauber, SIAM J. Sci. Comput. 24 (2002) 945; Hale & Townsend,
    SIAM J. Sci. Comput. 35 (2013) A652), from Tricomi's asymptotic angles.
    Only the ceil(n/2) roots with x = cos t >= 0 are solved; the others
    are their mirror images.  A root's weight is 2 / (dP_n(cos t)/dt)^2,
    and the weights are scaled to sum exactly 2, which absorbs the
    rounding of the a_k.  The series is summed for a block of roots at a
    time (_BLOCK_BYTES), so memory is O(n); there is no eigensolve.
    Raises numpy.linalg.LinAlgError if a block has not converged within
    _NEWTON_CAP steps.
    """
    n = operator.index(n)
    k = np.arange(1.0, n + 1.0)
    a = np.cumprod(np.concatenate(([1.0], (2.0 * k - 1.0) / (2.0 * k))))
    # the series' terms k and n - k are equal, so it runs over the
    # frequencies m = n, n - 2, ... down to 1 or 0
    m = np.arange(n, -1, -2.0)
    c = a[:len(m)] * a[::-1][:len(m)]
    c[m > 0] *= 2.0
    cm = c * m
    half = (n + 1) // 2
    phi = (4.0 * np.arange(1.0, half + 1.0) - 1.0) * (math.pi / (4.0 * n + 2.0))
    t = np.arccos((1.0 - (n - 1.0) / (8.0 * n**3)) * np.cos(phi))
    dp = np.empty(half)
    # Veltkamp's split leaves t's high part n.bit_length() bits short, so
    # m times it is exact and err recovers the rounding of each product
    # m t, which would otherwise cost the weights about n t eps
    split = 2.0 ** n.bit_length() + 1.0
    step = max(1, _BLOCK_BYTES // m.nbytes)
    for lo in range(0, half, step):
        tb = t[lo:lo + step]
        for _ in range(_NEWTON_CAP):
            mt = np.multiply.outer(tb, m)
            cos, sin = np.cos(mt), np.sin(mt)
            hi = split * tb
            hi -= hi - tb
            err = np.multiply.outer(hi, m)
            err -= mt
            err += np.multiply.outer(tb - hi, m)
            p = (cos - err * sin) @ c
            d = -((sin + err * cos) @ cm)
            dt = p / d
            tb -= dt
            if np.max(np.abs(dt)) <= _NEWTON_TOL:
                break
        else:
            raise np.linalg.LinAlgError(
                f"Gauss-Legendre roots of degree {n} did not converge in {_NEWTON_CAP} Newton steps"
            )
        # dP/dt moved to the updated angles to first order in the last
        # step, with P'' = -cot(t) P' - n (n + 1) P from Legendre's equation
        dp[lo:lo + step] = d * (1.0 + dt / np.tan(tb + dt) + n * (n + 1.0) * dt * dt)
    x = np.cos(t)
    if n % 2:  # the middle root, t = pi/2, is x = 0 exactly
        x[-1] = 0.0
    w = 2.0 / dp**2
    # roots 1 ... half run from x near 1 down to x >= 0
    x = np.concatenate([-x, x[::-1][n % 2:]])
    w = np.concatenate([w, w[::-1][n % 2:]])
    w *= 2.0 / w.sum()
    return x, w


def build_grid(spec: BeamSpec, n_theta: int, n_phi: int) -> QuadratureGrid:
    """Rule of n_theta x n_phi directions weighted by the beam density, stored as half.

    Gauss-Legendre nodes cover theta on the full [0, pi]; wide beams put
    real weight in the back hemisphere, so the range is never truncated.
    Each call builds that rule afresh by _gauss_legendre, in O(n_theta^2)
    time and O(n_theta) memory with no eigensolve; nothing is cached
    between calls.
    The phi rule is the uniform periodic grid phi_j = 2 pi j / n_phi with
    equal weights.  It maps onto itself under phi -> -phi, so only
    j = 0 ... n_phi // 2 are stored, n_theta * (n_phi // 2 + 1) nodes; a
    stored node off the mirror plane carries its image's weight too (see
    QuadratureGrid).  Renormalizing the weights to sum one absorbs the
    amplitude normalization constant, which is never needed in closed
    form.
    """
    if n_theta < 2 or n_phi < 2:
        raise ValueError(f"grid needs at least 2 nodes per axis, got {n_theta}x{n_phi}")
    x, gl_w = _gauss_legendre(n_theta)
    thetas = (x + 1.0) * (math.pi / 2.0)
    w_theta = gl_w * (math.pi / 2.0) * angular_weight(thetas, spec)
    j = np.arange(n_phi // 2 + 1)
    phis = j * (2.0 * math.pi / n_phi)
    images = np.where((j == 0) | (2 * j == n_phi), 1.0, 2.0)

    w = np.outer(w_theta / n_phi, images).reshape(-1)
    total = w.sum()
    if not total > 0.0:
        raise ValueError(
            f"every node weight underflowed for sigma_theta={spec.sigma_theta}; "
            "the grid cannot resolve a beam this narrow"
        )
    trig = (
        *(np.repeat(f(thetas), len(phis)) for f in (np.sin, np.cos)),
        *(np.tile(f(phis), n_theta) for f in (np.sin, np.cos)),
    )
    return QuadratureGrid(w / total, np.repeat(thetas, len(phis)), np.tile(phis, n_theta), trig)


def _polar_parts(boosts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split each of (k, 4, 4) transforms as L = R B(xi, m), a rotation after a pure boost.

    cosh xi = L00 and sinh xi m = L0i with xi >= 0, so
    R_ij = L_ij - tanh(xi/2) L_i0 m_j = L_ij - L_i0 L_0j / (1 + L00).
    Returns the (k, 3, 3) rotations R, the (k, 3) unit axes m and the
    (k,) factors exp(-xi) = 1 / (L00 + |L0i|).  A rotation has the axis
    +z and exp(-xi) = 1.
    """
    boost = boosts[:, 0, 1:]
    # hypot keeps a tiny rapidity's axis a unit vector where squares underflow
    sinh = np.hypot(np.hypot(boost[:, 0], boost[:, 1]), boost[:, 2])
    still = sinh == 0.0
    axes = boost / np.where(still, 1.0, sinh)[:, None]
    axes[still, 2] = 1.0
    rot = boosts[:, 1:, 1:] - boosts[:, 1:, :1] * boosts[:, :1, 1:] / (1.0 + boosts[:, :1, :1])
    return rot, axes, 1.0 / (boosts[:, 0, 0] + sinh)


def _frames(axes: np.ndarray) -> np.ndarray:
    """(k, 3, 3) right-handed frames with columns (e1, e2, m), one per unit axis m of (k, 3).

    e1 and e2 are theta-hat and phi-hat at m about +z (_node_angles), so an
    axis m = (sin a, 0, cos a) with sin a >= 0 gets e1 = (cos a, 0, -sin a)
    and e2 = y-hat, and any axis in the x-z plane gets e2 = +-y-hat.
    """
    rho, cb, sb, _ = _node_angles(*axes.T)
    mz = axes[:, 2]
    e1 = np.stack([mz * cb, mz * sb, -rho], axis=-1)
    e2 = np.stack([-sb, cb, np.zeros_like(cb)], axis=-1)
    return np.stack([e1, e2, axes], axis=-1)


def _node_angles(p1, p2, p3):
    """s = sin(theta_m), the azimuth (cos phi, sin phi) and t = tan(theta_m / 2) of directions.

    (p1, p2, p3) are the directions' coordinates in a frame (e1, e2, m).
    A direction on the axis (s = 0) takes phi = 0.  t is s / (1 + p3) in
    front (p3 >= 0) and (1 - p3) / s behind, each free of cancellation,
    with s read as at least _S_FLOOR.
    """
    s = np.hypot(p1, p2)
    on_axis = s == 0.0  # there p1 = p2 = 0
    safe = s + on_axis
    front = p3 >= 0.0
    t = np.where(front, s, 1.0 - p3) / np.where(front, 1.0 + p3, np.maximum(s, _S_FLOOR))
    return s, (p1 + on_axis) / safe, p2 / safe, t


def transport(boosts: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Transport of node vectors by the aberration map, node by node.

    boosts is a (k, 4, 4) stack; vectors is (4, 1 + m, n): per node the
    momentum p, then m transverse vectors (real or complex).  Every boost
    maps every node, or vectors is (k, 4, 1 + m, n) and boost i maps only
    vectors[i].  Each boost is split as L = R B(xi, m) (_polar_parts).  B
    moves p along its great circle through m, tan(theta_m'/2) =
    exp(-xi) tan(theta_m/2), and keeps a vector's components along theta-hat
    and phi-hat about m; R then rotates the result.  Only the direction of
    p enters, and a vector's time part and its part along p (a gauge) drop
    out.  Returns the (k, 3, m, n) spatial parts of the transported
    vectors; their time part is zero.
    """
    rot, axes, shrink = _polar_parts(boosts)
    frames = _frames(axes)
    *lead, _, cols, n = vectors.shape
    spatial = vectors[..., 1:, :, :].reshape(*lead, 3, cols * n)
    f = (np.swapaxes(frames, 1, 2) @ spatial).reshape(len(frames), 3, cols, n)
    p = f[:, :, 0].real
    p = p / np.sqrt(np.einsum("kin,kin->kn", p, p))[:, None]
    s, cphi, sphi, t = (a[:, None] for a in _node_angles(*p.swapaxes(0, 1)))
    p3, (e1, e2, em) = p[:, 2, None], f[:, :, 1:].swapaxes(0, 1)
    tau = shrink[:, None, None] * t
    g = 1.0 / (1.0 + tau * tau)
    c, sn = 2.0 * g - 1.0, 2.0 * tau * g
    # theta-hat = (p3 cos phi, p3 sin phi, -s) and phi-hat = (-sin phi, cos phi, 0);
    # B turns theta-hat into (c cos phi, c sin phi, -sn)
    along = p3 * (cphi * e1 + sphi * e2) - s * em
    across = cphi * e2 - sphi * e1
    out = np.stack([c * cphi * along - sphi * across, c * sphi * along + cphi * across, -sn * along], 1)
    return ((rot @ frames) @ out.reshape(len(out), 3, -1)).reshape(out.shape)


def _axis_rows(stack: TransformStack) -> np.ndarray:
    """Mask of the rows whose factor row is R_y(a) B_z(xi) R_y(-a), then padding."""
    kinds, params = stack.kinds, stack.params
    if kinds.shape[1] < len(_AXIS_BOOST):
        return np.zeros(len(kinds), dtype=bool)
    return (
        (kinds[:, :3] == _AXIS_BOOST).all(axis=1)
        & (kinds[:, 3:] == PAD).all(axis=1)
        & (params[:, 2] == -params[:, 0])
    )


def _boost_parts(stack: TransformStack) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each row of stack as L = R B(xi, m), and a mask of the rows whose R is not read as I.

    A row R_y(a) B_z(xi) R_y(-a) (every sweep.boost_stack and
    sweep.make_boost row) is read from its factor row: R = I,
    m = (sin a, 0, cos a) and exp(-xi) exactly, where reading its matrix
    would cost eps cosh(xi).  Any other row is split from its matrix
    (_polar_parts), and its R is left out of the returned (k, 3, 3)
    rotations where the mask is False.
    """
    k = len(stack)
    rot, axes, shrink = np.empty((k, 3, 3)), np.empty((k, 3)), np.empty(k)
    turned = ~_axis_rows(stack)
    if not turned.all():
        alpha, xi = stack.params[~turned, :2].T
        axes[~turned] = np.stack([np.sin(alpha), np.zeros_like(alpha), np.cos(alpha)], axis=-1)
        shrink[~turned] = np.exp(-xi)
    if turned.any():
        rot[turned], axes[turned], shrink[turned] = _polar_parts(stack.matrices[turned])
    return rot, axes, shrink, turned


def _aberration_table(frame: np.ndarray, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(12, n) node products and (n,) t^2 of stored node vectors about one axis.

    frame is (e1, e2, m) as columns and vectors a (3, 3, n) slice of the
    grid's spatial vectors.  With theta-hat about m, h_t = h . theta-hat
    and v_t = v . theta-hat, the even parity has
    (a, b, C) = (h_t cos phi, -v_t sin phi, h_t) and the odd parity
    (h_t sin phi, v_t cos phi, v_t); the rows are a^2, b^2, ab, C^2, t C a
    and t C b, each for the even then the odd parity.
    """
    f = (frame.T @ vectors.reshape(3, -1)).reshape(3, 3, -1)
    s, cphi, sphi, t = _node_angles(*f[:, 0])
    theta_hat = np.stack([f[2, 0] * cphi, f[2, 0] * sphi, -s])
    big_c = np.einsum("ic,ivc->vc", theta_hat, f[:, 1:])
    trig = np.stack([cphi, sphi])
    a, b = big_c[0] * trig, big_c[1] * trig[::-1]
    b[0] *= -1.0
    tc = t * big_c
    table = np.empty((6, 2, len(t)))
    for row, (x, y) in zip(table, ((a, a), (b, b), (a, b), (big_c, big_c), (tc, a), (tc, b))):
        np.multiply(x, y, out=row)
    return table.reshape(12, -1), t * t


def _aberration_sums(shrink: np.ndarray, frame: np.ndarray, grid: QuadratureGrid) -> np.ndarray:
    """(k, 30) node sums that give the grid's Grams under k boosts B(xi, m) along one axis.

    shrink holds each boost's exp(-xi), and frame is (e1, e2, m) as columns.
    A node keeps its azimuth about m and moves to cos theta' = c = 2 g - 1
    and sin theta' = s' = 2 exp(-xi) t g, with g = 1 / (1 + exp(-2 xi) t^2).
    Its transported h and v vectors in the frame are y = (c a - b,
    a - c b, -s' C) for each parity (_aberration_table): the even one is
    (e1 h, e2 v, m h) and the odd one (e2 h, -e1 v, m v).  The reflection
    y -> -y keeps the even and flips the odd parts, so the rule's Gram has
    no cross terms, and each is a sum over nodes of fixed products
    weighted by 1, g and g^2 (_GAMMA).  The sums are ordered (product,
    parity) as _GRAM_MAP reads them.  Nodes are taken _BLOCK_BYTES of
    (k, nodes) weights at a time, and each block is summed for every boost
    with two matrix products.
    """
    k = len(shrink)
    n0, n1, n2 = np.zeros(12), np.zeros((k, 12)), np.zeros((k, 12))
    scale = shrink * shrink
    step = max(1, _BLOCK_BYTES // (8 * max(k, 12)))
    for lo in range(0, len(grid), step):
        table, t2 = _aberration_table(frame, grid.vectors[1:, :, lo:lo + step])
        g = np.multiply.outer(scale, t2)
        g += 1.0
        np.reciprocal(g, out=g)
        n0 += table.sum(axis=1)
        n1 += g @ table.T
        g *= g
        n2 += g @ table.T
    n1, n2 = n1.reshape(k, 6, 2), n2.reshape(k, 6, 2)
    n1[:, 4:] *= shrink[:, None, None]
    n2[:, 4:] *= shrink[:, None, None]
    one = np.broadcast_to(n0.reshape(6, 2)[:3], (k, 3, 2))
    return np.concatenate([one, n1, n2], axis=1).reshape(k, 30)


def _mirror_gram(boost: np.ndarray, grid: QuadratureGrid) -> np.ndarray:
    """(6, 6) Gram of the grid's whole rule transported node by node by one (4, 4) boost.

    The image of a stored node, transported by L, is the reflection of the
    node transported by P L P, so the rule's Gram is
    1/2 (G(L) + D G(PLP) D), with G the Gram of the transported stored
    vectors and D the reflection on index 2i + a (_IMAGE_SIGNS).
    """
    x = transport(np.stack([boost, boost * _MIRROR_SIGNS]), grid.vectors).reshape(2, 6, -1)
    gram = x @ x.swapaxes(1, 2)
    return 0.5 * (gram[0] + gram[1] * _IMAGE_SIGNS)


def transported_moments(stack: TransformStack, grid: QuadratureGrid) -> np.ndarray:
    """All four moment blocks of the transported h/v vectors, one 6x6 per transform of stack.

    Entry [2i + a, 2j + b] of each block is (M_ab)_ij = sum_n w_n
    x_a(p_n)_i x_b(p_n)_j over the grid's whole rule, for spatial
    components i, j in (x, y, z) and basis labels a, b in (h, v) = (0, 1).
    The weights enter as sqrt(w) on both factors (see _node_vectors).

    Each row is L = R B(xi, m) (_boost_parts), and its block is
    (R (x) I2) G(B) (R (x) I2)^T.  Boosts along one axis in the x-z plane
    (a rotation is one with xi = 0 along +z) share one pass over the nodes
    (_aberration_sums); a boost along any other axis does not commute with
    the reflection and is transported node by node (_mirror_gram).
    """
    rot, axes, shrink, turned = _boost_parts(stack)
    out = np.empty((len(stack), 6, 6))
    in_plane = axes[:, 1] == 0.0
    pending = in_plane.copy()
    while pending.any():
        m = axes[np.argmax(pending)]
        rows = pending & (axes == m).all(axis=1)
        pending &= ~rows
        frame = _frames(m[None])[0]
        basis = np.zeros((6, 6))
        basis[::2, ::2] = basis[1::2, 1::2] = frame
        basis = basis @ _PARITY_BASIS
        # the Kronecker product basis (x) basis, acting on flattened 6x6 Grams
        gram_map = _GRAM_MAP @ np.multiply.outer(basis, basis).transpose(1, 3, 0, 2).reshape(36, 36)
        out[rows] = (_aberration_sums(shrink[rows], frame, grid) @ gram_map).reshape(-1, 6, 6)
    for i in np.flatnonzero(~in_plane):
        out[i] = _mirror_gram(stack.matrices[i], grid)
    turned &= in_plane
    if turned.any():
        r = np.zeros((np.count_nonzero(turned), 6, 6))
        r[:, ::2, ::2] = r[:, 1::2, 1::2] = rot[turned]
        out[turned] = r @ out[turned] @ np.swapaxes(r, 1, 2)
    return out


def _assemble(moments: np.ndarray) -> np.ndarray:
    """Unnormalized (k, 9, 9) states 1/2 sum_ab s_a s_b M_ab (x) M_ab.

    One broadcast product makes the four terms, one per (a, b).  Entry
    ((i, k), (j, l)) of a term is the product of (M_ab)_ij and (M_ab)_kl,
    and the terms are summed in one order for every entry, so exchanging
    the photons maps each entry onto an exactly equal one:
    SWAP rho SWAP = rho holds to the last bit.
    """
    k = len(moments)
    m = moments.reshape(k, 3, 2, 3, 2).transpose(2, 4, 0, 1, 3).reshape(4, k, 3, 3)
    terms = (_HALF_PAIR_SIGNS * m)[:, :, :, None, :, None] * m[:, :, None, :, None, :]
    return np.add.reduce(terms, axis=0).reshape(k, 9, 9)


def _guarded_states(
    raw: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Trace-normalize a (k, 9, 9) stack in place after the trace and PSD guards.

    Both guards read the exchange blocks of the states
    (entanglement.exchange_blocks): the trace is the sum of the block
    traces, and the smallest eigenvalue is the least over both blocks'
    spectra.  Returns the states, their smallest eigenvalues, their trace
    gaps |tr - 1| before normalization and the (k, 9) spectra of their
    partial transposes: the six eigenvalues of the symmetric block, then
    the three of the antisymmetric one, each ascending.  Raises
    numpy.linalg.LinAlgError if a gap exceeds _TRACE_TOL or an eigenvalue
    lies below _MIN_EIG_TOL: either is an internal error.
    """
    sym, anti = entanglement.exchange_blocks(raw)
    tr = np.trace(sym[:, 0], axis1=1, axis2=2) + np.trace(anti[:, 0], axis1=1, axis2=2)
    gap = np.abs(tr - 1.0)
    ok = gap <= _TRACE_TOL  # NaN fails too
    if not ok.all():
        raise np.linalg.LinAlgError(
            f"density matrix trace {float(tr[~ok][0])!r} before normalization is not 1; "
            "this indicates an internal error"
        )
    raw /= tr[:, None, None]
    spectra = np.concatenate(
        [entanglement.hermitian_eigenvalues(sym), entanglement.hermitian_eigenvalues(anti)], axis=-1
    ) / tr[:, None, None]
    min_eig = spectra[:, 0].min(axis=1)
    if not np.all(min_eig >= _MIN_EIG_TOL):
        raise np.linalg.LinAlgError(
            f"density matrix is not positive semidefinite (min eigenvalue "
            f"{float(np.min(min_eig)):.3e}); this indicates an internal error"
        )
    return raw, min_eig, gap, spectra[:, 1]


def density_states(
    stack: TransformStack, grid: QuadratureGrid
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Boosted reduced states for a stack of k boosts, with their guard readings and spectra.

    Assembles rho = 1/2 sum_ab s_a s_b M_ab (x) M_ab with s_h = +1 and
    s_v = -1, which equals the direct double sum of pair projectors over
    the grid's whole rule, then trace-normalizes to absorb rounding.  Returns real
    (k, 9, 9) states, the (k,) smallest eigenvalue of each, the (k,)
    trace gap |tr - 1| of each before normalization and the (k, 9)
    spectra of their partial transposes, which the log negativity reads
    (entanglement.log_negativity_from_spectrum); no 9x9 matrix is solved.
    """
    return _guarded_states(_assemble(transported_moments(stack, grid)))


def reduced_density(L: TransformStack, grid: QuadratureGrid, spec: BeamSpec) -> np.ndarray:
    """Boosted reduced polarization density matrix of the photon pair, read-only (9, 9).

    The k = 1 case of density_states: L is a one-transform stack.  spec is
    the beam the grid was built for; the grid's weights already carry it,
    so only the grid enters the state.
    """
    if len(L) != 1:
        raise ValueError(f"expected a one-transform stack, got {len(L)} transforms")
    rho = density_states(L, grid)[0][0]
    rho.flags.writeable = False
    return rho
