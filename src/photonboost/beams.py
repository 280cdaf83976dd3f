"""Gaussian-spread photon beams: their quadrature grids, transport and moments.

The two beams share one angular amplitude: a Gaussian in the polar angle
theta on a fixed momentum-magnitude shell (the magnitude is integrated out
analytically because it cancels from every transported quantity).  A
quadrature rule discretizes the remaining direction integral with
Gauss-Legendre nodes in theta on [0, pi] and a uniform periodic rule in
phi; the squared amplitude, the sphere Jacobian sin(theta) and the overall
normalization are all folded into the theta weights, and each rule's
weights sum to one.  The Gauss-Legendre rule is built for each grid by
Newton's method on the Fourier series of P_n (_gauss_legendre): O(n^2)
time and O(n) memory, with no eigensolve and no cache.

The beam is symmetric under the reflection y -> -y, which maps the node
(theta, phi) to (theta, -phi), and the phi rule maps onto itself under
it.  So a grid stores only the nodes with phi in [0, pi]; each stored
node stands for itself and its image at half its weight apiece (a node
on the mirror plane is its own image).  Every boost of a sweep has its
axis in the x-z plane and commutes with the reflection, so the image
nodes cost no transport: their moments are the stored nodes' moments
with signs flipped (see transported_moments).

A transform is split as L = R B(xi, m), a rotation after a pure boost
along the unit axis m.  B moves each direction along its great circle
through m, tan(theta_m'/2) = exp(-xi) tan(theta_m/2), the aberration map
(Penrose 1959), and keeps a polarization's components along theta-hat
and phi-hat about m.  transport applies that map node by node; the
rotation form (wigner.d_rotation_form_stack, through the Wigner angle)
and, in the tests, the gauge form L e - ((L e)^0 / (L p)^0) L p, whose
rounding grows like eps exp(|xi|), are the independent oracles it is
tested against.  The pair state's double direction integral factorizes
through 3x3 moment matrices M_ab = sum_i w_i x_a(p_i) x_b(p_i)^T of the
transported h/v vectors (entanglement turns them into states), so the
cost is linear, not quadratic, in the node count.  Along one axis in the
x-z plane, every node's moments are fixed products weighted by 1, g and
g^2 with g = 1 / (1 + exp(-2 xi) t^2), t = tan(theta_m/2), so
transported_moments sums each node once per axis and gets every row of
a block from two matrix products over the nodes (_aberration_sums).
The grid keeps no array per node: it is the product of a theta rule and
a rule over the stored phis, and one pass (_node_blocks) builds each
block's momenta and weighted h/v vectors from trigonometric factors the
grid keeps once per theta and once per phi, so no array of the grid's
node vectors is ever whole.

density_states, for reduced_density, validate and the tests, reads the
states of those moments through entanglement's state stage.  It and
transported_moments take a lorentz.TransformStack of k boosts, whose
constructor has guarded them, and evaluate all k at once; a single
transform is the k = 1 case.  Sweeps pass ROWS_PER_BLOCK boosts at a
time, a count derived from the bytes a row keeps through the state
stage.  transport takes raw (k, 4, 4) matrices.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import entanglement
from .lorentz import BOOST_Z, PAD, ROT_Y, TransformStack

# bytes of one working array: _mirror_gram's transported vectors, taken a
# block of nodes at a time (_node_blocks), so none grows with the grid.
# glibc maps an array of 128 KiB or more afresh on every allocation, and
# each of its pages faults on first touch, where a smaller one reuses
# heap pages; so _gauss_legendre's (roots x series terms) cosines and
# sines take a quarter of it each, and _aberration_sums' (12, nodes)
# products at most half of it
_BLOCK_BYTES = 1 << 18

# boosts whose weights _aberration_sums forms at a time over a block of
# nodes: their buffer takes 683 KiB at 64
_SUM_ROWS = 64

# stored nodes per block of _aberration_sums, whatever the number of
# boosts, so that a row's node sums are added in the same blocks alone as
# in a sweep; its (12, nodes) products take at most half of _BLOCK_BYTES
_SUM_NODES = _BLOCK_BYTES // (2 * 8 * 12)

# Newton steps allowed per Legendre root; from Tricomi's angles the
# iteration in t converges cubically and stops after one to three (at
# n = 384, 192 roots take 310 steps in all)
_NEWTON_CAP = 10

# a root has converged once its Newton step moves its angle by no more
_NEWTON_TOL = 1e-12

# the reflection y -> -y on 4-vectors, P = diag(1, 1, -1, 1); conjugating
# a boost by it, P L P, flips the signs of these entries
_MIRROR_SIGNS = np.outer([1.0, 1.0, -1.0, 1.0], [1.0, 1.0, -1.0, 1.0])

# the image of a node has h' = P h and v' = -P v, so on index 2i + a of a
# moment block the reflection acts as D = diag(1, -1, -1, 1, 1, -1): the
# spatial sign (1, -1, 1) of i times +1 for h and -1 for v; D G D flips these
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

# floats a row keeps through the state stage (entanglement.state_readings):
# its 36 moments in and its 90 block entries out; the stage's short-lived
# copies take its peak to about twice that, 0.5 MB at ROWS_PER_BLOCK rows
_STATE_ROW_FLOATS = 36 + 90

# rows whose states are built and solved together (sweep._evaluate): what
# they keep fills _BLOCK_BYTES, and the stage's fixed cost per call is
# shared by that many rows
ROWS_PER_BLOCK = _BLOCK_BYTES // (8 * _STATE_ROW_FLOATS)

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


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """The product of a theta rule and a rule over the stored phis, each with weights summing to one.

    Stored node i is (thetas[i // columns], phis[i % columns]), with
    weight theta_weights[i // columns] * phi_weights[i % columns], so the
    stored weights sum to one.  The rule is the stored nodes plus their
    images (theta, -phi), each image taking half the stored weight and
    the node keeping the other half.  A node on the mirror plane
    (phi = 0 or pi) is its own image, so it counts once at its weight.

    Weights are nonnegative rather than strictly positive: for narrow
    beams the Gaussian factor underflows to an exact zero on most of the
    sphere, and those nodes simply contribute nothing.  Beside the two
    1-d rules, which it copies and makes read-only, the grid keeps only
    ``row_factors``, (10, rows) functions of each row's theta, and
    ``column_factors``, (9, columns) functions of each phi, those of h
    and v scaled by the square root of their rule's weight: entry (i, a)
    of a node's spatial (p, sqrt(w) h, sqrt(w) v), flattened to 3 i + a,
    is the product of row and column factor 3 i + a, plus
    sqrt(w) sin^2 phi for h_x and sqrt(w) cos^2 phi for v_y, whose theta
    part is row factor 9 (_node_vectors builds blocks of nodes from them).
    With t = theta and f = phi,
    p = (sin t cos f, sin t sin f, cos t),
    h = (cos t cos^2 f + sin^2 f, (cos t - 1) sin f cos f, -sin t cos f),
    v = ((cos t - 1) sin f cos f, cos t sin^2 f + cos^2 f, -sin t sin f).
    """

    thetas: np.ndarray = field(repr=False)
    theta_weights: np.ndarray
    phis: np.ndarray = field(repr=False)
    phi_weights: np.ndarray
    row_factors: np.ndarray = field(init=False, repr=False)
    column_factors: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for name in ("thetas", "theta_weights", "phis", "phi_weights"):
            # a copy: the grid neither freezes the caller's array nor follows it
            a = np.array(getattr(self, name), dtype=float)
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        for axis, nodes, w in (
            ("theta", self.thetas, self.theta_weights), ("phi", self.phis, self.phi_weights)
        ):
            if nodes.ndim != 1 or w.shape != nodes.shape:
                raise ValueError(f"{axis} nodes and weights must be 1-d arrays of one length")
            if np.any(w < 0.0) or not np.any(w > 0.0):
                raise ValueError(f"{axis} weights must be nonnegative with positive total")
            if abs(w.sum() - 1.0) > 1e-12:
                raise ValueError(f"{axis} weights must sum to 1, got {w.sum()!r}")
        st, ct = np.sin(self.thetas), np.cos(self.thetas)
        sp, cp = np.sin(self.phis), np.cos(self.phis)
        cc, sc, ss = cp * cp, sp * cp, sp * sp
        rw, cw = np.sqrt(self.theta_weights), np.sqrt(self.phi_weights)
        rct, rst, rct1, csc = rw * ct, rw * st, rw * (ct - 1.0), cw * sc
        for name, factors in (
            ("row_factors", [st, rct, rct1, st, rct1, rct, ct, -rst, -rst, rw]),
            ("column_factors", [cp, cw * cc, csc, sp, csc, cw * ss, np.ones_like(cp), cw * cp, cw * sp]),
        ):
            factors = np.stack(factors)
            factors.flags.writeable = False
            object.__setattr__(self, name, factors)

    def __len__(self) -> int:
        return len(self.thetas) * len(self.phis)


def _node_vectors(grid: QuadratureGrid, lo: int, hi: int) -> np.ndarray:
    """(3, 3, m) spatial parts of stored nodes lo ... hi - 1: unit momentum, sqrt(w) h, sqrt(w) v.

    h = R(p)(cos phi, -sin phi, 0) and v = R(p)(sin phi, cos phi, 0)
    with R(p) = R_z(phi) R_y(theta), written out; all three have zero
    time part (the momentum's is 1).  The whole theta rows that hold the
    nodes are one broadcast product of the grid's row and column
    factors (QuadratureGrid), cut to the nodes asked for.
    """
    hi = min(hi, len(grid))
    cols = len(grid.phis)
    first, last = lo // cols, -(-hi // cols)
    rows = grid.row_factors[:9, first:last, None] * grid.column_factors[:, None]
    root = grid.row_factors[9, first:last, None]
    rows[1] += root * grid.column_factors[5]
    rows[5] += root * grid.column_factors[1]
    return rows.reshape(3, 3, -1)[:, :, lo - first * cols:hi - first * cols]


def _node_blocks(grid: QuadratureGrid, step: int):
    """The pass over the grid: _node_vectors of each block of step stored nodes, in order."""
    for lo in range(0, len(grid), step):
        yield _node_vectors(grid, lo, lo + step)


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes on [-1, 1], ascending, and their weights, in O(n^2) time.

    Newton's method in t runs on the Fourier series
    P_n(cos t) = sum_k a_k a_(n-k) cos((n - 2k) t), a_k = (2k)! / (2^(2k) k!^2)
    (Swarztrauber, SIAM J. Sci. Comput. 24 (2002) 945; Hale & Townsend,
    SIAM J. Sci. Comput. 35 (2013) A652), from Tricomi's asymptotic angles.
    Only the ceil(n/2) roots with x = cos t >= 0 are solved; the others
    are their mirror images.  Each root leaves the iteration once its own
    step is within _NEWTON_TOL, so later steps sum the series only for
    the roots still moving.  A root's weight is 2 / (dP_n(cos t)/dt)^2,
    and the weights are scaled to sum 2, which absorbs the rounding of
    the a_k.  The series is summed for a block of roots at a time, in two
    working arrays allocated once per call, each of at most a quarter of
    _BLOCK_BYTES or, from n = 16382 on, of one root's series, so memory
    is O(n); there is no eigensolve.  Raises numpy.linalg.LinAlgError if a root has not
    converged within _NEWTON_CAP steps.
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
    # Veltkamp's split leaves t's high part hi n.bit_length() bits short,
    # so m hi is exact: the series is summed at hi and carried to t by its
    # Taylor terms in lo = t - hi to second order.  |lo n| < 2^(2 s - 53)
    # with s = n.bit_length(), so the third-order term stays below
    # rounding for every n < 2^17.  Summing at a rounded m t would cost
    # the weights about n t eps
    split = 2.0 ** n.bit_length() + 1.0
    # columns summing P and d^2P/dt^2 over the cosines, dP/dt and d^3P/dt^3
    # over the sines
    even, odd = np.stack([c, -cm * m], axis=1), np.stack([-cm, cm * m * m], axis=1)
    step = max(1, _BLOCK_BYTES // (4 * m.nbytes))
    cos_, sin_ = (np.empty((min(step, half), len(m))) for _ in range(2))
    todo = np.arange(half)
    for _ in range(_NEWTON_CAP):
        hi = split * t[todo]
        hi -= hi - t[todo]
        sums = np.empty((len(todo), 4))
        for i in range(0, len(todo), step):
            block = hi[i:i + step]
            cos, sin = cos_[:len(block)], sin_[:len(block)]
            # a product with one inner term is exact and needs no buffer
            np.matmul(block[:, None], m[None], out=sin)
            np.cos(sin, out=cos)
            np.sin(sin, out=sin)
            np.matmul(cos, even, out=sums[i:i + step, :2])
            np.matmul(sin, odd, out=sums[i:i + step, 2:])
        p, d2, d, d3 = sums.T
        lo = t[todo] - hi
        p += lo * (d + 0.5 * lo * d2)
        d += lo * (d2 + 0.5 * lo * d3)
        dt = p / d
        t[todo] -= dt
        # dP/dt moved to the updated angles to first order in the last
        # step, with P'' = -cot(t) P' - n (n + 1) P from Legendre's equation
        dp[todo] = d * (1.0 + dt / np.tan(t[todo] + dt) + n * (n + 1.0) * dt * dt)
        # a root leaves once its own step is within _NEWTON_TOL; NaN stays
        todo = todo[~(np.abs(dt) <= _NEWTON_TOL)]
        if not len(todo):
            break
    else:
        raise np.linalg.LinAlgError(
            f"Gauss-Legendre roots of degree {n} did not converge in {_NEWTON_CAP} Newton steps"
        )
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
    between calls.  Its weights times the beam density, renormalized to
    sum one, are the theta rule; renormalizing absorbs the amplitude
    normalization constant, which is never needed in closed form.
    The phi rule is the uniform periodic grid phi_j = 2 pi j / n_phi with
    equal weights.  It maps onto itself under phi -> -phi, so only
    j = 0 ... n_phi // 2 are stored, n_theta * (n_phi // 2 + 1) nodes; a
    stored phi off the mirror plane carries its image's weight too (see
    QuadratureGrid).  The grid is the product of the two 1-d rules and
    keeps O(n_theta + n_phi) floats; no per-node array is built here.
    """
    if n_theta < 2 or n_phi < 2:
        raise ValueError(f"grid needs at least 2 nodes per axis, got {n_theta}x{n_phi}")
    x, gl_w = _gauss_legendre(n_theta)
    thetas = (x + 1.0) * (math.pi / 2.0)
    w_theta = gl_w * angular_weight(thetas, spec)
    total = w_theta.sum()
    if not total > 0.0:
        raise ValueError(
            f"every node weight underflowed for sigma_theta={spec.sigma_theta}; "
            "the grid cannot resolve a beam this narrow"
        )
    j = np.arange(n_phi // 2 + 1)
    images = np.where((j == 0) | (2 * j == n_phi), 1.0, 2.0)
    return QuadratureGrid(thetas, w_theta / total, j * (2.0 * math.pi / n_phi), images / n_phi)


def _polar_parts(boosts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split each of (k, 4, 4) transforms as L = R B(xi, m), a rotation after a pure boost.

    cosh xi = L00 and sinh xi m = L0i with xi >= 0, so
    R_ij = L_ij - tanh(xi/2) L_i0 m_j = L_ij - L_i0 L_0j / (1 + L00).
    Returns the (k, 3, 3) rotations R, the (k, 3) unit axes m and the
    (k,) factors exp(-xi) = 1 / (L00 + |L0i|).  A rotation has the axis
    +z and exp(-xi) = 1, and so does a boost whose exp(-xi) rounds to 1:
    its aberration map is the identity along any axis, and a subnormal
    sinh(xi) m has lost the direction of m.
    """
    boost = boosts[:, 0, 1:]
    # hypot keeps a tiny rapidity's axis a unit vector where squares underflow
    sinh = np.hypot(np.hypot(boost[:, 0], boost[:, 1]), boost[:, 2])
    shrink = 1.0 / (boosts[:, 0, 0] + sinh)
    still = (sinh == 0.0) | (shrink == 1.0)
    axes = boost / np.where(still, 1.0, sinh)[:, None]
    axes[still] = 0.0, 0.0, 1.0
    rot = boosts[:, 1:, 1:] - boosts[:, 1:, :1] * boosts[:, :1, 1:] / (1.0 + boosts[:, :1, :1])
    return rot, axes, shrink


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
    momentum p, then m transverse vectors (real or complex), or only
    their (3, 1 + m, n) spatial parts.  Every boost maps every node, or
    vectors has a leading axis of k and boost i maps only vectors[i].
    Each boost is split as L = R B(xi, m) (_polar_parts).  B moves p
    along its great circle through m, tan(theta_m'/2) =
    exp(-xi) tan(theta_m/2), and keeps a vector's components along theta-hat
    and phi-hat about m; R then rotates the result.  Only the direction of
    p enters, and a vector's time part and its part along p (a gauge) drop
    out.  Returns the (k, 3, m, n) spatial parts of the transported
    vectors; their time part is zero.
    """
    rot, axes, shrink = _polar_parts(boosts)
    frames = _frames(axes)
    *lead, _, cols, n = vectors.shape
    spatial = vectors[..., -3:, :, :].reshape(*lead, 3, cols * n)
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

    frame is (e1, e2, m) as columns and vectors a (3, 3, n) block of the
    grid's spatial node vectors (_node_vectors).  With theta-hat about m,
    h_t = h . theta-hat and v_t = v . theta-hat, the even parity has
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
    parity) as _GRAM_MAP reads them.  Nodes are taken _SUM_NODES at a
    time, and each block is summed for every _SUM_ROWS boosts with two
    matrix products (entanglement.rows_product).
    """
    k = len(shrink)
    n0, n1, n2 = np.zeros(12), np.zeros((k, 12)), np.zeros((k, 12))
    scale = shrink * shrink
    unit = entanglement.PRODUCT_ROWS
    rows = min(_SUM_ROWS, -(-k // unit) * unit)
    # one buffer holds every block's weights: a fresh (rows, nodes) array
    # per block can be mapped and unmapped by the allocator each time,
    # which cost fig2 and fig3 up to 8% of their time.  Its rows past the
    # last boost pad the last part to whole products of unit rows
    buf = np.zeros(rows * min(_SUM_NODES, len(grid)))
    for vectors in _node_blocks(grid, _SUM_NODES):
        table, t2 = _aberration_table(frame, vectors)
        n0 += table.sum(axis=1)
        weights = buf[:rows * len(t2)].reshape(rows, -1)
        for lo in range(0, k, rows):
            part = scale[lo:lo + rows]
            padded = weights[:-(-len(part) // unit) * unit]
            g = np.multiply.outer(part, t2, out=padded[:len(part)])
            g += 1.0
            np.reciprocal(g, out=g)
            n1[lo:lo + rows] += entanglement.rows_product(padded, table.T)[:len(part)]
            g *= g
            n2[lo:lo + rows] += entanglement.rows_product(padded, table.T)[:len(part)]
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
    vectors and D the reflection on index 2i + a (_IMAGE_SIGNS).  Nodes
    are transported _BLOCK_BYTES of (2, 3, 3, nodes) vectors at a time.
    """
    pair = np.stack([boost, boost * _MIRROR_SIGNS])
    gram = np.zeros((2, 6, 6))
    for vectors in _node_blocks(grid, max(1, _BLOCK_BYTES // (8 * 18))):
        x = transport(pair, vectors).reshape(2, 6, -1)
        gram += x @ x.swapaxes(1, 2)
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
        sums = _aberration_sums(shrink[rows], frame, grid)
        out[rows] = entanglement.rows_product(sums, gram_map).reshape(-1, 6, 6)
    for i in np.flatnonzero(~in_plane):
        out[i] = _mirror_gram(stack.matrices[i], grid)
    turned &= in_plane
    if turned.any():
        r = np.zeros((np.count_nonzero(turned), 6, 6))
        r[:, ::2, ::2] = r[:, 1::2, 1::2] = rot[turned]
        out[turned] = r @ out[turned] @ np.swapaxes(r, 1, 2)
    return out


def density_states(
    stack: TransformStack, grid: QuadratureGrid
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The real (k, 9, 9) unit-trace states of a stack of k boosts, then their readings.

    The readings are entanglement.state_readings' smallest eigenvalues,
    trace gaps and partial-transpose spectra of the moments
    (transported_moments), as on the sweep path, so no 9x9 matrix is
    solved.  The states are assembled from the same moments
    (entanglement.pair_states) and divided by the same traces, for the
    callers that read a 9x9 state: reduced_density, validate and the
    tests.
    """
    moments = transported_moments(stack, grid)
    tr, min_eig, gap, spectra = entanglement.state_readings(moments)
    states = entanglement.pair_states(moments)
    states /= tr[:, None, None]
    return states, min_eig, gap, spectra


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
