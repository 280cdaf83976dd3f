"""Gaussian-spread photon beams: their quadrature grids, transport and moments.

The two beams share one angular amplitude: a Gaussian in the polar angle
theta on a fixed momentum-magnitude shell (the magnitude is integrated out
analytically because it cancels from every transported quantity).  A
quadrature rule discretizes the remaining direction integral with
Gauss-Legendre nodes in theta on [0, pi] and a uniform periodic rule in
phi; the squared amplitude, the sphere Jacobian sin(theta) and the overall
normalization are all folded into the theta weights, and each rule's
weights sum to one.  The Gauss-Legendre rule is built for each grid by
Newton's method on the Fourier series of P_n (_gauss_legendre): O(n^1.5)
cosines and sines, O(n^2) multiply-adds in one matrix product per block
of roots and O(n) memory, with no eigensolve and no cache.

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
Those products are built in closed form from five projections of each
node: p . e1, p . e2 and p . m in the axis frame (e1, e2, m), and
m . (sqrt(w) h) and m . (sqrt(w) v).  Each is a sum of a few products of
a per-theta and a per-phi factor, so a block of nodes takes one small
matrix product and no node vector (_aberration_tables).  The terms that
vanish at +-m are formed from half angles about the axis, so a node
keeps its digits relative to its distance from the axis however near it
lies, and a node on the axis takes phi = 0.  The grid keeps no array per
node and no derived table: it is the product of a theta rule and a rule
over the stored phis and keeps only those, so every pass forms the
trigonometric factors it reads from the two rules.  Boosts off the x-z
plane are transported node by node (_mirror_gram), a block of momenta
and weighted h/v vectors at a time (_node_blocks), so no array of the
grid's node vectors is ever whole.

density_states, for reduced_density, validate and the tests, reads the
states of those moments through entanglement's state stage.  It and
transported_moments take a lorentz.TransformStack of k boosts, whose
constructor has guarded them, and evaluate all k at once; a single
transform is the k = 1 case.  Sweeps build no stack: a curve's one axis
and its rows' exp(-xi) go straight to in_plane_moments, ROWS_PER_BLOCK
rows at a time, a count derived from the bytes a row keeps through the
state stage.  transport takes raw (k, 4, 4) matrices.
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
# heap pages; so each of _gauss_legendre's working arrays for a block of
# roots takes at most a quarter of it, and _aberration_sums' (12, nodes)
# products at most half of it
_BLOCK_BYTES = 1 << 18

# boosts whose weights _aberration_sums forms at a time over a block of
# nodes: their buffer takes 683 KiB at 64
_SUM_ROWS = 64

# at most this many stored nodes per block of _aberration_tables: whole
# theta rows, or parts of one row where a row holds more.  The edges
# depend only on the grid, whatever the number of boosts, so that a row's
# node sums are added in the same blocks alone as in a sweep; the block's
# (12, nodes) products take at most half of _BLOCK_BYTES
_SUM_NODES = _BLOCK_BYTES // (2 * 8 * 12)

# Newton steps allowed per Legendre root; from Tricomi's angles the
# iteration in t converges cubically and stops after one to three (at
# n = 384, 192 roots take 310 steps in all)
_NEWTON_CAP = 10

# a root has converged once its Newton step moves its angle by no more
_NEWTON_TOL = 1e-12

# _gauss_legendre's series at a root from its sums z[s, f, u] over the
# split frequencies, with s and u the cosine (0) or sine (1) of the two
# angles C and A: P and d^2P/dt^2 (f = 0, 2) are z[0, f, 0] + z[1, f, 1],
# from cos(A - C), and dP/dt and d^3P/dt^3 (f = 1, 3) z[0, f, 1] - z[1, f, 0],
# from sin(A - C)
_SPLIT_TERMS = np.zeros((2, 4, 2, 4))
for _f in range(4):
    _SPLIT_TERMS[0, _f, _f % 2, _f] = 1.0
    _SPLIT_TERMS[1, _f, 1 - _f % 2, _f] = 1.0 - 2.0 * (_f % 2)
_SPLIT_TERMS = _SPLIT_TERMS.reshape(16, 4)
del _f

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

# pi - math.pi, so that pi - x - y is formed to rounding relative to itself
# where a node and a boost axis lie nearly opposite (_theta_factors)
_PI_LO = 1.2246467991473532e-16


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

    Polar angles lie in [0, pi], as the in-plane sums read them
    (_theta_factors).  Weights are nonnegative rather than strictly
    positive: for narrow beams the Gaussian factor underflows to an exact
    zero on most of the sphere, and those nodes simply contribute
    nothing.  The grid keeps only the two 1-d rules, as read-only
    copies; whoever reads a node's trigonometric factors forms them from
    the rules (_node_vectors, _theta_factors, _phi_factors).
    """

    thetas: np.ndarray = field(repr=False)
    theta_weights: np.ndarray
    phis: np.ndarray = field(repr=False)
    phi_weights: np.ndarray

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
        if not np.all((self.thetas >= 0.0) & (self.thetas <= math.pi)):
            raise ValueError("theta nodes must lie in [0, pi]")

    def __len__(self) -> int:
        return len(self.thetas) * len(self.phis)


def _node_vectors(grid: QuadratureGrid, lo: int, hi: int) -> np.ndarray:
    """(3, 3, m) spatial parts of stored nodes lo ... hi - 1: unit momentum, sqrt(w) h, sqrt(w) v.

    h = R(p)(cos phi, -sin phi, 0) and v = R(p)(sin phi, cos phi, 0)
    with R(p) = R_z(phi) R_y(theta), written out; all three have zero
    time part (the momentum's is 1).  With t = theta and f = phi,
    p = (sin t cos f, sin t sin f, cos t),
    h = (cos t cos^2 f + sin^2 f, (cos t - 1) sin f cos f, -sin t cos f),
    v = ((cos t - 1) sin f cos f, cos t sin^2 f + cos^2 f, -sin t sin f),
    the weight's square root split between the two rules.  Entry 3 i + a
    of the whole theta rows that hold the nodes is the product of a
    factor per theta and one per phi, plus a second such product for h_x
    and v_y; they are formed from the rules, multiplied in one broadcast
    product and cut to the nodes asked for.
    """
    hi = min(hi, len(grid))
    cols = len(grid.phis)
    first, last = lo // cols, -(-hi // cols)
    th = grid.thetas[first:last]
    st, ct = np.sin(th), np.cos(th)
    sp, cp = np.sin(grid.phis), np.cos(grid.phis)
    rw, cw = np.sqrt(grid.theta_weights[first:last]), np.sqrt(grid.phi_weights)
    rct, rst, rct1, csc = rw * ct, rw * st, rw * (ct - 1.0), cw * (sp * cp)
    hx, vy = cw * (cp * cp), cw * (sp * sp)
    rows = np.stack([st, rct, rct1, st, rct1, rct, ct, -rst, -rst])[:, :, None] * np.stack(
        [cp, hx, csc, sp, csc, vy, np.ones_like(cp), cw * cp, cw * sp]
    )[:, None]
    rows[1] += rw[:, None] * vy
    rows[5] += rw[:, None] * hx
    return rows.reshape(3, 3, -1)[:, :, lo - first * cols:hi - first * cols]


def _node_blocks(grid: QuadratureGrid, step: int):
    """The pass over the grid: _node_vectors of each block of step stored nodes, in order."""
    for lo in range(0, len(grid), step):
        yield _node_vectors(grid, lo, lo + step)


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes on [-1, 1], ascending, and their weights, from O(n^1.5) cosines.

    Newton's method in t runs on the Fourier series
    P_n(cos t) = sum_k a_k a_(n-k) cos((n - 2k) t), a_k = (2k)! / (2^(2k) k!^2)
    (Swarztrauber, SIAM J. Sci. Comput. 24 (2002) 945; Hale & Townsend,
    SIAM J. Sci. Comput. 35 (2013) A652), from Tricomi's asymptotic angles.
    Only the ceil(n/2) roots with x = cos t >= 0 are solved; the others
    are their mirror images.  Each root leaves the iteration once its own
    step is within _NEWTON_TOL, so later steps sum the series only for
    the roots still moving.  A root's weight is 2 / (dP_n(cos t)/dt)^2,
    and the weights are scaled to sum 2, which absorbs the rounding of
    the a_k.

    Each of the J = n // 2 + 1 frequencies is split in two, m = A - C,
    over nq + nb ~ 2 sqrt(J) angles A and C, so a Newton step takes
    O(sqrt(n)) cosines and sines per root, O(n^1.5) in all.  The series
    is then one matrix product of the (cos, sin) of each root's C angles
    with a fixed (4 nq, nb) coefficient matrix, O(n^2) multiply-adds in
    all, and a sum over the A angles.  It is formed for a block of roots
    at a time, in working arrays of at most a quarter of _BLOCK_BYTES for
    every n below 2^21, so memory is O(n); there is no eigensolve.  Raises
    numpy.linalg.LinAlgError if a root has not converged within
    _NEWTON_CAP steps.
    """
    n = operator.index(n)
    half = (n + 1) // 2
    a = np.cumprod(np.concatenate(([1.0], np.arange(0.5, n) / np.arange(1.0, n + 1.0))))
    # the series' terms k and n - k are equal, so it runs over the
    # frequencies m = n, n - 2, ... down to 1 or 0, the nonzero ones twice
    m = np.arange(n, -1, -2.0)
    c = a[:len(m)] * a[::-1][:len(m)]
    c[:half] *= 2.0
    cm = c * m
    # frequency j = nb q + r is m_j = A_q - C_r with A_q = n - 2 nb q and
    # C_r = 2 r, so cos(m_j t) = cos(A_q t) cos(C_r t) + sin(A_q t) sin(C_r t)
    # and sin(m_j t) = sin(A_q t) cos(C_r t) - cos(A_q t) sin(C_r t).  Row
    # nq f + q of coef holds the coefficients over r of P, dP/dt, d^2P/dt^2
    # and d^3P/dt^3 (f = 0 ... 3) at A_q, zero past the last frequency
    nb = math.isqrt(len(m))
    nq = -(-len(m) // nb)
    coef = np.zeros((4, nq * nb))
    coef[:, :len(m)] = c, -cm, -cm * m, cm * m * m
    coef = coef.reshape(4 * nq, nb)
    freqs = np.concatenate((m[::nb], n - m[:nb]))[:, None]
    phi = (4.0 * np.arange(1.0, half + 1.0) - 1.0) * (math.pi / (4.0 * n + 2.0))
    t = np.arccos((1.0 - (n - 1.0) / (8.0 * n**3)) * np.cos(phi))
    # each root's dP/dt and Newton step from the last step it took
    d_last, dt_last = np.empty(half), np.empty(half)
    # Veltkamp's split leaves t's high part hi n.bit_length() bits short,
    # so A hi and C hi, both at most n in size, are exact: the series is
    # summed at hi and carried to t by its Taylor terms in lo = t - hi to
    # second order.  |lo n| < 2^(2 s - 53) with s = n.bit_length(), so the
    # third-order term stays below rounding for every n < 2^17.  Summing
    # at a rounded m t would cost the weights about n t eps
    split = 2.0 ** n.bit_length() + 1.0
    # roots per block: their (cos, sin) sums over r, 8 nq per root, are the
    # largest working array and take at most a quarter of _BLOCK_BYTES
    step = max(1, _BLOCK_BYTES // (4 * 8 * 8 * nq))
    todo = np.arange(half)
    for _ in range(_NEWTON_CAP):
        tt = t[todo]
        hi = split * tt
        hi -= hi - tt
        # rows P, dP/dt, d^2P/dt^2 and d^3P/dt^3 at hi, one column per root
        sums = np.empty((4, len(todo)))
        for i in range(0, len(todo), step):
            block = hi[i:i + step]
            width = len(block)
            # cos and sin of the angles A hi (rows :nq) and C hi, one
            # column per root
            trig = np.empty((2, nq + nb, width))
            np.multiply(freqs, block, out=trig[1])
            np.cos(trig[1], out=trig[0])
            np.sin(trig[1], out=trig[1])
            # z[root, s, f, u]: the sums over r against the cos (s = 0) or
            # sin (s = 1) of C, summed over q against the cos (u = 0) or
            # sin (u = 1) of A
            y = np.matmul(coef, trig[:, nq:]).reshape(8, nq, width)
            z = np.matmul(y.transpose(2, 0, 1), trig[:, :nq].T).reshape(width, 16)
            np.matmul(z, _SPLIT_TERMS, out=sums[:, i:i + step].T)
            # freed before the next block allocates its own
            del trig, y, z
        lo = tt - hi
        # P and dP/dt move by lo times (dP/dt, d^2P/dt^2) plus lo^2 / 2
        # times (d^2P/dt^2, d^3P/dt^3)
        sums[:2] += lo * (sums[1:3] + 0.5 * lo * sums[2:])
        d = sums[1]
        dt = sums[0] / d
        d_last[todo] = d
        dt_last[todo] = dt
        tt -= dt
        t[todo] = tt
        # a root leaves once its own step is within _NEWTON_TOL; NaN stays
        todo = todo[~(np.abs(dt) <= _NEWTON_TOL)]
        if not len(todo):
            break
    else:
        raise np.linalg.LinAlgError(
            f"Gauss-Legendre roots of degree {n} did not converge in {_NEWTON_CAP} Newton steps"
        )
    # dP/dt moved to the final angles to first order in the last step, with
    # P'' = -cot(t) P' - n (n + 1) P from Legendre's equation
    dp = d_last * (1.0 + dt_last / np.tan(t + dt_last) + n * (n + 1.0) * dt_last * dt_last)
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
    Each call builds that rule afresh by _gauss_legendre, from
    O(n_theta^1.5) cosines and sines and O(n_theta^2) multiply-adds in one
    matrix product per block of roots, in O(n_theta) memory with no
    eigensolve; nothing is cached between calls.  Its weights times the
    beam density, renormalized to sum one, are the theta rule;
    renormalizing absorbs the amplitude normalization constant, which is
    never needed in closed form.
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


def in_plane_axes(alpha) -> np.ndarray:
    """(..., 3) axes (sin a, 0, cos a) of R_y(a) B_z(xi) R_y(-a), read alike by _boost_parts and sweeps."""
    alpha = np.asarray(alpha, dtype=float)
    return np.stack([np.sin(alpha), np.zeros_like(alpha), np.cos(alpha)], axis=-1)


def _boost_parts(stack: TransformStack) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each row of stack as L = R B(xi, m), and a mask of the rows whose R is not read as I.

    A row R_y(a) B_z(xi) R_y(-a) (every sweep.boost_stack and
    sweep.make_boost row) is read from its factor row: R = I,
    m = (sin a, 0, cos a) (in_plane_axes) and exp(-xi) exactly, as a
    sweep reads its rows, where reading its matrix would cost
    eps cosh(xi).  Any other row is split from its matrix (_polar_parts),
    and its R is left out of the returned (k, 3, 3) rotations where the
    mask is False.
    """
    k = len(stack)
    rot, axes, shrink = np.empty((k, 3, 3)), np.empty((k, 3)), np.empty(k)
    turned = ~_axis_rows(stack)
    if not turned.all():
        alpha, xi = stack.params[~turned, :2].T
        axes[~turned] = in_plane_axes(alpha)
        shrink[~turned] = np.exp(-xi)
    if turned.any():
        rot[turned], axes[turned], shrink[turned] = _polar_parts(stack.matrices[turned])
    return rot, axes, shrink, turned


def _theta_factors(frame: np.ndarray, grid: QuadratureGrid, top: int, bottom: int) -> np.ndarray:
    """(6, 4, n) factors of the theta rows top ... bottom - 1 in the projections of _aberration_tables.

    With m at polar angle b and azimuth phi_m (0 or pi), a node (theta,
    phi) has psi = phi - phi_m, and with u = 1 - cos psi, v = 1 + cos psi
    and R = sin b (1 - cos theta):
    p . e1 = sin(theta - b) - cos b sin theta u where cos psi >= 0,
    and -sin(theta + b) + cos b sin theta v elsewhere;
    p . e2 = sin theta sin psi;
    m . h = -p . e1 + R sin^2 psi, m . v = -cos b p . e2 - R sin psi cos psi;
    1 - p . m = 2 sin^2((theta - b) / 2) + sin b sin theta u and
    1 + p . m = 2 cos^2((theta + b) / 2) + sin b sin theta v.
    The sines and cosines of (theta -+ b) / 2 are sines of half angles
    with pi - x - y led by pi - max(x, y), exact for x >= pi/2, so none
    loses digits where it vanishes.  Row i times _phi_factors' row i,
    summed over the 4 terms, is projection i.  sin theta, cos theta and
    the square root of the theta weight are formed here from the rows'
    thetas and weights.
    """
    sin_b, cos_b = math.hypot(frame[0, 2], frame[1, 2]), frame[2, 2]
    b = math.atan2(sin_b, cos_b)
    th = grid.thetas[top:bottom]
    st, ct, rw = np.sin(th), np.cos(th), np.sqrt(grid.theta_weights[top:bottom])
    hi, lo = np.maximum(th, b), np.minimum(th, b)
    # sines of half of theta - b, pi - |theta - b|, theta + b (past pi,
    # 2 pi - theta - b), pi - theta - b and theta
    sd, cd, ss, cs, half = np.sin(0.5 * np.array([
        th - b,
        math.pi - hi + _PI_LO + lo,
        np.where(th + b <= math.pi, th + b, (math.pi - th) + (math.pi - b) + 2.0 * _PI_LO),
        math.pi - hi - lo + _PI_LO,
        th,
    ]))
    f = np.zeros((6, 4, len(th)))
    f[0, :3] = 2.0 * sd * cd, -2.0 * ss * cs, cos_b * st
    f[1, 0] = st
    f[2] = -rw * f[0]
    f[2, 3] = 2.0 * sin_b * rw * half * half
    f[3, :2] = f[2, 2], -f[2, 3]
    f[4:, 0] = 2.0 * sd * sd, 2.0 * cs * cs
    f[4:, 1] = sin_b * st
    return f


def _phi_factors(frame: np.ndarray, grid: QuadratureGrid, lo: int, hi: int) -> np.ndarray:
    """(6, 4, n) factors of the stored phis lo ... hi - 1 in the projections (_theta_factors).

    u and v are 2 sin^2 and 2 cos^2 of half of phi or of phi - pi.  In
    the form of p . e1 that a node takes, no term exceeds twice its
    distance s from the axis, so each projection is formed to rounding
    relative to s.  cos phi, sin phi and the square root of the phi
    weight are formed here from the stored phis and their weights.
    """
    side = frame[1, 1]  # e2 = side y-hat: psi = phi for side = 1, phi - pi for -1
    phis = grid.phis[lo:hi]
    cp, sp, cw = np.cos(phis), np.sin(phis), np.sqrt(grid.phi_weights[lo:hi])
    half = 0.5 * phis
    u, v = 2.0 * np.sin(half) ** 2, 2.0 * np.cos(half) ** 2
    if side < 0.0:
        u, v = v, u
    front = side * cp >= 0.0
    g = np.zeros((6, 4, len(cp)))
    g[0, 0], g[0, 1] = front, ~front
    g[0, 2] = np.where(front, -u, v)
    g[1, 0] = side * sp
    # sqrt(w), then sqrt(w) sin^2 phi and sqrt(w) sin phi cos phi
    g[2, :3] = cw * g[0, :3]
    g[2, 3], g[3, 1] = cw * (sp * sp), cw * (sp * cp)
    g[3, 0] = side * (cw * sp)
    g[4:, 0] = 1.0
    g[4:, 1] = u, v
    return g


def _aberration_tables(frame: np.ndarray, grid: QuadratureGrid):
    """(12, n) node products and (n,) t^2 about the axis frame[:, 2], a block of stored nodes at a time.

    frame is (e1, e2, m) as columns with m in the x-z plane.  A block's
    projections p . e1, p . e2, m . (sqrt(w) h), m . (sqrt(w) v),
    1 - p . m and 1 + p . m are one small matrix product of per-theta and
    per-phi factors (_theta_factors, _phi_factors).  They give
    s^2 = (1 - p . m)(1 + p . m), the azimuth (p . e1, p . e2) / s and
    t^2 = (1 - p . m) / (1 + p . m); h and v are orthogonal to p, so their
    components along theta-hat about m are C = -(m . x) / s.  A node on
    the axis (s = 0) takes phi = 0, where C_h^2 = w and C_v = 0.  The even
    parity has (a, b, C) = (C_h cos phi, -C_v sin phi, C_h) and the odd
    parity (C_h sin phi, C_v cos phi, C_v); the rows are a^2, b^2, ab,
    C^2, t C a and t C b, each for the even then the odd parity, so the
    sign of C drops out.  A block is whole theta rows of at most
    _SUM_NODES nodes, or a part of one row where a row holds more.
    """
    n_cols = len(grid.phis)
    parts = -(-n_cols // _SUM_NODES)
    width = -(-n_cols // parts)
    step = max(1, _SUM_NODES // width)
    # whole blocks of rows whose 24 factors per row take at most _BLOCK_BYTES
    span = step * max(1, _BLOCK_BYTES // (8 * 24 * step))
    for top in range(0, len(grid.thetas), span):
        rows = _theta_factors(frame, grid, top, top + span)
        for lo in range(0, n_cols, width):
            cols = _phi_factors(frame, grid, lo, lo + width)
            n = cols.shape[-1]
            for first in range(0, rows.shape[-1], step):
                block = rows[:, :, first:first + step].transpose(0, 2, 1)
                proj = np.matmul(block, cols).reshape(6, -1)
                minus, plus = proj[4:]  # 1 - p . m and 1 + p . m
                t2 = minus / plus
                s = np.sqrt(minus * plus)
                on = s == 0.0
                # cos phi, sin phi, -C_h and -C_v
                x = proj[:4] / (s + on)
                if on.any():
                    i = np.flatnonzero(on)
                    x[0, i] = 1.0
                    root = np.sqrt(grid.theta_weights[top + first + i // n])
                    x[2, i] = root * np.sqrt(grid.phi_weights[lo + i % n])
                ab = np.empty((2, 2, len(t2)))
                np.multiply(x[2], x[:2], out=ab[0])
                np.multiply(x[3], x[1::-1], out=ab[1])
                ab[1, 0] *= -1.0
                table = np.empty((6, 2, len(t2)))
                np.multiply(ab, ab, out=table[:2])
                np.multiply(ab[0], ab[1], out=table[2])
                np.multiply(x[2:], x[2:], out=table[3])
                np.multiply(np.sqrt(t2) * x[2:], ab, out=table[4:])
                yield table.reshape(12, -1), t2


def _aberration_sums(shrink: np.ndarray, frame: np.ndarray, grid: QuadratureGrid) -> np.ndarray:
    """(k, 30) node sums that give the grid's Grams under k boosts B(xi, m) along one axis.

    shrink holds each boost's exp(-xi), and frame is (e1, e2, m) as columns.
    A node keeps its azimuth about m and moves to cos theta' = c = 2 g - 1
    and sin theta' = s' = 2 exp(-xi) t g, with g = 1 / (1 + exp(-2 xi) t^2).
    Its transported h and v vectors in the frame are y = (c a - b,
    a - c b, -s' C) for each parity: the even one is (e1 h, e2 v, m h)
    and the odd one (e2 h, -e1 v, m v).  The reflection y -> -y keeps the
    even and flips the odd parts, so the rule's Gram has no cross terms,
    and each is a sum over nodes of fixed products weighted by 1, g and
    g^2 (_GAMMA).  The sums are ordered (product, parity) as _GRAM_MAP
    reads them.  The products come from _aberration_tables, in closed form
    from each node's p . e1, p . e2, p . m, m . (sqrt(w) h) and
    m . (sqrt(w) v); the terms of these that vanish at +-m are formed
    from half angles, so they keep their digits relative to the node's
    distance s from the axis, and a node on the axis (s = 0) takes
    phi = 0.  A block is whole theta rows of at most _SUM_NODES nodes, or
    part of a longer row, and each block is summed for every _SUM_ROWS
    boosts with two matrix products (entanglement.rows_product).
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
    for table, t2 in _aberration_tables(frame, grid):
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


def in_plane_moments(axis: np.ndarray, shrinks, grid: QuadratureGrid):
    """The (k, 6, 6) moments (transported_moments) of each block of boosts B(xi, axis) in shrinks.

    axis is a (3,) unit vector in the x-z plane and each block of shrinks
    a (k,) array of exp(-xi).  The axis frame and the map from node sums
    (_aberration_sums) to Grams are formed once, for every block.
    """
    frame = _frames(axis[None])[0]
    basis = np.zeros((6, 6))
    basis[::2, ::2] = basis[1::2, 1::2] = frame
    basis = basis @ _PARITY_BASIS
    # the Kronecker product basis (x) basis, acting on flattened 6x6 Grams
    gram_map = _GRAM_MAP @ np.multiply.outer(basis, basis).transpose(1, 3, 0, 2).reshape(36, 36)
    for shrink in shrinks:
        sums = _aberration_sums(shrink, frame, grid)
        yield entanglement.rows_product(sums, gram_map).reshape(-1, 6, 6)


def transported_moments(stack: TransformStack, grid: QuadratureGrid) -> np.ndarray:
    """All four moment blocks of the transported h/v vectors, one 6x6 per transform of stack.

    Entry [2i + a, 2j + b] of each block is (M_ab)_ij = sum_n w_n
    x_a(p_n)_i x_b(p_n)_j over the grid's whole rule, for spatial
    components i, j in (x, y, z) and basis labels a, b in (h, v) = (0, 1).
    The weights enter as sqrt(w) on both factors (see _node_vectors).

    Each row is L = R B(xi, m) (_boost_parts), and its block is
    (R (x) I2) G(B) (R (x) I2)^T.  Boosts along one axis in the x-z plane
    (a rotation is one with xi = 0 along +z) share one pass over the nodes
    (in_plane_moments), the pass a sweep runs on its rows; a boost along
    any other axis does not commute with the reflection and is
    transported node by node (_mirror_gram).
    """
    rot, axes, shrink, turned = _boost_parts(stack)
    out = np.empty((len(stack), 6, 6))
    in_plane = axes[:, 1] == 0.0
    pending = in_plane.copy()
    while pending.any():
        m = axes[np.argmax(pending)]
        rows = pending & (axes == m).all(axis=1)
        pending &= ~rows
        out[rows] = next(in_plane_moments(m, [shrink[rows]], grid))
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
