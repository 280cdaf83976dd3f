"""Gaussian-spread photon beams: their quadrature grids, transport and moments.

The two beams share one angular amplitude: a Gaussian in the polar angle
theta on a fixed momentum-magnitude shell (the magnitude is integrated out
analytically because it cancels from every transported quantity).  A
quadrature rule discretizes the remaining direction integral with
Gauss-Legendre nodes in theta on [0, pi] and a uniform periodic rule in
phi; the squared amplitude, the sphere Jacobian sin(theta) and the overall
normalization are all folded into the theta weights, and each rule's
weights sum to one.  The Gauss-Legendre rule is built by Newton's method
on the Fourier series of P_n (_gauss_legendre): O(n^1.5) cosines and
sines, O(n^2) multiply-adds in one matrix product per block of roots and
O(n) memory, with no eigensolve.  It depends on n alone, so it is built
once per size and kept, read-only, for the _RULE_CACHE sizes used last;
every grid reweights it by its own beam.

The beam is symmetric under the reflection y -> -y, which maps the node
(theta, phi) to (theta, -phi), and the phi rule maps onto itself under
it.  So a grid stores only the nodes with phi in [0, pi]; each stored
node stands for itself and its image at half its weight apiece (a node
on the mirror plane is its own image).  A boost along an axis in the x-z
plane, every boost of a sweep, commutes with the reflection, so the image
nodes cost nothing: their moments are the stored nodes' moments with
signs flipped.

A boost enters only through its axis line and its rapidity, since
B(xi, m) = B(-xi, -m), so every boost is read along the end of its line
whose azimuth beta lies in [0, pi), +z on the z axis, with the rapidity
of the matching sign (line_ends): m = R_z(beta) m0 with
m0 = (sin b, 0, cos b), sin b >= 0 and m0 never -z.  It is integrated
over the rule turned by beta about z, whose nodes are
(theta, +-phi_j + beta).  The beam depends on theta alone, and h and
v at R_z(beta) n are R_z(beta) (cos beta h(n) - sin beta v(n)) and
R_z(beta) (sin beta h(n) + cos beta v(n)), so on the turned rule the
moments about m are exactly U M(m0) U^T, with U = R_z(beta) (x) R(beta)
on index 2i + a, R(beta) the turn of the (h, v) labels and M(m0) the
moments about m0 on the grid's own rule (transported_moments).  The
turned rule is again a periodic trapezoid rule in phi with the weights of
the unturned one, so it converges alike (Trefethen & Weideman, SIAM Rev.
56 (2014) 385); the two differ by the phi rule's error.  The moments
turn exactly with every rotation about z that keeps the line's azimuth
in [0, pi), on any phi rule, and with every rotation about z on an even
phi rule, which the turn by pi maps onto itself.

A transform is split as L = R B(xi, m), a rotation after a pure boost
along the unit axis m.  B moves each direction along its great circle
through m, tan(theta_m'/2) = exp(-xi) tan(theta_m/2), the aberration map
(Penrose 1959), and keeps a polarization's components along theta-hat
and phi-hat about m.  The rotation form (wigner.d_rotation_form_stack,
through the Wigner angle) and, in the tests, the gauge form
L e - ((L e)^0 / (L p)^0) L p, whose rounding grows like eps exp(|xi|),
and the same map applied node by node are the independent oracles it is
tested against.  The pair state's double direction integral factorizes
through 3x3 moment matrices M_ab = sum_i w_i x_a(p_i) x_b(p_i)^T of the
transported h/v vectors (entanglement turns them into states), so the
cost is linear, not quadratic, in the node count.  Along one axis, every
node's moments are fixed products weighted by 1, g and g^2 with
g = 1 / (1 + exp(-2 xi) t^2), t = tan(theta_m/2), so transported_moments
sums each node once per pass and gets every row of a block from matrix
products over the nodes (_aberration_sums).  Those products are
built in closed form from five projections of each node: p . e1, p . e2
and p . m in the axis frame (e1, e2, m), and m . (sqrt(w) h) and
m . (sqrt(w) v).  Each is a sum of a few products of a per-theta and a
per-phi factor, so a block of nodes takes one small matrix product and
no node vector (_aberration_tables); a pass forms every block in one
workspace.  The per-phi factors read a node's azimuth about m0 from phi
alone, since m0 has the azimuth 0.  The terms that
vanish at +-m are formed from half angles about the axis, so a node
keeps its digits relative to its distance from the axis however near it
lies, and a node on the axis takes the azimuth 0.  The
grid keeps no array per node and no derived table: it is the product of
a theta rule and a rule over the stored phis and keeps only those, so
every pass forms the trigonometric factors it reads from the two rules.

density_states, for reduced_density, validate and the tests, reads the
states of those moments through entanglement's state stage.  It and
transported_moments take a lorentz.TransformStack of k boosts, whose
constructor has guarded them, and evaluate all k at once; a single
transform is the k = 1 case.  Sweeps build no stack: a curve's one axis
and its rows' exp(-xi) go straight to axis_moments, in parts cut at the
run's block edges, every ROWS_PER_BLOCK rows, a count derived from the
bytes a row keeps through the state stage.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import entanglement
from .lorentz import BOOST_Z, PAD, ROT_Y, TransformStack

# bytes of one working array, taken a block of nodes or roots at a time,
# so none grows with the grid: _gauss_legendre's arrays for a block of
# roots and _aberration_sums' weights for a block of nodes take at most a
# quarter of it each, below glibc's 128 KiB mmap threshold (the weights
# take one product's PRODUCT_ROWS rows where that is more)
_BLOCK_BYTES = 1 << 18

# at most this many stored nodes per block of _aberration_tables: whole
# theta rows, or parts of one row where a row holds more.  The edges
# depend only on the grid, whatever the number of boosts, so that a row's
# node sums are added in the same blocks alone as in a sweep.  A block's
# table and t^2 (13 floats per node) and PRODUCT_ROWS rows of weights
# take four times _BLOCK_BYTES, half of a 2 MiB per-core L2 cache,
# and each block pays a fixed count of array operations: a 9-row sweep on
# 192^2 with its 384^2 probe took 5.3 ms with these 6,241-node blocks,
# 5.8 ms with 3,120-node ones and 6.4 ms with 12,480-node ones
_SUM_NODES = 4 * _BLOCK_BYTES // (8 * (13 + entanglement.PRODUCT_ROWS))

# Newton steps allowed per Legendre root; from Tricomi's angles the
# iteration in t converges cubically and stops after one to three (at
# n = 384, 192 roots take 310 steps in all)
_NEWTON_CAP = 10

# a root has converged once its Newton step moves its angle by no more
_NEWTON_TOL = 1e-12

# Gauss-Legendre rules kept, the sizes used last: a rule keeps 16 n bytes,
# so at most 8 MB even at the node cap's 65,536-node convergence probe
_RULE_CACHE = 8

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
# copies take its peak to about 1.7 times that, 0.44 MB at ROWS_PER_BLOCK
# rows
_STATE_ROW_FLOATS = 36 + 90

# rows whose states are built and solved together (sweep._solve_rows):
# what they keep fills _BLOCK_BYTES, and the stage's fixed cost per call
# is shared by that many rows.  A run cuts its rows at its own block
# edges, every this many rows whichever curves they come from, so fig2's
# 305 rows take two calls and fig3's 244 one
ROWS_PER_BLOCK = _BLOCK_BYTES // (8 * _STATE_ROW_FLOATS)

# smallest theta weight build_grid keeps; a smaller one is set to 0.  A
# node's table entries are its weight times trigonometric factors, so
# smaller weights put subnormal numbers in the table, and the matrix
# products of the node sums run about four times slower on them: with the
# weights kept, fig3's sigma = 0.1 on 64^2 held 411 subnormal entries, and
# a 64-row product took 0.36 ms against 0.09-0.10 ms for sigma >= 0.5
# (0.09 ms with the floor).  The weights cut sum to less than 1e-150
_WEIGHT_FLOOR = math.sqrt(np.finfo(float).tiny)

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

    Every node and weight is finite, and polar angles lie in [0, pi], as
    the in-plane sums read them (_theta_factors).  Weights are
    nonnegative rather than strictly positive: for narrow beams the
    Gaussian factor underflows to an exact zero on most of the sphere,
    and those nodes simply contribute nothing.  The grid keeps only the
    two 1-d rules, as read-only
    copies; whoever reads a node's trigonometric factors forms them from
    the rules (_theta_factors, _phi_factors).
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
        if not np.all((self.thetas >= 0.0) & (self.thetas <= math.pi)):  # NaN fails too
            raise ValueError("theta nodes must lie in [0, pi]")
        for axis, nodes, w in (
            ("theta", self.thetas, self.theta_weights), ("phi", self.phis, self.phi_weights)
        ):
            if nodes.ndim != 1 or w.shape != nodes.shape:
                raise ValueError(f"{axis} nodes and weights must be 1-d arrays of one length")
            if not (np.isfinite(nodes).all() and np.isfinite(w).all()):
                raise ValueError(f"{axis} nodes and weights must be finite")
            if np.any(w < 0.0) or not np.any(w > 0.0):
                raise ValueError(f"{axis} weights must be nonnegative with positive total")
            if not abs(w.sum() - 1.0) <= 1e-12:
                raise ValueError(f"{axis} weights must sum to 1, got {w.sum()!r}")

    def __len__(self) -> int:
        return len(self.thetas) * len(self.phis)


@functools.lru_cache(maxsize=_RULE_CACHE, typed=True)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes on [-1, 1], ascending, and their weights, from O(n^1.5) cosines.

    Each size is built once and kept for the _RULE_CACHE sizes used last,
    keyed by its type too, so a float size still raises.  The two arrays
    are read-only, so no caller can alter a shared rule; a size whose
    roots do not converge raises and is not kept.  __wrapped__ builds a
    rule afresh.

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
    x.flags.writeable = w.flags.writeable = False
    return x, w


def build_grid(spec: BeamSpec, n_theta: int, n_phi: int) -> QuadratureGrid:
    """Rule of n_theta x n_phi directions weighted by the beam density, stored as half.

    Gauss-Legendre nodes cover theta on the full [0, pi]; wide beams put
    real weight in the back hemisphere, so the range is never truncated.
    That rule is _gauss_legendre's, built from O(n_theta^1.5) cosines and
    sines and O(n_theta^2) multiply-adds in one matrix product per block
    of roots, in O(n_theta) memory with no eigensolve, once per size: a
    later grid of the same n_theta reads the kept read-only rule.  Its
    weights times the beam density, renormalized to sum one, are the
    theta rule of this grid alone, formed on every call, with every
    weight below _WEIGHT_FLOOR (about 1.5e-154) set to 0 so that no node
    product is subnormal;
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
    w_theta /= total
    w_theta[w_theta < _WEIGHT_FLOOR] = 0.0
    j = np.arange(n_phi // 2 + 1)
    images = np.where((j == 0) | (2 * j == n_phi), 1.0, 2.0)
    return QuadratureGrid(thetas, w_theta, j * (2.0 * math.pi / n_phi), images / n_phi)


def _polar_parts(boosts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split each of (k, 4, 4) transforms as L = R B(xi, m), a rotation after a pure boost, m read along its line.

    cosh |xi| = L00 and sinh |xi| m = +-L0i, so
    R_ij = L_ij - tanh(xi/2) L_i0 m_j = L_ij - L_i0 L_0j / (1 + L00).
    Returns the (k, 3, 3) rotations R, the (k, 3) unit axes m, each the
    end of its line that line_ends reads, and the (k,) factors exp(-xi)
    for that end: 1 / (L00 + |L0i|) where m is L0i's direction, and
    L00 + |L0i| itself, not its reciprocal, where m is the opposite one.
    A rotation has the axis +z and exp(-xi) = 1, and so does a boost
    whose exp(-xi) rounds to 1: its aberration map is the identity along
    any axis, and a subnormal sinh(xi) m has lost the direction of m.
    """
    boost = boosts[:, 0, 1:]
    # hypot keeps a tiny rapidity's axis a unit vector where squares underflow
    sinh = np.hypot(np.hypot(boost[:, 0], boost[:, 1]), boost[:, 2])
    grow = boosts[:, 0, 0] + sinh
    shrink = 1.0 / grow
    still = (sinh == 0.0) | (shrink == 1.0)
    axes = boost / np.where(still, 1.0, sinh)[:, None]
    axes[still] = 0.0, 0.0, 1.0
    axes, sign = line_ends(axes)
    rot = boosts[:, 1:, 1:] - boosts[:, 1:, :1] * boosts[:, :1, 1:] / (1.0 + boosts[:, :1, :1])
    return rot, axes, np.where(sign > 0.0, shrink, grow)


def line_ends(axes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The end of each unit axis's line that a boost is read along, (..., 3), and the sign (...) that carries its rapidity there.

    B(xi, m) = B(-xi, -m): a boost enters only through its axis line and
    its rapidity.  The end read is the one whose azimuth beta lies in
    [0, pi), +z on the z axis: m_y > 0, or m_y = 0 and m_x > 0, or
    m = +z.  A boost of rapidity xi along an axis is the boost of
    rapidity sign * xi along its end.  A flipped zero is written +0.
    """
    x, y, z = np.moveaxis(axes, -1, 0)
    sign = np.where((y < 0.0) | (y == 0.0) & ((x < 0.0) | (x == 0.0) & (z < 0.0)), -1.0, 1.0)
    return axes * sign[..., None] + 0.0, sign


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


def _boost_parts(stack: TransformStack) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row of stack as L = R B(xi, m), with m the end of its axis line (line_ends) and exp(-xi) for that end.

    A row R_y(a) B_z(xi) R_y(-a) (every sweep.boost_stack and
    sweep.make_boost row) is read from its factor row, as a sweep reads
    its rows: R = I, m the end of the line through (sin a, 0, cos a)
    (in_plane_axes) and exp(-xi) exactly, where reading its matrix would
    cost eps cosh(xi).  Any other row is split from its matrix
    (_polar_parts), the fold of the same factor row.
    """
    k = len(stack)
    rot, axes, shrink = np.empty((k, 3, 3)), np.empty((k, 3)), np.empty(k)
    plain = _axis_rows(stack)
    if plain.any():
        alpha, xi = stack.params[plain, :2].T
        axes[plain], sign = line_ends(in_plane_axes(alpha))
        shrink[plain] = np.exp(-sign * xi)
        rot[plain] = np.eye(3)
    if not plain.all():
        rot[~plain], axes[~plain], shrink[~plain] = _polar_parts(stack.matrices[~plain])
    return rot, axes, shrink


def _theta_factors(axis: np.ndarray, grid: QuadratureGrid, top: int, bottom: int) -> np.ndarray:
    """(6, 4, n) factors of the theta rows top ... bottom - 1 in the projections of _aberration_tables.

    With m = (sin b, 0, cos b) at polar angle b and azimuth 0, a node
    (theta, psi) has u = 1 - cos psi, v = 1 + cos psi and
    R = sin b (1 - cos theta):
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
    sin_b, cos_b = axis[0], axis[2]
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


def _phi_factors(grid: QuadratureGrid, lo: int, hi: int) -> np.ndarray:
    """(6, 4, n) factors of the stored phis lo ... hi - 1 in the projections (_theta_factors).

    The axis has the azimuth 0, so a node's psi is its phi; u and v are
    2 sin^2 and 2 cos^2 of half of it.  In the form of p . e1 that a node
    takes, no term exceeds twice its distance s from the axis, so each
    projection is formed to rounding relative to s.  cos, sin of phi and
    the square root of the phi weight are formed here from the stored
    phis and their weights.
    """
    phis = grid.phis[lo:hi]
    cp, sp, cw = np.cos(phis), np.sin(phis), np.sqrt(grid.phi_weights[lo:hi])
    half = 0.5 * phis
    u, v = 2.0 * np.sin(half) ** 2, 2.0 * np.cos(half) ** 2
    front = cp >= 0.0
    g = np.zeros((6, 4, len(cp)))
    g[0, 0], g[0, 1] = front, ~front
    g[0, 2] = np.where(front, -u, v)
    g[1, 0] = sp
    # sqrt(w), then sqrt(w) sin^2 psi and sqrt(w) sin psi cos psi
    g[2, :3] = cw * g[0, :3]
    g[2, 3], g[3, 1] = cw * (sp * sp), cw * (sp * cp)
    g[3, 0] = cw * sp
    g[4:, 0] = 1.0
    g[4:, 1] = u, v
    return g


def _line_aligned(alloc, n: int) -> np.ndarray:
    """alloc(n) floats, alloc np.empty or np.zeros, whose data starts on a 64-byte cache line.

    The table pass reads and writes whole rows of its workspace and its
    weights, and a row that starts off a line splits vector loads across
    two lines: fig2 then fig3 ran 6-14% slower with them 16 or 32 bytes
    off a line, where the allocator can leave them, than on one.  Every
    row starts on a line where a block's node count is a multiple of 8,
    as on the preset grids.
    """
    raw = alloc(n + 7)
    first = -raw.ctypes.data % 64 // 8
    return raw[first:first + n]


def _aberration_tables(axis: np.ndarray, grid: QuadratureGrid):
    """(12, n) node products and (n,) t^2 about an axis m = (sin b, 0, cos b), a block of nodes at a time.

    The axis is the end of its line that line_ends reads, sin b >= 0 and
    m not -z, with the frame (e1, e2, m) = ((cos b, 0, -sin b), y-hat, m).
    A block's projections p . e1, p . e2, m . (sqrt(w) h),
    m . (sqrt(w) v), 1 - p . m and 1 + p . m are one small matrix product
    of per-theta and per-phi factors (_theta_factors, _phi_factors), which
    depend on theta and psi alone.  They give
    s^2 = (1 - p . m)(1 + p . m), the azimuth (p . e1, p . e2) / s and
    t^2 = (1 - p . m) / (1 + p . m); h and v are orthogonal to p, so their
    components along theta-hat about m are C = -(m . x) / s.  A node on
    the axis (s = 0) takes psi = 0, where theta-hat about m is the turned
    h, so C_h^2 = w and C_v = 0 whatever the node's azimuth.  The even parity has
    (a, b, C) = (C_h cos psi, -C_v sin psi, C_h) and the odd parity
    (C_h sin psi, C_v cos psi, C_v); the rows are a^2, b^2, ab, C^2,
    t C a and t C b, each for the even then the odd parity, so the sign
    of C drops out.  A block is whole theta rows of at most _SUM_NODES
    nodes, or a part of one row where a row holds more.  Every block is
    formed in one workspace per call: the yielded table and t^2 are views
    into it, valid only until the next block is asked for.
    """
    n_cols = len(grid.phis)
    parts = -(-n_cols // _SUM_NODES)
    width = -(-n_cols // parts)
    step = max(1, _SUM_NODES // width)
    # whole blocks of rows whose 24 factors per row take at most _BLOCK_BYTES
    span = step * max(1, _BLOCK_BYTES // (8 * 24 * step))
    # the largest block's table and t^2; each block lays its own out from the start
    most = min(step, len(grid.thetas)) * width
    work = _line_aligned(np.empty, 13 * most)
    for top in range(0, len(grid.thetas), span):
        rows = _theta_factors(axis, grid, top, top + span)
        for lo in range(0, n_cols, width):
            cols = _phi_factors(grid, lo, lo + width)
            n = cols.shape[-1]
            for first in range(0, rows.shape[-1], step):
                block = rows[:, :, first:first + step].transpose(0, 2, 1)
                size = block.shape[1] * n
                table = work[:12 * size].reshape(12, size)
                t2 = work[12 * size:13 * size]
                paired = table.reshape(6, 2, -1)
                # the projections, in the rows of C^2, t C a and t C b
                proj = table[6:12]
                np.matmul(block, cols, out=proj.reshape(6, -1, n))
                x, (minus, plus) = proj[:4], proj[4:]  # 1 - p . m and 1 + p . m
                np.divide(minus, plus, out=t2)
                s = np.sqrt(np.multiply(minus, plus, out=plus), out=plus)
                if not s.all():
                    # a node on the axis takes psi = 0 and s = 1, with
                    # cos psi = 1 and -C_h = sqrt(w), which the division keeps
                    i = np.flatnonzero(s == 0.0)
                    s[i] = 1.0
                    x[0, i] = 1.0
                    x[2, i] = np.sqrt(grid.theta_weights[top + first + i // n])
                    x[2, i] *= np.sqrt(grid.phi_weights[lo + i % n])
                # cos psi, sin psi, -C_h and -C_v
                np.divide(x, s, out=x)
                # a and b of both parities, in the rows of their squares
                ab = paired[:2]
                np.multiply(x[2], x[:2], out=ab[0])
                np.multiply(x[3], x[1::-1], out=ab[1])
                ab[1, 0] *= -1.0
                np.multiply(ab[0], ab[1], out=paired[2])
                # t C_h and t C_v, over t and s
                tc = proj[4:]
                t = np.sqrt(t2, out=minus)
                np.multiply(t, x[3], out=plus)
                np.multiply(t, x[2], out=minus)
                np.multiply(x[2:], x[2:], out=paired[3])
                np.multiply(tc, ab[0], out=paired[4])
                np.multiply(tc, ab[1], out=paired[5])
                np.multiply(ab, ab, out=ab)
                yield table, t2


def _aberration_sums(shrink: np.ndarray, tables, grid: QuadratureGrid) -> np.ndarray:
    """(k, 30) node sums that give the stored nodes' Grams under k boosts B(xi, m) along one axis of _aberration_tables.

    shrink holds each boost's exp(-xi), and tables are the blocks of
    _aberration_tables about m, with the frame (e1, e2, m).  A node keeps
    its azimuth about m and moves to cos theta' = c = 2 g - 1 and
    sin theta' = s' = 2 exp(-xi) t g, with g = 1 / (1 + exp(-2 xi) t^2).
    Its transported h and v vectors in the frame are y = (c a - b,
    a - c b, -s' C) for each parity: the even one is (e1 h, e2 v, m h)
    and the odd one (e2 h, -e1 v, m v).  Each Gram entry is a sum over
    nodes of fixed products weighted by 1, g and g^2 (_GAMMA), and the
    sums are ordered as _GRAM_MAP reads them.  The products come from
    _aberration_tables, in closed form from each node's p . e1, p . e2,
    p . m, m . (sqrt(w) h) and m . (sqrt(w) v); the terms of these that
    vanish at +-m are formed from half angles, so they keep their digits
    relative to the node's distance s from the axis, and a node on the
    axis (s = 0) takes psi = 0.  A block is whole theta rows of at most
    _SUM_NODES = 6,241 nodes, or part of a longer row, and each block is
    summed for as many boosts at a time as the g and g^2 weights of each
    fit in a quarter of _BLOCK_BYTES, at least PRODUCT_ROWS / 2: a part
    writes the g rows of its boosts and then their g^2 rows, and takes
    one matrix product of PRODUCT_ROWS-row tiles (entanglement.rows_product).
    A row rounds alike at any position of a tile, so a boost's sums are
    the same bits in any part.  The weights of every block share one
    buffer.
    """
    k = len(shrink)
    if not k:
        return np.empty((0, len(_GRAM_MAP)))
    n0, n12 = np.zeros(6), np.zeros((2, k, 12))
    scale = shrink * shrink
    unit = entanglement.PRODUCT_ROWS
    nodes = min(_SUM_NODES, len(grid))
    # weight rows formed at a time, g and then g^2 of half as many boosts;
    # a row rounds alike in any number and at any position of a tile
    rows = min(max(unit, _BLOCK_BYTES // (32 * nodes) // unit * unit), -(-k // unit) * unit)
    step = rows // 2
    # one buffer holds every block's weights: a fresh (rows, nodes) array
    # per block can be mapped and unmapped by the allocator each time,
    # which cost fig2 and fig3 up to 8% of their time.  Its rows past the
    # last boost's g^2 pad a part to whole products of unit rows
    buf = _line_aligned(np.zeros, rows * nodes)
    for table, t2 in tables:
        # the sums weighted by 1 that the Gram reads: a^2, b^2 and ab
        n0 += table[:6].sum(axis=1)
        weights = buf[:rows * len(t2)].reshape(rows, -1)
        for lo in range(0, k, step):
            part = scale[lo:lo + step]
            p = len(part)
            g = np.multiply(part[:, None], t2, out=weights[:p])
            g += 1.0
            np.reciprocal(g, out=g)
            np.multiply(g, g, out=weights[p:2 * p])
            sums = entanglement.rows_product(weights[:-(-2 * p // unit) * unit], table.T)
            n12[:, lo:lo + p] += sums[:2 * p].reshape(2, p, 12)
    # the t-sums, rows t C a and t C b of both parities
    n12[:, :, 8:] *= shrink[:, None]
    return np.concatenate([np.broadcast_to(n0, (k, 6)), n12[0], n12[1]], axis=1)


def _pass_map(axis: np.ndarray) -> np.ndarray:
    """The map from the node sums of the pass about m = (sin b, 0, cos b) to its flattened 6x6 Gram.

    The map takes the node sums to the Gram in the parity basis
    (_GRAM_MAP), the parity basis to the components along the pass's
    frame (e1, e2, m) = ((cos b, 0, -sin b), y-hat, m) (_PARITY_BASIS),
    and those to x, y and z.  The Gram is flattened, entry
    [2i + a, 2j + b] at 6 (2i + a) + 2j + b.
    """
    frame = np.array([[axis[2], 0.0, axis[0]], [0.0, 1.0, 0.0], [-axis[0], 0.0, axis[2]]])
    basis = np.zeros((6, 6))
    basis[::2, ::2] = basis[1::2, 1::2] = frame
    basis = basis @ _PARITY_BASIS
    # the Kronecker product basis (x) basis, acting on flattened 6x6 Grams
    return _GRAM_MAP @ np.multiply.outer(basis, basis).transpose(1, 3, 0, 2).reshape(36, 36)


def axis_moments(axis: np.ndarray, shrinks, grid: QuadratureGrid):
    """The (k, 6, 6) moments (transported_moments) of each block of boosts B(xi, axis) in shrinks.

    axis is a (3,) unit vector (sin b, 0, cos b) in the x-z plane, the end
    of its line that line_ends reads: sin b >= 0 and not -z.  Each block
    of shrinks is a (k,) array of exp(-xi) for that end.  Any other axis
    raises ValueError (transported_moments reads every axis as such an
    end, turned about z).  The boost commutes with the reflection
    P: y -> -y, so an image node's moments are its stored node's with the
    spatial sign (1, -1, 1) of i times +1 for h and -1 for v: the rule's
    Gram is the even and odd parity blocks of one pass over the stored
    nodes, and the cross-parity terms cancel.  The map from node sums
    (_aberration_sums) to Grams is formed once, for every block, and so
    is the table of a grid that is one node block (at most _SUM_NODES
    stored nodes); a larger grid runs its table pass for each block, so
    the pass's memory stays bounded by a node block.
    """
    if axis[1] != 0.0 or line_ends(axis)[1] < 0.0:
        raise ValueError(f"axis must lie in the x-z plane with x >= 0, and not on -z, got {axis!r}")
    gram_map = _pass_map(axis)
    # a grid of one node block keeps its table for every block of boosts
    kept = list(_aberration_tables(axis, grid)) if len(grid) <= _SUM_NODES else None
    for shrink in shrinks:
        sums = _aberration_sums(shrink, kept or _aberration_tables(axis, grid), grid)
        yield entanglement.rows_product(sums, gram_map).reshape(-1, 6, 6)


def transported_moments(stack: TransformStack, grid: QuadratureGrid) -> np.ndarray:
    """All four moment blocks of the transported h/v vectors, one 6x6 per transform of stack.

    Entry [2i + a, 2j + b] of each block is (M_ab)_ij = sum_n w_n
    x_a(p_n)_i x_b(p_n)_j over the grid's whole rule, for spatial
    components i, j in (x, y, z) and basis labels a, b in (h, v) = (0, 1).
    The weights enter as sqrt(w) on both factors.  Each boost is read
    along its axis line, from the end at the azimuth beta in [0, pi)
    (line_ends), and integrated over the rule turned about z by beta,
    nodes (theta, +-phi_j + beta) (see the module docstring); beta = 0 on
    the z axis and in the x-z plane, where that is the grid's own rule.

    Each row is L = R B(xi, m) (_boost_parts), m = R_z(beta) m0 with
    m0 = (sin b, 0, cos b), sin b = hypot(m_x, m_y) >= 0 and m0 never -z;
    cos beta and sin beta are m_x / sin b and m_y / sin b, (1, 0) on the
    z axis.  Its block is (R R_z(beta) (x) R(beta)) G(B(xi, m0)) (...)^T,
    R(beta) the turn of the h/v labels.  Boosts along one m0 (a rotation
    is one with xi = 0 along +z) share one table pass over the nodes
    (axis_moments), the pass a sweep runs on its rows.
    """
    rot, axes, shrink = _boost_parts(stack)
    rho = np.hypot(axes[:, 0], axes[:, 1])
    on_z = rho == 0.0
    c, s = (axes[:, 0] + on_z) / (rho + on_z), axes[:, 1] / (rho + on_z)
    # R(beta), the turn of the h/v labels and of R's x and y columns
    labels = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], 1)
    rot[:, :, :2] = rot[:, :, :2] @ labels
    axes[:, 0], axes[:, 1] = rho, 0.0
    out = np.empty((len(stack), 6, 6))
    pending = np.ones(len(stack), dtype=bool)
    while pending.any():
        m = axes[np.argmax(pending)]
        rows = pending & (axes == m).all(axis=1)
        pending &= ~rows
        out[rows] = next(axis_moments(m, [shrink[rows]], grid))
    # R R_z(beta) (x) R(beta) on index 2i + a
    r = (rot[:, :, None, :, None] * labels[:, None, :, None, :]).reshape(-1, 6, 6)
    return r @ out @ np.swapaxes(r, 1, 2)


def density_states(
    stack: TransformStack, grid: QuadratureGrid
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The real (k, 9, 9) unit-trace states of a stack of k boosts, then their readings.

    The readings are entanglement.state_readings' smallest eigenvalues,
    trace gaps and partial-transpose spectra of the moments
    (transported_moments), as on the sweep path, so no 9x9 matrix is
    solved.  The states are gathered from the same moments' weighted Gram
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
    so only the grid enters the state.  The boost is read along its axis
    line, from the end at the azimuth beta in [0, pi), and integrated
    over the grid's rule turned by beta about z, nodes
    (theta, +-phi_j + beta) (transported_moments).
    """
    if len(L) != 1:
        raise ValueError(f"expected a one-transform stack, got {len(L)} transforms")
    rho = density_states(L, grid)[0][0]
    rho.flags.writeable = False
    return rho
