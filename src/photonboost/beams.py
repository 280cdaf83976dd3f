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
Boosting transports each h/v vector with the gauge form
L e - ((L e)^0 / (L p)^0) L p, which is real linear algebra on the boost
matrix; the rotation form (wigner.d_rotation_form_stack, through
the Wigner angle) is the independent oracle it is tested against.  The
reduced polarization density matrix traces out momentum, leaving a 9x9
real symmetric state over the spatial components (x, y, z) of photon A
tensor photon B.  The double direction integral factorizes through 3x3
moment matrices M_ab = sum_i w_i x_a(p_i) x_b(p_i)^T, so the cost is
linear, not quadratic, in the node count.

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
transport, the kernel they share, takes raw (k, 4, 4) matrices.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import entanglement
from .lorentz import TransformStack

# PSD tolerance on the assembled density matrix; anything below is an
# internal error, not a tuning problem
_MIN_EIG_TOL = -1e-9

# the unnormalized trace is 1 exactly for unit, mutually orthogonal
# transported h/v vectors; rounding in the gauge subtraction keeps it
# within 4e-10 of 1 for every accepted rapidity, a broken transport moves
# it by O(1)
_TRACE_TOL = 1e-8

# bytes of one working array that _gauss_legendre holds at once: its
# (roots x series terms) cosines and sines, taken a block of roots at a
# time.  _gram takes as many boosts per step as keep their boosted node
# vectors within it, but at least one, so from 64^2 grids up its arrays
# grow with the grid (see _gram)
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


@dataclass(frozen=True)
class BeamSpec:
    """Gaussian angular beam of spread sigma_theta (radians).

    The shell momentum is not a parameter: it cancels exactly from the
    gauge-form transport, so no output depends on it.
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


def _node_vectors(thetas: np.ndarray, phis: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """(4, 3, n) real 4-vectors per node: unit-frequency momentum, sqrt(w) h, sqrt(w) v.

    h = R(p)(cos phi, -sin phi, 0) and v = R(p)(sin phi, cos phi, 0) with
    R(p) = R_z(phi) R_y(theta), written out; both have zero time part.
    """
    st, ct = np.sin(thetas), np.cos(thetas)
    sp, cp = np.sin(phis), np.cos(phis)
    amp = np.sqrt(weights)
    out = np.zeros((4, 3, len(thetas)))
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
    computed once per grid.
    """

    weights: np.ndarray
    thetas: np.ndarray = field(repr=False)
    phis: np.ndarray = field(repr=False)
    vectors: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
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
        vectors = _node_vectors(self.thetas, self.phis, self.weights)
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
    return QuadratureGrid(w / total, np.repeat(thetas, len(phis)), np.tile(phis, n_theta))


def transport(boosts: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Gauge-form transport L e - ((L e)^0 / (L p)^0) L p of node vectors.

    boosts is a (k, 4, 4) stack; vectors is (4, 1 + m, n): per node the
    momentum p, then m transverse vectors with zero time part.  Every boost
    maps every node, or vectors is (k, 4, 1 + m, n) and boost i maps only
    vectors[i].  The result depends on p only through its direction, so
    the grid's unit-frequency momenta stand for every shell.  Returns the
    (k, 3, m, n) spatial parts of the transported vectors; their time part
    is zero by construction.  For a future-pointing null p and a proper
    orthochronous L, (L p)^0 > 0.
    """
    *_, cols, n = vectors.shape
    flat = vectors.reshape(vectors.shape[:-2] + (cols * n,))
    lv = (boosts @ flat).reshape(len(boosts), 4, cols, n)
    lp, le = lv[:, :, :1], lv[:, :, 1:]
    out = (le[:, :1] / lp[:, :1]) * lp[:, 1:]
    np.subtract(le[:, 1:], out, out=out)
    return out


def _gram(boosts: np.ndarray, grid: QuadratureGrid) -> np.ndarray:
    """(k, 6, 6) Gram matrices of the transported stored node vectors, one per boost.

    A step transports as many boosts as keep their vectors within
    _BLOCK_BYTES, and at least one.  One boost's vectors take 202,752 B on
    64^2, so from 64^2 up each step is one boost and its arrays grow with
    the grid.  A step's array is freed before the next step's is built:
    density_states peaks 11.9 MB above its inputs for 3 rows on 384^2,
    1.7 times the grid's stored vectors (tracemalloc).
    """
    out = np.empty((len(boosts), 6, 6))
    step = max(1, _BLOCK_BYTES // grid.vectors.nbytes)
    for lo in range(0, len(boosts), step):
        x = transport(boosts[lo:lo + step], grid.vectors)
        x = x.reshape(len(x), 6, len(grid))
        np.matmul(x, np.swapaxes(x, 1, 2), out=out[lo:lo + step])
        del x
    return out


def transported_moments(stack: TransformStack, grid: QuadratureGrid) -> np.ndarray:
    """All four moment blocks of the transported h/v vectors, one 6x6 per boost of stack.

    Entry [2i + a, 2j + b] of each block is (M_ab)_ij = sum_n w_n
    x_a(p_n)_i x_b(p_n)_j over the grid's whole rule, for spatial
    components i, j in (x, y, z) and basis labels a, b in (h, v) = (0, 1).
    The weights enter as sqrt(w) on both factors (see _node_vectors).

    The image of a stored node, transported by L, is the reflection of
    the node transported by P L P, so the rule's block is
    1/2 (G(L) + D G(PLP) D), with G the Gram of the transported stored
    vectors and D the reflection on index 2i + a (_IMAGE_SIGNS).  A boost
    that commutes with P (every boost with its axis in the x-z plane) has
    G(PLP) = G(L) and is transported once; any other is transported a
    second time as P L P.
    """
    boosts = stack.matrices
    mirrored = boosts * _MIRROR_SIGNS
    general = np.flatnonzero(np.any(mirrored != boosts, axis=(1, 2)))
    k = len(boosts)
    gram = _gram(np.concatenate([boosts, mirrored[general]]), grid)
    out, image = gram[:k], gram[:k].copy()
    image[general] = gram[k:]
    image *= _IMAGE_SIGNS
    out += image
    out *= 0.5
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
