"""The pair state from the beam's moments: its guards, its spectra and its log negativity.

The pair state is (s_h |h h> + s_v |v v>)/sqrt(2) at every pair of
directions, with the signs _PAIR_SIGNS.  Tracing out momentum leaves a
9x9 real symmetric state over the spatial components (x, y, z) of photon
A tensor photon B, rho = sum_ab w_ab M_ab (x) M_ab with w_ab = s_a s_b / 2
and M_ab the 3x3 moments of the transported h/v vectors
(beams.transported_moments).

Log negativity is log2 of the trace norm of the partial transpose over
photon A.  For a Hermitian matrix the trace norm is the sum of absolute
eigenvalues; a unit-trace state's partial transpose has trace one, so its
trace norm is 1 + 2 N with N the sum of the magnitudes of its negative
eigenvalues, and the log negativity is log2(1 + 2 N).  Negative
eigenvalues witness entanglement; a positive partial transpose has N = 0
and a log negativity of exactly zero.

The state is formed in one place (_weighted_gram), as the weighted Gram
X = sum_ab w_ab vec(M_ab) vec(M_ab)^T of one batched matrix product,
kept as the 45 entries on and above its diagonal.
Entry ((i, j), (k, l)) of X is entry ((i, k), (j, l)) of rho and
((j, k), (i, l)) of its partial transpose, so both are fixed
rearrangements of X, and exchange_blocks and pair_states both read it.

Both photons see the same moments, so the state commutes with photon
exchange (SWAP) exactly, and so does its partial transpose: both are
block diagonal in the exchange basis (EXCHANGE_BASIS), a 6x6 block on
the symmetric subspace and a 3x3 block on the antisymmetric one, and
their spectra are the union of the blocks'.  exchange_blocks maps X
onto those blocks with one product by a constant map (_BLOCK_MAP), and
state_readings reads the state through them: the trace is the sum of
the blocks' traces, the smallest eigenvalue is the least over the
spectra of both of rho's blocks, and the same solve yields the
partial-transpose spectra that log_negativity_from_spectrum reads.  This
is the sweep path, and it never assembles the 9x9 state.

The basis is ordered by parity under the reflection y -> -y: the
symmetric block runs xx, yy, zz, xz (even), then xy, yz (odd), and the
antisymmetric one xz (even), then xy, yz (odd).  So each block is
[[even, C], [C^T, odd]], and a state that also commutes with the
reflection, as every state boosted along an axis in the x-z plane does,
has C = 0: its symmetric block splits into 4x4 and 2x2 blocks and its
antisymmetric one into 1x1 and 2x2 blocks.  A stack of such states takes
one LAPACK solve of its 4x4 blocks and solves the rest in closed form
(symmetric_2x2_eigenvalues); any other stack solves the whole blocks.

pair_states gathers the 9x9 states from X, for the callers that read
one (beams.density_states).  partial_transpose_A and
log_negativity accept a single 9x9 matrix or a (k, 9, 9) stack and work
on the whole stack at once; they serve those callers
(beams.reduced_density, validate).
"""
from __future__ import annotations

import math

import numpy as np

_DIM = 3

# s_h and s_v of the pair state (s_h |h h> + s_v |v v>)/sqrt(2)
_PAIR_SIGNS = np.array([1.0, -1.0])

# w_ab = s_a s_b / 2, the weight of M_ab (x) M_ab in the state, for
# (a, b) = hh, hv, vh, vv
_PAIR_WEIGHTS = 0.5 * np.multiply.outer(_PAIR_SIGNS, _PAIR_SIGNS).ravel()

# the flattened moments' entries [2i + a, 2j + b] in the order of the rows
# vec(M_ab) of _weighted_gram: (a, b) = hh, hv, vh, vv, then (i, j)
_VEC_ENTRIES = np.arange(36).reshape(_DIM, 2, _DIM, 2).transpose(1, 3, 0, 2).ravel()

# the 45 entries (p, q), p <= q, that stand for the symmetric 9x9 Gram X
# (_weighted_gram), and where entry (p, q) lies among them, in either
# order of p and q
_UPPER = np.triu_indices(9)
_GRAM_INDEX = np.zeros((9, 9), dtype=int)
_GRAM_INDEX[_UPPER] = np.arange(45)
_GRAM_INDEX = np.maximum(_GRAM_INDEX, _GRAM_INDEX.T)

# the stored entry of X that each entry ((i, k), (j, l)) of the flattened
# state reads: X's entry ((i, j), (k, l))
_STATE_ENTRIES = _GRAM_INDEX.reshape((_DIM,) * 4).transpose(0, 2, 1, 3).ravel()

# PSD tolerance on the state; anything below is an internal error, not a
# tuning problem
_MIN_EIG_TOL = -1e-9

# the unnormalized trace is 1 exactly for unit, mutually orthogonal
# transported h/v vectors; the aberration map keeps it within 7e-15 of 1
# on sweep rows at every accepted rapidity (alpha = 0.7 curves out to
# |xi| = 15 on 8^2 to 512^2, 4096 x 64 and 32768 x 8 grids) and within
# 9e-15 on drawn stacks, while h and v vectors off by 5e-11 move it by
# 2e-10 and a broken transport by O(1)
_TRACE_TOL = 1e-12


def _entries(rho) -> np.ndarray:
    m = np.asarray(rho)
    if m.shape[-2:] != (_DIM * _DIM, _DIM * _DIM):
        raise ValueError(f"expected 9x9 matrices, got shape {m.shape}")
    return m


def partial_transpose_A(rho) -> np.ndarray:
    """Transpose the photon-A indices: ((a,b),(a',b')) -> ((a',b),(a,b'))."""
    m = _entries(rho)
    blocks = m.reshape(m.shape[:-2] + (_DIM,) * 4)
    return np.swapaxes(blocks, -4, -2).reshape(m.shape)


# the pairs i < j of the exchange basis, by parity under y -> -y: xz is
# even, xy and yz are odd
_PARITY_PAIRS = ((0, 2), (0, 1), (1, 2))

# the even rows that lead the symmetric and the antisymmetric exchange
# block: xx, yy, zz and xz, then xz
_EVEN_ROWS = (_DIM + 1, 1)

# masks of the couplings C of both exchange blocks [[even, C], [C^T, odd]]
# under the reflection y -> -y, both triangles
_COUPLINGS = [np.not_equal.outer(np.arange(n) < e, np.arange(n) < e) for n, e in zip((6, 3), _EVEN_ROWS)]


def _exchange_basis() -> np.ndarray:
    """(9, 9) orthonormal rows, each a 3x3 two-photon amplitude flattened.

    The first six span the exchange-symmetric subspace: e_i e_i for xx,
    yy and zz, then (e_i e_j + e_j e_i)/sqrt 2 for xz, xy and yz.  The
    last three span the antisymmetric one, (e_i e_j - e_j e_i)/sqrt 2 for
    xz, xy and yz.  So under y -> -y each block's rows run even (xx, yy,
    zz, xz and xz), then odd (xy, yz and xy, yz).
    """
    rows = np.zeros((9, _DIM, _DIM))
    for i in range(_DIM):
        rows[i, i, i] = 1.0
    for n, (i, j) in enumerate(_PARITY_PAIRS):
        rows[3 + n, i, j] = rows[3 + n, j, i] = math.sqrt(0.5)
        rows[6 + n, i, j], rows[6 + n, j, i] = math.sqrt(0.5), -math.sqrt(0.5)
    out = rows.reshape(9, 9)
    out.flags.writeable = False
    return out


EXCHANGE_BASIS = _exchange_basis()


def _block_map() -> np.ndarray:
    """(45, 90) map from the stored weighted Gram (_weighted_gram) to the exchange blocks of rho and rho^T_A.

    Entry ((i, j), (k, l)) of the Gram X is entry ((i, k), (j, l)) of rho
    and ((j, k), (i, l)) of rho^T_A, so a block entry Q_m rho Q_n^T, with
    Q_m a row of EXCHANGE_BASIS read as a 3x3 amplitude, takes X's entry
    ((i, j), (k, l)) times (Q_m)_ik (Q_n)_jl, and the partial transpose
    swaps i and j.  X is symmetric, so the rows of an entry and of its
    mirror are summed into the row of the one stored.  The columns hold
    the flattened 6x6 blocks of rho and rho^T_A, then their 3x3 blocks.
    """
    q = EXCHANGE_BASIS.reshape(9, _DIM, _DIM)
    full = np.concatenate([
        np.einsum(spec, b, b).reshape(81, -1)
        for b in (q[:6], q[6:]) for spec in ("mik,njl->ijklmn", "mik,njl->jiklmn")
    ], axis=1)
    # every entry is 0, +-1, +-sqrt(1/2) or +-1/2; the square of the
    # basis' sqrt(1/2) is an ulp above 1/2, which is taken back here.  An
    # entry and its mirror's are equal or opposite, so their sums are exact
    full = np.sign(full) * np.sqrt(np.round(4.0 * full * full) / 4.0)
    out = np.zeros((45, full.shape[1]))
    np.add.at(out, _GRAM_INDEX.ravel(), full)
    # out stays C-ordered: OpenBLAS multiplies a Fortran-ordered right
    # factor with kernels that round a row differently for different row
    # counts
    out.flags.writeable = False
    return out


_BLOCK_MAP = _block_map()

# rows of each matrix product that rows_product takes
PRODUCT_ROWS = 8


def rows_product(rows: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """rows @ matrix for a (k, n) stack, each row rounded the same whatever k is.

    A BLAS kernel can round a row otherwise in a product of another
    number of rows, or in the last, partial tile of a product's rows, and
    numpy sends a lone row down its matrix-vector path.  So the rows are
    multiplied as a stack of PRODUCT_ROWS-row products, one BLAS call
    each, a short last block padded with zero rows.  In such a product a
    row comes out with the same bits at every position of its tile,
    whatever the tile's other rows hold (tests/test_entanglement.py
    checks this for the BLAS in use), so unrelated rows may share a tile.
    """
    k, n = rows.shape
    if k % PRODUCT_ROWS:
        rows = np.concatenate([rows, np.zeros((-k % PRODUCT_ROWS, n))])
    return (rows.reshape(-1, PRODUCT_ROWS, n) @ matrix).reshape(-1, matrix.shape[1])[:k]


def _weighted_gram(moments: np.ndarray) -> np.ndarray:
    """The weighted Grams X = sum_ab w_ab vec(M_ab) vec(M_ab)^T of (k, 6, 6) moments, 45 entries each.

    Entry [2i + a, 2j + b] of the moments is (M_ab)_ij, and w_ab are
    _PAIR_WEIGHTS.  One batched (k, 9, 4) @ (k, 4, 9) product of the
    weighted vectors vec(M_ab) by the vectors themselves forms X, so entry
    ((i, j), (k, l)) is sum_ab w_ab (M_ab)_ij (M_ab)_kl, each row's with
    the same bits whatever k is.  X is the 9x9 state up to a fixed
    permutation of its entries (pair_states).  It is symmetric, but some
    BLAS kernels (OpenBLAS's Nehalem and Atom) round the last row of the
    product otherwise than its last column, so only the 45 entries on and
    above the diagonal are kept (_UPPER), and stand for both orders.
    They are returned as rows in a buffer of whole PRODUCT_ROWS-row tiles,
    its rows past k zero, which rows_product multiplies without a copy.
    """
    k = len(moments)
    vecs = moments.reshape(k, 36)[:, _VEC_ENTRIES].reshape(k, 4, 9)
    gram = np.matmul((_PAIR_WEIGHTS[:, None] * vecs).swapaxes(1, 2), vecs)
    out = np.zeros((-(-k // PRODUCT_ROWS) * PRODUCT_ROWS, 45))
    out[:k] = gram[:, _UPPER[0], _UPPER[1]]
    return out


def exchange_blocks(moments: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric (k, 2, 6, 6) and antisymmetric (k, 2, 3, 3) blocks of rho and rho^T_A.

    moments is a (k, 6, 6) stack whose entry [2i + a, 2j + b] is (M_ab)_ij
    (beams.transported_moments), and rho = sum_ab w_ab M_ab (x) M_ab is
    the unnormalized pair state (_PAIR_WEIGHTS).  Along axis 1, index 0
    holds the blocks of rho and index 1 those of its partial transpose,
    in the basis EXCHANGE_BASIS: the symmetric blocks' rows and columns
    run xx, yy, zz, xz (even under y -> -y), then xy, yz (odd), and the
    antisymmetric ones' xz (even), then xy, yz (odd).  Both states are
    fixed permutations of the weighted Gram X (_weighted_gram), so every
    block entry is a fixed linear form in X's entries, and one matrix
    product of X's 45 stored entries with a constant map gives them all
    (_BLOCK_MAP, Q (x) Q on each block, the partial transpose's index
    swap folded into its columns).  Each block is symmetric to rounding, not exactly: the
    solvers symmetrize what they solve (hermitian_eigenvalues,
    symmetric_2x2_eigenvalues).  The blocks are column-major, the row
    axis fastest, for the batched solve.  Each row's blocks are the same
    bit for bit whatever k is (rows_product).  The 9x9 state is never
    assembled.
    """
    k = len(moments)
    # numpy's batched eigvalsh solves a stack faster when its row axis
    # has the smallest stride
    blocks = np.asfortranarray(rows_product(_weighted_gram(moments), _BLOCK_MAP)[:k])
    return blocks[:, :72].reshape(k, 2, 6, 6), blocks[:, 72:].reshape(k, 2, 3, 3)


def hermitian_eigenvalues(m) -> np.ndarray:
    """Ascending eigenvalues of a (possibly slightly perturbed) Hermitian matrix.

    Accepts one square matrix or a stack of them.  The input must be
    finite and Hermitian to 1e-8; it is symmetrized before the solve.
    Raises numpy.linalg.LinAlgError if it is not, if the solver fails to
    converge or if the eigenvalues of a matrix do not sum to its trace;
    for matrices this size each signals corrupted input.
    """
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {m.shape}")
    adjoint = np.swapaxes(m, -1, -2).conj()
    # one working copy serves the check and then the symmetrized solve
    work = m - adjoint
    herm = float(np.abs(work, out=work).real.max(initial=0.0))
    if not herm <= 1e-8:  # a NaN or inf entry leaves a NaN or inf residual
        raise np.linalg.LinAlgError(
            f"matrix is not Hermitian or has a non-finite entry (residual {herm:.3e})"
        )
    np.add(m, adjoint, out=work)
    work *= 0.5
    ev = np.linalg.eigvalsh(work)
    tr = np.add.reduce(m.diagonal(0, -2, -1), axis=-1).real
    drift = np.abs(np.add.reduce(ev, axis=-1) - tr)
    if not (drift <= 1e-9 * np.maximum(np.abs(tr), 1.0)).all():  # NaN fails too
        raise np.linalg.LinAlgError(
            f"eigenvalue sum drifted from the trace by {float(np.max(drift)):.3e}"
        )
    return ev


def symmetric_2x2_eigenvalues(m) -> np.ndarray:
    """Ascending eigenvalues of a (..., 2, 2) stack of real symmetric matrices, in closed form.

    With [[a, b], [c, d]] symmetrized as hermitian_eigenvalues does, they
    are (a + d)/2 -+ hypot(a - d, b + c)/2, each within a few ulp of the
    matrix norm.  The input must be symmetric to 1e-8, as for
    hermitian_eigenvalues; raises numpy.linalg.LinAlgError if it is not.
    A NaN entry gives NaN eigenvalues rather than an error.
    """
    m = np.asarray(m)
    a, b, c, d = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    herm = float(np.abs(b - c).max(initial=0.0))
    if herm > 1e-8:
        raise np.linalg.LinAlgError(f"matrix is not Hermitian (residual {herm:.3e})")
    trace, radius = a + d, np.hypot(a - d, b + c)
    ev = np.empty(m.shape[:-1])
    np.subtract(trace, radius, out=ev[..., 0])
    np.add(trace, radius, out=ev[..., 1])
    ev *= 0.5
    return ev


def pair_states(moments: np.ndarray) -> np.ndarray:
    """Unnormalized (k, 9, 9) states sum_ab w_ab M_ab (x) M_ab of (k, 6, 6) moments.

    Entry ((i, k), (j, l)) of a state is entry ((i, j), (k, l)) of the
    weighted Gram X (_weighted_gram), which exchange_blocks reads too, so
    the states are a fixed gather of X's stored entries (_STATE_ENTRIES),
    each row's the same bit for bit whatever k is.  Exchanging the photons
    maps each entry of X onto its mirror, which is the same stored float,
    so SWAP rho SWAP = rho holds to the last bit whatever BLAS kernel
    formed X.  Only the callers that read a 9x9 state call it; sweeps
    never do.
    """
    k = len(moments)
    return _weighted_gram(moments)[:k, _STATE_ENTRIES].reshape(k, 9, 9)


def state_readings(moments: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The trace and PSD guards on the states of (k, 6, 6) moments, and their spectra.

    Both guards read the exchange blocks of the states (exchange_blocks).
    Where both triangles of every coupling C of the stack are exactly
    zero, as on every sweep row, the even 4x4 symmetric blocks of rho and
    rho^T_A take one hermitian_eigenvalues call, the odd 2x2 blocks the
    closed form (symmetric_2x2_eigenvalues) and the 1x1 blocks none;
    since no closed form can drift from its trace but by a NaN or an
    infinity, their eigenvalues must be finite instead.  Any other stack
    solves the whole 6x6 and 3x3 blocks.  Returns the traces before
    normalization, the smallest eigenvalues and trace gaps |tr - 1| of the
    normalized states and the (k, 9) spectra of their partial transposes:
    the symmetric block's six eigenvalues, then the antisymmetric block's
    three, each block's ascending, or ascending within each parity when
    split (4 + 2 and 1 + 2).  Raises numpy.linalg.LinAlgError if a gap
    exceeds _TRACE_TOL or an eigenvalue lies below _MIN_EIG_TOL: either is
    an internal error.  Its memory grows with k, so a sweep run passes its
    rows in blocks cut at its own edges, every beams.ROWS_PER_BLOCK rows;
    k = 0 gives empty readings.
    """
    sym, anti = exchange_blocks(moments)
    tr = np.add.reduce(sym[:, 0].diagonal(0, 1, 2), axis=1)
    tr += np.add.reduce(anti[:, 0].diagonal(0, 1, 2), axis=1)
    gap = np.abs(tr - 1.0)
    ok = gap <= _TRACE_TOL  # NaN fails too
    if not ok.all():
        raise np.linalg.LinAlgError(
            f"density matrix trace {float(tr[~ok][0])!r} before normalization is not 1; "
            "this indicates an internal error"
        )
    if any(np.logical_or.reduce(b, None, where=c) for b, c in zip((sym, anti), _COUPLINGS)):
        spectra = np.concatenate([hermitian_eigenvalues(sym), hermitian_eigenvalues(anti)], axis=-1)
    else:
        e, f = _EVEN_ROWS
        odd = symmetric_2x2_eigenvalues(
            np.concatenate([sym[:, :, None, e:, e:], anti[:, :, None, f:, f:]], axis=2)
        )
        spectra = np.concatenate(
            [hermitian_eigenvalues(sym[:, :, :e, :e]), odd[:, :, 0], anti[:, :, :f, 0], odd[:, :, 1]], axis=-1
        )
        if not np.isfinite(spectra).all():
            raise np.linalg.LinAlgError("eigenvalues of the exchange blocks are not finite")
    spectra /= tr[:, None, None]
    min_eig = spectra[:, 0].min(axis=1)
    if not np.all(min_eig >= _MIN_EIG_TOL):
        raise np.linalg.LinAlgError(
            f"density matrix is not positive semidefinite (min eigenvalue "
            f"{float(np.min(min_eig)):.3e}); this indicates an internal error"
        )
    return tr, min_eig, gap, spectra[:, 1]


def log_negativity_from_spectrum(ev) -> np.ndarray:
    """log2(1 + 2 N) of each row of partial-transpose eigenvalues of a unit-trace state.

    N sums the magnitudes of the negative eigenvalues, so a positive
    partial transpose gives exactly zero.  An eigenvalue within 16 eps of
    its row's largest magnitude is rounding and counts as zero.  It is
    evaluated as log1p(2 N) / ln 2, which keeps a small log negativity
    accurate.
    """
    ev = np.asarray(ev)
    floor = 16 * np.finfo(float).eps * np.abs(ev).max(axis=-1, keepdims=True)
    negative = np.where(ev < -floor, -ev, 0.0).sum(axis=-1)
    return np.log1p(2.0 * negative) / math.log(2.0)


def log_negativity(rho):
    """log2 of the trace norm of the partial transpose; zero for PPT states.

    rho is a unit-trace state (see log_negativity_from_spectrum): raises
    ValueError if a trace is more than 1e-9 from 1 or is NaN.  Returns a
    float for one state and a (k,) array for a (k, 9, 9) stack.
    """
    m = _entries(rho)
    tr = np.trace(m, axis1=-2, axis2=-1).ravel()
    bad = tr[~(np.abs(tr - 1.0) <= 1e-9)]  # NaN fails too
    if bad.size:
        raise ValueError(f"log_negativity takes a unit-trace state, got trace {bad[0].item()!r}")
    ln = log_negativity_from_spectrum(hermitian_eigenvalues(partial_transpose_A(m)))
    return float(ln) if ln.ndim == 0 else ln
