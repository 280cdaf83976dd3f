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

Both photons see the same moments, so the state commutes with photon
exchange (SWAP) exactly, and so does its partial transpose: both are
block diagonal in the exchange basis (EXCHANGE_BASIS), a 6x6 block on
the symmetric subspace and a 3x3 block on the antisymmetric one, and
their spectra are the union of the blocks'.  exchange_blocks builds
those blocks straight from the moments, and state_readings reads the
state through them: the trace is the sum of the blocks' traces, the
smallest eigenvalue is the least over the spectra of both of rho's
blocks, and the same solve yields the partial-transpose spectra that
log_negativity_from_spectrum reads.  This is the sweep path, and it
forms no 9x9 matrix.

The basis is ordered by parity under the reflection y -> -y: the
symmetric block runs xx, yy, zz, xz (even), then xy, yz (odd), and the
antisymmetric one xz (even), then xy, yz (odd).  So each block is
[[even, C], [C^T, odd]], and a state that also commutes with the
reflection, as every state boosted along an axis in the x-z plane does,
has C = 0: its symmetric block splits into 4x4 and 2x2 blocks and its
antisymmetric one into 1x1 and 2x2 blocks.  A stack of such states takes
one LAPACK solve of its 4x4 blocks and solves the rest in closed form
(symmetric_2x2_eigenvalues); any other stack solves the whole blocks.

pair_states assembles the 9x9 states from the same moments, for the
callers that read one (beams.density_states).  partial_transpose_A and
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


# the entries (i, j) of a symmetric 3x3 matrix with i <= j, and of an
# antisymmetric one with i < j, in the order the moments are read
# (_read_map) and multiplied (_product_blocks)
_SYM_PAIRS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
_ANTI_PAIRS = ((0, 1), (0, 2), (1, 2))

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

# the weights w_hh, w_vv and w_hv + w_vh of H (x) H, V (x) V and S (x) S in
# the state (exchange_blocks), shaped to scale a (k, 3, 6) stack of their
# unique entries; K (x) K has the weight of S (x) S
_TERM_WEIGHTS = np.array([_PAIR_WEIGHTS[0], _PAIR_WEIGHTS[3], _PAIR_WEIGHTS[1] + _PAIR_WEIGHTS[2]])[:, None]


def _read_map() -> np.ndarray:
    """(36, 21) map from flattened 6x6 moments to the unique entries exchange_blocks reads.

    Entry [2i + a, 2j + b] of the moments is (M_ab)_ij.  The columns hold
    H = M_hh, V = M_vv and S = (X + X^T)/2 at _SYM_PAIRS, then K =
    (X - X^T)/2 at _ANTI_PAIRS, with X = (M_hv + M_vh^T)/2; each entry
    averages the moments' two triangles, which are equal for a Gram.
    """
    read = np.zeros((6, 6, 21))
    for m, (i, j) in enumerate(_SYM_PAIRS):
        for a in (0, 1):
            read[2 * i + a, 2 * j + a, 6 * a + m] += 0.5
            read[2 * j + a, 2 * i + a, 6 * a + m] += 0.5
        for r, c in ((2 * i, 2 * j + 1), (2 * j + 1, 2 * i), (2 * j, 2 * i + 1), (2 * i + 1, 2 * j)):
            read[r, c, 12 + m] += 0.25
    for m, (i, j) in enumerate(_ANTI_PAIRS):
        for (r, c), sign in (
            ((2 * i, 2 * j + 1), 1.0), ((2 * j + 1, 2 * i), 1.0),
            ((2 * j, 2 * i + 1), -1.0), ((2 * i + 1, 2 * j), -1.0),
        ):
            read[r, c, 18 + m] += 0.25 * sign
    return read.reshape(36, 21)


def _upper_triangles() -> tuple[np.ndarray, np.ndarray]:
    """The 54 of the 90 flattened block entries on or above each block's diagonal, and their mirror map.

    The 90 entries are the two 6x6 blocks, then the two 3x3 blocks, of
    exchange_blocks.  Returns the entries i <= j in that order and, for
    each of the 90, the index among those 54 of the entry
    (min(i, j), max(i, j)) of its block.
    """
    kept, mirror = [], []
    for offset, size in ((0, 6), (36, 6), (72, 3), (81, 3)):
        upper = [(i, j) for i in range(size) for j in range(i, size)]
        rank = {pair: len(kept) + n for n, pair in enumerate(upper)}
        kept += [offset + size * i + j for i, j in upper]
        mirror += [rank[min(i, j), max(i, j)] for i in range(size) for j in range(size)]
    return np.array(kept), np.array(mirror)


_UPPER, _MIRROR = _upper_triangles()


def _product_blocks() -> np.ndarray:
    """(45, 54) map from the products of exchange_blocks to the exchange blocks of rho and rho^T_A.

    A symmetric A = sum_m a_m E_m, with E_m the symmetric 0/1 matrix at
    _SYM_PAIRS[m], has A (x) A = sum_mn a_m a_n E_m (x) E_n, and an
    antisymmetric K = sum_m k_m F_m, with F_m = e_i e_j^T - e_j e_i^T at
    _ANTI_PAIRS[m], has K (x) K = sum_mn k_m k_n F_m (x) F_n.  Rows 6 m + n
    hold the blocks of E_m (x) E_n, and rows 36 + 3 m + n those of
    F_m (x) F_n times the weight K (x) K has in the state (_TERM_WEIGHTS).
    The columns hold the flattened 6x6 blocks of rho and rho^T_A, then
    their 3x3 blocks, in the basis EXCHANGE_BASIS: rows and columns xx,
    yy, zz, xz, xy, yz of the symmetric blocks and xz, xy, yz of the
    antisymmetric ones; only the entries on and above each diagonal are
    kept (_UPPER), which exchange_blocks mirrors, so every block is
    exactly symmetric.
    """
    sym, anti = np.zeros((6, 3, 3)), np.zeros((3, 3, 3))
    for m, (i, j) in enumerate(_SYM_PAIRS):
        sym[m, i, j] = sym[m, j, i] = 1.0
    for m, (i, j) in enumerate(_ANTI_PAIRS):
        anti[m, i, j], anti[m, j, i] = 1.0, -1.0
    terms = np.concatenate([
        np.einsum("mij,nkl->mnikjl", sym, sym).reshape(36, 9, 9),
        _TERM_WEIGHTS[2] * np.einsum("mij,nkl->mnikjl", anti, anti).reshape(9, 9, 9),
    ])
    q = EXCHANGE_BASIS
    pt = partial_transpose_A(terms)
    out = np.concatenate(
        [(b @ t @ b.T).reshape(45, -1) for b in (q[:6], q[6:]) for t in (terms, pt)], axis=1
    )
    # every entry is 0, +-1/2, +-1 or +-sqrt(1/2); the products of the
    # basis' sqrt(1/2) leave some an ulp off, which is taken back here
    for unit in (0.5, math.sqrt(0.5)):
        exact = np.round(out / unit) * unit
        out = np.where(np.abs(out - exact) <= 1e-12, exact, out)
    # C order: OpenBLAS multiplies a Fortran-ordered right factor with
    # kernels that round a row differently for different row counts
    out = np.ascontiguousarray(out[:, _UPPER])
    out.flags.writeable = False
    return out


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


_READ_MAP = _read_map()
_PRODUCT_BLOCKS = _product_blocks()


def exchange_blocks(moments: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric (k, 2, 6, 6) and antisymmetric (k, 2, 3, 3) blocks of rho and rho^T_A.

    moments is a (k, 6, 6) stack whose entry [2i + a, 2j + b] is (M_ab)_ij
    (beams.transported_moments), and rho = sum_ab w_ab M_ab (x) M_ab is
    the unnormalized pair state (_PAIR_WEIGHTS).  Along axis 1, index 0
    holds the blocks of rho and index 1 those of its partial transpose,
    in the basis EXCHANGE_BASIS: the symmetric blocks' rows and columns
    run xx, yy, zz, xz (even under y -> -y), then xy, yz (odd), and the
    antisymmetric ones' xz (even), then xy, yz (odd).  With H = M_hh,
    V = M_vv and M_hv = S + K split into its symmetric and antisymmetric
    parts,
    rho = w_hh H (x) H + w_vv V (x) V + (w_hv + w_vh) (S (x) S + K (x) K),
    and each block entry is a fixed bilinear form in their entries.  One
    matrix product reads those entries (_READ_MAP), a batched one and a
    broadcast one make their 45 weighted pairwise products, and a third
    maps these onto the blocks' entries on and above the diagonal
    (_PRODUCT_BLOCKS), which are mirrored below it, so every block is
    exactly symmetric.  Each row's blocks are the same bit for bit
    whatever k is (rows_product).  No 9x9 matrix is formed.
    """
    k = len(moments)
    u = rows_product(moments.reshape(k, 36), _READ_MAP)
    hvs, kappa = u[:, :18].reshape(k, 3, 6), u[:, 18:]
    products = np.empty((k, 45))
    np.matmul((_TERM_WEIGHTS * hvs).swapaxes(1, 2), hvs, out=products[:, :36].reshape(k, 6, 6))
    np.multiply(kappa[:, :, None], kappa[:, None, :], out=products[:, 36:].reshape(k, 3, 3))
    blocks = rows_product(products, _PRODUCT_BLOCKS)[:, _MIRROR]
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

    One broadcast product makes the four terms, one per (a, b).  Entry
    ((i, k), (j, l)) of a term is the product of (M_ab)_ij and (M_ab)_kl,
    and the terms are summed in one order for every entry, so exchanging
    the photons maps each entry onto an exactly equal one:
    SWAP rho SWAP = rho holds to the last bit.  Only the callers that read
    a 9x9 state call it; sweeps never do.
    """
    k = len(moments)
    m = moments.reshape(k, 3, 2, 3, 2).transpose(2, 4, 0, 1, 3).reshape(4, k, 3, 3)
    terms = (_PAIR_WEIGHTS[:, None, None, None] * m)[:, :, :, None, :, None] * m[:, :, None, :, None, :]
    return np.add.reduce(terms, axis=0).reshape(k, 9, 9)


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

    rho is a unit-trace state (see log_negativity_from_spectrum).  Returns a
    float for one state and a (k,) array for a (k, 9, 9) stack.
    """
    ev = hermitian_eigenvalues(partial_transpose_A(rho))
    log_trace_norm = np.log2(np.abs(ev).sum(axis=-1))
    if not np.all(log_trace_norm >= -1e-9):
        # the trace norm of the partial transpose of a unit-trace state is
        # at least one, so anything beyond rounding is corruption
        raise ValueError(
            f"log negativity {float(np.min(log_trace_norm))!r} below the rounding floor"
        )
    ln = log_negativity_from_spectrum(ev)
    return float(ln) if ln.ndim == 0 else ln
