"""Partial transpose, Hermitian spectra and log negativity of the pair state.

Log negativity is log2 of the trace norm of the partial transpose over
photon A.  For a Hermitian matrix the trace norm is the sum of absolute
eigenvalues; a unit-trace state's partial transpose has trace one, so its
trace norm is 1 + 2 N with N the sum of the magnitudes of its negative
eigenvalues, and the log negativity is log2(1 + 2 N).  Negative
eigenvalues witness entanglement; a positive partial transpose has N = 0
and a log negativity of exactly zero.

The pair state commutes with photon exchange (SWAP), and so does its
partial transpose: both are block diagonal in the exchange basis, a 6x6
block on the symmetric subspace and a 3x3 block on the antisymmetric one
(exchange_blocks), and their spectra are the union of the blocks'.

partial_transpose_A, exchange_blocks and log_negativity accept a single
9x9 matrix or a (k, 9, 9) stack and work on the whole stack at once.
"""
from __future__ import annotations

import math

import numpy as np

_DIM = 3


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


def _exchange_basis() -> np.ndarray:
    """(9, 9) orthonormal rows, each a 3x3 two-photon amplitude flattened.

    The first six span the exchange-symmetric subspace, e_i e_i and
    (e_i e_j + e_j e_i)/sqrt 2 for i < j; the last three span the
    antisymmetric one, (e_i e_j - e_j e_i)/sqrt 2.
    """
    pairs = ((0, 1), (0, 2), (1, 2))
    rows = np.zeros((9, _DIM, _DIM))
    for i in range(_DIM):
        rows[i, i, i] = 1.0
    for n, (i, j) in enumerate(pairs):
        rows[3 + n, i, j] = rows[3 + n, j, i] = math.sqrt(0.5)
        rows[6 + n, i, j], rows[6 + n, j, i] = math.sqrt(0.5), -math.sqrt(0.5)
    return rows.reshape(9, 9)


def _block_map() -> np.ndarray:
    """(81, 90) map from a flattened 9x9 state to its four exchange blocks.

    The block of rho on the subspace spanned by basis rows B is B rho B^T,
    whose flattening is kron(B, B) applied to the flattened rho.  The
    partial transpose permutes entries and is its own inverse, so the
    block of rho^T_A reads the partially transposed rows of kron(B, B).
    The columns hold the 6x6 blocks of rho and rho^T_A, then their 3x3
    blocks.
    """
    q = _exchange_basis()
    sym, anti = np.kron(q[:6], q[:6]), np.kron(q[6:], q[6:])
    pt = [partial_transpose_A(b.reshape(-1, 9, 9)).reshape(-1, 81) for b in (sym, anti)]
    out = np.concatenate([sym, pt[0], anti, pt[1]]).T.copy()
    out.flags.writeable = False
    return out


_BLOCK_MAP = _block_map()


def exchange_blocks(rho) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric (..., 2, 6, 6) and antisymmetric (..., 2, 3, 3) blocks of rho and rho^T_A.

    Along axis -3, index 0 holds the blocks of rho and index 1 those of
    its partial transpose.  rho must commute with photon exchange: the
    blocks coupling the two subspaces vanish then and are not computed.
    """
    m = _entries(rho)
    blocks = m.reshape(m.shape[:-2] + (81,)) @ _BLOCK_MAP
    lead = m.shape[:-2] + (2,)
    return blocks[..., :72].reshape(lead + (6, 6)), blocks[..., 72:].reshape(lead + (3, 3))


def hermitian_eigenvalues(m) -> np.ndarray:
    """Ascending eigenvalues of a (possibly slightly perturbed) Hermitian matrix.

    Accepts one square matrix or a stack of them.  The input must be
    Hermitian to 1e-8; it is symmetrized before the solve.  Raises
    numpy.linalg.LinAlgError if it is not, if the solver fails to converge
    or if the eigenvalues of a matrix do not sum to its trace; for matrices
    this size each signals corrupted input.
    """
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {m.shape}")
    adjoint = np.swapaxes(m, -1, -2).conj()
    herm = float(np.abs(m - adjoint).max())
    if herm > 1e-8:
        raise np.linalg.LinAlgError(f"matrix is not Hermitian (residual {herm:.3e})")
    ev = np.linalg.eigvalsh(0.5 * (m + adjoint))
    tr = np.trace(m, axis1=-2, axis2=-1).real
    drift = np.abs(ev.sum(axis=-1) - tr)
    if not np.all(drift <= 1e-9 * np.maximum(1.0, np.abs(tr))):  # NaN fails too
        raise np.linalg.LinAlgError(
            f"eigenvalue sum drifted from the trace by {float(np.max(drift)):.3e}"
        )
    return ev


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
