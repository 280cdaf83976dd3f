"""Partial transpose, Hermitian spectra and log negativity of the pair state.

Log negativity is log2 of the trace norm of the partial transpose over
photon A.  For a Hermitian matrix the trace norm is the sum of absolute
eigenvalues; negative eigenvalues of the partial transpose witness
entanglement, and a positive partial transpose gives exactly zero.

Every function accepts a single 9x9 matrix or a (k, 9, 9) stack and works
on the whole stack at once.
"""
from __future__ import annotations

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


def hermitian_eigenvalues(m) -> np.ndarray:
    """Ascending eigenvalues of a (possibly slightly perturbed) Hermitian matrix.

    Accepts one square matrix or a stack of them.  The input must be
    Hermitian to 1e-8; it is symmetrized before the solve.  Raises
    numpy.linalg.LinAlgError if the solver fails to converge or the
    eigenvalues of a matrix do not sum to its trace, which for matrices
    this size signals corrupted input.
    """
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {m.shape}")
    adjoint = np.swapaxes(m, -1, -2).conj()
    herm = float(np.abs(m - adjoint).max())
    if herm > 1e-8:
        raise ValueError(f"matrix is not Hermitian (residual {herm:.3e})")
    ev = np.linalg.eigvalsh(0.5 * (m + adjoint))
    tr = np.trace(m, axis1=-2, axis2=-1).real
    drift = np.abs(ev.sum(axis=-1) - tr)
    if not np.all(drift <= 1e-9 * np.maximum(1.0, np.abs(tr))):  # NaN fails too
        raise np.linalg.LinAlgError(
            f"eigenvalue sum drifted from the trace by {float(np.max(drift)):.3e}"
        )
    return ev


def log_negativity(rho):
    """log2 of the trace norm of the partial transpose; zero for PPT states.

    Returns a float for one state and a (k,) array for a (k, 9, 9) stack.
    """
    ev = hermitian_eigenvalues(partial_transpose_A(rho))
    ln = np.log2(np.abs(ev).sum(axis=-1))
    if not np.all(ln >= -1e-9):
        # the trace norm of the partial transpose of a unit-trace state is
        # at least one, so anything beyond rounding is corruption
        raise ValueError(f"log negativity {float(np.min(ln))!r} below the rounding floor")
    ln = np.maximum(ln, 0.0)
    return float(ln) if ln.ndim == 0 else ln
