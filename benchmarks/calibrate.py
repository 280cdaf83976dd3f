"""Machine-speed calibration for the benchmark's timed passes.

The benchmark runs on shared machines whose CPU throughput drifts by up to
2x over seconds to minutes (other tenants on the same cores and caches).
A run's median pass time follows that drift, so two runs of the same code
can differ by more than any useful regression bound.

``kernel`` is a fixed piece of work written in the same mix as the
program's passes: interpreted scalar arithmetic, numpy elementwise and
trigonometric work on arrays of a few thousand nodes, small ``einsum``
contractions, ``kron`` and 9x9 Hermitian eigensolves.  It is owned by the
benchmark and imports nothing from photonboost, so a change to the program
never changes it.  The benchmark times it right before and right after
every pass and set-up probe; their speed-corrected time is their wall time
times ``REFERENCE_S`` over the mean of the two kernel times around them.
Drift that slows both the pass and the kernel cancels; a change to the
program does not.
"""
from __future__ import annotations

import gc
import math
import time

import numpy as np

# Median time of one kernel() call, timed alone, on the machine the
# benchmark's bounds were set on (shared 2-vCPU x86_64 VM, Xeon at 2.1 GHz,
# numpy 2.4, Python 3.11, one BLAS thread).  A constant: it only turns the ratio
# pass/kernel back into seconds, identically for every commit compared.
REFERENCE_S = 0.19

_N = 4096
_rng = np.random.default_rng(20240801)
_THETA = _rng.uniform(0.0, math.pi, _N)
_PHI = _rng.uniform(0.0, 2.0 * math.pi, _N)
_M = _rng.standard_normal((3, 3, _N))
_H = _rng.standard_normal((9, 9)) + 1j * _rng.standard_normal((9, 9))
_H = _H + _H.conj().T


def kernel() -> float:
    """One unit of fixed work; returns a checksum so nothing is skipped."""
    total = 0.0
    for k in range(340):
        # interpreted scalar arithmetic, as in per-row bookkeeping
        for i in range(400):
            x = (i + k) * 1e-3
            total += math.cosh(x) - math.sinh(x) + (i * i) % 7
        # elementwise trigonometry over a grid, as in the Wigner fold
        c, s = np.cos(_THETA + 1e-3 * k), np.sin(_PHI)
        w = np.arctan2(s * c, 1.0 + c * c) * np.exp(-0.5 * _THETA**2)
        total += float(w.sum())
        # batched 3x3 products and a 9x9 spectrum, as in transport and
        # the partial-transpose eigensolve
        total += float(np.einsum("ijn,jkn->ikn", _M, _M)[0, 0].sum())
        total += float(np.linalg.eigvalsh(_H + k * np.eye(9))[0])
        total += float(np.kron(_M[:, :, k], _M[:, :, k + 1]).trace())
    return total


def timed() -> float:
    """Wall time of one kernel() call.

    The garbage collector is off meanwhile: a collection would scan the
    program's objects, so the kernel's time would depend on the program.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def corrected(walls: list[float], cals: list[float]) -> list[float]:
    """Speed-corrected pass times.

    cals has one more entry than walls: cals[i] ran right before pass i and
    cals[i + 1] right after it.
    """
    if len(cals) != len(walls) + 1:
        raise ValueError("need one kernel time before and after every pass")
    return [
        wall * REFERENCE_S / (0.5 * (before + after))
        for wall, before, after in zip(walls, cals, cals[1:])
    ]
