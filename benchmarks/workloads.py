"""Seeded inputs for the photonboost benchmark workloads.

Each workload is a fixed sequence of ``photonboost`` CLI invocations (one
pass).  The seed only draws the free inputs a workload allows; it never
changes node or row counts, so every seed does the same amount of work.
Why each workload exists is recorded in README.md next to this file.

This module imports nothing from photonboost: the benchmark states what the
program should produce independently of the program's own presets.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 1

# presets are fixed by definition; these mirror the curve sets documented
# for `photonboost fig2` / `fig3` and are checked against the CSV they emit
FIG2_ALPHAS = (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2)
FIG3_ALPHA = 2 * math.pi / 5
FIG3_SIGMAS = (0.1, 0.5, 1.0, 1.3)
PRESET_XI = (-3.0, 3.0, 61)
VALIDATE_SEED = "20240801"


@dataclass(frozen=True)
class Curve:
    """One rapidity sweep: the fields of a photonboost SweepConfig."""

    alpha: float
    sigma_theta: float
    xi_min: float
    xi_max: float
    xi_steps: int
    n_theta: int = 64
    n_phi: int = 64

    def xi_values(self) -> list[float]:
        # same spacing as numpy.linspace, which the program uses
        if self.xi_steps == 1:
            return [self.xi_min]
        step = (self.xi_max - self.xi_min) / (self.xi_steps - 1)
        out = [self.xi_min + i * step for i in range(self.xi_steps)]
        out[-1] = self.xi_max
        return out

    def sweep_argv(self) -> list[str]:
        return [
            "--alpha", repr(self.alpha),
            "--sigma-theta", repr(self.sigma_theta),
            "--xi-min", repr(self.xi_min),
            "--xi-max", repr(self.xi_max),
            "--xi-steps", str(self.xi_steps),
            "--n-theta", str(self.n_theta),
            "--n-phi", str(self.n_phi),
        ]


@dataclass(frozen=True)
class Operation:
    """One CLI invocation and what its output must contain.

    csv_path is None for operations that report on stdout (validate).
    """

    argv: tuple[str, ...]
    csv_path: Path | None = None
    curves: tuple[Curve, ...] = ()


@dataclass(frozen=True)
class Workload:
    name: str
    operations: tuple[Operation, ...]
    # density states evaluated per pass: CSV rows plus convergence probes
    # for sweeps; for validate the 12 + 9 + 2 + 18 states its rho_sanity,
    # ln_rotation_invariance, omega_independence and convergence groups
    # build.  Denominator of beams.min_eigenvalue.calls_per_row.
    states: int
    # fine_grid only: (curve, probe indices) re-evaluated on a doubled grid
    # outside the timed region to report ln_conv_delta
    convergence_probe: tuple[Curve, tuple[int, ...]] | None = None


def _presets(seed: int, workdir: Path) -> Workload:
    del seed  # the paper's figures admit no free input
    xi_min, xi_max, steps = PRESET_XI
    fig2 = tuple(Curve(a, 1.0, xi_min, xi_max, steps) for a in FIG2_ALPHAS)
    fig3 = tuple(
        Curve(FIG3_ALPHA, s, xi_min, xi_max, steps, *((96, 96) if s > 1.0 else (64, 64)))
        for s in FIG3_SIGMAS
    )
    ops = tuple(
        Operation((cmd, "--out", str(workdir / f"{cmd}.csv")), workdir / f"{cmd}.csv", curves)
        for cmd, curves in (("fig2", fig2), ("fig3", fig3))
    )
    return Workload("presets", ops, states=sum(c.xi_steps for c in fig2 + fig3))


def _fine_grid(seed: int, workdir: Path) -> Workload:
    # alpha in [0.9, 1.4] and a rapidity window inside [-4, 0]: there the
    # 192^2 -> 384^2 grid-doubling shift stays below 5e-6, so the CLI's 1e-4
    # convergence check passes on every seed
    rng = random.Random(f"fine_grid:{seed}")
    lo = rng.uniform(-4.0, -1.0)
    hi = rng.uniform(lo + 1.0, 0.0)
    curve = Curve(rng.uniform(0.9, 1.4), 1.3, lo, hi, 9, 192, 192)
    out = workdir / "fine_grid.csv"
    argv = ("sweep", *curve.sweep_argv(), "--check-convergence", "--out", str(out))
    probes = (0, curve.xi_steps // 2, curve.xi_steps - 1)
    return Workload(
        "fine_grid",
        (Operation(argv, out, (curve,)),),
        states=curve.xi_steps + len(probes),
        convergence_probe=(curve, probes),
    )


def _dense_curve(seed: int, workdir: Path) -> Workload:
    rng = random.Random(f"dense_curve:{seed}")
    curve = Curve(rng.uniform(0.0, math.pi / 2), 1.0, -3.0, 3.0, 1201, 16, 16)
    out = workdir / "dense_curve.csv"
    argv = ("sweep", *curve.sweep_argv(), "--out", str(out))
    return Workload("dense_curve", (Operation(argv, out, (curve,)),), states=curve.xi_steps)


def _validate(seed: int, workdir: Path) -> Workload:
    # Always the program's default validate seed.  Other validate seeds
    # trip a known defect: omega_independence demands an angle gap below
    # 1e-15, and about one seed in seven gives a gap of a few ulps (1.8e-15)
    # and exits 2.  See README.md; restore a seeded draw once that
    # tolerance is fixed.
    del seed, workdir
    return Workload("validate", (Operation(("validate", "--seed", VALIDATE_SEED)),), states=41)


GENERATORS = {
    "presets": _presets,
    "fine_grid": _fine_grid,
    "dense_curve": _dense_curve,
    "validate": _validate,
}


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Workload `name` for `seed`, writing its CSV files under workdir."""
    return GENERATORS[name](seed, workdir)
