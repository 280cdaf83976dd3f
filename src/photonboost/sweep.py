"""Rapidity sweeps of the boosted-pair log negativity.

A sweep evaluates one beam and one boost direction over a uniform rapidity
grid.  Its rows (the log negativity and the state sanity numbers per
rapidity) stay a (6, n) float table, table[i] holding CSV column i, from
the solve to the CSV text, which is deterministic: a header read from
SweepRow's fields, floats at nine significant digits, newline-ended rows.
A run of several sweeps (run_sweeps, as fig2 and fig3) forms each curve's
moments on its own grid and axis, and solves the states of all its rows
in order, beams.ROWS_PER_BLOCK rows per call of the state stage, so a
block of rows spans curves.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from .beams import ROWS_PER_BLOCK, BeamSpec, QuadratureGrid, axis_moments, build_grid, in_plane_axes, line_ends
from .entanglement import log_negativity_from_spectrum, state_readings
from .lorentz import BOOST_Z, MAX_RAPIDITY, ROT_Y, TransformStack, boost_z, compose, rot_y


class SweepRow(NamedTuple):
    """One sweep row; its fields are the CSV columns in order."""

    alpha: float
    sigma_theta: float
    xi: float
    log_negativity: float
    trace_residual: float
    min_eigenvalue: float


CSV_HEADER = ",".join(SweepRow._fields)

# curve sets for the two preset figures; the sources only pin sigma = 1.0
# for the direction sweep and alpha = 2*pi/5 for the spread sweep, so the
# remaining members are this package's documented choice
FIG2_ALPHAS = (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2)
FIG3_SIGMAS = (0.1, 0.5, 1.0, 1.3)
_PRESET_XI = (-3.0, 3.0, 61)

# input bounds: a sweep evaluates a grid whose rule has at most
# MAX_GRID_NODES = n_theta * n_phi nodes (the convergence check adds one
# of four times that) at most MAX_XI_STEPS times; the grid stores and
# transports n_theta * (n_phi // 2 + 1) of them
MAX_GRID_NODES = 512 * 512
MAX_XI_STEPS = 100_000

# largest log negativity shift under grid doubling that the convergence
# check accepts
_CONVERGENCE_TOL = 1e-4


class ConfigError(ValueError):
    """Invalid sweep configuration."""


def make_boost(alpha: float, xi: float) -> TransformStack:
    """Boost of rapidity xi along the direction at polar angle alpha in x-z, as a one-row stack.

    Conjugates the z boost by the y rotation, so the factor row is
    (rot_y alpha, boost_z xi, rot_y -alpha) and the matrix is the product
    of the three generators; the Wigner-angle oracles read that row.
    Sweeps read the same boost from (alpha, xi) and build no stack.
    """
    return compose(compose(rot_y(alpha), boost_z(xi)), rot_y(-alpha))


def boost_stack(alpha: float, xis) -> TransformStack:
    """make_boost(alpha, xi) for each xi, as one stack.

    Row i of the factor table is (rot_y alpha, boost_z xi_i, rot_y -alpha),
    the row make_boost composes, and the stack folds the table into the
    same matrices, bit for bit.  The states read these rows from the
    table, not the matrices (beams.transported_moments), as a sweep reads
    (alpha, xi), so density_states of this stack gives a sweep's rows bit
    for bit.  The stack constructor is the guard: it raises ValueError for
    a non-finite alpha, a rapidity beyond lorentz.MAX_RAPIDITY or a matrix
    off the metric, and it checks the table before it folds it.
    """
    xis = np.asarray(xis, dtype=float).reshape(-1)
    kinds = np.broadcast_to([ROT_Y, BOOST_Z, ROT_Y], (len(xis), 3))
    params = np.column_stack([np.full(len(xis), alpha), xis, np.full(len(xis), -alpha)])
    return TransformStack(kinds, params)


def _finite(value: numbers.Real) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range, which JSON can carry
        return False


_REAL_FIELDS = ("alpha", "sigma_theta", "xi_min", "xi_max")
_COUNT_FIELDS = ("xi_steps", "n_theta", "n_phi")


@dataclass(frozen=True)
class SweepConfig:
    alpha: float
    sigma_theta: float
    xi_min: float = -3.0
    xi_max: float = 3.0
    xi_steps: int = 61
    n_theta: int = 64
    n_phi: int = 64
    output_path: str | None = None

    def __post_init__(self) -> None:
        for name in _REAL_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigError(f"{name} must be a number, got {value!r}")
        for name in _COUNT_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.output_path is not None and not isinstance(self.output_path, str):
            raise ConfigError(f"output_path must be a string, got {self.output_path!r}")
        if not all(_finite(getattr(self, name)) for name in _REAL_FIELDS):
            raise ConfigError("all numeric config fields must be finite")
        if not 1 <= self.xi_steps <= MAX_XI_STEPS:
            raise ConfigError(f"xi_steps must lie in [1, {MAX_XI_STEPS}], got {self.xi_steps}")
        if self.xi_min > self.xi_max:
            raise ConfigError(f"xi_min {self.xi_min} exceeds xi_max {self.xi_max}")
        if max(-self.xi_min, self.xi_max) > MAX_RAPIDITY:
            raise ConfigError(
                f"rapidities must lie in [-{MAX_RAPIDITY:g}, {MAX_RAPIDITY:g}], "
                f"got [{self.xi_min}, {self.xi_max}]"
            )
        if self.n_theta < 8 or self.n_phi < 8:
            raise ConfigError(
                f"grid counts must be at least 8, got {self.n_theta}x{self.n_phi}"
            )
        if self.n_theta * self.n_phi > MAX_GRID_NODES:
            raise ConfigError(
                f"grid of {self.n_theta}x{self.n_phi} nodes exceeds the cap of "
                f"{MAX_GRID_NODES} nodes"
            )
        if not (0.0 < self.sigma_theta <= math.pi):
            raise ConfigError(f"sigma_theta must lie in (0, pi], got {self.sigma_theta}")

    def xi_values(self) -> np.ndarray:
        return np.linspace(self.xi_min, self.xi_max, self.xi_steps)

    @classmethod
    def from_mapping(cls, raw: dict) -> "SweepConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config document must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        missing = {"alpha", "sigma_theta"} - set(raw)
        if missing:
            raise ConfigError(f"missing required config fields: {sorted(missing)}")
        try:
            return cls(**raw)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc


def _curve_moments(alpha: float, xis: np.ndarray, grid: QuadratureGrid):
    """The (k, 6, 6) moments of one curve's rows at rapidities xis on grid, ROWS_PER_BLOCK rows at a time.

    No TransformStack is built: SweepConfig has checked alpha and xi as a
    stack would.  The axis is read from alpha once, as the end of its line
    (beams.line_ends of beams.in_plane_axes) with the rapidities' matching
    sign, and the rows' exp(-xi) go through the axis pass
    (beams.axis_moments).
    """
    axis, sign = line_ends(in_plane_axes(alpha))
    shrinks = (np.exp(-sign * xis[lo:lo + ROWS_PER_BLOCK]) for lo in range(0, len(xis), ROWS_PER_BLOCK))
    return axis_moments(axis, shrinks, grid)


def _regathered(blocks, rows: int):
    """The moments in blocks, (k, 6, 6) of at most ROWS_PER_BLOCK rows each, ROWS_PER_BLOCK rows at a time.

    Every stack yielded but the last holds ROWS_PER_BLOCK rows, whichever
    blocks they came from; rows is the count of all of them.  A yielded
    stack is a view, valid only until the next one is asked for, and at
    most 2 * ROWS_PER_BLOCK rows are held.
    """
    held = np.empty((min(2 * ROWS_PER_BLOCK, rows), 6, 6))
    n = 0
    for block in blocks:
        held[n:n + len(block)] = block
        n += len(block)
        if n >= ROWS_PER_BLOCK:
            yield held[:ROWS_PER_BLOCK]
            n -= ROWS_PER_BLOCK
            held[:n] = held[ROWS_PER_BLOCK:ROWS_PER_BLOCK + n]
    if n:
        yield held[:n]


def _solve_rows(blocks, table: np.ndarray) -> None:
    """Fill the state columns of a (6, n) table from the moments of its rows, in order, in blocks.

    The state stage (entanglement.state_readings: the trace and
    positivity guards and the exchange-block spectra) takes
    beams.ROWS_PER_BLOCK rows per call (_regathered), a count derived from
    its per-row bytes, so memory does not grow with the row count and no
    9x9 state is formed.  The stage rounds each row alike whatever else is
    in its stack, so a row does not depend on where the calls are cut.
    trace_residual is the trace gap before normalization.
    """
    ln, trace_res, min_eig = table[3:]
    lo = 0
    for moments in _regathered(blocks, len(ln)):
        rows = slice(lo, lo + len(moments))
        _, min_eig[rows], trace_res[rows], spectra = state_readings(moments)
        ln[rows] = log_negativity_from_spectrum(spectra)
        lo = rows.stop


def _evaluate(alpha: float, sigma_theta: float, xis: np.ndarray, grid: QuadratureGrid) -> np.ndarray:
    """The (6, n) table of one curve at rapidities xis on grid; table[i] is CSV column i.

    The rows are density_states(boost_stack(alpha, xis), grid)'s readings
    bit for bit, and a run_sweeps curve's rows at the same rapidities.
    """
    table = np.empty((len(SweepRow._fields), len(xis)))
    table[0], table[1], table[2] = alpha, sigma_theta, xis
    _solve_rows(_curve_moments(alpha, xis, grid), table)
    return table


def _sweep_moments(configs: list[SweepConfig], table: np.ndarray):
    """The moments of each config's curve in turn (_curve_moments), filling its alpha, sigma_theta and xi columns of table.

    Consecutive curves with one (sigma_theta, n_theta, n_phi) share a grid;
    a grid is dropped as soon as the next curve needs another one.
    """
    key = grid = None
    lo = 0
    for cfg in configs:
        if (cfg.sigma_theta, cfg.n_theta, cfg.n_phi) != key:
            key, grid = (cfg.sigma_theta, cfg.n_theta, cfg.n_phi), None
            grid = build_grid(BeamSpec(cfg.sigma_theta), cfg.n_theta, cfg.n_phi)
        curve = table[:3, lo:lo + cfg.xi_steps]
        curve[0], curve[1], curve[2] = cfg.alpha, cfg.sigma_theta, cfg.xi_values()
        yield from _curve_moments(cfg.alpha, curve[2], grid)
        lo += cfg.xi_steps


def run_sweeps(configs: list[SweepConfig]) -> np.ndarray:
    """The (6, n) table of several sweeps' rows in order; table[i] is CSV column i.

    The moments of every curve go through one state stage in order
    (_solve_rows), beams.ROWS_PER_BLOCK rows per call, so a block of rows
    spans curves: fig2's 305 rows take two calls and fig3's 244 one.  Each
    curve's rows are _evaluate's at its rapidities on its grid, bit for bit.
    """
    table = np.empty((len(SweepRow._fields), sum(cfg.xi_steps for cfg in configs)))
    _solve_rows(_sweep_moments(configs, table), table)
    return table


def convergence_problem(cfg: SweepConfig, table: np.ndarray) -> str | None:
    """Message of the grid-doubling check on run_sweeps([cfg])'s table, or None if it passes.

    The endpoints and the midpoint are re-evaluated on a doubled grid; the
    check fails if any log negativity moves by more than _CONVERGENCE_TOL.
    This is what sweep --check-convergence runs.
    """
    _, _, xi, ln, _, _ = table
    fine = build_grid(BeamSpec(cfg.sigma_theta), 2 * cfg.n_theta, 2 * cfg.n_phi)
    probes = sorted({0, len(xi) // 2, len(xi) - 1})
    refined = _evaluate(cfg.alpha, cfg.sigma_theta, xi[probes], fine)[3]
    worst = float(np.abs(refined - ln[probes]).max())
    if worst > _CONVERGENCE_TOL:
        return (
            f"grid doubling moved the log negativity by {worst:.3e} "
            f"(tolerance {_CONVERGENCE_TOL:.1e}); increase n_theta/n_phi"
        )
    return None


def run_sweep(cfg: SweepConfig) -> list[SweepRow]:
    """One SweepRow per rapidity of cfg's grid (see convergence_problem)."""
    return list(map(SweepRow._make, run_sweeps([cfg]).T.tolist()))


def preset_fig2() -> list[SweepConfig]:
    """Boost-direction sweep: one curve per boost angle at sigma_theta = 1.0."""
    xi_min, xi_max, steps = _PRESET_XI
    return [
        SweepConfig(alpha=a, sigma_theta=1.0, xi_min=xi_min, xi_max=xi_max, xi_steps=steps)
        for a in FIG2_ALPHAS
    ]


def preset_fig3() -> list[SweepConfig]:
    """Spread sweep: one curve per sigma_theta at alpha = 2*pi/5.

    The widest beam puts real weight in the back hemisphere, so its curve
    runs on a 96x96 grid instead of the 64x64 default.
    """
    xi_min, xi_max, steps = _PRESET_XI
    out = []
    for s in FIG3_SIGMAS:
        cfg = SweepConfig(
            alpha=2 * math.pi / 5, sigma_theta=s, xi_min=xi_min, xi_max=xi_max, xi_steps=steps
        )
        if s > 1.0:
            cfg = replace(cfg, n_theta=96, n_phi=96)
        out.append(cfg)
    return out


def rows_to_csv(table: np.ndarray) -> str:
    """CSV text of a (6, n) sweep table: CSV_HEADER, then its rows at 9 significant digits."""
    line = ",".join(["%.9g"] * len(table))
    blocks = (table[:, lo:lo + ROWS_PER_BLOCK].tolist() for lo in range(0, table.shape[1], ROWS_PER_BLOCK))
    return "\n".join([CSV_HEADER, *("\n".join(map(line.__mod__, zip(*b))) for b in blocks)]) + "\n"


def gnuplot_script(csv_path: str, curve_key: str, curve_values: tuple[float, ...]) -> str:
    """Gnuplot commands plotting one line per curve from a combined CSV.

    curve_key selects the column that distinguishes curves ('alpha' or
    'sigma_theta'); rows of other curves are filtered with the ternary
    trick.  The CSV is the contract, this script is a convenience.
    csv_path is written between single quotes, in which gnuplot reads a
    doubled quote as one.
    """
    col = {name: i for i, name in enumerate(SweepRow._fields, 1)}
    quoted = csv_path.replace("'", "''")
    lines = [
        "set datafile separator ','",
        "set key top left",
        "set xlabel 'rapidity'",
        "set ylabel 'log negativity'",
    ]
    plots = [
        f"'{quoted}' every ::1 using {col['xi']}:"
        f"(abs(${col[curve_key]} - {v:.9g}) < 1e-9 ? ${col['log_negativity']} : 1/0) "
        f"with lines title '{curve_key}={v:.4g}'"
        for v in curve_values
    ]
    lines.append("plot \\\n    " + ", \\\n    ".join(plots))
    return "\n".join(lines) + "\n"
