"""Output checks for one CLI operation of a benchmark pass.

An operation fails if it exits with a code other than 0, emits a CSV that
does not match its inputs or holds a bad row, or reports a failed
`validate` group.  The checks read only what the program wrote, so they
run outside the timed region.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

from workloads import Curve, Operation

CSV_HEADER = "alpha,sigma_theta,xi,log_negativity,trace_residual,min_eigenvalue"
LN_MAX = math.log2(3.0)
MIN_EIG_FLOOR = -1e-9
# CSV floats carry nine significant digits
CSV_TOL = 1e-8


@dataclass
class OperationResult:
    exit_code: object
    problems: list[str]
    rows: int
    log_negativities: list[float]

    @property
    def failed(self) -> bool:
        return self.exit_code != 0 or bool(self.problems)


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= CSV_TOL * max(1.0, abs(want))


def check_csv(text: str, curves: tuple[Curve, ...]) -> tuple[list[str], list[float]]:
    """Problems found in a sweep CSV, and its log negativities in row order."""
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return [f"bad header {lines[0] if lines else '<empty>'!r}"], []
    expected = [(c.alpha, c.sigma_theta, xi) for c in curves for xi in c.xi_values()]
    body = lines[1:]
    if len(body) != len(expected):
        return [f"expected {len(expected)} rows, got {len(body)}"], []
    problems: list[str] = []
    lns: list[float] = []
    for i, (line, want) in enumerate(zip(body, expected), start=1):
        try:
            cells = [float(c) for c in line.split(",")]
        except ValueError:
            problems.append(f"row {i}: unparsable {line!r}")
            continue
        if len(cells) != 6:
            problems.append(f"row {i}: expected 6 columns, got {len(cells)}")
            continue
        alpha, sigma, xi, ln, _trace_res, min_eig = cells
        lns.append(ln)
        if not all(_close(g, w) for g, w in zip((alpha, sigma, xi), want)):
            problems.append(f"row {i}: (alpha, sigma, xi) = {(alpha, sigma, xi)}, expected {want}")
        if not (math.isfinite(ln) and 0.0 <= ln <= LN_MAX):
            problems.append(f"row {i}: log negativity {ln!r} outside [0, log2 3]")
        if not min_eig >= MIN_EIG_FLOOR:
            problems.append(f"row {i}: min eigenvalue {min_eig!r} below {MIN_EIG_FLOOR}")
    return problems, lns


def check_validate_report(stdout: str) -> tuple[list[str], int]:
    """Problems in a `validate` JSON report, and its number of groups."""
    try:
        report = json.loads(stdout)
        groups = report["groups"]
        passed = report["passed"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        return [f"unreadable validate report: {exc}"], 0
    failing = sorted(name for name, g in groups.items() if not g.get("passed"))
    problems = [f"validate group {name} failed: {groups[name].get('detail')}" for name in failing]
    if passed is not True:
        problems.append("validate report does not say passed")
    if not groups:
        problems.append("validate report has no groups")
    return problems, len(groups)


def check_operation(
    op: Operation, exit_code: object, stdout: str, csv_text: str | None
) -> OperationResult:
    """Check one operation; rows counts CSV rows, or report groups for validate."""
    problems: list[str] = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code!r}, expected 0")
    if op.csv_path is None:
        found, rows = check_validate_report(stdout)
        return OperationResult(exit_code, problems + found, rows, [])
    if csv_text is None:
        return OperationResult(exit_code, problems + [f"no CSV at {op.csv_path}"], 0, [])
    found, lns = check_csv(csv_text, op.curves)
    return OperationResult(exit_code, problems + found, len(lns), lns)


def reference_problems(got: list[float], want: list[float], tol: float, what: str) -> list[str]:
    """Compare log negativities with a recorded reference, entry by entry."""
    if len(got) != len(want):
        return [f"{what}: {len(got)} values, reference has {len(want)}"]
    gaps = [abs(g - w) for g, w in zip(got, want)]
    bad = [i for i, gap in enumerate(gaps) if not gap <= tol]  # NaN counts as bad
    if not bad:
        return []
    return [f"{what}: {len(bad)} values differ from the reference by more than {tol:.0e}, "
            f"first at index {bad[0]} ({got[bad[0]]!r} vs {want[bad[0]]!r})"]
