"""Command-line driver.

Subcommands:

* ``single``    one (alpha, sigma_theta, xi) evaluation, prints the log
                negativity;
* ``sweep``     rapidity sweep from a JSON config and/or flags, CSV out;
* ``fig2``      preset direction sweep (five boost angles, sigma = 1.0);
* ``fig3``      preset spread sweep (four spreads, alpha = 2*pi/5);
* ``validate``  invariant self-checks, JSON report.

``sweep``, ``fig2`` and ``fig3`` differ only in their curves and are
written by one emitter, _cmd_sweep.

Exit codes: 0 success, 1 invalid configuration (a malformed flag too),
2 validation failure, 3 numerical convergence failure.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from dataclasses import fields

import numpy as np

from .lorentz import MAX_RAPIDITY
from .sweep import (
    ConfigError,
    MAX_GRID_NODES,
    SweepConfig,
    convergence_problem,
    gnuplot_script,
    preset_fig2,
    preset_fig3,
    rows_to_csv,
    run_sweep,
    run_sweeps,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VALIDATION = 2
EXIT_CONVERGENCE = 3


_RAPIDITY_HELP = f"boost rapidity, |xi| <= {MAX_RAPIDITY:g}"


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose malformed-flag errors are config errors (exit 1)."""

    def error(self, message: str):
        raise ConfigError(message)


def _add_grid_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--n-theta", type=int, default=None,
        help=f"polar quadrature nodes (at least 8; n-theta * n-phi <= {MAX_GRID_NODES})",
    )
    parser.add_argument("--n-phi", type=int, default=None, help="azimuthal quadrature nodes")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and reused by every main call: parsing leaves it unchanged."""
    parser = _Parser(
        prog="photonboost",
        description="Boost polarization-entangled photon beams and track their log negativity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_single = sub.add_parser("single", help="evaluate one parameter point")
    p_single.add_argument("--alpha", type=float, required=True, help="boost polar angle (rad)")
    p_single.add_argument("--sigma-theta", type=float, required=True, help="beam angular spread")
    p_single.add_argument("--xi", type=float, required=True, help=_RAPIDITY_HELP)
    _add_grid_flags(p_single)
    p_single.set_defaults(run=_cmd_single)

    p_sweep = sub.add_parser("sweep", help="rapidity sweep to CSV")
    p_sweep.add_argument("--config", help="JSON config file (flags override its fields)")
    p_sweep.add_argument("--alpha", type=float, default=None)
    p_sweep.add_argument("--sigma-theta", type=float, default=None)
    p_sweep.add_argument("--xi-min", type=float, default=None, help=_RAPIDITY_HELP)
    p_sweep.add_argument("--xi-max", type=float, default=None, help=_RAPIDITY_HELP)
    p_sweep.add_argument("--xi-steps", type=int, default=None)
    _add_grid_flags(p_sweep)
    p_sweep.add_argument("--out", default=None, help="CSV path (default: config output_path or stdout)")
    p_sweep.add_argument(
        "--check-convergence",
        action="store_true",
        help="re-evaluate sample points on a doubled grid; exit 3 if they move",
    )
    p_sweep.add_argument("--plot-script", default=None, help="also write a gnuplot script here")
    p_sweep.set_defaults(run=_cmd_sweep)

    for name, helptext in (("fig2", "direction-sweep preset"), ("fig3", "spread-sweep preset")):
        p_fig = sub.add_parser(name, help=helptext)
        p_fig.add_argument("--out", default=f"{name}.csv", help="combined CSV path")
        p_fig.add_argument("--plot-script", default=None, help="also write a gnuplot script here")
        p_fig.set_defaults(run=_cmd_sweep, check_convergence=False)

    p_val = sub.add_parser("validate", help="run the invariant self-checks")
    p_val.add_argument("--seed", type=int, default=None)
    p_val.set_defaults(run=_cmd_validate)

    return parser


def _read_json(path: str):
    """The JSON document in path, unchecked; unreadable or malformed files raise ConfigError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: nesting deeper than the parser's recursion limit
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _sweep_config(args: argparse.Namespace) -> SweepConfig:
    """The config file's fields overlaid with the flags, validated once."""
    raw = _read_json(args.config) if args.config else {}
    # every field has the flag of its name, except output_path, which is --out
    names = [f.name for f in fields(SweepConfig) if f.name != "output_path"]
    flags = {n: getattr(args, n) for n in names if getattr(args, n) is not None}
    if args.out is not None:
        flags["output_path"] = args.out
    if isinstance(raw, dict):  # any other document fails in from_mapping
        raw = {**raw, **flags}
    return SweepConfig.from_mapping(raw)


def _open_output(stack: contextlib.ExitStack, path: str):
    """Open path for writing before any computation; unwritable paths are config errors."""
    try:
        return stack.enter_context(open(path, "w", encoding="utf-8", newline="\n"))
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write(fh, text: str) -> None:
    """Write text to an output and flush it; a failed write is a config error."""
    try:
        fh.write(text)
        fh.flush()
    except OSError as exc:
        # the unwritten text stays buffered and would fail the close again
        with contextlib.suppress(OSError):
            fh.close()
        raise ConfigError(f"cannot write {fh.name}: {exc.strerror or exc}") from exc


def _cmd_single(args: argparse.Namespace) -> int:
    raw = {"alpha": args.alpha, "sigma_theta": args.sigma_theta, "xi_min": args.xi,
           "xi_max": args.xi, "xi_steps": 1}
    raw.update({f: getattr(args, f) for f in ("n_theta", "n_phi")
                if getattr(args, f) is not None})
    (row,) = run_sweep(SweepConfig.from_mapping(raw))
    _write(sys.stdout, f"{row.log_negativity:.9g}\n")
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Run sweep, fig2 or fig3; write its CSV and, if asked, its gnuplot script, both opened first."""
    if args.command == "sweep":
        configs = [_sweep_config(args)]
        curve_key, out_path = "alpha", configs[0].output_path
    elif args.command == "fig2":
        configs, curve_key, out_path = preset_fig2(), "alpha", args.out
    else:
        configs, curve_key, out_path = preset_fig3(), "sigma_theta", args.out
    plot_path = args.plot_script
    if out_path and plot_path and os.path.realpath(out_path) == os.path.realpath(plot_path):
        raise ConfigError(f"cannot write the CSV and the plot script both to {plot_path}")
    with contextlib.ExitStack() as stack:
        out = _open_output(stack, out_path) if out_path else sys.stdout
        plot = _open_output(stack, plot_path) if plot_path else None
        table = run_sweeps(configs)
        # only sweep, whose one curve is configs[0], has --check-convergence
        message = convergence_problem(configs[0], table) if args.check_convergence else None
        if message is not None:
            print(f"warning: {message}", file=sys.stderr)
        _write(out, rows_to_csv(table))
        if plot is not None:
            values = tuple(getattr(c, curve_key) for c in configs)
            _write(plot, gnuplot_script(out_path or "-", curve_key, values))
    return EXIT_OK if message is None else EXIT_CONVERGENCE


def _cmd_validate(args: argparse.Namespace) -> int:
    # validation and the wigner oracle it checks load here alone, never for a sweep
    from . import validation

    seed = validation.DEFAULT_SEED if args.seed is None else args.seed
    report = validation.validate(seed=seed)
    _write(sys.stdout, json.dumps(report.to_dict(), indent=2) + "\n")
    return EXIT_OK if report.passed else EXIT_VALIDATION


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except np.linalg.LinAlgError as exc:
        # LinAlgError subclasses ValueError, so it must be caught first
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
