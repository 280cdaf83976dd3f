"""Command-line driver.

Subcommands:

* ``single``    one (alpha, sigma_theta, xi) evaluation, prints the log
                negativity;
* ``sweep``     rapidity sweep from a JSON config and/or flags, CSV out;
* ``fig2``      preset direction sweep (five boost angles, sigma = 1.0);
* ``fig3``      preset spread sweep (four spreads, alpha = 2*pi/5);
* ``validate``  invariant self-checks, JSON report.

Exit codes: 0 success, 1 invalid configuration (a malformed flag too),
2 validation failure, 3 numerical convergence failure.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import sys

import numpy as np

from . import validation
from .lorentz import MAX_RAPIDITY
from .sweep import (
    ConfigError,
    FIG2_ALPHAS,
    FIG3_SIGMAS,
    MAX_GRID_NODES,
    SweepConfig,
    _convergence_warning,
    _read_json,
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


def build_parser() -> argparse.ArgumentParser:
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

    p_sweep = sub.add_parser("sweep", help="rapidity sweep to CSV")
    p_sweep.add_argument("--config", help="JSON config file (flags override its fields)")
    p_sweep.add_argument("--alpha", type=float, default=None)
    p_sweep.add_argument("--sigma-theta", type=float, default=None)
    p_sweep.add_argument("--xi-min", type=float, default=None, help=_RAPIDITY_HELP)
    p_sweep.add_argument("--xi-max", type=float, default=None, help=_RAPIDITY_HELP)
    p_sweep.add_argument("--xi-steps", type=int, default=None)
    _add_grid_flags(p_sweep)
    p_sweep.add_argument("--out", default=None, help="CSV path (default: config output_path or stdout)")
    p_sweep.add_argument("--timing", action="store_true", help="append the wall_time_ms column")
    p_sweep.add_argument(
        "--check-convergence",
        action="store_true",
        help="re-evaluate sample points on a doubled grid; exit 3 if they move",
    )
    p_sweep.add_argument("--plot-script", default=None, help="also write a gnuplot script here")

    for name, helptext in (("fig2", "direction-sweep preset"), ("fig3", "spread-sweep preset")):
        p_fig = sub.add_parser(name, help=helptext)
        p_fig.add_argument("--out", default=f"{name}.csv", help="combined CSV path")
        p_fig.add_argument("--timing", action="store_true", help="append the wall_time_ms column")
        p_fig.add_argument("--plot-script", default=None, help="also write a gnuplot script here")

    p_val = sub.add_parser("validate", help="run the invariant self-checks")
    p_val.add_argument("--seed", type=int, default=validation.DEFAULT_SEED)

    return parser


_FLAG_FIELDS = ("alpha", "sigma_theta", "xi_min", "xi_max", "xi_steps", "n_theta", "n_phi")


def _sweep_config(args: argparse.Namespace) -> SweepConfig:
    """The config file's fields overlaid with the flags, validated once."""
    raw = _read_json(args.config) if args.config else {}
    flags = {f: getattr(args, f) for f in _FLAG_FIELDS if getattr(args, f) is not None}
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
    cfg = _sweep_config(args)
    status = EXIT_OK
    with contextlib.ExitStack() as stack:
        out = _open_output(stack, cfg.output_path) if cfg.output_path else sys.stdout
        plot = _open_output(stack, args.plot_script) if args.plot_script else None
        rows = run_sweeps([cfg])
        message = _convergence_warning(cfg, rows) if args.check_convergence else None
        if message is not None:
            print(f"warning: {message}", file=sys.stderr)
            status = EXIT_CONVERGENCE
        _write(out, rows_to_csv(rows, include_timing=args.timing))
        if plot is not None:
            _write(plot, gnuplot_script(cfg.output_path or "-", "alpha", (cfg.alpha,)))
    return status


def _cmd_fig(args: argparse.Namespace, configs, curve_key: str, curve_values) -> int:
    with contextlib.ExitStack() as stack:
        out = _open_output(stack, args.out)
        plot = _open_output(stack, args.plot_script) if args.plot_script else None
        _write(out, rows_to_csv(run_sweeps(configs), include_timing=args.timing))
        if plot is not None:
            _write(plot, gnuplot_script(args.out, curve_key, tuple(curve_values)))
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    report = validation.validate(seed=args.seed)
    _write(sys.stdout, json.dumps(report.to_dict(), indent=2) + "\n")
    return EXIT_OK if report.passed else EXIT_VALIDATION


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "single":
            return _cmd_single(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "fig2":
            return _cmd_fig(args, preset_fig2(), "alpha", FIG2_ALPHAS)
        if args.command == "fig3":
            return _cmd_fig(args, preset_fig3(), "sigma_theta", FIG3_SIGMAS)
        if args.command == "validate":
            return _cmd_validate(args)
        raise AssertionError(f"unhandled command {args.command!r}")
    except np.linalg.LinAlgError as exc:
        # LinAlgError subclasses ValueError, so it must be caught first
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
