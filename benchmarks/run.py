"""photonboost benchmark.

    python3 benchmarks/run.py --workload presets --seed 1 --seconds 24 --trace 0
    python3 benchmarks/run.py --workload all

Runs one workload (see workloads.py and README.md) in this process as a
closed loop: one pass at a time, each pass a fixed sequence of
``photonboost.cli.main`` calls on argv generated from the seed.  The
package is imported from ``src/`` next to this directory, never from an
installed copy.  Every operation's output is checked outside the timed
region.

With --trace 0 it reports the end-to-end metrics; with --trace 1 it
alternates untraced and traced passes and reports the per-layer metrics
of spans.py.  Human-readable lines come first; the last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics
(--workload all ends with a table instead).  A result file with machine
metadata goes to .bench_out/.  The exit code is 0 only if every check
passed.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread for the program and the set-up probes: on a small shared
# machine a second BLAS thread mostly adds run-to-run noise.  Set before
# numpy loads (calibrate imports it); a value already in the environment wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import calibrate  # noqa: E402
import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"

SETUP_REPEATS = 7
MIN_PASSES = 5
MIN_TRACED_PASSES = 3
REFERENCE_FILE = HERE / "reference" / f"log_negativity_seed{workloads.DEFAULT_SEED}.json"
# ROADMAP tolerance for speed changes: full-precision log negativities
# stay within this of the recorded reference
REFERENCE_TOL = 1e-12
# the CLI's own --check-convergence tolerance
CONVERGENCE_TOL = 1e-4

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "rows_per_s": "1/s", "peak_rss_mb": "MB"}


class ProgramMissing(RuntimeError):
    """src/photonboost is absent or did not import from src/."""


def import_program():
    """Import photonboost, with its cli module, from src/ and return the package."""
    if not (SRC / "photonboost" / "__init__.py").is_file():
        raise ProgramMissing(f"no photonboost package under {SRC}")
    sys.path.insert(0, str(SRC))
    import photonboost
    import photonboost.cli

    if Path(photonboost.__file__).resolve().parent != (SRC / "photonboost").resolve():
        raise ProgramMissing(f"photonboost imported from {photonboost.__file__}, not {SRC}")
    return photonboost


# --- machine metadata -------------------------------------------------------


def _blas_info() -> tuple[str, int | None]:
    import ctypes

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        name = "unknown"
    threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    threads = int(fn())
                    break
            if threads is not None:
                break
    except OSError:
        pass
    return name, threads


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def machine_metadata() -> dict:
    import numpy as np

    blas, threads = _blas_info()
    return {
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "loadavg_at_start": os.getloadavg(),
    }


# --- passes -------------------------------------------------------------------


def setup_time(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter importing photonboost and building inputs."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise ProgramMissing(f"set-up probe failed: {done.stderr.strip()}")
    return elapsed


def run_pass(cli, wl: workloads.Workload) -> tuple[float, list[tuple[object, str, str]]]:
    """One timed pass; returns its wall time and (exit code, stdout, stderr) per operation.

    cli.main is looked up per operation, so installed span wrappers take effect.
    """
    gc.collect()
    raw = []
    start = time.perf_counter()
    for op in wl.operations:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(op.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed operation, not an abort
            code = f"raised {type(exc).__name__}: {exc}"
        raw.append((code, out.getvalue(), err.getvalue()))
    return time.perf_counter() - start, raw


def check_pass(
    wl: workloads.Workload, raw, reference: list[float] | None
) -> list[checks.OperationResult]:
    results = []
    lns: list[float] = []
    for op, (code, stdout, stderr) in zip(wl.operations, raw):
        csv_text = None
        if op.csv_path is not None and op.csv_path.is_file():
            csv_text = op.csv_path.read_text(encoding="utf-8")
            op.csv_path.unlink()
        result = checks.check_operation(op, code, stdout, csv_text)
        if stderr.strip():
            result.problems.append(f"stderr: {stderr.strip()[:200]}")
        lns.extend(result.log_negativities)
        results.append(result)
    if reference is not None and not any(r.failed for r in results):
        found = checks.reference_problems(lns, reference, checks.CSV_TOL, "CSV log negativities")
        results[-1].problems.extend(found)
    return results


def load_reference(wl: workloads.Workload, seed: int) -> list[float] | None:
    """Recorded log negativities, if this workload and seed have them.

    presets admits no free input, so its reference holds for every seed.
    """
    if wl.name != "presets" and seed != workloads.DEFAULT_SEED:
        return None
    recorded = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    return recorded.get(wl.name)


def full_precision_lns(pb, wl: workloads.Workload) -> list[float]:
    """Every curve of the workload through the public run_sweep, unrounded."""
    out = []
    for op in wl.operations:
        for c in op.curves:
            cfg = pb.SweepConfig(
                alpha=c.alpha, sigma_theta=c.sigma_theta, xi_min=c.xi_min, xi_max=c.xi_max,
                xi_steps=c.xi_steps, n_theta=c.n_theta, n_phi=c.n_phi,
            )
            out.extend(row.log_negativity for row in pb.run_sweep(cfg))
    return out


def ln_conv_delta(pb, wl: workloads.Workload) -> float:
    """Largest |LN(n) - LN(2n)| over the fine_grid probe rapidities."""
    curve, probes = wl.convergence_probe
    spec = pb.BeamSpec(curve.sigma_theta)
    coarse = pb.build_grid(spec, curve.n_theta, curve.n_phi)
    fine = pb.build_grid(spec, 2 * curve.n_theta, 2 * curve.n_phi)
    xis = curve.xi_values()
    worst = 0.0
    for i in probes:
        L = pb.make_boost(curve.alpha, xis[i])
        a = pb.log_negativity(pb.reduced_density(L, coarse, spec))
        b = pb.log_negativity(pb.reduced_density(L, fine, spec))
        worst = max(worst, abs(a - b))
    return worst


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples above it, and its value."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


# --- runs ---------------------------------------------------------------------


class Run:
    """State of one benchmark run: operations checked and problems found."""

    def __init__(self, wl: workloads.Workload, reference: list[float] | None) -> None:
        self.wl = wl
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, raw) -> list[checks.OperationResult]:
        results = check_pass(self.wl, raw, self.reference)
        self.attempted += len(results)
        for op, r in zip(self.wl.operations, results):
            if r.failed:
                self.failed += 1
                if len(self.problems) < 20:
                    self.problems.append(f"{op.argv[0]}: " + "; ".join(r.problems[:3]))
        return results


def measure_untraced(cli, run: Run, seconds: float, seed: int) -> dict:
    """Timed passes until `seconds` have gone by, with set-up probes between them.

    The calibration kernel (calibrate.py) runs right before and right after
    every pass and every set-up probe, so each can be corrected for the
    machine's speed at the time.  The probes are spread over the run so that
    they sample the same machine state as the passes.  Returns the raw and
    corrected pass and probe times, the kernel times and the rows.
    """
    run.check(run_pass(cli, run.wl)[1])  # warm-up: caches and lazy imports
    calibrate.kernel()
    walls, cals, rows, setup, setup_corrected = [], [calibrate.timed()], 0, [], []

    def probe() -> None:
        took = setup_time(run.wl.name, seed)
        after = calibrate.timed()
        setup.append(took)
        setup_corrected.append(calibrate.corrected([took], [cals[-1], after])[0])
        # the kernel time before the next pass: around the probe
        cals[-1] = 0.5 * (cals[-1] + after)

    start = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() < start + seconds:
        wall, raw = run_pass(cli, run.wl)
        cals.append(calibrate.timed())
        walls.append(wall)
        rows += sum(r.rows for r in run.check(raw))
        if len(setup) < SETUP_REPEATS * (time.perf_counter() - start) / seconds:
            probe()
    while len(setup) < SETUP_REPEATS:
        probe()
    return {
        "walls_s": walls,
        "corrected_walls_s": calibrate.corrected(walls, cals),
        "calibration_s": cals,
        "setup_samples_s": setup,
        "corrected_setup_samples_s": setup_corrected,
        "rows": rows,
    }


def measure_traced(pb, run: Run, seconds: float) -> tuple[dict[str, float], dict]:
    """Alternate untraced and traced passes, then cross-check the span counts."""
    recorder = spans.SpanRecorder()
    run.check(run_pass(pb.cli, run.wl)[1])
    plain, traced, per_pass = [], [], []
    last_spans: list[spans.Span] = []
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_TRACED_PASSES or time.perf_counter() < deadline:
        wall, raw = run_pass(pb.cli, run.wl)
        plain.append(wall)
        run.check(raw)
        installed = spans.install(recorder)
        try:
            wall, raw = run_pass(pb.cli, run.wl)
        finally:
            installed.remove()
        traced.append(wall)
        run.check(raw)
        last_spans = recorder.take()
        per_pass.append(spans.pass_metrics(spans.summarize(last_spans), run.wl.states))

    # one more traced pass under the interpreter's trace hook: every call of
    # a wrapped function must have produced exactly one span
    installed = spans.install(recorder)
    try:
        calls, (_, raw) = spans.count_calls(installed.originals, lambda: run_pass(pb.cli, run.wl))
    finally:
        installed.remove()
    run.check(raw)
    span_counts = {name: t.calls for name, t in spans.summarize(recorder.take()).items()}
    for name, n in calls.items():
        if span_counts.get(name, 0) != n:
            run.problems.append(f"trace: {name} has {span_counts.get(name, 0)} spans for {n} calls")

    metrics = spans.median_metrics(per_pass)
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    detail = {
        "untraced_walls_s": plain,
        "traced_walls_s": traced,
        "span_counts": span_counts,
        "interpreter_call_counts": calls,
        "absent_targets": installed.absent,
    }
    _write_spans(run.wl, last_spans)
    return metrics, detail


def _write_spans(wl: workloads.Workload, recorded: list[spans.Span]) -> None:
    t0 = recorded[0].start if recorded else 0.0
    rows = [[s.name, s.start - t0, s.end - t0, s.parent, s.size] for s in recorded]
    path = OUT_DIR / f"spans_{wl.name}.json"
    path.write_text(
        json.dumps({"fields": ["name", "start_s", "end_s", "parent", "size"], "spans": rows}),
        encoding="utf-8",
    )


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    try:
        pb = import_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    workdir = WORK_DIR / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    OUT_DIR.mkdir(exist_ok=True)
    try:
        wl = workloads.build(name, seed, workdir)
        run = Run(wl, load_reference(wl, seed))
        meta = machine_metadata()
        print(f"photonboost benchmark: workload {name}, seed {seed}, "
              f"{seconds:g} s, trace {int(trace)}")
        print(
            f"machine: numpy {meta['numpy']}, {meta['blas']}, BLAS threads {meta['blas_threads']}, "
            f"nproc {meta['nproc']}, Python {meta['python']}, commit {meta['git_commit'][:12]}"
        )
        result: dict = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
                        "argv": [list(op.argv) for op in wl.operations], "machine": meta}
        if trace:
            metrics, detail = measure_traced(pb, run, seconds)
            units = dict(spans.LAYER_METRICS)
            result_line = set(units) - spans.OFF_RESULT_LINE
            result["trace_detail"] = detail
            for metric, value in metrics.items():
                note = "" if metric in result_line else "  (result file only)"
                print(f"  {metric:40s} {value:.6g} {units[metric]}{note}")
            result["layer_metrics"] = metrics
            metrics = {k: v for k, v in metrics.items() if k in result_line}
        else:
            metrics, units, extra = _end_to_end(pb, run, seconds, seed)
            result.update(extra)
        result["machine"]["loadavg_at_end"] = os.getloadavg()
    except (ProgramMissing, subprocess.TimeoutExpired) as exc:  # a set-up probe failed
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            WORK_DIR.rmdir()

    correct = run.failed == 0 and not run.problems
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}")
    summary = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    result.update(summary, problems=run.problems)
    (OUT_DIR / f"BENCH_{name}_seed{seed}_trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1, default=list), encoding="utf-8"
    )
    print(json.dumps(summary))
    return 0 if correct else 1


def _end_to_end(pb, run: Run, seconds: float, seed: int):
    wl = run.wl
    measured = measure_untraced(pb.cli, run, seconds, seed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # correctness work outside the timed region, after the memory reading
    delta = None
    if wl.convergence_probe is not None:
        delta = ln_conv_delta(pb, wl)
        if not delta <= CONVERGENCE_TOL:
            run.problems.append(f"ln_conv_delta {delta:.3e} exceeds {CONVERGENCE_TOL:.0e}")
    if run.reference is not None:
        run.problems.extend(
            checks.reference_problems(
                full_precision_lns(pb, wl), run.reference, REFERENCE_TOL,
                "full-precision log negativities",
            )
        )

    walls, corrected = measured["walls_s"], measured["corrected_walls_s"]
    setup, rows = measured["corrected_setup_samples_s"], measured["rows"]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(corrected),
        # rows per pass at the median corrected pass time
        "rows_per_s": rows / len(walls) / statistics.median(corrected),
        "peak_rss_mb": peak_rss_mb,
    }
    fail_frac = run.failed / run.attempted
    tail = tail_percentile(corrected)
    print(f"  setup_s       {metrics['setup_s']:.4f} s    median of {len(setup)} fresh "
          f"interpreters, speed-corrected (uncorrected "
          f"{statistics.median(measured['setup_samples_s']):.4f} s)")
    tail_text = (
        f"p{tail[0]:.0f} {tail[1]:.4f} s (highest percentile with 10 passes above it)"
        if tail else "no percentile has 10 passes above it"
    )
    print(f"  wall_s        {metrics['wall_s']:.4f} s    median of {len(walls)} passes, "
          f"speed-corrected (uncorrected {statistics.median(walls):.4f} s); {tail_text}")
    print(f"  rows_per_s    {metrics['rows_per_s']:.2f} 1/s  {rows / len(walls):g} rows per pass")
    print(f"  peak_rss_mb   {peak_rss_mb:.1f} MB")
    print(f"  fail_frac     {fail_frac:.4g} ratio  "
          f"{run.failed} of {run.attempted} operations failed")
    print(
        f"  ln_conv_delta {delta:.3e} 1    grid {wl.convergence_probe[0].n_theta}^2 vs doubled"
        if delta is not None else "  ln_conv_delta n/a        (fine_grid only)"
    )
    print(f"  calibration kernel: median {statistics.median(measured['calibration_s']):.4f} s "
          f"over {len(measured['calibration_s'])} samples, reference {calibrate.REFERENCE_S} s")
    extra = {
        **measured,
        "calibration_reference_s": calibrate.REFERENCE_S,
        "fail_frac": fail_frac,
        "ln_conv_delta": delta,
        "wall_tail_percentile": tail,
        "reference_checked": run.reference is not None,
    }
    return metrics, END_TO_END_UNITS, extra


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process; prints a table of the key metrics."""
    table, status = [], 0
    for name in workloads.GENERATORS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        status = status or done.returncode
        path = OUT_DIR / f"BENCH_{name}_seed{seed}_trace{int(trace)}.json"
        if done.returncode in (0, 1) and path.is_file():
            table.append((name, json.loads(path.read_text(encoding="utf-8"))))
    if not trace:
        print(f"{'workload':12s} {'setup_s':>8s} {'wall_s':>8s} {'rows_per_s':>10s} "
              f"{'peak_rss_mb':>11s} {'fail_frac':>9s} {'ln_conv_delta':>13s}")
        print(f"{'':12s} {'s':>8s} {'s':>8s} {'1/s':>10s} {'MB':>11s} {'ratio':>9s} {'1':>13s}")
        for name, r in table:
            m = {k: v["value"] for k, v in r["metrics"].items()}
            delta = "n/a" if r["ln_conv_delta"] is None else f"{r['ln_conv_delta']:.3e}"
            print(f"{name:12s} {m['setup_s']:8.4f} {m['wall_s']:8.4f} {m['rows_per_s']:10.2f} "
                  f"{m['peak_rss_mb']:11.1f} {r['fail_frac']:9.3g} {delta:>13s}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.GENERATORS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=24.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
