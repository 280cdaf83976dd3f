"""Span recording around photonboost's public functions, from outside src/.

A span is one call of a wrapped function: its name, start, end, the span
that was open when it started (its parent) and an optional size taken
from the arguments.  Spans are kept in memory and summarized per pass;
a layer's self time is its span time minus the part of that interval its
child spans cover.

Functions are bound into other modules by ``from ... import``, so
``install`` replaces every module-level reference to each original
function in the whole ``photonboost`` package, not just the defining
module.  ``count_calls`` counts the same functions independently through
the interpreter's trace hook, so a call that reaches an original by a
route the wrappers missed shows up as a count mismatch instead of a
silent zero.
"""
from __future__ import annotations

import functools
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span
    size: object = None


def _grid_key(spec, n_theta, n_phi, *args, **kwargs):
    return (spec.sigma_theta, int(n_theta), int(n_phi))


def _momenta_count(L, momenta, *args, **kwargs):
    return len(momenta[0]) if getattr(momenta, "ndim", 1) == 2 else 1


def _theta_count(L, thetas, *args, **kwargs):
    return len(thetas)


# (span name, module, attribute path, size extractor)
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("cli.main", "photonboost.cli", "main", None),
    ("sweep.run_sweep", "photonboost.sweep", "run_sweep", None),
    ("sweep.make_boost", "photonboost.sweep", "make_boost", None),
    ("sweep.write_csv", "photonboost.sweep", "write_csv", None),
    ("beams.build_grid", "photonboost.beams", "build_grid", _grid_key),
    ("beams.reduced_density", "photonboost.beams", "reduced_density", None),
    ("beams.transported_pair_basis", "photonboost.beams", "transported_pair_basis", _theta_count),
    ("beams.min_eigenvalue", "photonboost.beams", "DensityMatrix.min_eigenvalue", None),
    ("wigner.wigner_angles", "photonboost.wigner", "wigner_angles", _momenta_count),
    ("wigner.wigner_angle_oracle", "photonboost.wigner", "wigner_angle_oracle", None),
    ("polarization.d_rotation_form", "photonboost.polarization", "d_rotation_form", None),
    ("polarization.d_gauge_form", "photonboost.polarization", "d_gauge_form", None),
    ("lorentz.compose", "photonboost.lorentz", "compose", None),
    ("lorentz.boost_z", "photonboost.lorentz", "boost_z", None),
    ("lorentz.rot_y", "photonboost.lorentz", "rot_y", None),
    ("lorentz.rot_z", "photonboost.lorentz", "rot_z", None),
    ("entanglement.log_negativity", "photonboost.entanglement", "log_negativity", None),
    ("entanglement.hermitian_eigenvalues", "photonboost.entanglement",
     "hermitian_eigenvalues", None),
    ("validation.validate", "photonboost.validation", "validate", None),
)


class SpanRecorder:
    """Collects spans from wrapped functions; one recorder per traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans

    def wrap(self, name: str, fn: Callable, size_of: Callable | None = None) -> Callable:
        spans, open_, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, open_[-1] if open_ else -1)
            if size_of is not None:
                span.size = size_of(*args, **kwargs)
            open_.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                open_.pop()

        return traced


@dataclass
class Installed:
    """Wrappers in place; ``originals`` maps span name to the wrapped function."""

    originals: dict[str, Callable] = field(default_factory=dict)
    absent: list[str] = field(default_factory=list)
    _undo: list[tuple[object, str, object]] = field(default_factory=list)

    def remove(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


def _package_modules() -> list[object]:
    return [
        m for n, m in sorted(sys.modules.items())
        if n == "photonboost" or n.startswith("photonboost.")
    ]


def install(recorder: SpanRecorder) -> Installed:
    """Wrap every TARGETS function at every place the package binds it.

    A target missing from the program (deleted or renamed) is listed in
    ``absent`` and reads zero; every present one must end up wrapped.
    """
    done = Installed()
    modules = _package_modules()
    for name, module_name, path, size_of in TARGETS:
        owner = sys.modules.get(module_name)
        *owner_path, attr = path.split(".")
        for part in owner_path:
            owner = getattr(owner, part, None)
        fn = getattr(owner, attr, None) if owner is not None else None
        if fn is None:
            done.absent.append(name)
            continue
        wrapper = recorder.wrap(name, fn, size_of)
        done.originals[name] = fn
        if owner_path:  # a method: the class attribute is the only binding
            done._undo.append((owner, attr, fn))
            setattr(owner, attr, wrapper)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    done._undo.append((module, key, fn))
                    setattr(module, key, wrapper)
    return done


def count_calls(
    originals: dict[str, Callable], run: Callable[[], object]
) -> tuple[dict[str, int], object]:
    """Calls of each original function made while run() executes, and its result.

    Uses the interpreter's trace hook, which sees every Python frame
    however the function was reached, so it is independent of the
    wrappers.  Slow; use it outside timed regions.
    """
    by_code = {fn.__code__: name for name, fn in originals.items() if hasattr(fn, "__code__")}
    counts = dict.fromkeys(originals, 0)

    def hook(frame, event, arg):
        name = by_code.get(frame.f_code)
        if name is not None:
            counts[name] += 1
        return None

    sys.settrace(hook)
    try:
        result = run()
    finally:
        sys.settrace(None)
    return counts, result


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, span.start), min(end, span.end)
            if end <= start:
                continue
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((span.end - span.start) - covered)
    return out


@dataclass
class LayerTotals:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    sizes: list = field(default_factory=list)


def summarize(spans: list[Span]) -> dict[str, LayerTotals]:
    """Per span name: call count, total time, total self time, sizes."""
    out: dict[str, LayerTotals] = {}
    for span, self_s in zip(spans, self_times(spans)):
        t = out.setdefault(span.name, LayerTotals())
        t.calls += 1
        t.s += span.end - span.start
        t.self_s += self_s
        if span.size is not None:
            t.sizes.append(span.size)
    return out


# (metric, unit): the per-layer metrics BENCHMARK.json lists, in its order
LAYER_METRICS = (
    ("beams.transported_pair_basis.s", "s"),
    ("beams.transported_pair_basis.self_s", "s"),
    ("wigner.wigner_angles.s", "s"),
    ("wigner.wigner_angles.nodes", "count"),
    ("beams.transport.ns_per_node", "ns"),
    ("beams.build_grid.s", "s"),
    ("beams.build_grid.calls", "count"),
    ("beams.build_grid.nodes", "count"),
    ("beams.grid_reuse_ratio", "ratio"),
    ("sweep.make_boost.s", "s"),
    ("sweep.make_boost.calls", "count"),
    ("beams.reduced_density.self_s", "s"),
    ("beams.min_eigenvalue.calls_per_row", "count"),
    ("entanglement.log_negativity.s", "s"),
    ("entanglement.log_negativity.calls", "count"),
    ("entanglement.hermitian_eigenvalues.s", "s"),
    ("sweep.run_sweep.self_s", "s"),
    ("lorentz.compose.calls", "count"),
    ("lorentz.compose.s", "s"),
    ("lorentz.generators.calls", "count"),
    ("polarization.d_rotation_form.s", "s"),
    ("polarization.d_rotation_form.calls", "count"),
    ("polarization.d_gauge_form.s", "s"),
    ("wigner.wigner_angle_oracle.s", "s"),
    ("wigner.wigner_angle_oracle.calls", "count"),
    ("validation.validate.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("sweep.write_csv.s", "s"),
    ("trace.overhead_frac", "ratio"),
)


_TARGET_NAMES = frozenset(t[0] for t in TARGETS)


# Times of layers that some workload never calls.  They read exactly 0.0 on
# every run of that workload, so they are printed and written to the result
# file but left off the result line and out of BENCHMARK.json; the calls
# counts of the same layers stay on it.
OFF_RESULT_LINE = frozenset({
    "sweep.run_sweep.self_s",
    "sweep.write_csv.s",
    "polarization.d_rotation_form.s",
    "polarization.d_gauge_form.s",
    "wigner.wigner_angle_oracle.s",
    "validation.validate.self_s",
})


def pass_metrics(totals: dict[str, LayerTotals], states: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all but trace.overhead_frac).

    states is the number of density states the pass evaluates, the
    denominator of beams.min_eigenvalue.calls_per_row.
    """
    def get(name: str) -> LayerTotals:
        return totals.get(name, LayerTotals())

    out: dict[str, float] = {}
    for metric, _unit in LAYER_METRICS:
        layer, _, stat = metric.rpartition(".")
        if layer in _TARGET_NAMES and stat in ("s", "self_s", "calls"):
            out[metric] = float(getattr(get(layer), stat))
    transport = get("beams.transported_pair_basis")
    transported_nodes = sum(transport.sizes)
    out["wigner.wigner_angles.nodes"] = float(sum(get("wigner.wigner_angles").sizes))
    out["beams.transport.ns_per_node"] = (
        transport.s / transported_nodes * 1e9 if transported_nodes else 0.0
    )
    grids = get("beams.build_grid")
    out["beams.build_grid.nodes"] = float(sum(nt * nphi for _, nt, nphi in grids.sizes))
    out["beams.grid_reuse_ratio"] = len(set(grids.sizes)) / grids.calls if grids.calls else 0.0
    out["beams.min_eigenvalue.calls_per_row"] = get("beams.min_eigenvalue").calls / states
    out["lorentz.generators.calls"] = float(
        sum(get(f"lorentz.{g}").calls for g in ("boost_z", "rot_y", "rot_z"))
    )
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over the traced passes."""
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
