"""Tests of the benchmark's own arithmetic and checks (not of photonboost)."""
import math
from pathlib import Path

import pytest

import checks
import spans
import workloads


def _span(name, start, end, parent, size=None):
    return spans.Span(name, start, end, parent, size)


def test_self_time_subtracts_the_union_of_children():
    tree = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 3.0, 0),
        _span("b", 2.0, 5.0, 0),  # overlaps a: together they cover [1, 5]
        _span("c", 7.0, 8.0, 0),
        _span("leaf", 3.0, 4.0, 2),
        _span("late", 9.5, 11.0, 0),  # runs past its parent: only [9.5, 10] counts
    ]
    assert spans.self_times(tree) == pytest.approx([4.5, 2.0, 2.0, 1.0, 1.0, 1.5])


def test_summarize_totals_per_name():
    tree = [
        _span("outer", 0.0, 4.0, -1),
        _span("inner", 0.5, 1.5, 0, 10),
        _span("inner", 2.0, 3.0, 0, 30),
    ]
    totals = spans.summarize(tree)
    assert totals["outer"].calls == 1 and totals["outer"].self_s == pytest.approx(2.0)
    assert totals["inner"].calls == 2 and totals["inner"].s == pytest.approx(2.0)
    assert totals["inner"].sizes == [10, 30]


def test_pass_metrics_ratios():
    totals = {
        "beams.build_grid": spans.LayerTotals(
            3, 0.3, 0.3, [(1.0, 64, 64), (1.0, 64, 64), (1.3, 96, 96)]
        ),
        "beams.transported_pair_basis": spans.LayerTotals(2, 2e-3, 1e-3, [1000, 3000]),
        "beams.min_eigenvalue": spans.LayerTotals(8, 0.0, 0.0, []),
        "lorentz.rot_y": spans.LayerTotals(4, 0.0, 0.0, []),
        "lorentz.boost_z": spans.LayerTotals(2, 0.0, 0.0, []),
    }
    m = spans.pass_metrics(totals, states=4)
    assert m["beams.grid_reuse_ratio"] == pytest.approx(2 / 3)
    assert m["beams.build_grid.nodes"] == 2 * 64 * 64 + 96 * 96
    assert m["beams.transport.ns_per_node"] == pytest.approx(500.0)
    assert m["beams.min_eigenvalue.calls_per_row"] == 2.0
    assert m["lorentz.generators.calls"] == 6
    assert m["polarization.d_gauge_form.s"] == 0.0
    assert set(m) == {name for name, _ in spans.LAYER_METRICS} - {"trace.overhead_frac"}


def test_install_wraps_every_import_site_and_restores():
    import photonboost.lorentz as lorentz
    import photonboost.sweep as sweep

    original = sweep.make_boost
    recorder = spans.SpanRecorder()
    installed = spans.install(recorder)
    try:
        assert sweep.compose is not installed.originals["lorentz.compose"]
        counts, boost = spans.count_calls(installed.originals, lambda: sweep.make_boost(0.3, 0.5))
    finally:
        installed.remove()
    assert sweep.make_boost is original and sweep.compose is lorentz.compose
    assert boost.matrix.shape == (4, 4)
    recorded = recorder.take()
    names = [s.name for s in recorded]
    assert names.count("lorentz.compose") == 2 and names.count("lorentz.rot_y") == 2
    assert recorded[0].name == "sweep.make_boost"
    assert all(s.parent == 0 for s in recorded[1:])
    assert {n: names.count(n) for n in set(names)} == {n: c for n, c in counts.items() if c}


def _fast_curve():
    return workloads.Curve(0.5, 1.0, -1.0, 1.0, 3, 16, 16)


def _csv(lns, min_eig=1e-3):
    curve = _fast_curve()
    rows = [f"0.5,1,{xi:.9g},{ln:.9g},0,{min_eig:.9g}" for xi, ln in zip(curve.xi_values(), lns)]
    return "\n".join([checks.CSV_HEADER, *rows]) + "\n"


def _op():
    return workloads.Operation(("sweep",), Path("out.csv"), (_fast_curve(),))


def test_clean_csv_passes():
    result = checks.check_operation(_op(), 0, "", _csv([0.1, 0.5, 1.0]))
    assert not result.failed and result.rows == 3


@pytest.mark.parametrize("bad", [math.nan, -0.01, math.log2(3.0) + 1e-3, math.inf])
def test_corrupted_log_negativity_row_fails_the_operation(bad):
    result = checks.check_operation(_op(), 0, "", _csv([0.1, bad, 1.0]))
    assert result.failed
    assert any("row 2" in p for p in result.problems)


def test_negative_min_eigenvalue_short_csv_and_exit_code_fail():
    assert checks.check_operation(_op(), 0, "", _csv([0.1, 0.2, 0.3], min_eig=-1e-6)).failed
    assert checks.check_operation(_op(), 0, "", _csv([0.1, 0.2])).failed
    assert checks.check_operation(_op(), 3, "", _csv([0.1, 0.2, 0.3])).failed


def test_failed_validate_group_fails_the_operation():
    op = workloads.Operation(("validate",))
    good = '{"passed": true, "groups": {"metric": {"passed": true, "detail": ""}}}'
    bad = '{"passed": false, "groups": {"metric": {"passed": false, "detail": "x"}}}'
    assert not checks.check_operation(op, 0, good, None).failed
    assert checks.check_operation(op, 2, bad, None).failed


def test_seed_changes_inputs_but_not_work():
    a = workloads.build("dense_curve", 1, Path("w"))
    b = workloads.build("dense_curve", 2, Path("w"))
    assert a.operations[0].argv != b.operations[0].argv
    assert a.operations[0].curves[0].xi_steps == b.operations[0].curves[0].xi_steps
    fine = workloads.build("fine_grid", 7, Path("w"))
    curve = fine.operations[0].curves[0]
    assert -4.0 <= curve.xi_min < curve.xi_max <= 0.0 and 0.9 <= curve.alpha <= 1.4
    assert workloads.build("fine_grid", 7, Path("w")) == fine


def test_benchmark_json_lists_the_result_line_metrics():
    import json

    import run

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        m for m in spans.LAYER_METRICS if m[0] not in spans.OFF_RESULT_LINE
    ]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.GENERATORS)


def test_reference_comparison_flags_drift_and_nan():
    want = [0.0, 0.5, 1.0]
    assert checks.reference_problems([0.0, 0.5 + 1e-13, 1.0], want, 1e-12, "x") == []
    assert checks.reference_problems([0.0, 0.5 + 1e-11, 1.0], want, 1e-12, "x")
    assert checks.reference_problems([0.0, math.nan, 1.0], want, 1e-12, "x")
    assert checks.reference_problems([0.0, 0.5], want, 1e-12, "x")


def test_calibration_scales_each_pass_by_the_kernel_times_around_it():
    import calibrate

    ref = calibrate.REFERENCE_S
    # the machine runs at half speed around the second pass: both the pass
    # and the kernel take twice as long, and the corrected times agree
    walls, cals = [1.0, 2.0, 1.0], [ref, 2 * ref, 2 * ref, ref]
    assert calibrate.corrected(walls, cals) == pytest.approx([1 / 1.5, 1.0, 1 / 1.5])
    assert calibrate.corrected([1.0], [ref, ref]) == pytest.approx([1.0])
    with pytest.raises(ValueError):
        calibrate.corrected([1.0, 1.0], [ref, ref])
