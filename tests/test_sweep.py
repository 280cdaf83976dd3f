import json
import math
import os
import platform
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from photonboost import beams, cli, entanglement
from photonboost.beams import ROWS_PER_BLOCK, BeamSpec, build_grid, density_states, reduced_density
from photonboost.entanglement import log_negativity
from photonboost.lorentz import (
    BOOST_Z,
    MAX_RAPIDITY,
    ROT_Y,
    TransformStack,
    boost_z,
    metric_residuals,
    require_metric,
)
from photonboost.sweep import (
    CSV_HEADER,
    MAX_GRID_NODES,
    MAX_XI_STEPS,
    ConfigError,
    FIG2_ALPHAS,
    FIG3_SIGMAS,
    SweepConfig,
    SweepRow,
    boost_stack,
    convergence_problem,
    gnuplot_script,
    make_boost,
    preset_fig2,
    preset_fig3,
    rows_to_csv,
    run_sweep,
    run_sweeps,
)

FAST = dict(xi_steps=3, n_theta=16, n_phi=16)


def test_make_boost_alpha_zero_is_pure_boost():
    L = make_boost(0.0, 1.4)
    assert L.kinds.tolist() == [[ROT_Y, BOOST_Z, ROT_Y]]
    assert L.params.tolist() == [[0.0, 1.4, -0.0]]
    assert np.abs(L.matrix - boost_z(1.4).matrix).max() < 1e-15


def test_make_boost_zero_rapidity_is_identity():
    assert np.abs(make_boost(1.1, 0.0).matrix - np.eye(4)).max() < 1e-15


def test_make_boost_transverse_direction():
    xi = 0.9
    out = make_boost(math.pi / 2, xi).apply(np.array([[1.0], [0.0], [0.0], [0.0]]))[:, 0]
    want = np.array([math.cosh(xi), math.sinh(xi), 0.0, 0.0])
    assert np.abs(out - want).max() < 1e-14


def test_make_boost_metric_preserving():
    assert metric_residuals(make_boost(2 * math.pi / 5, 3.0).matrices)[0] < 1e-12


@pytest.mark.parametrize("alpha", [0.0, 0.7, 2 * math.pi / 5, math.pi / 2, 3.0])
def test_boost_stack_matches_make_boost(alpha):
    xis = np.array([-MAX_RAPIDITY, -12.0, -3.0, -1e-9, 0.0, 0.4, 3.0, 12.0, MAX_RAPIDITY])
    stack = boost_stack(alpha, xis)
    for i, (xi, got) in enumerate(zip(xis, stack.matrices)):
        want = make_boost(alpha, xi)
        assert np.array_equal(stack.kinds[i:i + 1], want.kinds)
        assert np.array_equal(stack.params[i:i + 1], want.params)
        assert np.abs(got - want.matrix).max() <= 1e-15 * max(1.0, np.abs(want.matrix).max())


def test_boost_stack_matrices_are_the_fold_of_its_factor_table():
    # the states read boost_stack's rows from the table, so its matrices
    # must be exactly what the table folds to, bit for bit with make_boost
    xis = np.linspace(-MAX_RAPIDITY, MAX_RAPIDITY, 31)
    for alpha in (0.0, 2 * math.pi / 5, -2.9):
        stack = boost_stack(alpha, xis)
        want = np.concatenate([make_boost(alpha, xi).matrices for xi in xis])
        assert stack.matrices.tobytes() == want.tobytes()


def test_boost_stack_rejects_rapidities_beyond_the_bound():
    with pytest.raises(ValueError, match="rapidity"):
        boost_stack(0.3, [0.0, MAX_RAPIDITY * 1.001])
    with pytest.raises(ValueError, match="rapidity"):
        boost_stack(0.3, [math.nan])
    with pytest.raises(ValueError, match="rapidity"):
        make_boost(0.3, 800.0)


@pytest.mark.filterwarnings("error")
def test_boost_stack_guard_runs_before_any_overflow_warning():
    # cosh(800) and sin(inf) would warn while the rows are built; the stack
    # guard must be what the caller sees
    with pytest.raises(ValueError, match="rapidity"):
        boost_stack(0.3, [0.0, 800.0])
    with pytest.raises(ValueError, match="must be finite"):
        boost_stack(math.inf, [0.5])


def test_metric_guard_fires_on_a_corrupted_boost_stack():
    # the stack's matrices are its table's fold, so the corruption goes
    # to the guard that the constructor runs on the fold
    s = boost_stack(0.9, np.linspace(-MAX_RAPIDITY, MAX_RAPIDITY, 7))
    require_metric(s.matrices)
    corrupted = s.matrices.copy()
    corrupted[2, 0, 1] *= 1.0 + 1e-6
    with pytest.raises(ValueError, match="metric"):
        require_metric(corrupted)


def test_batched_curve_matches_per_point_reduced_density():
    cfg = SweepConfig(alpha=1.1, sigma_theta=1.3, xi_min=-4.0, xi_max=4.0, xi_steps=9,
                      n_theta=24, n_phi=24)
    spec = BeamSpec(cfg.sigma_theta)
    grid = build_grid(spec, cfg.n_theta, cfg.n_phi)
    for row in run_sweep(cfg):
        L = make_boost(cfg.alpha, row.xi)
        rho = reduced_density(L, grid, spec)
        assert abs(row.log_negativity - log_negativity(rho)) < 1e-12
        assert abs(row.min_eigenvalue - np.linalg.eigvalsh(rho)[0]) < 1e-12
        # the trace gap before normalization, which the normalized rho no longer shows
        (gap,) = density_states(L, grid)[2]
        assert abs(row.trace_residual - gap) < 1e-12


def test_curves_sharing_a_grid_match_separate_sweeps(monkeypatch):
    cfgs = [SweepConfig(alpha=a, sigma_theta=1.0, xi_min=-1.0, xi_max=1.0, **FAST) for a in (0.0, 1.0)]
    cfgs.append(SweepConfig(alpha=0.5, sigma_theta=0.5, xi_min=-1.0, xi_max=1.0, **FAST))
    separate = [row for cfg in cfgs for row in run_sweep(cfg)]
    import photonboost.sweep as sweep_mod

    built = []
    real = sweep_mod.build_grid
    monkeypatch.setattr(sweep_mod, "build_grid", lambda *a: built.append(a) or real(*a))
    shared = run_sweeps(cfgs)
    assert shared.T.tolist() == [list(row) for row in separate]
    assert len(built) == 2
    # three 200-row curves go through the state stage as blocks of 260,
    # 260 and 80 rows: the first block holds all of the first curve and
    # part of the second, the second the rest of it and part of the third,
    # on another grid.  Each curve's rows are its own sweep's, bit for bit
    cfgs = [SweepConfig(alpha=a, sigma_theta=s, xi_min=-9.0, xi_max=9.0, xi_steps=200, n_theta=16, n_phi=16)
            for a, s in ((0.3, 1.0), (2.0, 1.0), (1.2, 0.4))]
    assert cfgs[0].xi_steps < ROWS_PER_BLOCK < 2 * cfgs[0].xi_steps
    shared = run_sweeps(cfgs)
    for i, cfg in enumerate(cfgs):
        assert shared[:, 200 * i:200 * (i + 1)].tobytes() == run_sweeps([cfg]).tobytes(), i


def test_sweep_rows_cover_the_grid():
    cfg = SweepConfig(alpha=0.3, sigma_theta=0.8, xi_min=-1.0, xi_max=1.0, **FAST)
    rows = run_sweep(cfg)
    assert [r.xi for r in rows] == [-1.0, 0.0, 1.0]
    for r in rows:
        assert r.log_negativity >= 0.0
        assert r.trace_residual < 1e-9
        assert r.min_eigenvalue >= -1e-9
        assert r.alpha == 0.3 and r.sigma_theta == 0.8


def test_sweep_narrow_beam_stays_bell_like():
    cfg = SweepConfig(alpha=1.0, sigma_theta=0.01, xi_min=-2.0, xi_max=2.0, n_theta=32, n_phi=32, xi_steps=5)
    for row in run_sweep(cfg):
        assert abs(row.log_negativity - 1.0) < 1e-2


def test_sweep_forward_boost_nondecreasing():
    cfg = SweepConfig(alpha=0.0, sigma_theta=1.0, xi_min=0.0, xi_max=3.0, xi_steps=7, n_theta=32, n_phi=32)
    ln = [r.log_negativity for r in run_sweep(cfg)]
    assert np.all(np.diff(ln) >= -1e-9)


def test_sweep_wide_beam_zero_crossing_then_revival():
    cfg = SweepConfig(
        alpha=2 * math.pi / 5, sigma_theta=1.3, xi_min=-3.0, xi_max=0.0, xi_steps=16,
        n_theta=48, n_phi=48,
    )
    rows = run_sweep(cfg)
    ln = np.array([r.log_negativity for r in rows])
    assert ln.min() < 1e-2
    # more negative rapidity than the dead zone carries more entanglement
    i_dead = int(np.argmin(ln))
    assert ln[0] > ln[i_dead]
    assert rows[0].xi < rows[i_dead].xi


def test_csv_deterministic(tmp_path):
    cfg = SweepConfig(alpha=0.4, sigma_theta=0.9, xi_min=-0.5, xi_max=0.5, **FAST)
    a = rows_to_csv(run_sweeps([cfg]))
    b = rows_to_csv(run_sweeps([cfg]))
    assert a == b
    path = tmp_path / "rows.csv"
    argv = ["sweep", "--alpha", "0.4", "--sigma-theta", "0.9", "--xi-min", "-0.5",
            "--xi-max", "0.5", "--xi-steps", "3", "--n-theta", "16", "--n-phi", "16",
            "--out", str(path)]
    assert cli.main(argv) == 0
    assert path.read_bytes() == a.encode()


@pytest.mark.parametrize("command", ["fig2", "fig3"])
def test_preset_csv_is_identical_from_a_cold_and_a_warm_rule_cache(command, tmp_path):
    cold, warm = tmp_path / "cold.csv", tmp_path / "warm.csv"
    beams._gauss_legendre.cache_clear()
    assert cli.main([command, "--out", str(cold)]) == 0
    built = beams._gauss_legendre.cache_info().misses
    assert cli.main([command, "--out", str(warm)]) == 0
    assert beams._gauss_legendre.cache_info().misses == built
    assert cold.read_bytes() == warm.read_bytes()


def test_csv_format():
    cfg = SweepConfig(alpha=0.0, sigma_theta=0.5, xi_min=0.0, xi_max=0.0, xi_steps=1, n_theta=16, n_phi=16)
    text = rows_to_csv(run_sweeps([cfg]))
    lines = text.splitlines()
    assert lines[0] == "alpha,sigma_theta,xi,log_negativity,trace_residual,min_eigenvalue"
    assert len(lines) == 2
    assert text.endswith("\n")
    cells = lines[1].split(",")
    assert len(cells) == 6
    for c in cells:
        float(c)
        mantissa = c.split("e")[0].replace("-", "").replace("+", "").replace(".", "")
        assert len(mantissa.lstrip("0")) <= 9  # nine significant digits


@pytest.mark.parametrize("command", ["sweep", "fig2", "fig3"])
def test_cli_rejects_the_timing_flag(command, tmp_path, capsys):
    # no command takes --timing: a malformed flag exits 1 before any output is opened
    out = tmp_path / "rows.csv"
    argv = [command, "--timing", "--out", str(out)]
    if command == "sweep":
        argv += ["--alpha", "0", "--sigma-theta", "1", "--n-theta", "8", "--n-phi", "8"]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "--timing" in captured.err


def test_one_parser_serves_every_main_call_as_a_fresh_one_would(tmp_path, capsys):
    # build_parser runs once per process; fig2, a sweep with flags, a
    # malformed flag and validate, in that order through the kept parser,
    # exit and print as each does on a parser built for it alone
    def runs(fresh):
        folder = tmp_path / ("fresh" if fresh else "kept")
        folder.mkdir()
        results = []
        for argv in (
            ["fig2", "--out", str(folder / "fig2.csv")],
            ["sweep", "--alpha", "0.4", "--sigma-theta", "0.9", "--xi-steps", "3",
             "--n-theta", "16", "--n-phi", "16", "--out", str(folder / "sweep.csv")],
            ["sweep", "--alpha", "zero", "--sigma-theta", "1"],
            ["validate"],
        ):
            if fresh:
                cli.build_parser.cache_clear()
            code = cli.main(argv)
            out = capsys.readouterr()
            files = {p.name: p.read_bytes() for p in folder.iterdir()}
            results.append((code, out.out, out.err, files))
        return results

    kept = runs(fresh=False)
    assert cli.build_parser() is cli.build_parser()
    assert [code for code, *_ in kept] == [0, 0, 1, 0]
    assert "invalid float value: 'zero'" in kept[2][2]
    assert runs(fresh=True) == kept


def test_csv_header_is_read_from_sweep_row():
    assert CSV_HEADER == "alpha,sigma_theta,xi,log_negativity,trace_residual,min_eigenvalue"
    assert issubclass(SweepRow, tuple)
    assert SweepRow._fields == tuple(CSV_HEADER.split(","))


def test_sweep_rows_are_named_tuples_in_column_order():
    # benchmarks/run.py reads .log_negativity and .xi off run_sweep's rows
    cfg = SweepConfig(alpha=0.3, sigma_theta=0.8, xi_min=-0.5, xi_max=0.5, **FAST)
    rows = run_sweep(cfg)
    assert [r.xi for r in rows] == cfg.xi_values().tolist()
    for row in rows:
        assert isinstance(row, SweepRow)
        assert row[:3] == (0.3, 0.8, row.xi)
        assert row[3] == row.log_negativity and 0.0 < row.log_negativity <= 1.0
        assert row[5] == row.min_eigenvalue


def test_run_sweep_rows_are_the_cli_csv_cells(capsys):
    # a library caller's rows and the CLI's CSV carry the same numbers
    cfg = SweepConfig(alpha=0.9, sigma_theta=1.3, xi_min=-15.0, xi_max=15.0, xi_steps=ROWS_PER_BLOCK + 3,
                      n_theta=16, n_phi=16)
    argv = ["sweep", "--alpha", "0.9", "--sigma-theta", "1.3", "--xi-min", "-15", "--xi-max", "15",
            "--xi-steps", str(cfg.xi_steps), "--n-theta", "16", "--n-phi", "16"]
    assert cli.main(argv) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    assert header == CSV_HEADER
    assert [line.split(",") for line in lines] == [[f"{x:.9g}" for x in row] for row in run_sweep(cfg)]


@pytest.mark.parametrize("curve_key", ["alpha", "sigma_theta"])
def test_gnuplot_columns_are_the_header_positions(curve_key):
    names = CSV_HEADER.split(",")
    text = gnuplot_script("rows.csv", curve_key, (0.5,))
    (using,) = re.findall(r"using (\d+):\(abs\(\$(\d+) - 0\.5\) < 1e-9 \? \$(\d+) : 1/0\)", text)
    want = [names.index(n) + 1 for n in ("xi", curve_key, "log_negativity")]
    assert [int(c) for c in using] == want


def test_run_sweeps_solves_no_9x9(monkeypatch):
    # mechanism pin (eigvalsh shapes and block edges, ROADMAP item 14)
    shapes = []
    real = np.linalg.eigvalsh

    def recording(m, *args, **kwargs):
        shapes.append(np.shape(m))
        return real(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    steps = ROWS_PER_BLOCK + 6
    cfgs = [SweepConfig(alpha=a, sigma_theta=1.0, xi_min=-12.0, xi_max=12.0, xi_steps=steps,
                        n_theta=16, n_phi=16) for a in (0.0, 2 * math.pi / 5)]
    assert run_sweeps(cfgs).shape == (len(SweepRow._fields), 2 * steps)
    assert run_sweeps([]).shape == (len(SweepRow._fields), 0)
    # one solve for each ROWS_PER_BLOCK rows of the run, whichever curves
    # they belong to: the two curves' 532 rows take blocks of 260, 260 and
    # 12, the second spanning both curves.  Each solve takes the even 4x4
    # symmetric blocks of the states and their partial transposes; the
    # 2x2 and 1x1 blocks are solved in closed form, and no 9x9, 6x6 or
    # 3x3 matrix is solved
    assert shapes == [(ROWS_PER_BLOCK, 2, 4, 4), (ROWS_PER_BLOCK, 2, 4, 4), (12, 2, 4, 4)]


def test_rows_per_block_comes_from_the_byte_budget():
    # a row keeps its 36 moments and its 90 block entries through the state stage
    assert ROWS_PER_BLOCK == beams._BLOCK_BYTES // (8 * (36 + 90)) == 260


def test_sweeps_run_with_the_9x9_assembly_removed(monkeypatch):
    def no_9x9(moments):
        raise AssertionError("a sweep assembled a 9x9 state")

    cfg = SweepConfig(alpha=0.4, sigma_theta=1.0, xi_min=-4.0, xi_max=4.0, xi_steps=9,
                      n_theta=16, n_phi=16)
    want = run_sweep(cfg)
    monkeypatch.setattr(entanglement, "pair_states", no_9x9)
    assert run_sweep(cfg) == want
    with pytest.raises(AssertionError, match="9x9"):
        density_states(boost_stack(0.4, [1.0]), build_grid(BeamSpec(1.0), 16, 16))


def _state_columns(row):
    """log_negativity, trace_residual and min_eigenvalue of a SweepRow or a table column."""
    return tuple(row[3:])


@pytest.mark.parametrize("n", [16, 64, 128, 192])
@pytest.mark.parametrize(
    "alpha",
    [0.0, 0.7, math.pi / 2, 2 * math.pi / 5, -2.9, 3.0],
    ids=["0", "0_7", "pi_2", "2pi_5", "-2_9", "3_0"],
)
def test_rows_of_a_curve_over_many_blocks_match_each_row_alone_and_the_stack(alpha, n):
    import photonboost.sweep as sweep_mod

    # 2.5 blocks: two full ones and a half one; a row's state does not
    # depend on the rows solved with it, to the last bit: a lone row takes
    # every matrix product as a block's rows do (entanglement.rows_product),
    # where numpy's matrix-vector path moved a log negativity by up to
    # 2.5e-15 on this curve.  A sweep reads each row's axis and exp(-xi) as
    # the stack route reads them from boost_stack's factor rows, so its
    # rows are density_states' readings of that stack, bit for bit; 128^2
    # and 192^2 store 8,320 and 18,624 nodes, two and three node blocks
    # (beams._SUM_NODES), and 16^2 and 64^2 one each
    steps = 5 * ROWS_PER_BLOCK // 2
    xis = np.linspace(-15.0, 15.0, steps)
    grid = build_grid(BeamSpec(1.3), n, n)
    blocks = sum(1 for _ in beams._aberration_tables(beams.in_plane_axes(0.7), grid))
    assert blocks == {16: 1, 64: 1, 128: 2, 192: 3}[n]
    table = sweep_mod._evaluate(alpha, 1.3, xis, grid)
    _, min_eig, gap, spectra = density_states(boost_stack(alpha, xis), grid)
    stacked = (entanglement.log_negativity_from_spectrum(spectra), gap, min_eig)
    for column, want in zip(table[3:], stacked):
        assert column.tobytes() == want.tobytes()
    for i in range(0, steps, 7):
        alone = sweep_mod._evaluate(alpha, 1.3, xis[i:i + 1], grid)
        assert _state_columns(alone[:, 0]) == _state_columns(table[:, i]), i


def test_sweeps_build_no_transform_stack(monkeypatch, tmp_path, capsys):
    # a sweep row goes from (alpha, xi) to the in-plane axis pass: no stack
    # is folded for it and no metric guard runs on matrices it never reads
    def no_stack(self):
        raise AssertionError("a sweep built a TransformStack")

    monkeypatch.setattr(TransformStack, "__post_init__", no_stack)
    steps = 5 * ROWS_PER_BLOCK // 2
    cfg = SweepConfig(alpha=0.7, sigma_theta=1.0, xi_min=-15.0, xi_max=15.0, xi_steps=steps,
                      n_theta=16, n_phi=16)
    assert run_sweeps([cfg]).shape == (len(SweepRow._fields), steps)
    assert cli.main(["single", "--alpha", "0.7", "--sigma-theta", "1.0", "--xi", "1.5"]) == 0
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--alpha", "0.8", "--sigma-theta", "1.0", "--xi-steps", "5",
            "--check-convergence", "--out", str(out)]
    assert cli.main(argv) == 0
    assert len(out.read_text().splitlines()) == 6
    with pytest.raises(AssertionError, match="TransformStack"):
        boost_stack(0.7, [1.5])


@pytest.mark.parametrize(
    "sigma, n",
    [pytest.param(1.0, 16, id="1.0"), pytest.param(1.3, 16, id="1.3"),
     pytest.param(1.0, 64, id="1.0-64"), pytest.param(1.0, 128, id="1.0-128"),
     pytest.param(1.3, 192, id="1.3-192")],
)
def test_single_and_sweep_give_the_same_row_bit_for_bit(sigma, n):
    # 129 rows are summed a part at a time, each part in whole products of
    # 8 rows (entanglement.rows_product), the last one padded; single runs
    # each point as a sweep of one row, and must print what a sweep prints.
    # 128^2 and 192^2 store 8,320 and 18,624 nodes, two and three node
    # blocks (beams._SUM_NODES), which are the same for any row count
    cfg = SweepConfig(alpha=0.7, sigma_theta=sigma, xi_min=-3.0, xi_max=3.0, xi_steps=129,
                      n_theta=n, n_phi=n)
    rows = run_sweep(cfg)
    for i in [*range(0, 129, 7), 128]:
        xi = rows[i].xi
        (alone,) = run_sweep(replace(cfg, xi_min=xi, xi_max=xi, xi_steps=1))
        assert _state_columns(alone) == _state_columns(rows[i]), i


# run in a fresh interpreter, where OPENBLAS_CORETYPE picks the BLAS
# kernels: every 7th row of a 650-row sweep on 16^2, alone, against its
# sweep row, and the 9x9 states of a stack of Grams, row by row and under
# photon exchange; prints the failures
_CORE_TYPE_PROBE = """
from dataclasses import replace
import numpy as np
from photonboost.entanglement import pair_states
from photonboost.sweep import SweepConfig, run_sweep

cfg = SweepConfig(alpha=0.7, sigma_theta=1.3, xi_min=-15.0, xi_max=15.0, xi_steps=650,
                  n_theta=16, n_phi=16)
rows = run_sweep(cfg)
bad = [i for i in range(0, len(rows), 7)
       if repr(run_sweep(replace(cfg, xi_min=rows[i].xi, xi_max=rows[i].xi, xi_steps=1))[0][3:])
       != repr(rows[i][3:])]
x = np.random.default_rng(7).normal(size=(70, 6, 8))
moments = x @ x.swapaxes(1, 2)
states = pair_states(moments)
swap = np.arange(9).reshape(3, 3).T.ravel()
bad += ["swap"] * (not np.array_equal(states[:, swap][:, :, swap], states))
bad += [f"state {i}" for i in (0, 33, 69)
        if pair_states(moments[i:i + 1])[0].tobytes() != states[i].tobytes()]
print(bad)
"""


def _openblas_core_types():
    """The OPENBLAS_CORETYPE values this CPU runs; skips the test where there are none."""
    if platform.machine() != "x86_64":
        pytest.skip("the core types are x86_64 ones")
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pytest.skip("numpy does not report its BLAS")
    if "openblas" not in blas:
        pytest.skip(f"numpy's BLAS is {blas}, not OpenBLAS")
    try:
        with open("/proc/cpuinfo") as info:
            flags = next((line.split(":", 1)[1].split() for line in info if line.startswith("flags")), [])
    except OSError:
        pytest.skip("the CPU's flags are not readable")
    cores = (("Nehalem", "sse4_2"), ("Haswell", "avx2"), ("SkylakeX", "avx512f"))
    return ["Prescott"] + [core for core, flag in cores if flag in flags]


def test_a_lone_row_matches_its_sweep_row_under_every_openblas_core_type_the_cpu_runs():
    # README: a lone row equals its sweep row bit for bit under every
    # OpenBLAS core type tried; each core type rounds otherwise, so each
    # is compared with itself.  Nehalem's kernel rounds the last row of a
    # 9x9 product otherwise than its last column, which pair_states' exact
    # exchange symmetry must not depend on
    src = os.path.dirname(os.path.dirname(cli.__file__))
    for core in _openblas_core_types():
        done = subprocess.run(
            [sys.executable, "-c", _CORE_TYPE_PROBE], capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_CORETYPE": core},
        )
        assert done.returncode == 0, (core, done.stderr)
        assert done.stdout.strip() == "[]", core


def test_a_3_row_sweep_on_192_squared_gives_the_rows_of_a_61_row_sweep_bit_for_bit():
    import photonboost.sweep as sweep_mod

    # 192^2 takes 4 boosts per part of the node sums, g and g^2 of each in
    # one product of 8-row tiles: the 61-row sweep sums its rows in parts
    # of 4 and a last one of 1, and the 3-row sweep sums g and g^2 of its
    # rows in one tile, at other positions and beside other rows
    # (entanglement.rows_product)
    grid = build_grid(BeamSpec(1.3), 192, 192)
    xis = np.linspace(-3.0, 3.0, 61)
    table = sweep_mod._evaluate(1.1, 1.3, xis, grid)
    picked = [13, 30, 60]
    three = sweep_mod._evaluate(1.1, 1.3, xis[picked], grid)
    assert three.tobytes() == np.ascontiguousarray(table[:, picked]).tobytes()


def test_sweeps_keep_both_reflection_symmetries_to_rounding():
    # the axis at -alpha is the mirror image x -> -x of the one at alpha,
    # which the beam shares, and a boost of xi along the axis at alpha + pi
    # is one of -xi along alpha: so LN(-alpha, xi) = LN(alpha, xi) and
    # LN(alpha + pi, xi) = LN(alpha, -xi), which hold to 2e-15 here.
    # Axes with sin(alpha) < 0 are read along the other end of their line,
    # with the rapidity's sign flipped (beams.line_ends); criterion 06
    # checks the second only at alpha = pi/2, and only to 0.05
    alphas = (0.3, 1.2, 2 * math.pi / 5, math.pi / 2, 2.0, 2.9)
    cfgs = [
        SweepConfig(alpha=a, sigma_theta=1.0, xi_min=-6.0, xi_max=6.0, xi_steps=25, n_theta=32, n_phi=32)
        for alpha in alphas
        for a in (alpha, -alpha, alpha + math.pi)
    ]
    table = run_sweeps(cfgs)
    xi = table[2, :25]
    assert np.array_equal(xi[::-1], -xi)
    for base, mirrored, opposite in table[3].reshape(len(alphas), 3, 25):
        assert base.max() > 0.1
        assert np.abs(mirrored - base).max() <= 1e-13
        assert np.abs(opposite - base[::-1]).max() <= 1e-13


def test_a_curve_on_a_grid_of_one_node_block_runs_one_table_pass(monkeypatch):
    import photonboost.sweep as sweep_mod

    # dense_curve's shape: 1201 rows on 16^2 (144 stored nodes, one node
    # block) go through the axis pass in 5 blocks of rows, which share one
    # table; 128^2 (8,320 stored nodes, two node blocks) keeps running the
    # pass for each block of rows, so its memory stays bounded by a node
    # block.  Every row is the row of its block of rows alone, bit for bit
    passes = []
    real = beams._aberration_tables

    def counting_tables(axis, grid):
        passes.append(len(grid))
        yield from real(axis, grid)

    for n, steps, want in ((16, 1201, 1), (128, 5 * ROWS_PER_BLOCK // 2, 3)):
        grid = build_grid(BeamSpec(1.0), n, n)
        xis = np.linspace(-3.0, 3.0, steps)
        blocks = [sweep_mod._evaluate(0.7, 1.0, xis[lo:lo + ROWS_PER_BLOCK], grid)
                  for lo in range(0, steps, ROWS_PER_BLOCK)]
        monkeypatch.setattr(beams, "_aberration_tables", counting_tables)
        passes.clear()
        table = sweep_mod._evaluate(0.7, 1.0, xis, grid)
        monkeypatch.undo()
        assert passes == [len(grid)] * want
        assert table.tobytes() == np.concatenate(blocks, axis=1).tobytes()


@pytest.mark.parametrize(
    "preset, cuts, stage",
    [
        (preset_fig2, [61, 61, 61, 61, 16, 45], [260, 45]),
        (preset_fig3, [61, 61, 61, 61], [244]),
        (lambda: [SweepConfig(alpha=0.7, sigma_theta=1.0, xi_steps=1201, n_theta=16, n_phi=16)],
         [260, 260, 260, 260, 161], [260, 260, 260, 260, 161]),
    ],
    ids=["fig2", "fig3", "dense_curve"],
)
def test_a_run_cuts_its_curves_at_its_own_block_edges(preset, cuts, stage, monkeypatch):
    import photonboost.sweep as sweep_mod

    # mechanism pin (block edges, ROADMAP item 14): the run's rows go
    # through the state stage ROWS_PER_BLOCK at a time whichever curves
    # they come from, so fig2's fifth curve is cut into the 16 rows that
    # fill the first block and the 45 that start the second, fig3's 244
    # rows take one call, and dense_curve's 1201 rows five
    blocks, calls = [], []
    real_moments, real_stage = sweep_mod.axis_moments, sweep_mod.state_readings

    def recording_moments(axis, shrinks, grid):
        for moments in real_moments(axis, shrinks, grid):
            blocks.append(len(moments))
            yield moments

    def recording_stage(moments):
        calls.append(len(moments))
        return real_stage(moments)

    monkeypatch.setattr(sweep_mod, "axis_moments", recording_moments)
    monkeypatch.setattr(sweep_mod, "state_readings", recording_stage)
    run_sweeps(preset())
    assert (blocks, calls) == (cuts, stage)


def test_a_1201_row_curve_peaks_under_1_mb():
    import photonboost.sweep as sweep_mod

    # dense_curve's length: the rows go through the state stage
    # ROWS_PER_BLOCK at a time and peak near 0.7 MB, the kept table included;
    # the whole curve at once would peak at 2.3 MB, and at 4.8 MB through a
    # 9x9 stage of about 4 KB per row
    grid = build_grid(BeamSpec(1.0), 16, 16)
    xis = np.linspace(-3.0, 3.0, 1201)
    sweep_mod._evaluate(0.7, 1.0, xis[:3], grid)
    tracemalloc.start()
    try:
        table = sweep_mod._evaluate(0.7, 1.0, xis, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.shape == (len(SweepRow._fields), 1201)
    assert peak <= 2**20


def _per_cell_csv(table):
    """rows_to_csv's output, formatted one cell at a time."""
    lines = [CSV_HEADER, *(",".join(f"{cell:.9g}" for cell in col) for col in table.T.tolist())]
    return "\n".join(lines) + "\n"


def test_csv_rows_match_per_cell_formatting():
    # a table over two and a bit formatting blocks, its cells rotated
    # through nan, +-inf, -0, a subnormal and numbers of every width
    specials = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, -1.2345678949e-7, 1.0 / 3.0]
    cols = [np.roll(specials, -i)[:len(SweepRow._fields)] for i in range(2 * ROWS_PER_BLOCK + 37)]
    table = np.concatenate(
        [np.column_stack(cols), run_sweeps([SweepConfig(alpha=0.3, sigma_theta=0.8, **FAST)])], axis=1
    )
    text = rows_to_csv(table)
    assert text == _per_cell_csv(table)
    lines = text.splitlines()
    assert len(lines) == 1 + table.shape[1]
    assert lines[1] == "nan,inf,-inf,-0,0,4.94065646e-324"
    assert "1e+16" in text


def test_formatting_a_100000_row_table_peaks_under_13_5_mib():
    # the CSV text is about 5.4 MiB, and its block texts and their join
    # peak near 10.7 MiB: no Python float or tuple outlives its block
    n = MAX_XI_STEPS
    rng = np.random.default_rng(3)
    table = np.stack([np.full(n, 0.7), np.full(n, 1.0), np.linspace(-15.0, 15.0, n),
                      rng.uniform(0.0, 1.58, n), rng.uniform(0.0, 1e-14, n), rng.uniform(-1e-16, 0.3, n)])
    rows_to_csv(table[:, :3])
    tracemalloc.start()
    try:
        text = rows_to_csv(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.count("\n") == n + 1
    assert peak <= 13.5 * 2**20


def test_convergence_check_warns_on_crude_grid():
    cfg = SweepConfig(
        alpha=2 * math.pi / 5, sigma_theta=1.3, xi_min=-3.0, xi_max=-3.0, xi_steps=1,
        n_theta=8, n_phi=8,
    )
    message = convergence_problem(cfg, run_sweeps([cfg]))
    assert message is not None and "grid doubling" in message


def test_convergence_check_quiet_on_good_grid():
    cfg = SweepConfig(alpha=0.2, sigma_theta=0.5, xi_min=-1.0, xi_max=1.0, xi_steps=3, n_theta=48, n_phi=48)
    assert convergence_problem(cfg, run_sweeps([cfg])) is None


def test_fig2_presets_share_spread():
    cfgs = preset_fig2()
    assert [c.alpha for c in cfgs] == list(FIG2_ALPHAS)
    assert all(c.sigma_theta == 1.0 for c in cfgs)
    assert all(c.xi_steps == 61 for c in cfgs)


def test_fig3_presets_share_direction():
    cfgs = preset_fig3()
    assert [c.sigma_theta for c in cfgs] == list(FIG3_SIGMAS)
    assert all(abs(c.alpha - 2 * math.pi / 5) < 1e-15 for c in cfgs)
    assert all(c.xi_steps == 61 for c in cfgs)
    wide = [c for c in cfgs if c.sigma_theta > 1.0]
    assert all(c.n_theta == 96 and c.n_phi == 96 for c in wide)


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        SweepConfig(alpha=0.0, sigma_theta=1.0, xi_steps=0)
    with pytest.raises(ConfigError):
        SweepConfig(alpha=0.0, sigma_theta=1.0, xi_min=2.0, xi_max=-2.0)
    with pytest.raises(ConfigError):
        SweepConfig(alpha=0.0, sigma_theta=1.0, n_theta=4)
    with pytest.raises(ConfigError):
        SweepConfig(alpha=0.0, sigma_theta=-1.0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("alpha", True),
        ("sigma_theta", False),
        ("xi_min", "0"),
        ("p0", None),
        ("xi_steps", 3.5),
        ("xi_steps", True),
        ("n_theta", 8.0),
        ("n_phi", "16"),
        ("xi_max", 800.0),
        ("xi_min", -MAX_RAPIDITY - 1.0),
        ("xi_steps", 10**9),
        ("n_theta", MAX_GRID_NODES // 8 + 1),
        ("output_path", 3),
    ],
)
def test_config_rejects_bad_types_and_out_of_range_values(field, value):
    raw = {"alpha": 0.3, "sigma_theta": 1.0, "n_phi": 8, field: value}
    with pytest.raises(ConfigError):
        SweepConfig.from_mapping(raw)


def test_config_accepts_integers_for_real_fields_and_the_rapidity_bound():
    cfg = SweepConfig(alpha=1, sigma_theta=1, xi_min=-MAX_RAPIDITY, xi_max=MAX_RAPIDITY)
    assert cfg.xi_values()[0] == -MAX_RAPIDITY


def test_gnuplot_script_mentions_each_curve():
    text = gnuplot_script("fig3.csv", "sigma_theta", FIG3_SIGMAS)
    for s in FIG3_SIGMAS:
        assert f"sigma_theta={s:.4g}" in text
    assert "plot" in text


def test_gnuplot_script_doubles_quotes_in_the_csv_path(tmp_path):
    # gnuplot reads '' as one quote inside a single-quoted string
    text = gnuplot_script("x'y.csv", "alpha", (0.5,))
    assert "'x''y.csv' every" in text
    out, script = tmp_path / "x'y.csv", tmp_path / "p.gp"
    argv = ["sweep", "--alpha", "0.5", "--sigma-theta", "1", "--xi-steps", "2",
            "--n-theta", "8", "--n-phi", "8", "--out", str(out), "--plot-script", str(script)]
    assert cli.main(argv) == 0
    quoted = str(out).replace("'", "''")
    assert f"'{quoted}' every" in script.read_text()


def test_cli_single_prints_log_negativity(capsys):
    code = cli.main(
        ["single", "--alpha", "0", "--sigma-theta", "0.01", "--xi", "0", "--n-theta", "32", "--n-phi", "32"]
    )
    assert code == 0
    out = float(capsys.readouterr().out.strip())
    assert abs(out - 1.0) < 1e-2


def test_cli_single_rejects_bad_spread(capsys):
    code = cli.main(["single", "--alpha", "0", "--sigma-theta", "-1", "--xi", "0"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_cli_sweep_writes_csv(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code = cli.main(
        [
            "sweep", "--alpha", "0.3", "--sigma-theta", "0.8", "--xi-min", "-1", "--xi-max", "1",
            "--xi-steps", "3", "--n-theta", "16", "--n-phi", "16", "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("alpha,")
    assert len(lines) == 4


def test_cli_sweep_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "alpha": 0.0, "sigma_theta": 0.8, "xi_min": -1.0, "xi_max": 1.0,
                "xi_steps": 3, "n_theta": 16, "n_phi": 16,
            }
        )
    )
    code = cli.main(["sweep", "--config", str(cfg), "--xi-steps", "2"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3  # header + 2 rows


def test_cli_sweep_invalid_config_exits_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 0.0, "sigma_theta": 0.8, "n_theta": 2}))
    assert cli.main(["sweep", "--config", str(cfg)]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["single", "--alpha", "0", "--sigma-theta", "1", "--xi", "800"],
        ["single", "--alpha", "0", "--sigma-theta", "1", "--xi", "nan"],
        ["single", "--alpha", "0", "--sigma-theta", "1", "--xi", "0", "--n-theta", "4096",
         "--n-phi", "4096"],
        ["sweep", "--alpha", "0", "--sigma-theta", "1", "--xi-max", "800"],
    ],
)
def test_cli_out_of_range_input_exits_1(argv, capsys):
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "doc",
    [
        {"alpha": 0.0, "sigma_theta": 0.8, "xi_max": 800},
        {"alpha": 0.0, "sigma_theta": 0.8, "xi_steps": 3.5},
        {"alpha": True, "sigma_theta": 0.8},
        {"alpha": 0.0, "sigma_theta": 0.8, "n_theta": 8.0},
        {"alpha": 10**400, "sigma_theta": 0.8},
        # nesting deeper than the JSON parser's recursion limit
        pytest.param("[" * 200_000, id="deeply-nested"),
        pytest.param({"alpha": 0.0, "sigma_theta": 0.8, "p0": 2.0}, id="p0"),
        pytest.param([0.0, 0.8], id="non-object"),
        pytest.param({"alpha": 0.5}, id="missing-field"),
        pytest.param("not json", id="not-json"),
    ],
)
def test_cli_sweep_bad_config_values_exit_1(doc, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    assert cli.main(["sweep", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_config_rejects_the_shell_momentum(capsys):
    # p0 reached no output (it cancels from the transport), so it is no
    # longer a field or a flag
    with pytest.raises(ConfigError, match=r"unknown config fields: \['p0'\]"):
        SweepConfig.from_mapping({"alpha": 0.0, "sigma_theta": 1.0, "p0": 1.0})
    assert cli.main(["single", "--alpha", "0", "--sigma-theta", "1", "--xi", "0", "--p0", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["single", "--alpha", "0", "--sigma-theta", "1", "--xi", "abc"], id="xi-abc"),
        pytest.param(["single", "--alpha", "0", "--sigma-theta", "1", "--xi", "0", "--p0", "2"],
                     id="p0"),
        pytest.param(["sweep", "--alpha", "0", "--sigma-theta", "1", "--xi-steps", "2.5"],
                     id="xi-steps-2.5"),
        pytest.param([], id="no-subcommand"),
    ],
)
def test_cli_malformed_flags_exit_1(argv, capsys):
    # argparse would exit 2, the code of a validation failure
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_cli_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_cli_sweep_flags_complete_a_config_file(tmp_path, capsys):
    # a field required by the config may come from a flag instead of the file
    partial, full = tmp_path / "partial.json", tmp_path / "full.json"
    partial.write_text(json.dumps({"sigma_theta": 1.0, "xi_steps": 3}))
    full.write_text(json.dumps({"alpha": 0.5, "sigma_theta": 1.0, "xi_steps": 3}))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["sweep", "--config", str(partial), "--alpha", "0.5", "--out", str(a)]) == 0
    assert cli.main(["sweep", "--config", str(full), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--alpha", "0", "--sigma-theta", "1", "--out", "{bad}"],
        ["sweep", "--alpha", "0", "--sigma-theta", "1", "--out", "{ok}", "--plot-script", "{bad}"],
        ["fig2", "--out", "{bad}"],
        ["fig3", "--out", "{ok}", "--plot-script", "{bad}"],
    ],
)
def test_cli_unwritable_output_exits_1_before_computing(argv, tmp_path, monkeypatch, capsys):
    import photonboost.sweep as sweep_mod

    def must_not_run(*args, **kwargs):
        raise AssertionError("computed before the outputs were opened")

    monkeypatch.setattr(cli, "run_sweep", must_not_run)
    monkeypatch.setattr(cli, "run_sweeps", must_not_run)
    monkeypatch.setattr(sweep_mod, "_evaluate", must_not_run)
    paths = {"bad": str(tmp_path / "missing" / "x.csv"), "ok": str(tmp_path / "ok.csv")}
    assert cli.main([a.format(**paths) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--alpha", "0", "--sigma-theta", "1", "--xi-steps", "1", "--out", "{dir}/x.gp",
         "--plot-script", "{dir}/x.gp"],
        ["sweep", "--alpha", "0", "--sigma-theta", "1", "--out", "{dir}/x.gp",
         "--plot-script", "{dir}/sub/../x.gp"],
        ["sweep", "--config", "{dir}/cfg.json", "--plot-script", "{dir}/x.gp"],
        ["fig2", "--out", "{dir}/x.gp", "--plot-script", "{dir}/x.gp"],
        ["fig3", "--out", "{dir}/link.gp", "--plot-script", "{dir}/x.gp"],
    ],
)
def test_cli_one_path_for_csv_and_plot_script_exits_1(argv, tmp_path, monkeypatch, capsys):
    # both outputs are opened with "w", so the script would land over the CSV
    import photonboost.sweep as sweep_mod

    def must_not_run(*args, **kwargs):
        raise AssertionError("computed before the outputs were checked")

    monkeypatch.setattr(cli, "run_sweeps", must_not_run)
    monkeypatch.setattr(sweep_mod, "_evaluate", must_not_run)
    (tmp_path / "sub").mkdir()
    target = tmp_path / "x.gp"
    target.write_text("kept\n")
    (tmp_path / "link.gp").symlink_to(target)
    cfg = {"alpha": 0.0, "sigma_theta": 1.0, "output_path": str(target)}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert cli.main([a.format(dir=tmp_path) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write the CSV and the plot script both to ")
    assert err.count("\n") == 1
    assert target.read_text() == "kept\n"


_SMALL_SWEEP = ["sweep", "--alpha", "0", "--sigma-theta", "1", "--xi-steps", "3",
                "--n-theta", "8", "--n-phi", "8"]


def _computing_fails(monkeypatch):
    import photonboost.sweep as sweep_mod

    def must_not_run(*args, **kwargs):
        raise AssertionError("computed before the outputs were checked")

    monkeypatch.setattr(cli, "run_sweeps", must_not_run)
    monkeypatch.setattr(sweep_mod, "_evaluate", must_not_run)


@pytest.mark.parametrize(
    "argv",
    [
        _SMALL_SWEEP + ["--out", ""],
        _SMALL_SWEEP + ["--out", "", "--plot-script", ""],
        _SMALL_SWEEP + ["--out", "{dir}/ok.csv", "--plot-script", ""],
        ["fig2", "--out", ""],
        ["fig3", "--out", "{dir}/ok.csv", "--plot-script", ""],
    ],
)
def test_cli_an_empty_output_path_exits_1_before_computing(argv, tmp_path, monkeypatch, capsys):
    # an empty path is a path that cannot be opened, not a request for stdout
    _computing_fails(monkeypatch)
    assert cli.main([a.format(dir=tmp_path) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        _SMALL_SWEEP + ["--plot-script", "{dir}/s.gp"],
        ["sweep", "--config", "{dir}/cfg.json", "--plot-script", "{dir}/s.gp"],
    ],
)
def test_cli_a_plot_script_of_a_csv_on_stdout_exits_1_before_computing(argv, tmp_path, monkeypatch, capsys):
    # the script would plot '-', gnuplot's inline-data marker, which can
    # never read the CSV
    _computing_fails(monkeypatch)
    (tmp_path / "cfg.json").write_text(json.dumps({"alpha": 0.0, "sigma_theta": 1.0}))
    assert cli.main([a.format(dir=tmp_path) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: a plot script needs the CSV in a file: give --out\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize(
    "argv",
    [
        _SMALL_SWEEP + ["--out", "/dev/full"],
        _SMALL_SWEEP + ["--out", "{ok}", "--plot-script", "/dev/full"],
        ["fig2", "--out", "/dev/full"],
        ["fig3", "--out", "{ok}", "--plot-script", "/dev/full"],
    ],
)
def test_cli_failed_write_exits_1_with_one_line(argv, tmp_path, monkeypatch, capsys):
    # /dev/full opens for writing but fails every write with ENOSPC
    small = [SweepConfig(alpha=0.0, sigma_theta=1.0, **FAST)]
    monkeypatch.setattr(cli, "preset_fig2", lambda: small)
    monkeypatch.setattr(cli, "preset_fig3", lambda: small)
    assert cli.main([a.format(ok=tmp_path / "ok.csv") for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write /dev/full: ") and err.count("\n") == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize(
    "argv",
    [["single", "--alpha", "0", "--sigma-theta", "1", "--xi", "0.5"], ["validate"]],
)
def test_cli_failed_stdout_write_exits_1_with_one_line(argv):
    # stdout on /dev/full, as `photonboost ... > /dev/full` runs it
    src = os.path.dirname(os.path.dirname(cli.__file__))
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            [sys.executable, "-m", "photonboost.cli", *argv], stdout=full, stderr=subprocess.PIPE,
            text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
        )
    assert done.returncode == 1, done.stderr
    assert done.stderr.startswith("error: cannot write <stdout>: ")
    assert done.stderr.count("\n") == 1


@pytest.mark.filterwarnings("error")
def test_cli_tiny_spread_prints_only_its_error_line(capsys):
    # theta / sigma overflows when squared; its weight exp(-inf) = 0 is right and warns nothing
    assert cli.main(["single", "--alpha", "0", "--sigma-theta", "1e-300", "--xi", "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: every node weight underflowed") and err.count("\n") == 1


def test_cli_deep_boost_ppt_rows_print_an_exact_zero(capsys):
    # the partial-transpose spectra at xi = -15 and -14 hold rounding
    # pairs of about -3e-17 and -7e-17, which are not entanglement
    argv = ["sweep", "--alpha", "0", "--sigma-theta", "3.14159", "--xi-min", "-15",
            "--xi-max", "-12", "--xi-steps", "4", "--n-theta", "8", "--n-phi", "8"]
    assert cli.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    assert [line.split(",")[3] for line in lines[1:]] == ["0"] * 4


def test_cli_sweep_convergence_failure_exits_3(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code = cli.main(
        [
            "sweep", "--alpha", "1.2566370614359172", "--sigma-theta", "1.3",
            "--xi-min", "-3", "--xi-max", "-3", "--xi-steps", "1",
            "--n-theta", "8", "--n-phi", "8", "--out", str(out), "--check-convergence",
        ]
    )
    assert code == 3
    assert "warning" in capsys.readouterr().err
    assert out.exists()  # rows are still written


def test_cli_sweep_passes_other_warnings_to_the_caller(monkeypatch, capsys):
    # the sweep command reports its own convergence check and must not
    # swallow any warning it does not raise itself
    import photonboost.sweep as sweep_mod

    real = sweep_mod.state_readings

    def warning_state_readings(*args):
        warnings.warn("injected inside the sweep", UserWarning)
        return real(*args)

    monkeypatch.setattr(sweep_mod, "state_readings", warning_state_readings)
    with pytest.warns(UserWarning, match="injected inside the sweep"):
        assert cli.main(_SMALL_SWEEP) == 0
    assert capsys.readouterr().err == ""


def test_cli_fig_commands_write_combined_csv(tmp_path, monkeypatch):
    # shrink the presets so the smoke test stays fast
    import photonboost.sweep as sweep_mod

    small = [
        SweepConfig(alpha=a, sigma_theta=1.0, xi_min=-1.0, xi_max=1.0, **FAST)
        for a in (0.0, math.pi / 2)
    ]
    monkeypatch.setattr(cli, "preset_fig2", lambda: small)
    out = tmp_path / "fig2.csv"
    script = tmp_path / "fig2.gp"
    code = cli.main(["fig2", "--out", str(out), "--plot-script", str(script)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 2 * 3
    assert script.read_text().startswith("set datafile separator")


def test_cli_solver_failure_exits_3(monkeypatch, capsys):
    import photonboost.entanglement as ent

    def broken(m):
        raise np.linalg.LinAlgError("did not converge")

    # LinAlgError subclasses ValueError; make sure it is not mapped to exit 1
    monkeypatch.setattr(ent, "hermitian_eigenvalues", broken)
    code = cli.main(
        ["single", "--alpha", "0", "--sigma-theta", "1.0", "--xi", "0", "--n-theta", "16", "--n-phi", "16"]
    )
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_cli_non_hermitian_exchange_block_exits_3_with_one_line(monkeypatch, capsys):
    # alpha = 0 is a sweep row, solved by parity: a skew in the even 4x4
    # block, in either odd 2x2 block or in a coupling, which must send the
    # row to the whole-block solve, is rejected with one line
    import photonboost.entanglement as ent

    real = ent.exchange_blocks
    parts = {
        "even 4x4": (0, 0, 1), "odd symmetric 2x2": (0, 4, 5), "odd antisymmetric 2x2": (1, 1, 2),
        "symmetric coupling": (0, 0, 4), "its lower triangle": (0, 5, 3), "antisymmetric coupling": (1, 0, 2),
    }
    for part, (block, row, col) in parts.items():
        def skewed(moments, block=block, row=row, col=col):
            blocks = [b.copy() for b in real(moments)]
            blocks[block][..., row, col] += 1e-3
            return tuple(blocks)

        monkeypatch.setattr(ent, "exchange_blocks", skewed)
        code = cli.main(["single", "--alpha", "0", "--sigma-theta", "1.0", "--xi", "0"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == "", part
        assert captured.err.startswith("numerical failure: ") and captured.err.count("\n") == 1, part
        assert "not Hermitian" in captured.err, part


def test_cli_unconverged_quadrature_rule_exits_3_with_one_line(monkeypatch, capsys):
    import photonboost.beams as beams

    # a kept rule would not be rebuilt
    beams._gauss_legendre.cache_clear()
    monkeypatch.setattr(beams, "_NEWTON_CAP", 0)
    assert cli.main(_SMALL_SWEEP) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: ") and captured.err.count("\n") == 1


def test_cli_validate_failure_exits_2(monkeypatch, capsys):
    from photonboost import validation
    from photonboost.validation import GroupResult, ValidationReport

    monkeypatch.setattr(
        validation, "validate", lambda seed: ValidationReport((GroupResult("metric", False, "boom"),))
    )
    assert cli.main(["validate"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is False
