"""CLI commands that once ran only as CI steps.

Each test runs a step's argv through cli.main with every warning an
error, as PYTHONWARNINGS=error ran the step: in-process under
filterwarnings("error"), or, where the step bounds the peak resident
memory, in a fresh interpreter that reads its own peak with
resource.getrusage.
"""
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from photonboost import cli

_AXIS_SWEEP = ["sweep", "--sigma-theta", "1.0", "--xi-min", "-15", "--xi-max", "15", "--xi-steps", "7"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "grid, to_file",
    [(["--n-theta", "9", "--n-phi", "8"], True), (["--n-theta", "17", "--n-phi", "16"], False)],
    ids=["through_a_node", "through_nodes_on_both_of_its_ends"],
)
def test_a_sweep_along_a_boost_axis_through_grid_nodes_prints_finite_rows_and_no_noise(grid, to_file, tmp_path, capsys):
    # at alpha = pi/2 an odd theta rule has a stored node on the boost axis
    # and one within rounding of its opposite, where the table pass divides
    # by the distance from the axis; with 17 x 16 the nodes at theta = pi/2
    # with phi = 0 and phi = pi lie on +m and -m.  The mirror alpha = -pi/2
    # is read along the other end of the same line, with the rapidities'
    # signs flipped, and the beam is symmetric under x -> -x, so it prints
    # the same log negativities
    columns = []
    for alpha in (math.pi / 2, -math.pi / 2):
        out = tmp_path / "axis.csv"
        argv = [*_AXIS_SWEEP, "--alpha", repr(alpha), *grid, *(["--out", str(out)] if to_file else [])]
        assert cli.main(argv) == 0
        rows = _assert_rows_without_noise(out.read_text() if to_file else capsys.readouterr().out, 7)
        assert all(math.isfinite(float(cell)) for row in rows for cell in row.values())
        columns.append([row["log_negativity"] for row in rows])
    assert columns[0] == columns[1]
    assert max(map(float, columns[0])) > 0.1


# runs cli.main on the argv in sys.argv[1:] and prints its exit code and
# the process's peak resident memory in MB as JSON
_MEASURED_RUN = """
import json, resource, sys
from photonboost import cli
code = cli.main(sys.argv[1:])
peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"code": code, "peak_mb": peak_mb}))
"""


# Linux carries the peak resident memory of the process that forks a child
# into the child's ru_maxrss across exec, so the measured interpreter is
# started from this small one, not from the test process
_LAUNCH = "import subprocess, sys; sys.exit(subprocess.call(sys.argv[1:]))"


def _measured_run(argv):
    """cli.main's exit code and the peak resident MB of a fresh interpreter that ran it with PYTHONWARNINGS=error."""
    package_root = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONWARNINGS": "error",
           "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    command = [sys.executable, "-c", _LAUNCH, sys.executable, "-c", _MEASURED_RUN, *argv]
    done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    return report["code"], report["peak_mb"]


@pytest.mark.parametrize(
    "argv, rows, limit_mb",
    [
        # the fine_grid benchmark's shape: 9 rows on 192^2 (18,624 stored
        # nodes) and 3 probe rows on 384^2 (74,112).  Each table pass forms
        # its node blocks in one workspace and their weights in one buffer,
        # about 1 MB, so the peak resident memory is 31.9-32.0 MB over three
        # runs, 30 MB of it the imports; the 40 MB bound is about 1.25
        # times that
        pytest.param(["--alpha", "1.1", "--sigma-theta", "1.3", "--xi-min", "-4", "--xi-max", "0",
                      "--xi-steps", "9", "--n-theta", "192", "--n-phi", "192"], 9, 40,
                     id="fine_sweep_with_convergence_probe"),
        # 4096 x 64 is the node cap, and the convergence probe builds an
        # 8192-node theta rule; an O(n^3) rule would take minutes here, and
        # the rule takes O(n^1.5) cosines and O(n^2) multiply-adds in one
        # matrix product per block of roots, about 25 ms at 8192.  The grid
        # keeps only its theta and phi rules, no per-node array and no table
        # of factors, so the peak resident memory is 32.8-32.9 MB over three
        # runs, 30 MB of it the imports; the 42 MB bound is about 1.3 times
        # that
        pytest.param(["--alpha", "0.7", "--sigma-theta", "1.0", "--xi-steps", "3",
                      "--n-theta", "4096", "--n-phi", "64"], 3, 42,
                     id="narrow_phi_sweep_at_the_node_cap"),
        # 32768 x 8 is within the node cap, and the convergence probe builds
        # a 65536-node theta rule: the sweep took 38 s with a cosine and a
        # sine per root and frequency, and about 2 s with each frequency
        # split in two (1.4-1.7 s over three runs on 2 vCPUs).  At
        # alpha = 0 the 8-node phi rule is exact, so the doubling check
        # passes.  The rule sums its series for a few roots at a time, and
        # the grid keeps only its theta and phi rules (1 MB at 65536 x 16;
        # with ten factors per theta and nine per phi it kept 6.3 MB).
        # beams also keeps the 32768- and 65536-node rules themselves for
        # later grids, 1.5 MB, so the peak resident memory is 38.3-38.4 MB
        # over three runs (38.2-38.4 MB when no rule was kept), 30 MB of it
        # the imports; the 48 MB bound is about 1.25 times that
        pytest.param(["--alpha", "0", "--sigma-theta", "1.0", "--n-theta", "32768", "--n-phi", "8",
                      "--xi-steps", "3"], 3, 48,
                     id="widest_theta_rule_the_node_cap_admits"),
    ],
)
def test_a_probed_sweep_keeps_its_peak_resident_memory_bound_and_prints_no_noise(argv, rows, limit_mb, tmp_path):
    out = tmp_path / "sweep.csv"
    code, peak_mb = _measured_run(["sweep", *argv, "--check-convergence", "--out", str(out)])
    assert code == 0
    assert peak_mb <= limit_mb, f"peak RSS {peak_mb:.1f} MB (limit {limit_mb} MB)"
    _assert_rows_without_noise(out.read_text(), rows)


def _assert_rows_without_noise(text, rows):
    """The rows of CSV text, checked to be rows in number with no log negativity in (0, 1e-12)."""
    table = list(csv.DictReader(io.StringIO(text)))
    assert len(table) == rows
    # a row with a positive partial transpose prints an exact 0
    assert not [row["xi"] for row in table if 0.0 < float(row["log_negativity"]) < 1e-12]
    return table


@pytest.mark.parametrize(
    "argv, rows, limit_mb",
    [
        # the paper's figures: 5 and 4 curves of 61 rows, solved
        # ROWS_PER_BLOCK rows at a time across the curves
        pytest.param(["fig2"], 305, None, id="figure_2_preset"),
        pytest.param(["fig3"], 244, None, id="figure_3_preset"),
        # 100000 rapidities, the row cap, solved ROWS_PER_BLOCK at a time
        # (385 blocks) with no 9x9 state and no TransformStack, so memory
        # does not grow with the row count: the peak resident memory is
        # 47.4-47.5 MB over three runs, 30 MB of it the imports, and the
        # sweep takes about 1 s on 2 vCPUs; the rows stay one (6, n) float table of 4.8 MB,
        # and their CSV text (5.5 MB) is formatted block by block and
        # joined once; the 59 MB bound is about 1.25 times the peak
        pytest.param(["sweep", "--alpha", "0.7", "--sigma-theta", "1.0", "--xi-steps", "100000",
                      "--n-theta", "8", "--n-phi", "8", "--xi-min", "-15", "--xi-max", "15"], 100_000, 59,
                     id="long_sweep_at_the_row_cap"),
    ],
)
def test_a_figure_or_a_sweep_at_the_row_cap_prints_its_rows_and_no_noise(argv, rows, limit_mb, tmp_path):
    out = tmp_path / "rows.csv"
    code, peak_mb = _measured_run([*argv, "--out", str(out)])
    assert code == 0
    if limit_mb is not None:
        assert peak_mb <= limit_mb, f"peak RSS {peak_mb:.1f} MB (limit {limit_mb} MB)"
    _assert_rows_without_noise(out.read_text(), rows)


@pytest.mark.filterwarnings("error")
def test_a_sweep_to_stdout_with_its_convergence_probe_prints_its_rows_and_no_noise(capsys):
    # the emitter's stdout path, with the convergence probe; a plot script
    # needs the CSV in a file, so it is not asked for here
    argv = ["sweep", "--alpha", "0.8", "--sigma-theta", "1.0", "--xi-steps", "21", "--check-convergence"]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    _assert_rows_without_noise(out, 21)


@pytest.mark.filterwarnings("error")
def test_a_single_point_prints_the_log_negativity_of_a_one_row_sweep(capsys, tmp_path):
    point = ["--alpha", "0", "--sigma-theta", "1.0"]
    assert cli.main(["single", *point, "--xi", "2.0"]) == 0
    single = capsys.readouterr().out
    out = tmp_path / "one.csv"
    assert cli.main(["sweep", *point, "--xi-min", "2", "--xi-max", "2", "--xi-steps", "1", "--out", str(out)]) == 0
    (row,) = _assert_rows_without_noise(out.read_text(), 1)
    assert single == row["log_negativity"] + "\n"


@pytest.mark.filterwarnings("error")
def test_a_deep_boost_sweep_prints_no_rounding_noise(tmp_path):
    # partial-transpose spectra that hold only rounding pairs near -1e-16
    out = tmp_path / "deep.csv"
    argv = ["sweep", "--alpha", "0", "--sigma-theta", "3.14159", "--xi-min", "-15", "--xi-max", "-12",
            "--xi-steps", "4", "--n-theta", "8", "--n-phi", "8", "--out", str(out)]
    assert cli.main(argv) == 0
    _assert_rows_without_noise(out.read_text(), 4)


@pytest.mark.filterwarnings("error")
def test_a_flag_overrides_a_field_of_the_config_file(tmp_path):
    # the file's xi_min is -2 and the flag's -12: the first row's xi is -12
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 0.5, "sigma_theta": 0.8, "xi_min": -2, "xi_max": 2, "xi_steps": 9,
                               "n_theta": 16, "n_phi": 16}))
    out = tmp_path / "cfg.csv"
    assert cli.main(["sweep", "--config", str(cfg), "--xi-min", "-12", "--out", str(out)]) == 0
    rows = _assert_rows_without_noise(out.read_text(), 9)
    assert rows[0]["xi"] == "-12"


@pytest.mark.filterwarnings("error")
def test_validate_exits_0_with_a_passing_json_report(capsys):
    assert cli.main(["validate"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out)["passed"] is True
