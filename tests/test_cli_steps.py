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
        text = out.read_text() if to_file else capsys.readouterr().out
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 7
        assert all(math.isfinite(float(cell)) for row in rows for cell in row.values())
        assert not [row["xi"] for row in rows if 0.0 < float(row["log_negativity"]) < 1e-12]
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
    ],
)
def test_a_probed_sweep_keeps_its_peak_resident_memory_bound_and_prints_no_noise(argv, rows, limit_mb, tmp_path):
    out = tmp_path / "sweep.csv"
    code, peak_mb = _measured_run(["sweep", *argv, "--check-convergence", "--out", str(out)])
    assert code == 0
    assert peak_mb <= limit_mb, f"peak RSS {peak_mb:.1f} MB (limit {limit_mb} MB)"
    with open(out, newline="") as fh:
        table = list(csv.DictReader(fh))
    assert len(table) == rows
    # a row with a positive partial transpose prints an exact 0
    assert not [row["xi"] for row in table if 0.0 < float(row["log_negativity"]) < 1e-12]
