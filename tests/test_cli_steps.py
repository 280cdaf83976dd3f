"""CLI commands that once ran only as CI steps, run in-process under filterwarnings("error").

Each test runs a step's argv through cli.main, so a warning of any kind
that leaks out of the CLI fails it, as PYTHONWARNINGS=error failed the
step.
"""
import csv
import io
import math

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
