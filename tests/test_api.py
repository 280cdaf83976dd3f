"""The package namespace and the README's library example."""
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import photonboost

README = Path(__file__).resolve().parent.parent / "README.md"


def test_public_api_is_pinned():
    # what the CLI runs, the README example and the benchmark call, and the
    # transformation law itself
    assert photonboost.__all__ == [
        "BeamSpec",
        "ConfigError",
        "SweepConfig",
        "boost_helicity_state",
        "build_grid",
        "log_negativity",
        "make_boost",
        "preset_fig2",
        "preset_fig3",
        "reduced_density",
        "run_sweep",
        "validate",
        "wigner_angle_stack",
    ]
    for name in photonboost.__all__:
        assert getattr(photonboost, name) is not None


def test_cli_imports_no_private_name_from_sweep():
    tree = ast.parse(Path(photonboost.__file__).with_name("cli.py").read_text(encoding="utf-8"))
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in ("sweep", "photonboost.sweep")
        for alias in node.names
    ]
    assert "run_sweeps" in imported
    assert [name for name in imported if name.startswith("_")] == []


def test_beams_names_only_the_state_stage_and_the_product_of_entanglement():
    # the beam ends at the moments; the pair state, its exchange basis and
    # its guards belong to entanglement, which imports nothing from beams
    source = Path(photonboost.__file__).with_name("beams.py").read_text(encoding="utf-8")
    named = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "entanglement":
            named.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("entanglement"):
            named.update(alias.name for alias in node.names)
    assert named <= {"state_readings", "pair_states", "rows_product", "PRODUCT_ROWS"}
    assert "state_readings" in named
    ent = ast.parse(Path(photonboost.__file__).with_name("entanglement.py").read_text(encoding="utf-8"))
    imported = {
        name.split(".")[-1]
        for node in ast.walk(ent)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in (getattr(node, "module", None) or "", *(alias.name for alias in node.names))
    }
    assert "beams" not in imported


def test_readme_library_snippet_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library", 1)[1]
    (snippet,) = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S)
    exec(compile(snippet, str(README), "exec"), {})
    ln = float(capsys.readouterr().out.strip())
    assert 0.0 <= ln <= 1.0


def test_cli_import_loads_no_numpy_module_beyond_numpy_itself():
    # the Gauss-Legendre rule is built in beams, so numpy.polynomial stays unloaded
    probe = (
        "import sys\n"
        "import numpy\n"
        "before = {m for m in sys.modules if m.split('.')[0] == 'numpy'}\n"
        "import photonboost.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy' and m not in before))\n"
    )
    src = os.path.dirname(os.path.dirname(photonboost.__file__))
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_cli_sweep_leaves_validation_and_wigner_unloaded():
    # they load on the first validate, or on the first access of a name
    # they give the package
    probe = (
        "import sys\n"
        "import photonboost\n"
        "from photonboost import cli\n"
        "code = cli.main(['sweep', '--alpha', '0.5', '--sigma-theta', '1', '--xi-steps', '2',\n"
        "                 '--n-theta', '8', '--n-phi', '8', '--out', sys.argv[1]])\n"
        "print(code, sorted(m for m in ('photonboost.validation', 'photonboost.wigner') if m in sys.modules))\n"
        "photonboost.wigner_angle_stack\n"
        "print(sorted(m for m in ('photonboost.validation', 'photonboost.wigner') if m in sys.modules))\n"
    )
    src = os.path.dirname(os.path.dirname(photonboost.__file__))
    done = subprocess.run(
        [sys.executable, "-c", probe, os.devnull], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["0 []", "['photonboost.wigner']"]


def test_lazy_names_are_the_module_functions():
    from photonboost import validation, wigner

    assert photonboost.validate is validation.validate
    assert photonboost.wigner_angle_stack is wigner.wigner_angle_stack
    assert photonboost.boost_helicity_state is wigner.boost_helicity_state
    assert set(photonboost.__all__) <= set(dir(photonboost))
    with pytest.raises(AttributeError):
        photonboost.not_a_name
