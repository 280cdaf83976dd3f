"""The package namespace and the README's library example."""
import re
from pathlib import Path

import photonboost

README = Path(__file__).resolve().parent.parent / "README.md"


def test_public_api_is_pinned():
    # what the CLI runs, the README example and the benchmark call, and the
    # transformation law itself
    assert photonboost.__all__ == [
        "BeamSpec",
        "ConfigError",
        "QuadratureConvergenceWarning",
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


def test_readme_library_snippet_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library", 1)[1]
    (snippet,) = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S)
    exec(compile(snippet, str(README), "exec"), {})
    ln = float(capsys.readouterr().out.strip())
    assert 0.0 <= ln <= 1.0
