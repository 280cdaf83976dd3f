"""Set-up a fresh interpreter pays: import photonboost and build the inputs.

    python3 benchmarks/setup_probe.py <workload> <seed>

run.py times this script end to end (interpreter start to exit) several
times and reports the median as setup_s.  It writes nothing.
"""
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import photonboost.cli  # noqa: E402,F401
import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]), HERE.parent / ".bench_work")
