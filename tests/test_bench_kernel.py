"""The child runner of ``tools/bench_kernel.py``: the peak RSS it reports is
the command's own, not that of the process that runs it."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"

# Touches about 120 MB, runs ``python -c pass`` through the runner, and
# prints its own peak RSS and the one the runner reports, in MB.
HOLDER = (
    "import resource, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import bench_kernel\n"
    "held = b'x' * (120 << 20)\n"
    "child = bench_kernel.run_child(['-c', 'pass'])\n"
    "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, child.peak_rss_mb)\n"
)


def test_run_child_reports_the_peak_rss_of_the_command_alone():
    done = subprocess.run([sys.executable, "-c", HOLDER, str(TOOLS)], capture_output=True,
                          text=True, timeout=120, check=True)
    held, child = map(float, done.stdout.split())
    assert held >= 100
    assert child < 50
