"""Smoke test: the walkthrough demos run to completion."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import swingbench

DEMOS = Path(__file__).resolve().parents[1] / "demos"
SRC = str(Path(swingbench.__file__).resolve().parents[1])


@pytest.mark.parametrize(
    "demo",
    [
        "01_codec_roundtrip.py",
        "02_distribution_metrics.py",
        "03_scape_plots.py",
        "04_continuation_challenge.py",
    ],
)
def test_demo_runs(demo, tmp_path):
    paths = [SRC, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)), TMPDIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / demo)], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert list(tmp_path.iterdir()) == [], "the demo left files in the temp dir"
