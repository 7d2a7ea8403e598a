"""The quick demos run end to end.

Demos 03 and 06 call ``sqnr_noise``, ``label_channel`` and the record-wide
``optimal_fl`` and ``classify_pdf`` (one answer per channel). Every demo
takes a few seconds at most.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["01_fixed_point_basics", "02_graph_and_folding",
                                  "03_sqnr_optimal_formats", "04_layerwise_vs_channelwise",
                                  "05_profiling_stability", "06_pdf_classifier"])
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() and not out.stderr
