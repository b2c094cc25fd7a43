"""tools/baseline.py: the launcher that times each Baseline step."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

SPEC = importlib.util.spec_from_file_location("baseline", Path(__file__).parents[1] / "tools" / "baseline.py")
baseline = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(baseline)


def resident_kib() -> int:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmRSS:"):
            return int(line.split()[1])
    raise AssertionError("no VmRSS line")


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmRSS from /proc")
def test_launcher_reports_the_step_peak_not_the_parent_one(tmp_path):
    ballast = np.ones(96 * 2**20 // 8)  # written, so resident in this process
    parent = resident_kib()
    assert parent >= 80 * 1024
    wall, peak, code = baseline.launch([sys.executable, "-c", "print('to the null device')"], cwd=tmp_path)
    assert code == 0 and wall > 0
    assert 0 < peak < parent - 40 * 1024
    assert baseline.launch([sys.executable, "-c", "raise SystemExit(3)"])[2] == 3
    del ballast
