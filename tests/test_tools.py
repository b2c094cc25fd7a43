"""tools/baseline.py: the launcher that times each Baseline step."""

import contextlib
import importlib.util
import json
import os
import signal
import subprocess
import sys
import time
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


# A stand-in for cdrlab.cli: each run appends where it was imported from, its
# working directory and its cache directory, as it found it, to LOG.
PROBE_CLI = """import json, os, sys
cache = os.environ["XDG_CACHE_HOME"]
with open(LOG, "a") as fh:
    fh.write(json.dumps([__file__, os.getcwd(), cache, os.path.exists(cache)]) + "\\n")
os.makedirs(sys.argv[sys.argv.index("--outdir") + 1])
os.makedirs(cache, exist_ok=True)
"""


def test_each_chain_runs_from_an_equal_length_copy_with_its_own_empty_cache(tmp_path, monkeypatch):
    log = tmp_path / "log.jsonl"
    checkouts = [tmp_path / "parent", tmp_path / "a" / "change"]  # paths of different lengths
    for checkout in checkouts:
        (checkout / "src" / "cdrlab").mkdir(parents=True)
        (checkout / "src" / "cdrlab" / "__init__.py").write_text("")
        (checkout / "src" / "cdrlab" / "cli.py").write_text(f"LOG = {str(log)!r}\n" + PROBE_CLI)
    monkeypatch.setattr(baseline, "STEPS", (("one", ("one",)), ("two", ("two",))))
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    out = tmp_path / "bench.json"
    assert baseline.main([*(arg for c in checkouts for arg in ("--src", str(c))), "--repeat", "2", "--out", str(out)]) == 0
    runs = [json.loads(line) for line in log.read_text().splitlines()]
    assert len(runs) == 2 * 2 * 2  # steps x checkouts x repeats
    modules = [module for module, _, _, _ in runs]
    assert len(set(modules)) == 2 and len(set(map(len, modules))) == 1
    assert not any(module.startswith(str(tmp_path)) for module in modules)
    for chain in (runs[i:i + 2] for i in range(0, len(runs), 2)):
        (work,) = {cwd for _, cwd, _, _ in chain}
        assert [(cache, seen) for _, _, cache, seen in chain] == [(f"{work}/cache", False), (f"{work}/cache", True)]
    assert len({cwd for _, cwd, _, _ in runs}) == 4
    doc = json.loads(out.read_text())
    assert [c["runs"][0]["one"]["exit"] for c in doc["checkouts"]] == [0, 0]
    assert [doc["machine"][name] for name in baseline.BLAS_THREAD_VARS] == ["2", "1", None]


# A stand-in for cdrlab.cli that appends the config it was given to LOG.
CONFIG_CLI = """import os, sys
with open(LOG, "a") as fh:
    fh.write(open(sys.argv[sys.argv.index("--config") + 1]).read())
os.makedirs(sys.argv[sys.argv.index("--outdir") + 1])
"""


@pytest.mark.parametrize("flag, subscribers", [([], 5000), (["--subscribers", "40"], 40)], ids=["default", "40"])
def test_subscribers_sizes_the_synth_workload_and_is_recorded(tmp_path, monkeypatch, flag, subscribers):
    log = tmp_path / "log.txt"
    checkout = tmp_path / "checkout"
    (checkout / "src" / "cdrlab").mkdir(parents=True)
    (checkout / "src" / "cdrlab" / "__init__.py").write_text("")
    (checkout / "src" / "cdrlab" / "cli.py").write_text(f"LOG = {str(log)!r}\n" + CONFIG_CLI)
    monkeypatch.setattr(baseline, "STEPS", (("synth", ("synth",)),))
    out = tmp_path / "bench.json"
    assert baseline.main(["--src", str(checkout), *flag, "--out", str(out)]) == 0
    config = json.loads(out.read_text())["workload"]["config"]
    assert config.startswith(f"[synth]\nsubscribers = {subscribers}\ntowers = 60\n")
    assert log.read_text() == config


# A stand-in for cdrlab.cli that logs its pid and then sleeps far past the test.
SLEEPING_CLI = """import os, time
with open(LOG, "w") as fh:
    fh.write(str(os.getpid()))
time.sleep(120)
"""


def _gone(pid: int) -> bool:
    """Whether pid has exited (a zombie that no one has reaped yet counts as exited)."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states from /proc")
def test_sigterm_removes_the_temporary_trees_and_stops_the_step(tmp_path):
    log, tmp = tmp_path / "pid.txt", tmp_path / "tmp"
    tmp.mkdir()
    checkout = tmp_path / "checkout"
    (checkout / "src" / "cdrlab").mkdir(parents=True)
    (checkout / "src" / "cdrlab" / "__init__.py").write_text("")
    (checkout / "src" / "cdrlab" / "cli.py").write_text(f"LOG = {str(log)!r}\n" + SLEEPING_CLI)
    script = Path(__file__).parents[1] / "tools" / "baseline.py"
    proc = subprocess.Popen([sys.executable, str(script), "--src", str(checkout), "--out", str(tmp_path / "out.json")],
                            env=dict(os.environ, TMPDIR=str(tmp)), stderr=subprocess.PIPE)
    try:
        deadline = time.monotonic() + 60
        while not log.exists() or not log.read_text():
            assert proc.poll() is None and time.monotonic() < deadline, "the step never started"
            time.sleep(0.05)
        assert sorted(p.name.split("-")[1] for p in tmp.iterdir()) == ["baseline", "src"]
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 128 + signal.SIGTERM, proc.stderr.read().decode()
        assert list(tmp.iterdir()) == []
        assert not (tmp_path / "out.json").exists()
        deadline = time.monotonic() + 10
        while not _gone(int(log.read_text())) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _gone(int(log.read_text()))
    finally:
        proc.kill()
        proc.wait()
        if log.exists() and log.read_text():  # a step left behind must not sleep on after a failure
            with contextlib.suppress(ProcessLookupError):
                os.kill(int(log.read_text()), signal.SIGKILL)
