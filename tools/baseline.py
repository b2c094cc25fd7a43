"""Time each subcommand of the ROADMAP Baseline as a fresh cdrlab process and write the result as JSON.

The workload is the ROADMAP's pinned Baseline: ``[synth]`` 5,000 subscribers,
60 towers, 28 days and ``event_rate`` 6.0, seed 11, which gives about 839k
CDRs.  Every step runs as ``python3 -m cdrlab.cli`` with ``PYTHONPATH`` set to
the ``src`` of the checkout being measured.  The steps run in order, because
later steps read what ``synth``, ``features`` and ``train`` wrote.  The
samples file that ``idw`` reads is written before the chain and not timed.

Each step starts through ``LAUNCHER``, a ``python3 -S`` process that spawns the
step, reaps it with ``os.wait4`` and reports the step's wall time (spawn to
reap) and peak RSS.  A child that a large process starts directly inherits
that process's RSS high-water mark into its own ``ru_maxrss`` (the clone
shares the parent's memory until exec), so a step started from this script,
which holds ``cdr.csv`` while hashing it, would report about 70 MB however
little it used.  The launcher is small, so the floor it passes on is its own.

    python3 tools/baseline.py --src ../parent --src . --repeat 3 --out BENCH.json

Each ``--src`` names one checkout.  The chain runs ``--repeat`` times per
checkout, and the checkouts take turns, so a drift in the machine's speed
falls on all of them.  The JSON holds the machine, the workload and, per
checkout, its commit, every run's wall time, peak RSS and exit code per
step, and the sha256 of each step's output files, which shows whether two
checkouts wrote the same bytes.  Outputs go to a temporary directory that
is removed at the end.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy

CONFIG = "[synth]\nsubscribers = 5000\ntowers = 60\ndays = 28\nevent_rate = 6.0\n"
DATA = ("--cdr", "synth/cdr.csv", "--topups", "synth/topups.csv", "--towers", "synth/towers.csv")
FEATURES = ("--features", "features/features.csv", "--labels", "synth/labels.csv")
# idw's samples: a fixed value for each of the 60 towers synth names T000..T059, as tests/test_golden.py gives them.
SAMPLES = "area,value\n" + "".join(f"T{i:03d},{i % 7 + 0.5}\n" for i in range(60))
STEPS = (
    ("synth", ("synth", "--seed", "11")),
    ("ingest-check", ("ingest-check", *DATA, "--labels", "synth/labels.csv")),
    ("features", ("features", *DATA, "--labels", "synth/labels.csv")),
    ("graph --evc", ("graph", "--evc", *DATA)),
    ("graph", ("graph", *DATA)),
    ("adoption", ("adoption", "--seed", "7", *DATA)),
    ("kappa --mode all --replicates 200", ("kappa", "--mode", "all", "--replicates", "200", "--seed", "7", *DATA)),
    ("pk", ("pk", *DATA)),
    ("anomaly", ("anomaly", "--entity", "global", *DATA)),
    ("anomaly --per-tower", ("anomaly", "--per-tower", *DATA)),
    ("flows", ("flows", *DATA)),
    ("rank-curves", ("rank-curves", "--event-time", "2016-05-20T12:00:00Z",
                     "--comparison-days", "2016-05-13,2016-05-06", *DATA)),
    ("distance-matrix", ("distance-matrix", "--epicenter", "91.25,24.0", "--event-day", "2016-05-20",
                         "--comparison-days", "2016-05-13,2016-05-06", *DATA)),
    ("voronoi", ("voronoi", "--towers", "synth/towers.csv")),
    ("idw --samples", ("idw", "--towers", "synth/towers.csv", "--samples", "samples.csv")),
    ("train", ("train", "--family", "logistic", "--seed", "2", *FEATURES)),
    ("eval", ("eval", *FEATURES, "--model", "train/model.json", "--test-ids", "train/test_ids.csv")),
)


# Run as ``python3 -S -c LAUNCHER cmd...``: spawns cmd with its stdout on the null
# device and prints "<wall seconds> <peak RSS KiB> <exit code>" on its own stdout.
LAUNCHER = """
import os, sys, time
start = time.perf_counter()
pid = os.posix_spawnp(sys.argv[1], sys.argv[1:], os.environ,
                      file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
_, status, usage = os.wait4(pid, 0)
print(time.perf_counter() - start, usage.ru_maxrss, os.waitstatus_to_exitcode(status))
"""


def launch(cmd, **popen) -> tuple[float, int, int]:
    """(wall seconds, peak RSS in KiB, exit code) of cmd, started through LAUNCHER; popen goes to subprocess.run."""
    out = subprocess.run([sys.executable, "-S", "-c", LAUNCHER, *cmd], stdout=subprocess.PIPE, check=True, **popen)
    wall, rss_kib, code = out.stdout.split()
    return float(wall), int(rss_kib), int(code)


def _outdir(name: str) -> str:
    """The output directory of a step: its name with every run of non-word characters as one '_'."""
    return re.sub(r"\W+", "_", name)


def _run(src: Path, work: Path, name: str, argv) -> dict:
    """One step: wall seconds, peak RSS in MB, exit code, and the tail of stderr when it failed."""
    cmd = [sys.executable, "-m", "cdrlab.cli", *argv, "--config", "run.ini", "--outdir", _outdir(name)]
    env = dict(os.environ, PYTHONPATH=str(src / "src"))
    with open(work / "stderr.txt", "wb") as err:
        wall, rss_kib, code = launch(cmd, cwd=work, env=env, stderr=err)
    step = {"wall_s": round(wall, 3), "peak_rss_mb": round(rss_kib / 1024.0, 1), "exit": code}
    if step["exit"]:
        step["stderr"] = (work / "stderr.txt").read_text(errors="replace")[-300:]
    return step


def _digests(outdir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(outdir.iterdir())}


def _commit(src: Path) -> str:
    def git(*args):
        return subprocess.run(["git", "-C", str(src), *args], capture_output=True, text=True).stdout.strip()
    head = git("rev-parse", "--short", "HEAD") or "unknown"
    return head + ("-dirty" if git("status", "--porcelain", "--untracked-files=no") else "")


def _chain(src: Path) -> tuple[dict, dict]:
    """(step -> measurement, step -> output digests) of one run of the chain."""
    with tempfile.TemporaryDirectory(prefix="cdrlab-baseline-") as tmp:
        work = Path(tmp)
        (work / "run.ini").write_text(CONFIG)
        (work / "samples.csv").write_text(SAMPLES)
        steps, digests = {}, {}
        for name, argv in STEPS:
            steps[name] = _run(src, work, name, argv)
            if (work / _outdir(name)).is_dir():
                digests[name] = _digests(work / _outdir(name))
        return steps, digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--src", type=Path, action="append", required=True,
                        help="a checkout to measure; give it once per checkout")
    parser.add_argument("--repeat", type=int, default=1, help="runs of the chain per checkout")
    parser.add_argument("--out", type=Path, required=True, help="the JSON file to write")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    srcs = [src.resolve() for src in args.src]
    runs: dict[Path, list[dict]] = {src: [] for src in srcs}
    digests: dict[Path, dict] = {}
    for _ in range(args.repeat):
        for src in srcs:
            steps, digests[src] = _chain(src)
            runs[src].append(steps)
            print(_commit(src), {name: (s["wall_s"], s["peak_rss_mb"], s["exit"]) for name, s in steps.items()},
                  file=sys.stderr)
    doc = {
        "machine": {"platform": platform.platform(), "cpus": os.cpu_count(),
                    "python": platform.python_version(), "numpy": numpy.__version__},
        "workload": {"config": CONFIG, "steps": {name: list(argv) for name, argv in STEPS}},
        "checkouts": [
            {"commit": _commit(src),
             "median": {name: {key: statistics.median(run[name][key] for run in runs[src])
                               for key in ("wall_s", "peak_rss_mb")} for name, _ in STEPS},
             "runs": runs[src], "sha256": digests[src]}
            for src in srcs
        ],
    }
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
