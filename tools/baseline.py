"""Time each subcommand of the ROADMAP Baseline as a fresh cdrlab process and write the result as JSON.

The workload is the ROADMAP's pinned Baseline: ``[synth]`` 5,000 subscribers,
60 towers, 28 days and ``event_rate`` 6.0, seed 11, which gives about 839k
CDRs.  ``--subscribers N`` sets the subscribers and keeps the rest (20,000 is
the 4x rung), and the JSON's ``workload.config`` records the number.  Every step runs as ``python3 -m cdrlab.cli`` with ``PYTHONPATH`` set to
a copy of the ``src`` of the checkout being measured.  The steps run in order,
because later steps read what ``synth``, ``features`` and ``train`` wrote.
The side files that ``idw``, ``correlate`` and ``campaign`` read are written
after ``features`` and not timed; ``side_files`` derives them as
``tests/test_golden.py`` does, but takes the subscribers from the complete rows
of ``features.csv``: under the Baseline's default ``na_policy = drop`` those
are the rows ``campaign`` keeps, and a control id outside them is exit 2.

Each step starts through ``LAUNCHER``, a ``python3 -S`` process that spawns the
step, reaps it with ``os.wait4`` and reports the step's wall time (spawn to
reap) and peak RSS.  A child that a large process starts directly inherits
that process's RSS high-water mark into its own ``ru_maxrss`` (the clone
shares the parent's memory until exec), so a step started from this script,
which holds ``cdr.csv`` while hashing it, would report about 70 MB however
little it used.  The launcher is small, so the floor it passes on is its own.

    python3 tools/baseline.py --src ../parent --src . --repeat 3 --out BENCH.json

Each ``--src`` names one checkout.  The chain runs ``--repeat`` times per
checkout, and the checkouts take turns, in reverse order every other run, so
a drift in the machine's speed, or a cost of running after another chain,
falls on all of them.  Each checkout's ``src/`` is copied first, and every
copy lies at a path of the same length: on the Baseline extract, ``graph``
peaked 3 to 6 MB apart with nothing changed but the directory it imported
cdrlab from, and at the same RSS from two directories of equal length.  Each
run of the chain has its own empty parse-snapshot cache (``XDG_CACHE_HOME``)
in its temporary directory, so ``ingest-check``, the first step that parses,
parses cold, the later steps read its snapshots, and no run reads another
checkout's.  The JSON holds the machine, with the BLAS thread variables the
steps inherit (null when unset), the workload and, per checkout, its commit,
every run's wall time, peak RSS and exit code per step, and the sha256 of
each step's output files, which shows whether two checkouts wrote the same
bytes.  Outputs go to a temporary directory that is removed at the end, also
when the script is stopped by SIGTERM or Ctrl-C: each launcher leads its own
process group, which is killed with the step in it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy

# The environment variables that set the thread counts of OpenBLAS, OpenMP and MKL.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CONFIG = "[synth]\nsubscribers = {subscribers}\ntowers = 60\ndays = 28\nevent_rate = 6.0\n"
DATA = ("--cdr", "synth/cdr.csv", "--topups", "synth/topups.csv", "--towers", "synth/towers.csv")
FEATURES = ("--features", "features/features.csv", "--labels", "synth/labels.csv")
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
    ("correlate", ("correlate", "--a", "samples.csv", "--b", "other.csv")),
    ("train", ("train", "--family", "logistic", "--seed", "2", *FEATURES)),
    ("eval", ("eval", *FEATURES, "--model", "train/model.json", "--test-ids", "train/test_ids.csv")),
    ("select-covariates", ("select-covariates", "--table", "features/features.csv", "--response", "degree")),
    ("campaign", ("campaign", *DATA, "--model", "train/model.json", "--features", "features/features.csv",
                  "--control", "control.csv", "--outcomes", "outcomes.csv", "--treatment-size", "500")),
)


def side_files(work: Path) -> None:
    """The inputs of idw, correlate and campaign, derived from synth's towers and the complete feature rows."""
    towers = [ln.split(",")[0] for ln in (work / "synth" / "towers.csv").read_text().splitlines()[2:]]
    rows = [ln.split(",") for ln in (work / "features" / "features.csv").read_text().splitlines()[2:]]
    subs = [cells[0] for cells in rows if "" not in cells]
    (work / "samples.csv").write_text("area,value\n" + "".join(f"{t},{i % 7 + 0.5}\n" for i, t in enumerate(towers)))
    (work / "other.csv").write_text("area,value\n" + "".join(f"{t},{i * i % 11}\n" for i, t in enumerate(towers)))
    (work / "control.csv").write_text("subscriber\n" + "".join(f"{s}\n" for s in subs[::5]))
    (work / "outcomes.csv").write_text("subscriber,converted,renewed\n"
                                       + "".join(f"{s},{i % 3 == 0:d},{i % 4 == 0:d}\n" for i, s in enumerate(subs)))


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
    """(wall seconds, peak RSS in KiB, exit code) of cmd, started through LAUNCHER; popen goes to subprocess.Popen.

    An exception while the launcher runs (SystemExit from SIGTERM, KeyboardInterrupt) kills
    the launcher's process group, so that no step outlives the script or writes into a
    directory being removed.
    """
    argv = [sys.executable, "-S", "-c", LAUNCHER, *cmd]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, start_new_session=True, **popen) as proc:
        try:
            out = proc.communicate()[0]
        except BaseException:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            raise
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, argv)
    wall, rss_kib, code = out.split()
    return float(wall), int(rss_kib), int(code)


def _outdir(name: str) -> str:
    """The output directory of a step: its name with every run of non-word characters as one '_'."""
    return re.sub(r"\W+", "_", name)


def _run(env: dict, work: Path, name: str, argv) -> dict:
    """One step: wall seconds, peak RSS in MB, exit code, and the tail of stderr when it failed."""
    cmd = [sys.executable, "-m", "cdrlab.cli", *argv, "--config", "run.ini", "--outdir", _outdir(name)]
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


def _chain(src: Path, config: str) -> tuple[dict, dict]:
    """(step -> measurement, step -> output digests) of one run of the chain, importing cdrlab from src."""
    with tempfile.TemporaryDirectory(prefix="cdrlab-baseline-") as tmp:
        work = Path(tmp)
        env = dict(os.environ, PYTHONPATH=str(src), XDG_CACHE_HOME=str(work / "cache"))
        (work / "run.ini").write_text(config)
        steps, digests = {}, {}
        for name, argv in STEPS:
            steps[name] = _run(env, work, name, argv)
            if name == "features" and not steps[name]["exit"]:
                side_files(work)
            if (work / _outdir(name)).is_dir():
                digests[name] = _digests(work / _outdir(name))
        return steps, digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--src", type=Path, action="append", required=True,
                        help="a checkout to measure; give it once per checkout")
    parser.add_argument("--repeat", type=int, default=1, help="runs of the chain per checkout")
    parser.add_argument("--subscribers", type=int, default=5000, help="[synth] subscribers of the workload")
    parser.add_argument("--out", type=Path, required=True, help="the JSON file to write")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    config = CONFIG.format(subscribers=args.subscribers)
    srcs = [src.resolve() for src in args.src]
    runs: dict[Path, list[dict]] = {src: [] for src in srcs}
    digests: dict[Path, dict] = {}
    with tempfile.TemporaryDirectory(prefix="cdrlab-src-") as tmp:
        width = len(str(len(srcs) - 1))
        copies = {src: Path(tmp) / f"{i:0{width}d}" / "src" for i, src in enumerate(srcs)}
        for src, copy in copies.items():
            shutil.copytree(src / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
        for i in range(args.repeat):
            for src in srcs[::-1] if i % 2 else srcs:
                steps, digests[src] = _chain(copies[src], config)
                runs[src].append(steps)
                print(_commit(src), {name: (s["wall_s"], s["peak_rss_mb"], s["exit"]) for name, s in steps.items()},
                      file=sys.stderr)
    doc = {
        "machine": {"platform": platform.platform(), "cpus": os.cpu_count(),
                    "python": platform.python_version(), "numpy": numpy.__version__,
                    **{name: os.environ.get(name) for name in BLAS_THREAD_VARS}},
        "workload": {"config": config, "steps": {name: list(argv) for name, argv in STEPS}},
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
    # SIGTERM as SystemExit, so that the temporary directories are removed on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
