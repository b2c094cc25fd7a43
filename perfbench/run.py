"""cdrlab benchmark: seeded inputs, real CLI subprocesses, checked outputs.

    python3 perfbench/run.py --workload session|stats|all --seed N \\
        --seconds S --trace 0|1

Run it from the root of a checkout; it imports cdrlab from ``src/`` and
builds nothing.  Scratch data (inputs, outputs, logs and the subprocesses'
stderr) goes to ``.bench_work/`` in the checkout and is removed at the end.

With ``--trace 0`` it makes the workload's inputs several times, then repeats
the workload's step chain for ``--seconds`` seconds (at least ``MIN_PASSES``
times) and reports the end-to-end metrics as medians.  With ``--trace 1`` it
also runs the inputs and one pass through ``tracer.py`` and reports the
per-layer metrics, the tracing overhead and the per-step medians.  Either
way the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
WORK_DIR = ".bench_work"
SETUP_REPS = 3
MIN_PASSES = 3
DEADLINE_S = 170.0  # every child is killed past this, to exit within 180 s

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
TIMED_STEPS = ("ingest_check", "ingest_dirty", "features", "graph", "kappa", "anomaly",
               "anomaly_per_tower", "flows")
COUNTS = ("ingest.parse_cdr_file.rows", "ingest.parse_cdr_file.rejects",
          "ingest.nonfinite_accepted", "features.extract_features.calls",
          "parallel.parallel_map.calls", "socialgraph.build_graph.edges", "adoption.replicates",
          "anomaly.bin_series.calls", "anomaly.build_flow_network.calls")
RATIOS = ("ingest.accept_ratio", "adoption.clustering_valid_ratio")


def per_layer_units() -> dict[str, str]:
    """Every metric a traced run reports, with its unit."""
    units = {f"{tracer.span_name(m, f)}_s": "s" for m, funcs in tracer.TRACED.items()
             for f in funcs if (m, f) != ("cdrlab.cli", "main")}
    units.update({name: "s" for name in ("records.dataset_build_s", "records.index_s",
                                         "cli.startup_s", "cli.self_s", "trace.overhead_s")})
    units.update({name: "count" for name in COUNTS})
    units.update({name: "ratio" for name in RATIOS})
    units.update({f"{step}_s": "s" for step in TIMED_STEPS})
    return units


@dataclass
class Proc:
    """One finished cdrlab subprocess."""

    wall: float
    rss_mb: float
    rc: int
    stderr_tail: str


class Cli:
    """Runs cdrlab subprocesses from src/, one at a time, with rusage."""

    def __init__(self, src: Path, logs: Path, deadline: float):
        self.logs = logs
        self.deadline = deadline
        self.spans: Path | None = None  # traced when set: one spans file per process
        self.env = dict(os.environ, PYTHONPATH=str(src), OMP_NUM_THREADS="1",
                        OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")

    def traced(self, spans: Path) -> "Cli":
        spans.mkdir(parents=True, exist_ok=True)
        other = copy.copy(self)
        other.spans = spans
        return other

    def __call__(self, argv: list[str], cwd: Path, tag: str) -> Proc:
        if self.spans is None:
            cmd = [sys.executable, "-m", "cdrlab.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "tracer.py"), str(self.spans / f"{tag}.json"), tag,
                   *argv]
        err_path = self.logs / f"{tag}.err"
        with open(self.logs / f"{tag}.out", "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            env = dict(self.env, **{tracer.SPAWN_ENV: repr(start)})
            proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err)
            killer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-300:].strip()
        return Proc(wall, usage.ru_maxrss / 1024.0, proc.returncode, tail)


def tree_digest(path: Path) -> str:
    """sha256 over every file's relative name and bytes."""
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode() + b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


@dataclass
class StepResult:
    step: workloads.Step
    proc: Proc
    problems: list[str]
    notes: dict
    digest: str


@dataclass
class Pass:
    steps: list[StepResult] = field(default_factory=list)

    @property
    def wall(self) -> float:
        """The chain's time: its steps back to back, without the checks."""
        return sum(s.proc.wall for s in self.steps)

    @property
    def peak_rss_mb(self) -> float:
        return max(s.proc.rss_mb for s in self.steps)


def run_pass(wl: workloads.Workload, cli: Cli, work: Path, tag: str, ctx: dict,
             seed: int) -> Pass:
    """One pass through the step chain; outputs are checked, hashed, removed."""
    root = f"out/{tag}"
    done = Pass()
    for step in wl.steps:
        outdir = f"{root}/{step.id}"
        argv = [a.format(o=root) for a in step.argv]
        argv += ["--config", workloads.CONFIG, "--seed", str(seed),
                 "--threads", str(wl.threads), "--outdir", outdir]
        proc = cli(argv, work, f"{tag}-{step.id}")
        problems, notes = [], {}
        if proc.rc != 0:
            problems.append(f"exit {proc.rc}: {proc.stderr_tail}")
        elif not (work / outdir / f"manifest_{argv[0].replace('-', '_')}.json").is_file():
            problems.append("no manifest written")
        elif step.check is not None:
            try:
                problems, notes = step.check(work / outdir, ctx)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems = [f"check could not read the outputs: {exc!r}"]
        done.steps.append(StepResult(step, proc, problems, notes, tree_digest(work / outdir)))
    shutil.rmtree(work / root, ignore_errors=True)  # a usage error leaves none
    return done


def make_inputs(wl: workloads.Workload, cli: Cli, work: Path, name: str, seed: int):
    """Build the workload's inputs in work/name; (seconds, ctx, digest of in/)."""
    d = work / name
    d.mkdir()
    start = time.perf_counter()
    ctx = wl.make_inputs(cli, d, seed, wl.config)
    return time.perf_counter() - start, ctx, tree_digest(d / "in")


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]


def judge(passes: list[Pass], tally: Tally, reference: dict[str, str]) -> None:
    """Count every step; a step whose outputs differ from the reference fails."""
    for i, p in enumerate(passes):
        for s in p.steps:
            problems = list(s.problems)
            if reference.setdefault(s.step.id, s.digest) != s.digest:
                problems.append("outputs differ from the first pass")
            tally.add(f"pass {i} {s.step.id}", problems)


def repeat_passes(wl, cli, work, ctx, seed, seconds) -> list[Pass]:
    """Passes for about `seconds`: another starts while it would end no more
    than half a pass past the mark."""
    passes: list[Pass] = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or (
            time.perf_counter() - start + statistics.median(p.wall for p in passes) / 2 <= seconds):
        passes.append(run_pass(wl, cli, work, f"r{len(passes)}", ctx, seed))
    return passes


def step_medians(passes: list[Pass]) -> dict[str, float]:
    walls: dict[str, list[float]] = {}
    for p in passes:
        for s in p.steps:
            walls.setdefault(s.step.id, []).append(s.proc.wall)
    return {k: statistics.median(v) for k, v in walls.items()}


def notes_of(passes: list[Pass]) -> dict:
    return {f"{s.step.id}.{k}": v for s in passes[-1].steps for k, v in s.notes.items()}


def run(name: str, seed: int, seconds: int, trace: bool, src: Path, work: Path,
        tiny: bool = False) -> tuple[dict, list[str]]:
    """One benchmark run in scratch directory work (removed at the end);
    (result object, human-readable report lines)."""
    wl = workloads.build(name, tiny)
    shutil.rmtree(work, ignore_errors=True)
    (work / "logs").mkdir(parents=True)
    cli = Cli(src, work / "logs", time.monotonic() + DEADLINE_S)
    tally = Tally()
    try:
        setups = []
        if trace:
            setups.append(make_inputs(wl, cli, work, "setup0", seed))
            setups.append(make_inputs(wl, cli.traced(work / "spans"), work, "setup1", seed))
        else:
            for i in range(SETUP_REPS):
                setups.append(make_inputs(wl, cli, work, f"setup{i}", seed))
        for i, (_, _, digest) in enumerate(setups):
            tally.add(f"setup {i}", [] if digest == setups[0][2] else
                      ["inputs differ from the first setup"])
        ctx = setups[0][1]
        (work / "setup0" / "in").rename(work / "in")
        for i in range(len(setups)):
            shutil.rmtree(work / f"setup{i}")

        passes = repeat_passes(wl, cli, work, ctx, seed, seconds)
        reference: dict[str, str] = {}
        judge(passes, tally, reference)
        lines = [f"workload {name}: seed {seed}, closed loop, 1 client, "
                 f"{len(wl.steps)} steps x {len(passes)} passes, --threads {wl.threads}"]
        medians = step_medians(passes)
        walls = [p.wall for p in passes]
        lines.append("  pass walls (s): " + " ".join(f"{w:.3f}" for w in walls))
        lines.append("  step medians (s): " + ", ".join(f"{k}={v:.3f}" for k, v in medians.items()))
        if trace:
            traced = run_pass(wl, cli.traced(work / "spans"), work, "traced", ctx, seed)
            judge([traced], tally, reference)
            traces = [tracer.load(p) for p in sorted((work / "spans").glob("*.json"))]
            metrics = tracer.layer_metrics(traces)
            metrics["trace.overhead_s"] = traced.wall - statistics.median(walls)
            metrics["ingest.nonfinite_accepted"] = notes_of(passes).get(
                "ingest_dirty.nonfinite_accepted", 0)
            for step in TIMED_STEPS:
                metrics[f"{step}_s"] = medians.get(step, 0.0)
            lines += trace_lines(traces, traced, metrics)
            units = per_layer_units()
        else:
            metrics = {
                "setup_s": statistics.median(s[0] for s in setups),
                "wall_s": statistics.median(walls),
                "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
            }
            units = END_TO_END
        lines.append(f"  fail_ratio = {tally.failed}/{tally.attempted} = "
                     f"{tally.failed / tally.attempted:.4f}")
        lines += [f"  FAILED {p}" for p in tally.problems]
        lines.append("  observations: " + json.dumps(notes_of(passes), sort_keys=True))
        lines.append("  digests: " + json.dumps({k: v[:16] for k, v in reference.items()}))
        for key in units:
            lines.append(f"  {key:40s} {metrics[key]:14.6f} {units[key]}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    return result, lines


def trace_lines(traces: list[dict], traced: Pass, metrics: dict) -> list[str]:
    """Per-step breakdown of the traced pass."""
    lines = [f"  traced pass {traced.wall:.3f} s, overhead {metrics['trace.overhead_s']:+.3f} s"]
    by_step = {t["step"]: t for t in traces}
    for s in traced.steps:
        t = by_step.get(f"traced-{s.step.id}")
        if t is None:
            lines.append(f"    {s.step.id:18s} wrote no spans")
            continue
        main_s, top = tracer.step_breakdown(t)
        largest = tracer.largest_span(t)
        load = tracer.busy([t]).get("ingest.load_dataset", 0.0)
        lines.append(
            f"    {s.step.id:18s} wall {s.proc.wall:.3f} main {main_s:.3f} "
            f"startup {tracer.startup(t):.3f} load_dataset {load / max(main_s, 1e-9):5.1%} of main; "
            f"largest span {largest[0]} {largest[1]:.3f}; "
            + ", ".join(f"{n} {v:.3f} ({c} calls)" for n, v, c in top))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "cdrlab" / "cli.py").is_file():
        print(f"run.py: no cdrlab sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        result, lines = run(name, args.seed, args.seconds, bool(args.trace), root / "src",
                            root / WORK_DIR / f"{name}-{args.seed}")
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
