"""The benchmark's workloads: how each makes its inputs, its step chain, and
the checks each step's outputs must pass.

Every workload is a closed loop with one client: the steps run in order, one
``cdrlab`` subprocess at a time, and a step may read what an earlier step of
the same pass wrote (``eval`` reads ``train``'s model).  All paths are relative
to the run directory, so manifests and digests do not depend on where the
checkout lives.  Inputs come from ``cdrlab synth`` plus small files derived
here; the workload seed is the only source of variation.
"""

from __future__ import annotations

import csv
import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import dirty

CONFIG = "in/cfg.ini"
DATA = ("--cdr", "in/cdr.csv", "--towers", "in/towers.csv", "--topups", "in/topups.csv")
SECONDS_PER_DAY = 86400
START = 1462060800  # 2016-05-01T00:00:00Z, the [synth] start default

SURGE_MULTIPLIER = 3.0
SURGE_BIN = 4 * 3600  # [anomaly] bin_width: 6 bins a day, enough counts per bin at this size
MIN_SURGE_FLAGS = 2
MIN_AUC = 0.6


class SetupError(RuntimeError):
    """A setup command failed; nothing can be measured."""


@dataclass(frozen=True)
class Step:
    id: str
    argv: tuple[str, ...]  # cdrlab arguments; "{o}" is this pass's output root
    check: Callable | None = None  # (outdir, ctx) -> (problems, observations)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    threads: int
    config: dict[str, dict[str, object]]
    make_inputs: Callable  # (cli, run dir, seed, config) -> ctx
    steps: tuple[Step, ...]


def write_config(path: Path, config: dict[str, dict[str, object]]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for section, keys in config.items():
            fh.write(f"[{section}]\n")
            for key, value in keys.items():
                fh.write(f"{key} = {value}\n")


def data_rows(path: Path) -> list[list[str]]:
    """CSV rows without comment lines and without the header row."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return rows[1:]


def _synth(cli, d: Path, seed: int, outdir: str, *extra: str) -> None:
    proc = cli(["synth", "--config", CONFIG, "--seed", str(seed), "--outdir", outdir, *extra],
               d, f"setup-synth-{outdir}")
    if proc.rc != 0:
        raise SetupError(f"synth exited {proc.rc}: {proc.stderr_tail}")


def _tower_counts(cdr: Path, kind: str | None = None) -> dict[str, int]:
    counts: dict[str, int] = {}
    for row in data_rows(cdr):
        if kind is None or row[4] == kind:
            counts[row[2]] = counts.get(row[2], 0) + 1
    return counts


# ------------------------------------------------------------------- checks


def check_clean_ingest(outdir: Path, ctx: dict):
    rejects = dirty.read_rejects(outdir / "rejects_cdr.csv")
    problems = [f"clean input: {len(rejects)} CDR rows rejected"] if rejects else []
    return problems, {}


def check_dirty_ingest(outdir: Path, ctx: dict):
    with open(outdir / "manifest_ingest_check.json", encoding="utf-8") as fh:
        params = json.load(fh)["params"]
    rejects = dirty.read_rejects(outdir / "rejects_cdr.csv")
    problems, accepted = dirty.check(ctx["expected"], rejects, params["cdr"]["rows"])
    if params["events"] != params["cdr"]["rows"] - len(rejects):
        problems.append("manifest events != rows - rejects")
    return problems, {"nonfinite_accepted": accepted, "rejects": len(rejects)}


def check_surge(outdir: Path, ctx: dict):
    """The planted day must be the planted tower's most-flagged day, with at
    least MIN_SURGE_FLAGS increase flags."""
    entity = f"tower:{ctx['surge_tower']}"
    days: dict[int, int] = {}
    for r in data_rows(outdir / "anomalies.csv"):
        if r[0] == entity and r[6] == "increase":
            day = int(r[1]) - int(r[1]) % SECONDS_PER_DAY
            days[day] = days.get(day, 0) + 1
    flags = days.pop(ctx["surge_day"], 0)
    runner_up = max(days.values(), default=0)
    problems = []
    if flags < MIN_SURGE_FLAGS or flags <= runner_up:
        problems.append(f"planted surge on {entity}: {flags} flags on the planted day, "
                        f"{runner_up} on another day")
    return problems, {"surge_flags": flags, "other_day_flags": runner_up}


def check_auc(outdir: Path, ctx: dict):
    metrics = {r[0]: r[1] for r in data_rows(outdir / "eval.csv")}
    auc = float(metrics["auc"])
    problems = [f"eval auc {auc:.4f} < {MIN_AUC}"] if auc < MIN_AUC else []
    return problems, {"auc": auc}


def check_kappa(outdir: Path, ctx: dict):
    lows = {r[0]: float(r[2]) for r in data_rows(outdir / "kappa.csv")}
    problems = [f"kappa[{mode}] ci_lo {lo:.4f} <= 1" for mode, lo in sorted(lows.items())
                if lo <= 1.0]
    return problems, {f"kappa_ci_lo.{mode}": lo for mode, lo in sorted(lows.items())}


# ---------------------------------------------------------------- workloads


def _session_inputs(cli, d: Path, seed: int, config) -> dict:
    """Synth once to find the busiest tower, then again with a planted 3x,
    one-day call surge on it, after at least a week of baseline; then the
    dirty copy of the result."""
    write_config(d / CONFIG, config)
    _synth(cli, d, seed, "base")
    voice = _tower_counts(d / "base" / "cdr.csv", "voice")
    tower = max(sorted(voice), key=voice.get)
    days = int(config["synth"]["days"])
    day = 7 + seed % (days - 14)
    shutil.rmtree(d / "base")
    _synth(cli, d, seed, "in", "--shock-entity", tower, "--shock-start-day", str(day),
           "--shock-days", "1", "--shock-multiplier", str(SURGE_MULTIPLIER))
    expected = dirty.make_dirty(d / "in" / "cdr.csv", d / "in" / "cdr_dirty.csv", seed)
    expected.save(d / "in" / "dirty_expected.json")
    return {"surge_tower": tower, "surge_day": START + day * SECONDS_PER_DAY,
            "expected": expected}


def _stats_inputs(cli, d: Path, seed: int, config) -> dict:
    """IDW samples are the per-tower CDR counts."""
    write_config(d / CONFIG, config)
    _synth(cli, d, seed, "in")
    counts = _tower_counts(d / "in" / "cdr.csv")
    with open(d / "in" / "tower_counts.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["area", "value"])
        for row in data_rows(d / "in" / "towers.csv"):
            writer.writerow([row[0], counts.get(row[0], 0)])
    return {}


def _synth_config(subscribers: int, event_rate: float, **extra) -> dict:
    return {"synth": {"subscribers": subscribers, "towers": 60, "days": 28,
                      "event_rate": event_rate, **extra}}


def build(name: str, tiny: bool = False) -> Workload:
    """One workload at benchmark size, or at a size the self-tests run in seconds.

    The tiny size skips the planted-truth checks, which need the full size
    to hold.
    """
    planted = not tiny
    if name == "session":
        config = _synth_config(150 if tiny else 300, 6.0, label_effect=0.2)
        config["anomaly"] = {"bin_width": SURGE_BIN}
        reps = "20" if tiny else "200"
        dirty_data = ("--cdr", "in/cdr_dirty.csv") + DATA[2:]
        steps = (
            Step("ingest_check", ("ingest-check", *DATA), check_clean_ingest),
            Step("ingest_dirty", ("ingest-check", *dirty_data), check_dirty_ingest),
            Step("features", ("features", *DATA)),
            Step("graph", ("graph", "--evc", *DATA)),
            Step("kappa", ("kappa", "--mode", "all", "--replicates", reps, *DATA)),
            Step("anomaly", ("anomaly", *DATA)),
            Step("anomaly_per_tower", ("anomaly", "--per-tower", *DATA),
                 check_surge if planted else None),
            Step("flows", ("flows", *DATA)),
            Step("train", ("train", "--family", "logistic", "--features",
                           "{o}/features/features.csv", "--labels", "in/labels.csv")),
            Step("eval", ("eval", "--features", "{o}/features/features.csv", "--labels",
                          "in/labels.csv", "--model", "{o}/train/model.json",
                          "--test-ids", "{o}/train/test_ids.csv"),
                 check_auc if planted else None),
        )
        return Workload(name, "the analyst session on a clean and a dirty extract: every step "
                        "re-parses its input, so parse, feature, binning and thread changes show",
                        2, config, _session_inputs, steps)
    if name == "stats":
        config = _synth_config(400 if tiny else 1000, 1.5)
        config["spatial"] = {"grid_nrows": 400, "grid_ncols": 250, "grid_cellsize": 0.01}
        reps = "20" if tiny else "2000"
        steps = (
            # No --evc here: eigenvector_centrality fails to converge on this
            # input for some seeds (2 and 10 of 0-11); session measures it.
            Step("graph", ("graph", *DATA)),
            Step("kappa", ("kappa", "--mode", "all", "--replicates", reps, *DATA),
                 check_kappa if planted else None),
            Step("idw", ("idw", "--samples", "in/tower_counts.csv", *DATA)),
        )
        return Workload(name, "graph and kappa kernels dominate while ingest is small; "
                        "the bypass workload for ingest and feature changes",
                        1, config, _stats_inputs, steps)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("session", "stats")
