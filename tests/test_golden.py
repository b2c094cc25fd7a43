"""Every subcommand's output bytes against the sha256 digests pinned in golden_digests.json.

A small synthetic extract (300 subscribers, 20 towers, 14 days from
2016-05-25, so the window crosses the May/June month end) runs through every
subcommand in process, and `train` and `eval` run once per model family.
The side files that `idw`, `correlate`, `campaign` and the `--areas` steps
read are written here, and so is `table.csv`, the `select-covariates
--table` input with a text column and a blank and a whitespace-only cell.
A change that alters any output byte fails with the first file that
differs.

The workload runs three ways: with an empty parse-snapshot cache (the first
parsing step parses, later ones read its snapshots), with the cache off, and
with a warm cache, where no step parses a CDR or top-up file at all.  The
steps whose numbers pass through BLAS run once more, in fresh processes under
one and under two OpenBLAS threads.

A change that alters outputs on purpose regenerates the file in the same
commit and names the changed files:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from cdrlab import cli, ingest

GOLDEN = Path(__file__).with_name("golden_digests.json")
CONFIG = """
[synth]
subscribers = 300
towers = 20
days = 14
start = 2016-05-25T00:00:00Z
[model]
na_policy = impute_mean
"""
DATA = ["--cdr", "synth/cdr.csv", "--topups", "synth/topups.csv", "--towers", "synth/towers.csv"]
MODEL_IO = ["--features", "features/features.csv", "--labels", "synth/labels.csv"]
DAYS = ["--comparison-days", "2016-05-27,2016-05-30"]
# (output directory, argv) in run order; later steps read what earlier ones wrote.
STEPS = [
    ("synth", ["synth", "--seed", "11", "--shock-start-day", "9", "--shock-multiplier", "3"]),
    ("ingest_check", ["ingest-check", *DATA, "--labels", "synth/labels.csv"]),
    ("features", ["features", *DATA, "--labels", "synth/labels.csv"]),
    ("graph", ["graph", "--evc", *DATA]),
    ("adoption", ["adoption", "--seed", "7", *DATA]),
    ("kappa", ["kappa", "--replicates", "50", "--seed", "7", *DATA]),
    ("pk", ["pk", "--min-support", "5", *DATA]),
    ("anomaly", ["anomaly", *DATA]),
    ("anomaly_per_tower", ["anomaly", "--per-tower", "--geojson", *DATA]),
    ("flows", ["flows", *DATA]),
    ("rank_curves", ["rank-curves", "--event-time", "2016-06-03T12:00:00Z", *DAYS, *DATA]),
    ("distance_matrix", ["distance-matrix", "--epicenter", "91.25,24.0", "--event-day", "2016-06-03", *DAYS, *DATA]),
    ("voronoi", ["voronoi", "--towers", "synth/towers.csv"]),
    ("idw", ["idw", "--towers", "synth/towers.csv", "--samples", "samples.csv"]),
    ("correlate", ["correlate", "--a", "samples.csv", "--b", "other.csv"]),
    ("train", ["train", "--family", "logistic", "--seed", "2", *MODEL_IO]),
    ("eval", ["eval", *MODEL_IO, "--model", "train/model.json", "--test-ids", "train/test_ids.csv"]),
    ("select_covariates", ["select-covariates", "--table", "features/features.csv", "--response", "degree"]),
    ("campaign", ["campaign", *DATA, "--model", "train/model.json", "--features", "features/features.csv",
                  "--control", "control.csv", "--outcomes", "outcomes.csv", "--treatment-size", "40"]),
    ("anomaly_district", ["anomaly", "--entity", "district:D1", "--areas", "areas.csv", *DATA]),
    ("flows_district", ["flows", "--areas", "areas.csv", *DATA]),
    ("train_stumps", ["train", "--family", "bagged_stumps", "--seed", "2", *MODEL_IO]),
    ("eval_stumps", ["eval", *MODEL_IO, "--model", "train_stumps/model.json",
                     "--test-ids", "train_stumps/test_ids.csv"]),
    ("train_mlp", ["train", "--family", "mlp", "--seed", "2", *MODEL_IO]),
    ("eval_mlp", ["eval", *MODEL_IO, "--model", "train_mlp/model.json", "--test-ids", "train_mlp/test_ids.csv"]),
    ("select_table", ["select-covariates", "--table", "table.csv", "--response", "resp"]),
    ("select_table_exhaustive", ["select-covariates", "--table", "table.csv", "--response", "resp", "--exhaustive"]),
]


def _side_files(work: Path) -> None:
    """The inputs of idw, correlate, campaign, the district steps and select_table, from synth's towers and labels."""
    towers = [ln.split(",")[0] for ln in (work / "synth" / "towers.csv").read_text().splitlines()[2:]]
    subs = [ln.split(",")[0] for ln in (work / "synth" / "labels.csv").read_text().splitlines()[2:]]
    (work / "samples.csv").write_text("area,value\n" + "".join(f"{t},{i % 7 + 0.5}\n" for i, t in enumerate(towers)))
    (work / "other.csv").write_text("area,value\n" + "".join(f"{t},{i * i % 11}\n" for i, t in enumerate(towers)))
    (work / "areas.csv").write_text("tower,area\n" + "".join(f"{t},D{i % 4}\n" for i, t in enumerate(towers)))
    (work / "control.csv").write_text("subscriber\n" + "".join(f"{s}\n" for s in subs[::5]))
    (work / "outcomes.csv").write_text("subscriber,converted,renewed\n"
                                       + "".join(f"{s},{i % 3 == 0:d},{i % 4 == 0:d}\n" for i, s in enumerate(subs)))
    # x3 follows x1 closely enough to be pruned; row 7 has a blank x2 and row 11 a whitespace-only resp
    table = []
    for i, s in enumerate(subs[:60]):
        x1, x2, x4 = i % 7 + 0.25 * (i % 3), i * i % 11, i * 5 % 13
        resp = 1.5 * x1 - 0.4 * x4 + 0.3 * (i % 5)
        table.append([s, f"D{i % 4}", " " if i == 11 else resp, x1, "" if i == 7 else x2, 2 * x1 + 0.1 * (i % 4), x4])
    (work / "table.csv").write_text("id,area,resp,x1,x2,x3,x4\n" + "".join(",".join(map(str, r)) + "\n" for r in table))


def run_workload(work: Path) -> dict[str, str]:
    """'<step>/<file>' -> sha256 of every output, after running STEPS in work (the working directory)."""
    (work / "run.ini").write_text(CONFIG)
    digests = {}
    for name, argv in STEPS:
        if name == "idw":
            _side_files(work)
        rc = cli.main([*argv, "--config", "run.ini", "--outdir", name])
        assert rc == 0, f"{name} exited {rc}"
        for path in sorted((work / name).iterdir()):
            digests[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def assert_pinned(got: dict[str, str]) -> None:
    want = json.loads(GOLDEN.read_text())
    # in run order, then any pinned file the run no longer writes
    differ = [name for name in dict.fromkeys([*got, *want]) if got.get(name) != want.get(name)]
    assert not differ, f"{differ[0]} differs from {GOLDEN.name}, the first of {len(differ)}: {differ}"


def test_every_output_matches_its_pinned_digest(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(cli.CONFIG_ENV_VAR, raising=False)
    monkeypatch.chdir(tmp_path)
    assert_pinned(run_workload(tmp_path))


def refuse_to_parse(*args, **kwargs):
    raise AssertionError("parsed an event file that a snapshot holds")


@pytest.mark.parametrize("cache", ["off", "warm"])
def test_outputs_match_their_pinned_digests_with_the_cache_off_or_warm(tmp_path, monkeypatch, capsys, snapshot_cache,
                                                                       cache):
    monkeypatch.delenv(cli.CONFIG_ENV_VAR, raising=False)
    if cache == "off":
        (tmp_path / "not_a_dir").write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "not_a_dir"))
    else:
        (tmp_path / "fill").mkdir()
        monkeypatch.chdir(tmp_path / "fill")
        run_workload(tmp_path / "fill")
        monkeypatch.setattr(ingest, "parse_cdr_file", refuse_to_parse)
        monkeypatch.setattr(ingest, "parse_topup_file", refuse_to_parse)
    (tmp_path / "run").mkdir()
    monkeypatch.chdir(tmp_path / "run")
    assert_pinned(run_workload(tmp_path / "run"))
    assert snapshot_cache.exists() == (cache == "warm")


# The steps that reach BLAS: model training for each family, its evaluation,
# covariate selection, campaign scoring and eigenvector centrality.
BLAS_STEPS = ("graph", "train", "eval", "select_covariates", "campaign", "train_stumps", "train_mlp")
RUN_STEPS = """import json, sys
from cdrlab import cli
for argv in json.loads(sys.argv[1]):
    if cli.main(argv):
        sys.exit(f"{argv[0]} failed")
"""


def test_steps_that_reach_blas_match_their_pinned_digests_under_one_and_two_threads(tmp_path, monkeypatch, capsys):
    # OpenBLAS reads its thread count when numpy loads it, so each count needs a fresh process.
    monkeypatch.delenv(cli.CONFIG_ENV_VAR, raising=False)
    base = tmp_path / "base"
    base.mkdir()
    monkeypatch.chdir(base)
    (base / "run.ini").write_text(CONFIG)
    argv = {name: [*args, "--config", "run.ini", "--outdir", name] for name, args in STEPS}
    for name in ("synth", "features"):
        assert cli.main(argv[name]) == 0
    _side_files(base)
    want = {name: digest for name, digest in json.loads(GOLDEN.read_text()).items()
            if name.split("/")[0] in BLAS_STEPS}
    src = os.path.dirname(os.path.dirname(cli.__file__))
    for threads in ("1", "2"):
        work = shutil.copytree(base, tmp_path / f"threads{threads}")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads, "XDG_CACHE_HOME": str(work / "cache")}
        done = subprocess.run([sys.executable, "-c", RUN_STEPS, json.dumps([argv[name] for name in BLAS_STEPS])],
                              cwd=work, env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        got = {f"{name}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
               for name in BLAS_STEPS for path in sorted((work / name).iterdir())}
        assert got == want, f"{threads} threads: {sorted(k for k in {**got, **want} if got.get(k) != want.get(k))}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        digests = run_workload(Path(tmp))
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}", file=sys.stderr)
