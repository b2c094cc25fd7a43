"""Every subcommand's output bytes against the sha256 digests pinned in golden_digests.json.

A small synthetic extract (300 subscribers, 20 towers, 14 days from
2016-05-25, so the window crosses the May/June month end) runs through every
subcommand in process; the side files that `idw`, `correlate`,
`select-covariates` and `campaign` read are written here.  A change that
alters any output byte fails with the first file that differs.

A change that alters outputs on purpose regenerates the file in the same
commit and names the changed files:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import hashlib
import json
import sys
from pathlib import Path

from cdrlab import cli

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
]


def _side_files(work: Path) -> None:
    """The inputs of idw, correlate and campaign, derived from synth's towers and labels."""
    towers = [ln.split(",")[0] for ln in (work / "synth" / "towers.csv").read_text().splitlines()[2:]]
    subs = [ln.split(",")[0] for ln in (work / "synth" / "labels.csv").read_text().splitlines()[2:]]
    (work / "samples.csv").write_text("area,value\n" + "".join(f"{t},{i % 7 + 0.5}\n" for i, t in enumerate(towers)))
    (work / "other.csv").write_text("area,value\n" + "".join(f"{t},{i * i % 11}\n" for i, t in enumerate(towers)))
    (work / "control.csv").write_text("subscriber\n" + "".join(f"{s}\n" for s in subs[::5]))
    (work / "outcomes.csv").write_text("subscriber,converted,renewed\n"
                                       + "".join(f"{s},{i % 3 == 0:d},{i % 4 == 0:d}\n" for i, s in enumerate(subs)))


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


def test_every_output_matches_its_pinned_digest(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(cli.CONFIG_ENV_VAR, raising=False)
    monkeypatch.chdir(tmp_path)
    got = run_workload(tmp_path)
    want = json.loads(GOLDEN.read_text())
    # in run order, then any pinned file the run no longer writes
    differ = [name for name in dict.fromkeys([*got, *want]) if got.get(name) != want.get(name)]
    assert not differ, f"{differ[0]} differs from {GOLDEN.name}, the first of {len(differ)}: {differ}"


if __name__ == "__main__":
    import os
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        digests = run_workload(Path(tmp))
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}", file=sys.stderr)
