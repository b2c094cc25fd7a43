"""End-to-end command-line tests: exit codes, output headers, manifests,
atomic staging, and byte-identical reruns.

Commands run in-process through cli.main so exit codes and stderr are
observable without spawning a shell.
"""

import json
import os
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest

from cdrlab import cli, spatial
from cdrlab.config import CONFIG_ENV_VAR
from cdrlab.mlkit.models import LogisticModel, save_model

T0 = 1462060800  # 2016-05-01T00:00:00Z
DAY = 86400

SMALL_INI = """
[synth]
subscribers = 60
towers = 12
days = 7
event_rate = 2.0
"""


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "run.ini"
    cfg.write_text(SMALL_INI)
    outdir = root / "synth"
    rc = cli.main(["synth", "--config", str(cfg), "--outdir", str(outdir), "--seed", "11"])
    assert rc == 0
    return outdir


@pytest.fixture(scope="module")
def features_dir(synth_dir, tmp_path_factory):
    outdir = tmp_path_factory.mktemp("features")
    rc = cli.main(["features", *dataset_args(synth_dir), "--outdir", str(outdir)])
    assert rc == 0
    return outdir


def dataset_args(d):
    return ["--cdr", str(d / "cdr.csv"), "--topups", str(d / "topups.csv"),
            "--towers", str(d / "towers.csv"), "--labels", str(d / "labels.csv")]


def data_lines(path):
    return [ln for ln in Path(path).read_text().splitlines()
            if ln and not ln.startswith("#")]


def subscriber_ids(synth_dir):
    return [ln.split(",")[0] for ln in data_lines(synth_dir / "labels.csv")[1:]]


def tower_ids(synth_dir):
    return [ln.split(",")[0] for ln in data_lines(synth_dir / "towers.csv")[1:]]


def test_no_command_and_unknown_flag(capsys):
    assert cli.main([]) == 1
    assert cli.main(["synth", "--bogus"]) == 1
    err = capsys.readouterr().err
    assert "cdrlab" in err
    assert cli.main(["not-a-command"]) == 1


def test_version_and_help(capsys):
    assert cli.main(["--version"]) == 0
    assert "cdrlab" in capsys.readouterr().out
    assert cli.main(["--help"]) == 0


def test_outputs_stage_commit_abort(tmp_path):
    out = cli.Outputs(str(tmp_path))
    tmp_a = out.stage("a.csv")
    assert os.path.basename(tmp_a).startswith(".tmp.")
    Path(tmp_a).write_text("payload")
    assert out.names() == ["a.csv"]
    assert not (tmp_path / "a.csv").exists()  # nothing visible before commit
    out.commit()
    assert (tmp_path / "a.csv").read_text() == "payload"
    assert not Path(tmp_a).exists()

    out2 = cli.Outputs(str(tmp_path))
    tmp_c = out2.stage("c.csv")
    Path(tmp_c).write_text("junk")
    out2.stage("d.csv")  # staged but never written
    out2.abort()
    assert not Path(tmp_c).exists()
    assert not (tmp_path / "c.csv").exists()
    out2.abort()  # aborting twice or with unwritten stages must not raise


def test_synth_writes_headed_outputs(synth_dir):
    names = sorted(p.name for p in synth_dir.iterdir())
    assert names == ["cdr.csv", "ground_truth.json", "labels.csv",
                     "manifest_synth.json", "topups.csv", "towers.csv"]
    for csv_name in ("cdr.csv", "topups.csv", "towers.csv", "labels.csv"):
        first = (synth_dir / csv_name).read_text().splitlines()[0]
        assert first.startswith("# cdrlab ")
        assert "config=" in first and "seed=11" in first

    manifest = json.loads((synth_dir / "manifest_synth.json").read_text())
    assert manifest["subcommand"] == "synth"
    assert manifest["seed"] == 11
    assert manifest["params"]["subscribers"] == 60
    assert manifest["outputs"] == ["cdr.csv", "ground_truth.json", "labels.csv",
                                   "topups.csv", "towers.csv"]

    gt = json.loads((synth_dir / "ground_truth.json").read_text())
    assert gt["_meta"]["seed"] == 11
    assert set(gt["label"].values()) <= {"low", "high"}
    assert len(gt["label"]) == 60


def test_synth_rerun_is_byte_identical(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[synth]\nsubscribers = 30\ntowers = 8\ndays = 3\nevent_rate = 1.5\n")
    dirs = []
    for name in ("one", "two"):
        outdir = tmp_path / name
        assert cli.main(["synth", "--config", str(cfg), "--outdir", str(outdir),
                         "--seed", "4"]) == 0
        dirs.append(outdir)
    for p in sorted(dirs[0].iterdir()):
        assert p.read_bytes() == (dirs[1] / p.name).read_bytes(), p.name

    other = tmp_path / "other"
    assert cli.main(["synth", "--config", str(cfg), "--outdir", str(other),
                     "--seed", "5"]) == 0
    assert (other / "cdr.csv").read_bytes() != (dirs[0] / "cdr.csv").read_bytes()


def test_synth_shock_recorded(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[synth]\nsubscribers = 30\ntowers = 8\ndays = 3\nevent_rate = 1.5\n")
    outdir = tmp_path / "shocked"
    rc = cli.main(["synth", "--config", str(cfg), "--outdir", str(outdir), "--seed", "4",
                   "--shock-multiplier", "2.0", "--shock-start-day", "1", "--shock-days", "1"])
    assert rc == 0
    gt = json.loads((outdir / "ground_truth.json").read_text())
    assert len(gt["shock_intervals"]) == 1


def test_ingest_check_round_trip(synth_dir, tmp_path):
    rc = cli.main(["ingest-check", *dataset_args(synth_dir), "--outdir", str(tmp_path)])
    assert rc == 0
    manifest = json.loads((tmp_path / "manifest_ingest_check.json").read_text())
    assert manifest["params"]["cdr"]["rejects"] == 0
    assert manifest["params"]["towers"]["rejects"] == 0
    synth_manifest = json.loads((synth_dir / "manifest_synth.json").read_text())
    assert manifest["params"]["events"] == synth_manifest["params"]["events"]
    assert (tmp_path / "rejects_cdr.csv").exists()


def test_features_thread_count_is_invisible(synth_dir, features_dir, tmp_path):
    rc = cli.main(["features", *dataset_args(synth_dir), "--outdir", str(tmp_path),
                   "--threads", "4"])
    assert rc == 0
    assert (tmp_path / "features.csv").read_bytes() == (features_dir / "features.csv").read_bytes()
    assert (tmp_path / "manifest_features.json").read_bytes() == \
        (features_dir / "manifest_features.json").read_bytes()
    rows = data_lines(tmp_path / "features.csv")
    assert len(rows) == 61  # header plus one row per subscriber


def test_graph_with_centrality(synth_dir, tmp_path):
    rc = cli.main(["graph", *dataset_args(synth_dir), "--outdir", str(tmp_path), "--evc"])
    assert rc == 0
    for name in ("edges.csv", "components.csv", "evc.csv"):
        assert (tmp_path / name).exists(), name
    manifest = json.loads((tmp_path / "manifest_graph.json").read_text())
    assert manifest["params"]["nodes"] == 60


def test_train_then_eval(synth_dir, features_dir, tmp_path):
    train_dir = tmp_path / "train"
    rc = cli.main(["train", "--features", str(features_dir / "features.csv"),
                   "--labels", str(synth_dir / "labels.csv"),
                   "--family", "logistic", "--outdir", str(train_dir), "--seed", "2"])
    assert rc == 0
    assert (train_dir / "model.json").exists()
    held_out = data_lines(train_dir / "test_ids.csv")[1:]
    assert held_out

    eval_dir = tmp_path / "eval"
    rc = cli.main(["eval", "--features", str(features_dir / "features.csv"),
                   "--labels", str(synth_dir / "labels.csv"),
                   "--model", str(train_dir / "model.json"),
                   "--test-ids", str(train_dir / "test_ids.csv"),
                   "--outdir", str(eval_dir), "--seed", "2"])
    assert rc == 0
    manifest = json.loads((eval_dir / "manifest_eval.json").read_text())
    assert manifest["params"]["rows"] == len(held_out)
    assert (eval_dir / "eval.csv").exists()
    assert (eval_dir / "lift.csv").exists()


def test_adoption_pk_kappa_with_adopter_file(synth_dir, tmp_path):
    adopters = tmp_path / "adopters.csv"
    ids = subscriber_ids(synth_dir)[:6]
    adopters.write_text("subscriber,day\n" + "".join(f"{s},\n" for s in ids))

    rc = cli.main(["adoption", *dataset_args(synth_dir), "--adopters", str(adopters),
                   "--outdir", str(tmp_path / "adopt")])
    assert rc == 0
    assert (tmp_path / "adopt" / "adoption_components.csv").exists()

    rc = cli.main(["kappa", *dataset_args(synth_dir), "--adopters", str(adopters),
                   "--mode", "node", "--replicates", "40",
                   "--outdir", str(tmp_path / "kappa"), "--seed", "3"])
    assert rc == 0
    manifest = json.loads((tmp_path / "kappa" / "manifest_kappa.json").read_text())
    assert manifest["params"]["replicates"] == 40
    assert "node" in manifest["params"]["kappa"]

    rc = cli.main(["pk", *dataset_args(synth_dir), "--adopters", str(adopters),
                   "--outdir", str(tmp_path / "pk")])
    assert rc == 0
    assert (tmp_path / "pk" / "pk.csv").exists()


def test_anomaly_and_flows(synth_dir, tmp_path):
    rc = cli.main(["anomaly", *dataset_args(synth_dir), "--outdir", str(tmp_path / "an")])
    assert rc == 0
    assert (tmp_path / "an" / "anomalies.csv").exists()

    rc = cli.main(["flows", *dataset_args(synth_dir), "--outdir", str(tmp_path / "fl")])
    assert rc == 0
    manifest = json.loads((tmp_path / "fl" / "manifest_flows.json").read_text())
    assert manifest["params"]["days"] == 7
    day_files = sorted(p.name for p in (tmp_path / "fl").glob("flows_*.csv"))
    assert len(day_files) == 7 and day_files[0] == "flows_20160501.csv"


def test_anomaly_unknown_entity_exits_2(synth_dir, tmp_path, capsys):
    rc = cli.main(["anomaly", *dataset_args(synth_dir), "--entity", "tower:NOPE",
                   "--outdir", str(tmp_path / "t")])
    assert rc == 2 and "unknown tower 'NOPE'" in capsys.readouterr().err
    assert not (tmp_path / "t" / "anomalies.csv").exists()
    areas = tmp_path / "areas.csv"
    towers = [ln.split(",")[0] for ln in (synth_dir / "towers.csv").read_text().splitlines()[2:]]
    areas.write_text("tower,area\n" + "".join(f"{t},D{i % 2}\n" for i, t in enumerate(towers)))
    rc = cli.main(["anomaly", *dataset_args(synth_dir), "--entity", "district:NOPE",
                   "--areas", str(areas), "--outdir", str(tmp_path / "d")])
    assert rc == 2 and "unknown district 'NOPE'" in capsys.readouterr().err
    assert not (tmp_path / "d" / "anomalies.csv").exists()
    rc = cli.main(["anomaly", *dataset_args(synth_dir), "--entity", "district:D1",
                   "--areas", str(areas), "--outdir", str(tmp_path / "ok")])
    assert rc == 0


def test_rank_curves_and_distance_matrix(synth_dir, tmp_path):
    rc = cli.main(["rank-curves", *dataset_args(synth_dir),
                   "--event-time", str(T0 + 3 * DAY + 8 * 3600),
                   "--comparison-days", str(T0 + 1 * DAY),
                   "--outdir", str(tmp_path / "rank")])
    assert rc == 0
    assert (tmp_path / "rank" / "rank_curves.csv").exists()

    # no comparison days anywhere is a data error, not a crash
    assert cli.main(["rank-curves", *dataset_args(synth_dir),
                     "--event-time", str(T0 + 3 * DAY),
                     "--outdir", str(tmp_path / "rank2")]) == 2

    rc = cli.main(["distance-matrix", *dataset_args(synth_dir),
                   "--epicenter", "91.0,23.5", "--event-day", str(T0 + 3 * DAY),
                   "--comparison-days", str(T0 + 1 * DAY), "--bins", "1,3,10",
                   "--outdir", str(tmp_path / "dm")])
    assert rc == 0
    assert (tmp_path / "dm" / "distance_matrix.csv").exists()


def test_voronoi_and_idw(synth_dir, tmp_path):
    rc = cli.main(["voronoi", "--towers", str(synth_dir / "towers.csv"),
                   "--outdir", str(tmp_path / "vor")])
    assert rc == 0
    doc = json.loads((tmp_path / "vor" / "voronoi.geojson").read_text())
    assert doc["type"] == "FeatureCollection"
    assert len(doc["features"]) == 12

    towers = tower_ids(synth_dir)
    samples = tmp_path / "samples.csv"
    samples.write_text(f"area,value\n{towers[0]},1.0\n{towers[1]},5.0\n")
    rc = cli.main(["idw", "--towers", str(synth_dir / "towers.csv"),
                   "--samples", str(samples), "--outdir", str(tmp_path / "idw")])
    assert rc == 0
    raster = spatial.read_grid(str(tmp_path / "idw" / "grid.txt"))
    assert raster.nrows == 80 and raster.ncols == 50


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN"])
def test_area_values_reject_non_finite(synth_dir, tmp_path, capsys, bad):
    towers = tower_ids(synth_dir)
    samples = tmp_path / "samples.csv"
    samples.write_text(f"area,value\n{towers[0]},1.0\n{towers[1]},{bad}\n")
    assert cli.main(["idw", "--towers", str(synth_dir / "towers.csv"), "--samples", str(samples),
                     "--outdir", str(tmp_path / "idw")]) == 2
    assert f"{samples}:3: non-finite value" in capsys.readouterr().err
    assert not (tmp_path / "idw" / "grid.txt").exists()

    good = tmp_path / "good.csv"
    good.write_text("area,value\nx,1\ny,2\nz,3\n")
    assert cli.main(["correlate", "--a", str(good), "--b", str(samples),
                     "--outdir", str(tmp_path / "corr")]) == 2
    assert f"{samples}:3: non-finite value" in capsys.readouterr().err


@pytest.mark.parametrize("flag, ini, named", [
    (["--replicates", "0"], "", "--replicates must be >= 1, got 0"),
    (["--replicates", "-5"], "", "--replicates must be >= 1, got -5"),
    ([], "[adoption]\nreplicates = 0\n", "[adoption] replicates must be >= 1, got 0"),
])
def test_kappa_replicates_below_one_exit_2(synth_dir, tmp_path, capsys, flag, ini, named):
    cfg = tmp_path / "run.ini"
    cfg.write_text(ini)
    rc = cli.main(["kappa", *dataset_args(synth_dir), "--mode", "node", *flag, "--config", str(cfg),
                   "--outdir", str(tmp_path / "kappa")])
    assert rc == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "kappa" / "manifest_kappa.json").exists()


def test_correlate_tables_and_type_mismatch(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("area,value\nx,1\ny,2\nz,3\nw,4\n")
    b.write_text("area,value\nx,2\ny,4\nz,6\nw,8\n")
    rc = cli.main(["correlate", "--a", str(a), "--b", str(b),
                   "--outdir", str(tmp_path / "corr")])
    assert rc == 0
    lines = (tmp_path / "corr" / "correlate.csv").read_text().splitlines()
    assert lines[1] == "r,n"
    r, n = lines[2].split(",")
    assert abs(float(r) - 1.0) < 1e-12 and int(n) == 4

    grid = spatial.GridRaster(xllcorner=0.0, yllcorner=0.0, cellsize=1.0,
                              values=np.ones((2, 2)))
    gpath = tmp_path / "g.txt"
    spatial.write_grid(grid, str(gpath))
    assert cli.main(["correlate", "--a", str(a), "--b", str(gpath),
                     "--outdir", str(tmp_path / "corr2")]) == 2


def test_select_covariates_command(tmp_path):
    rng = np.random.default_rng(26)
    x1 = rng.normal(size=40)
    x2 = rng.normal(size=40)
    y = 2.0 * x1 + 0.05 * rng.normal(size=40)
    rows = "".join(f"r{i},{y[i]},{x1[i]},{x2[i]}\n" for i in range(40))
    table = tmp_path / "table.csv"
    table.write_text("id,resp,x1,x2\n" + rows)
    rc = cli.main(["select-covariates", "--table", str(table), "--response", "resp",
                   "--outdir", str(tmp_path / "sel")])
    assert rc == 0
    manifest = json.loads((tmp_path / "sel" / "manifest_select_covariates.json").read_text())
    assert manifest["params"]["selected"] == ["x1"]
    body = (tmp_path / "sel" / "selection.csv").read_text()
    assert "selected,x1," in body


def test_select_covariates_skips_home_tower_and_incomplete_rows(tmp_path):
    # the features table shape: a string home_tower column and blank absents
    rng = np.random.default_rng(27)
    x1 = rng.normal(size=30)
    y = 3.0 * x1 + 0.05 * rng.normal(size=30)
    lines = ["subscriber,home_tower,resp,x1"]
    for i in range(30):
        lines.append(f"S{i:03d},T{i % 4},{y[i]},{x1[i]}")
    lines.append("S900,T0,,")            # incomplete row must be dropped, not fatal
    table = tmp_path / "features.csv"
    table.write_text("\n".join(lines) + "\n")
    rc = cli.main(["select-covariates", "--table", str(table), "--response", "resp",
                   "--outdir", str(tmp_path / "sel")])
    assert rc == 0
    params = json.loads((tmp_path / "sel" / "manifest_select_covariates.json").read_text())["params"]
    assert params["selected"] == ["x1"]
    assert params["rows"] == 30
    assert params["incomplete_rows"] == 1


def test_campaign_command(tmp_path):
    model = LogisticModel(columns=["f1"], mean=np.zeros(1), scale=np.ones(1),
                          coef=np.array([1.0]), bias=0.0, seed=0)
    mpath = tmp_path / "model.json"
    save_model(model, str(mpath))
    feats = tmp_path / "features.csv"
    feats.write_text("subscriber,f1\ns1,0.9\ns2,0.8\ns3,0.8\ns4,0.5\ns5,0.3\ns6,0.1\n")
    control = tmp_path / "control.csv"
    control.write_text("subscriber\ns1\ns5\n")
    outcomes = tmp_path / "outcomes.csv"
    outcomes.write_text(
        "subscriber,converted,renewed\n"
        "s1,1,1\ns2,1,1\ns3,1,0\ns4,0,0\ns5,0,0\ns6,0,0\n"
    )
    rc = cli.main(["campaign", "--model", str(mpath), "--features", str(feats),
                   "--control", str(control), "--outcomes", str(outcomes),
                   "--treatment-size", "3", "--outdir", str(tmp_path / "camp")])
    assert rc == 0
    lines = (tmp_path / "camp" / "campaign.csv").read_text().splitlines()
    assert "size,3,2" in lines
    assert "conversions,2,1" in lines


def test_error_exit_codes_and_clean_outdir(synth_dir, tmp_path, capsys):
    outdir = tmp_path / "out"
    # missing inputs is a data error
    assert cli.main(["features", "--towers", str(synth_dir / "towers.csv"),
                     "--outdir", str(outdir)]) == 2
    assert "cdrlab: error:" in capsys.readouterr().err
    # a bad config key is a config error
    bad = tmp_path / "bad.ini"
    bad.write_text("[synth]\nsubscriber = 10\n")
    assert cli.main(["synth", "--config", str(bad), "--outdir", str(outdir)]) == 2
    # failed runs leave no partial artifacts
    leftovers = list(outdir.iterdir()) if outdir.exists() else []
    assert leftovers == []
    assert cli.main(["synth", "--outdir", str(outdir), "--threads", "0"]) == 2


def test_label_rows_are_checked_like_other_inputs(synth_dir, features_dir, tmp_path, capsys):
    rc = cli.main(["ingest-check", *dataset_args(synth_dir), "--outdir", str(tmp_path / "check")])
    assert rc == 0
    manifest = json.loads((tmp_path / "check" / "manifest_ingest_check.json").read_text())
    assert manifest["params"]["labels"] == {"rows": 60, "rejects": 0}
    assert (tmp_path / "check" / "rejects_labels.csv").exists()
    # a short label row is a line-numbered reject; past the cap it is exit 2
    labels = tmp_path / "labels.csv"
    labels.write_text((synth_dir / "labels.csv").read_text() + "S_short\n")
    outdir = tmp_path / "train"
    rc = cli.main(["train", "--features", str(features_dir / "features.csv"),
                   "--labels", str(labels), "--outdir", str(outdir)])
    assert rc == 2
    assert "wrong field count" in capsys.readouterr().err
    assert list(outdir.iterdir()) == []


def test_config_env_var_is_honored(monkeypatch, tmp_path):
    cfg = tmp_path / "env.ini"
    cfg.write_text("[synth]\nsubscribers = 30\ntowers = 8\ndays = 3\nevent_rate = 1.0\n")
    monkeypatch.setenv(CONFIG_ENV_VAR, str(cfg))
    outdir = tmp_path / "out"
    assert cli.main(["synth", "--outdir", str(outdir), "--seed", "9"]) == 0
    manifest = json.loads((outdir / "manifest_synth.json").read_text())
    assert manifest["params"]["subscribers"] == 30


def _flow_extract(d):
    """28 days of commuters from T1 to T2 (12-14 a day, 40 on day 20)."""
    d.mkdir()
    (d / "towers.csv").write_text("id,lon,lat\nT1,90.0,23.0\nT2,90.5,23.0\n")
    rows = ["caller,callee,tower,timestamp,kind,magnitude"]
    for day in range(28):
        for s in range(40 if day == 20 else 12 + day % 3):
            for tower, hour in (("T1", 8), ("T2", 18)):
                ts = datetime.fromtimestamp(T0 + day * DAY + hour * 3600, tz=timezone.utc)
                rows.append(f"S{s:02d},S99,{tower},{ts:%Y-%m-%dT%H:%M:%SZ},voice,60")
    (d / "cdr.csv").write_text("\n".join(rows) + "\n")
    return ["--cdr", str(d / "cdr.csv"), "--towers", str(d / "towers.csv")]


def test_outputs_hold_no_numpy_reprs(synth_dir, features_dir, tmp_path):
    model_io = ["--features", str(features_dir / "features.csv"), "--labels", str(synth_dir / "labels.csv")]
    assert cli.main(["train", *model_io, "--outdir", str(tmp_path / "train")]) == 0
    assert cli.main(["eval", *model_io, "--model", str(tmp_path / "train" / "model.json"),
                     "--outdir", str(tmp_path / "eval")]) == 0
    # the tiny synth has no pair with flow on every day, so flows runs on an
    # extract with one planted spike, which it must flag
    flows = tmp_path / "flows"
    assert cli.main(["flows", *_flow_extract(tmp_path / "commute"), "--outdir", str(flows)]) == 0
    assert "40.0" in (flows / "flow_anomalies.csv").read_text()
    written = [synth_dir, features_dir, tmp_path / "train", tmp_path / "eval", flows]
    tables = [p for d in written for p in sorted(d.glob("*.csv"))]
    cells = [c for p in tables for ln in data_lines(p) for c in ln.split(",")]
    assert cells and not [c for c in cells if "np." in c]


def test_side_file_stray_quote_damages_only_its_line(synth_dir, tmp_path, capsys):
    ids = subscriber_ids(synth_dir)
    adopters = tmp_path / "adopters.csv"
    adopters.write_text(f'subscriber,day\n"{ids[1]},3\n{ids[2]},4\n{ids[3]},5\n')
    rc = cli.main(["adoption", *dataset_args(synth_dir), "--adopters", str(adopters),
                   "--outdir", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"adopters not in graph: ['{ids[1]},3\\n']" in err
    assert ids[2] not in err and ids[3] not in err


def test_side_file_blank_lines_are_skipped(synth_dir, tmp_path):
    ids = subscriber_ids(synth_dir)
    adopters = tmp_path / "adopters.csv"
    adopters.write_text(f"subscriber,day\n{ids[1]},3\n   \n\t\n{ids[2]},4\n")
    rc = cli.main(["adoption", *dataset_args(synth_dir), "--adopters", str(adopters),
                   "--outdir", str(tmp_path / "out")])
    assert rc == 0
    assert data_lines(tmp_path / "out" / "adopters.csv")[1:] == [f"{ids[1]},3", f"{ids[2]},4"]


def test_side_file_bad_number_names_its_line(synth_dir, features_dir, tmp_path, capsys):
    ids = subscriber_ids(synth_dir)
    adopters = tmp_path / "adopters.csv"
    adopters.write_text(f"subscriber,day\n{ids[1]},3\n{ids[2]},soon\n")
    assert cli.main(["adoption", *dataset_args(synth_dir), "--adopters", str(adopters),
                     "--outdir", str(tmp_path / "adopt")]) == 2
    assert f"{adopters}:3: bad number 'soon'" in capsys.readouterr().err

    samples = tmp_path / "samples.csv"
    samples.write_text(f"# values\narea,value\n{tower_ids(synth_dir)[0]},1.0\n{tower_ids(synth_dir)[1]},n/a\n")
    assert cli.main(["idw", "--towers", str(synth_dir / "towers.csv"), "--samples", str(samples),
                     "--outdir", str(tmp_path / "idw")]) == 2
    assert f"{samples}:4: bad number 'n/a'" in capsys.readouterr().err

    lines = (features_dir / "features.csv").read_text().splitlines()
    lines[3] = lines[3].rsplit(",", 1)[0] + ",x"
    features = tmp_path / "features.csv"
    features.write_text("\n".join(lines) + "\n")
    assert cli.main(["train", "--features", str(features), "--labels", str(synth_dir / "labels.csv"),
                     "--outdir", str(tmp_path / "train")]) == 2
    assert f"{features}:4: bad number 'x'" in capsys.readouterr().err


def test_select_covariates_short_row_names_its_line(tmp_path, capsys):
    table = tmp_path / "table.csv"
    table.write_text("id,resp,x1\nr0,1.0,2.0\nr1,3.0\n")
    assert cli.main(["select-covariates", "--table", str(table), "--response", "resp",
                     "--outdir", str(tmp_path / "sel")]) == 2
    assert f"{table}:3: wrong field count" in capsys.readouterr().err
