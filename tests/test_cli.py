"""End-to-end command-line tests: exit codes, output headers, manifests,
atomic staging, and byte-identical reruns.

Commands run in-process through cli.main so exit codes and stderr are
observable without spawning a shell.
"""

import builtins
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest

from cdrlab import adoption, anomaly, cli, spatial, synthgen
from cdrlab.config import CONFIG_ENV_VAR
from cdrlab.mlkit import models
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


@pytest.mark.parametrize("multiplier, flags, named", [
    ("3", ["--shock-entity", "NOPE"], "--shock-entity: unknown tower 'NOPE'"),
    ("inf", [], "--shock-multiplier must be a finite number >= 0, got inf"),
    ("nan", [], "--shock-multiplier must be a finite number >= 0, got nan"),
    ("-1", [], "--shock-multiplier must be a finite number >= 0, got -1.0"),
    ("3", ["--shock-days", "0"], "--shock-days must be >= 1, got 0"),
    ("3", ["--shock-start-day", "400"], "--shock-start-day 400 with --shock-days 1 leaves the synthesized days [0, 3)"),
    ("3", ["--shock-start-day", "-1"], "--shock-start-day -1 with --shock-days 1 leaves"),
    ("3", ["--shock-start-day", "2", "--shock-days", "2"], "--shock-start-day 2 with --shock-days 2 leaves"),
])
def test_synth_shock_that_plants_nothing_exits_2(tmp_path, capsys, monkeypatch, multiplier, flags, named):
    def no_population(cfg):
        raise AssertionError("generated a population")
    # every shock flag is checked before the population and events are generated
    monkeypatch.setattr(synthgen, "generate_population", no_population)
    cfg = tmp_path / "run.ini"
    cfg.write_text("[synth]\nsubscribers = 30\ntowers = 8\ndays = 3\nevent_rate = 1.5\n")
    outdir = tmp_path / "shocked"
    rc = cli.main(["synth", "--config", str(cfg), "--outdir", str(outdir), "--seed", "4",
                   "--shock-multiplier", multiplier, *flags])
    assert rc == 2
    assert named in capsys.readouterr().err
    assert not outdir.exists() or not any(outdir.iterdir())


@pytest.mark.parametrize("key, value", [
    ("subscribers", "1"), ("towers", "0"), ("days", "0"), ("event_rate", "-1"), ("data_rate", "-0.5"),
    ("sms_fraction", "1.5"), ("sw_k", "5"), ("sw_k", "500"), ("sw_rewire", "-1"), ("grid", "1,2,3"),
    ("grid", "92.5,22,90,26"), ("denominations", "50,10"), ("topup_gap_days", "0"), ("visit_concentration", "1"), ("label_low_fraction", "1.5"), ("label_effect", "3"),
    ("graph_model", "erdos_renyi"),
])
def test_synth_bad_value_exits_2_naming_its_key(tmp_path, capsys, key, value):
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[synth]\n{key} = {value}\n")  # each is checked before anything is generated
    outdir = tmp_path / "bad"
    assert cli.main(["synth", "--config", str(cfg), "--outdir", str(outdir), "--seed", "4"]) == 2
    assert f"[synth] {key} = " in capsys.readouterr().err
    assert not outdir.exists() or not any(outdir.iterdir())


def test_synth_past_year_9999_exits_2(tmp_path, capsys):
    # 28 days from 9999-12-20 run past 9999-12-31, which no timestamp text can carry
    cfg = tmp_path / "run.ini"
    cfg.write_text("[synth]\nsubscribers = 30\ntowers = 8\nevent_rate = 1.5\nstart = 9999-12-20T00:00:00Z\n")
    outdir = tmp_path / "late"
    assert cli.main(["synth", "--config", str(cfg), "--outdir", str(outdir), "--seed", "4"]) == 2
    assert "outside the years 1..9999" in capsys.readouterr().err
    assert not outdir.exists() or not any(outdir.iterdir())


def test_ingest_check_round_trip(synth_dir, tmp_path):
    rc = cli.main(["ingest-check", *dataset_args(synth_dir), "--outdir", str(tmp_path)])
    assert rc == 0
    manifest = json.loads((tmp_path / "manifest_ingest_check.json").read_text())
    assert manifest["params"]["cdr"]["rejects"] == 0
    assert manifest["params"]["towers"]["rejects"] == 0
    synth_manifest = json.loads((synth_dir / "manifest_synth.json").read_text())
    assert manifest["params"]["events"] == synth_manifest["params"]["events"]
    assert (tmp_path / "rejects_cdr.csv").exists()


def test_inputs_that_start_with_a_utf8_byte_order_mark_give_the_same_outputs(synth_dir, tmp_path, monkeypatch):
    # Excel's "CSV UTF-8" export starts each file with one
    samples = "area,value\n" + "".join(f"{t},{i % 7 + 0.5}\n" for i, t in enumerate(tower_ids(synth_dir)))
    outputs = []
    for bom in (b"", b"\xef\xbb\xbf"):
        work = tmp_path / ("bom" if bom else "plain")
        work.mkdir()
        for name in ("cdr.csv", "topups.csv", "towers.csv", "labels.csv"):
            (work / name).write_bytes(bom + (synth_dir / name).read_bytes())
        (work / "samples.csv").write_bytes(bom + samples.encode())
        monkeypatch.chdir(work)
        assert cli.main(["ingest-check", *dataset_args(Path("")), "--outdir", "check"]) == 0
        assert cli.main(["idw", "--towers", "towers.csv", "--samples", "samples.csv", "--outdir", "idw"]) == 0
        outputs.append({f"{out}/{f.name}": f.read_bytes() for out in ("check", "idw") for f in sorted((work / out).iterdir())})
    assert outputs[0] == outputs[1]


def test_features_thread_count_is_invisible(synth_dir, features_dir, tmp_path):
    rc = cli.main(["features", *dataset_args(synth_dir), "--outdir", str(tmp_path),
                   "--threads", "4"])
    assert rc == 0
    assert (tmp_path / "features.csv").read_bytes() == (features_dir / "features.csv").read_bytes()
    assert (tmp_path / "manifest_features.json").read_bytes() == \
        (features_dir / "manifest_features.json").read_bytes()
    rows = data_lines(tmp_path / "features.csv")
    assert len(rows) == 61  # header plus one row per subscriber


builtin_sum = builtins.sum


def neumaier_sum(iterable, /, start=0):
    """builtins.sum as CPython >= 3.12 adds exact floats: compensated (Neumaier), not left to right."""
    items = list(iterable)
    if not items or any(type(x) is not float for x in items):
        return builtin_sum(items, start)
    total, comp = start + items[0], 0.0
    for x in items[1:]:
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total


def test_outputs_do_not_depend_on_the_interpreters_float_sum(tmp_path, monkeypatch):
    assert neumaier_sum([0.1] * 10) == 1.0  # 0.9999999999999999 left to right
    # Seed 1 places the towers where a compensated sum moves the voronoi bytes.
    (tmp_path / "run.ini").write_text(SMALL_INI)
    assert cli.main(["synth", "--config", str(tmp_path / "run.ini"), "--outdir", str(tmp_path / "synth"),
                     "--seed", "1"]) == 0
    steps = [["features", *dataset_args(tmp_path / "synth")],
             ["voronoi", "--towers", str(tmp_path / "synth" / "towers.csv"), "--clip", "89.9,21.9,91.1,25.7"]]

    def outputs(tag):
        got = {}
        for argv in steps:
            outdir = tmp_path / f"{tag}_{argv[0]}"
            assert cli.main([*argv, "--outdir", str(outdir)]) == 0
            got.update({p.name: p.read_bytes() for p in outdir.iterdir()})
        return got

    left_to_right = outputs("plain")
    monkeypatch.setattr(builtins, "sum", neumaier_sum)
    assert outputs("compensated") == left_to_right


def test_graph_with_centrality(synth_dir, tmp_path):
    rc = cli.main(["graph", *dataset_args(synth_dir), "--outdir", str(tmp_path), "--evc"])
    assert rc == 0
    for name in ("edges.csv", "components.csv", "evc.csv"):
        assert (tmp_path / name).exists(), name
    manifest = json.loads((tmp_path / "manifest_graph.json").read_text())
    assert manifest["params"]["nodes"] == 60


def test_graph_and_train_skip_unneeded_imports(synth_dir, features_dir, tmp_path):
    # numpy.ma (through a bare np.unique or np.isin), logging and
    # concurrent.futures add start-up time that none of these steps needs
    code = ("import sys\nfrom cdrlab import cli\nrc = cli.main(sys.argv[1:])\n"
            "print(rc, [m for m in ('numpy.ma', 'logging', 'concurrent.futures') if m in sys.modules])")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    for args in (["graph", "--evc", *dataset_args(synth_dir), "--outdir", str(tmp_path / "graph")],
                 ["kappa", "--replicates", "20", *dataset_args(synth_dir), "--outdir", str(tmp_path / "kappa")],
                 ["pk", *dataset_args(synth_dir), "--outdir", str(tmp_path / "pk")],
                 ["train", "--features", str(features_dir / "features.csv"), "--labels",
                  str(synth_dir / "labels.csv"), "--family", "logistic", "--outdir", str(tmp_path / "train")]):
        done = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True,
                              timeout=60)
        assert done.stdout.splitlines()[-1] == "0 []", (args[0], done.stdout, done.stderr)


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


def test_random_adoption_is_contagion_with_p0_p_and_no_beta(synth_dir, tmp_path):
    rows = {}
    for name, ini in (("random", "mechanism = random\np = 0.02\n"),
                      ("contagion", "mechanism = contagion\np0 = 0.02\nbeta = 0\n")):
        (tmp_path / f"{name}.ini").write_text("[adoption]\n" + ini)
        assert cli.main(["adoption", *dataset_args(synth_dir), "--config", str(tmp_path / f"{name}.ini"),
                         "--outdir", str(tmp_path / name)]) == 0
        rows[name] = data_lines(tmp_path / name / "adopters.csv")
    assert rows["random"] == rows["contagion"] and len(rows["random"]) > 5
    manifest = json.loads((tmp_path / "random" / "manifest_adoption.json").read_text())
    assert manifest["params"]["source"] == "simulated:random"


def test_flows_baseline_days_come_from_the_config(tmp_path, monkeypatch):
    seen = []
    detect = anomaly.detect_flow_anomalies

    def spy(nets, threshold_sigma, baseline_days):
        seen.append(baseline_days)
        return detect(nets, threshold_sigma=threshold_sigma, baseline_days=baseline_days)

    monkeypatch.setattr(anomaly, "detect_flow_anomalies", spy)
    (tmp_path / "run.ini").write_text("[flows]\nbaseline_days = 14\n")
    data = _flow_extract(tmp_path / "commute")
    assert cli.main(["flows", *data, "--config", str(tmp_path / "run.ini"), "--outdir", str(tmp_path / "fl")]) == 0
    assert seen == [14]
    assert "40.0" in (tmp_path / "fl" / "flow_anomalies.csv").read_text()


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


def test_area_map_rejects_repeated_tower(synth_dir, tmp_path, capsys):
    towers = tower_ids(synth_dir)
    areas = tmp_path / "areas.csv"
    areas.write_text(f"tower,area\n{towers[0]},D0\n{towers[1]},D1\n{towers[0]},D1\n")
    rc = cli.main(["anomaly", *dataset_args(synth_dir), "--entity", "district:D1",
                   "--areas", str(areas), "--outdir", str(tmp_path / "d")])
    assert rc == 2
    assert f"{areas}:4: repeated tower '{towers[0]}'" in capsys.readouterr().err
    assert not (tmp_path / "d" / "anomalies.csv").exists()


@pytest.mark.parametrize("blank", ["", " "], ids=["empty", "whitespace"])
def test_area_map_blank_area_leaves_the_tower_out(synth_dir, tmp_path, capsys, blank):
    towers = tower_ids(synth_dir)
    areas = tmp_path / "areas.csv"
    areas.write_text("tower,area\n" + "".join(f"{t},{blank if i == 1 else 'D0'}\n" for i, t in enumerate(towers)))
    assert cli.main(["flows", *dataset_args(synth_dir), "--areas", str(areas), "--outdir", str(tmp_path / "f")]) == 2
    assert f"tower '{towers[1]}' missing from area_map" in capsys.readouterr().err


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


@pytest.mark.parametrize("clip", [[], ["--clip", "89,21,92,26"]])
@pytest.mark.parametrize("text", ["", "id,lon,lat\n", "# towers\nid,lon,lat\n\n"], ids=["empty", "header", "comment"])
def test_voronoi_without_towers_exits_2(tmp_path, capsys, text, clip):
    towers = tmp_path / "towers.csv"
    towers.write_text(text)
    assert cli.main(["voronoi", "--towers", str(towers), *clip, "--outdir", str(tmp_path / "vor")]) == 2
    assert capsys.readouterr().err == f"cdrlab: error: {towers}: no towers\n"
    assert not (tmp_path / "vor" / "voronoi.geojson").exists()


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


def test_area_values_reject_repeated_area(synth_dir, tmp_path, capsys):
    towers = tower_ids(synth_dir)
    samples = tmp_path / "samples.csv"
    samples.write_text(f"area,value\n{towers[0]},1.0\n{towers[1]},5.0\n{towers[0]},100\n")
    assert cli.main(["idw", "--towers", str(synth_dir / "towers.csv"), "--samples", str(samples),
                     "--outdir", str(tmp_path / "idw")]) == 2
    assert f"{samples}:4: repeated area '{towers[0]}'" in capsys.readouterr().err
    assert not (tmp_path / "idw" / "grid.txt").exists()

    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("area,value\nx,1\ny,2\nz,3\n")
    b.write_text("area,value\nx,1\ny,2\nz,3\nx,100\n")
    assert cli.main(["correlate", "--a", str(a), "--b", str(b), "--outdir", str(tmp_path / "corr")]) == 2
    assert f"{b}:5: repeated area 'x'" in capsys.readouterr().err
    assert not (tmp_path / "corr" / "correlate.csv").exists()


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


def test_pk_negative_k_max_exit_2(synth_dir, tmp_path, capsys):
    rc = cli.main(["pk", *dataset_args(synth_dir), "--k-max", "-1", "--outdir", str(tmp_path / "pk")])
    assert rc == 2
    assert "--k-max must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "pk" / "pk.csv").exists()


@pytest.mark.parametrize("min_support", [[], ["--min-support", "0"]])
def test_pk_rows_past_the_largest_degree_match_the_materialized_curve(synth_dir, tmp_path, monkeypatch, min_support):
    # the command computes the curve up to the largest degree and streams the
    # empty rows after it; the library curve holds every row up to --k-max
    seen = {}
    curve_of = adoption.adoption_probability_curve

    def spy(g, adopters, k_max, min_support):
        seen.update(g=g, adopters=adopters, min_support=min_support)
        return curve_of(g, adopters, k_max=k_max, min_support=min_support)

    monkeypatch.setattr(adoption, "adoption_probability_curve", spy)
    rc = cli.main(["pk", *dataset_args(synth_dir), "--k-max", "300000", *min_support,
                   "--outdir", str(tmp_path / "pk")])
    assert rc == 0
    got = (tmp_path / "pk" / "pk.csv").read_bytes()
    curve = curve_of(seen["g"], seen["adopters"], k_max=300000, min_support=seen["min_support"])
    adoption.write_pk_csv(curve, str(tmp_path / "want.csv"), header_comment=got.decode().split("\n", 1)[0])
    assert got == (tmp_path / "want.csv").read_bytes()


def test_pk_large_k_max_in_bounded_memory(synth_dir, tmp_path):
    tracemalloc.start()
    try:
        rc = cli.main(["pk", *dataset_args(synth_dir), "--k-max", "1000000", "--outdir", str(tmp_path / "pk")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak < 16 * 2**20  # an object per row would take over 100 MB
    with open(tmp_path / "pk" / "pk.csv", "rb") as fh:
        fh.seek(-40, os.SEEK_END)
        assert fh.read().endswith(b"\r\n999999,0,0,,,0\r\n1000000,0,0,,,0\r\n")


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


def test_an_infinite_output_cell_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch):
    a = tmp_path / "a.csv"
    a.write_text("area,value\nx,1\ny,2\nz,3\n")
    monkeypatch.setattr(spatial, "pearson_correlation", lambda a, b: (math.inf, 3))
    assert cli.main(["correlate", "--a", str(a), "--b", str(a), "--outdir", str(tmp_path / "corr")]) == 2
    assert "cannot write inf in a CSV cell" in capsys.readouterr().err
    assert not list((tmp_path / "corr").glob("*"))


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


@pytest.mark.parametrize("control, named", [
    ("s5\ns2\ns4\n", "{features}: control ids ['s2', 's4'] have a blank feature cell, and na_policy=drop drops "
                      "their rows"),
    ("s5\ns9\n", "control ids not in table: ['s9']"),
], ids=["blank cell", "absent"])
def test_campaign_control_id_without_a_row_exits_2_naming_why(tmp_path, capsys, control, named):
    save_model(LogisticModel(columns=["f1"], mean=np.zeros(1), scale=np.ones(1), coef=np.array([1.0]), bias=0.0,
                             seed=0), str(tmp_path / "model.json"))
    files = {name: tmp_path / f"{name}.csv" for name in ("features", "control", "outcomes")}
    files["features"].write_text("subscriber,f1\ns1,0.9\ns2,\ns3,0.8\ns4,\ns5,0.3\ns6,0.1\n")
    files["control"].write_text("subscriber\n" + control)
    files["outcomes"].write_text("subscriber,converted,renewed\n" + "".join(f"s{i},1,0\n" for i in range(1, 10)))
    rc = cli.main(["campaign", "--model", str(tmp_path / "model.json"), "--treatment-size", "2",
                   *(f"--{name}={path}" for name, path in files.items()), "--outdir", str(tmp_path / "camp")])
    assert rc == 2
    assert f"cdrlab: error: {named.format(features=files['features'])}\n" in capsys.readouterr().err
    assert not list((tmp_path / "camp").glob("*"))


@pytest.mark.parametrize("flag, ini, named", [
    (["--treatment-size", "0"], "", "--treatment-size must be >= 1, got 0"),
    (["--treatment-size", "-2"], "", "--treatment-size must be >= 1, got -2"),
    ([], "[campaign]\ntreatment_size = 0\n", "[campaign] treatment_size must be >= 1, got 0"),
])
def test_campaign_treatment_size_below_one_exit_2(tmp_path, capsys, flag, ini, named):
    cfg = tmp_path / "run.ini"
    cfg.write_text(ini)
    missing = str(tmp_path / "absent.csv")  # the size is checked before any input is read
    rc = cli.main(["campaign", "--model", missing, "--features", missing, "--control", missing,
                   "--outcomes", missing, *flag, "--config", str(cfg), "--outdir", str(tmp_path / "camp")])
    assert rc == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "camp" / "campaign.csv").exists()


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


@pytest.mark.parametrize("text, named", [
    ("subscribers = 30\n[synth]\ntowers = 8\n", ":1: 'subscribers = 30' comes before any [section] header"),
    ("[synth]\ntowers = 8\nTowers = 9\n", ":3: key 'towers' in section [synth] appears twice"),
    ("[synth]\ntowers = 8\n[run]\nseed = 1\n[synth]\ndays = 3\n", ":5: section [synth] appears twice"),
    ("[run]\n  seed\n", ":2: cannot parse '  seed\\n'"),
], ids=["no section header", "key twice", "section twice", "continuation without a key"])
def test_config_syntax_errors_exit_2_naming_the_file_and_line(tmp_path, capsys, text, named):
    cfg = tmp_path / "run.ini"
    cfg.write_text(text, encoding="utf-8")
    assert cli.main(["synth", "--config", str(cfg), "--outdir", str(tmp_path / "out")]) == 2
    assert f"cdrlab: error: {cfg}{named}\n" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_config_with_a_byte_order_mark_reads_as_its_plain_copy(tmp_path):
    text = "[synth]\nsubscribers = 30\ntowers = 8\ndays = 3\nevent_rate = 1.0\n"
    manifests = []
    for name, encoding in (("plain", "utf-8"), ("bom", "utf-8-sig")):
        cfg = tmp_path / f"{name}.ini"
        cfg.write_text(text, encoding=encoding)
        assert cli.main(["synth", "--config", str(cfg), "--outdir", str(tmp_path / name)]) == 0
        manifests.append((tmp_path / name / "manifest_synth.json").read_bytes())
    assert (tmp_path / "bom.ini").read_bytes().startswith(b"\xef\xbb\xbf[synth]")
    assert manifests[0] == manifests[1] and b'"subscribers": 30' in manifests[0]  # config_hash included


@pytest.mark.parametrize("command", ["synth", "kappa", "train", "voronoi"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_a_negative_seed_exits_2_naming_its_source(synth_dir, features_dir, tmp_path, capsys, command, source):
    inputs = {"synth": [], "kappa": dataset_args(synth_dir), "voronoi": ["--towers", str(synth_dir / "towers.csv")],
              "train": ["--features", str(features_dir / "features.csv"), "--labels", str(synth_dir / "labels.csv")]}
    seed = ["--seed", "-1"]
    if source == "config":
        (tmp_path / "run.ini").write_text("[run]\nseed = -1\n")
        seed = ["--config", str(tmp_path / "run.ini")]
    assert cli.main([command, *inputs[command], *seed, "--outdir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "cdrlab: error: run.seed must be >= 0\n"
    assert not (tmp_path / "out").exists()


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
    # no day column, so the damaged row, one cell long, still reaches every column that adoption reads
    adopters.write_text(f'subscriber,note\n"{ids[1]},3\n{ids[2]},4\n{ids[3]},5\n')
    rc = cli.main(["adoption", *dataset_args(synth_dir), "--adopters", str(adopters),
                   "--outdir", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"adopters not in graph: ['{ids[1]},3\\n']" in err
    assert ids[2] not in err and ids[3] not in err


def test_adopter_days_are_any_integers(synth_dir, tmp_path):
    # a day may pass int64 or fall below 0; a blank day adopts outside every snapshot
    ids = subscriber_ids(synth_dir)
    adopters = tmp_path / "adopters.csv"
    adopters.write_text(f"subscriber,day\n{ids[3]},100000000000000000000\n{ids[1]},-3\n{ids[2]},\n")
    for step in ("adoption", "pk"):
        assert cli.main([step, *dataset_args(synth_dir), "--adopters", str(adopters),
                         "--outdir", str(tmp_path / step)]) == 0
        assert json.loads((tmp_path / step / f"manifest_{step}.json").read_text())["params"]["adopters"] == 3
    assert data_lines(tmp_path / "adoption" / "adopters.csv")[1:] == sorted(
        [f"{ids[1]},-3", f"{ids[2]},", f"{ids[3]},100000000000000000000"])
    rows = data_lines(tmp_path / "adoption" / "adoption_components.csv")[1:]
    assert [row.split(",")[:2] for row in rows] == [["-3", "1"], ["100000000000000000000", "2"]]


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


def test_select_covariates_constant_response_exits_2(tmp_path, capsys):
    table = tmp_path / "table.csv"
    table.write_text("resp,x1,x2\n1,1,2\n1,2,1\n1,3,5\n1,4,3\n1,5,9\n")
    assert cli.main(["select-covariates", "--table", str(table), "--response", "resp",
                     "--outdir", str(tmp_path / "sel")]) == 2
    assert f"{table}: response column 'resp' is constant" in capsys.readouterr().err
    assert not list((tmp_path / "sel").glob("*"))


def test_select_covariates_perfect_fit_exits_2(tmp_path, capsys):
    # resp = 2 x1 + 1 exactly, so the residual sum of squares is 0 and AIC is -inf
    table = tmp_path / "table.csv"
    table.write_text("resp,x1,x2\n3,1,2\n5,2,1\n7,3,5\n9,4,3\n11,5,9\n")
    assert cli.main(["select-covariates", "--table", str(table), "--response", "resp",
                     "--outdir", str(tmp_path / "sel")]) == 2
    assert f"{table}: response column 'resp' is fitted exactly by ['x1']" in capsys.readouterr().err
    assert not list((tmp_path / "sel").glob("*"))


GOOD_MODEL = {"format_version": 1, "family": "logistic",
              "payload": {"columns": ["f1", "f2"], "mean": [0.0, 0.0], "scale": [1.0, 1.0],
                          "coef": [1.0, -1.0], "bias": 0.5, "seed": 3}}


def broken_model(**payload):
    """GOOD_MODEL with the given payload fields replaced; a value of ... deletes the field."""
    doc = json.loads(json.dumps(GOOD_MODEL))
    doc["payload"].update(payload)
    doc["payload"] = {k: v for k, v in doc["payload"].items() if v is not ...}
    return doc


@pytest.mark.parametrize("command", ["eval", "campaign"])
@pytest.mark.parametrize("doc, named", [
    (broken_model(coef="x"), "bad logistic model: could not convert string to float: 'x'"),
    (broken_model(bias=None), "bad logistic model: float() argument must be"),
    ([1, 2], "bad model file: not a JSON object"),
    (broken_model(mean=[1.0]), "bad logistic model: mean must be finite numbers of shape (2,)"),
    (broken_model(scale=...), "bad logistic model: missing field 'scale'"),
    (broken_model(seed="abc"), "bad logistic model: invalid literal for int()"),
    ({"format_version": 1, "family": "bagged_stumps",
      "payload": {"columns": ["f1"], "seed": 3,
                  "stumps": [{"feature": 99, "threshold": 0.5, "p_left": 0.2, "p_right": 0.8}]}},
     "bad bagged_stumps model: stump feature 99 is not a column index"),
    (broken_model(scale=[1.0, 0.0]), "bad logistic model: scale must be > 0"),
    ({"format_version": 1, "family": "mlp",
      "payload": {"columns": ["f1"], "mean": [0.0], "scale": [0.0], "W1": [[1.0]], "b1": [0.0], "W2": [1.0],
                  "b2": 0.0, "seed": 3}},
     "bad mlp model: scale must be > 0"),
], ids=["coef", "bias", "not an object", "short mean", "no scale", "seed", "stump feature", "zero scale",
        "zero mlp scale"])
def test_malformed_model_file_exits_2(tmp_path, capsys, command, doc, named):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    missing = str(tmp_path / "absent.csv")  # the model is read before any other input
    rest = (["--features", missing, "--labels", missing] if command == "eval" else
            ["--features", missing, "--control", missing, "--outcomes", missing])
    assert cli.main([command, "--model", str(model), *rest, "--outdir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"cdrlab: error: {model}: {named}")


@pytest.mark.parametrize("command, ini, named", [
    ("train", "[model]\nclass_weight = 5\n", "[model] class_weight must be empty or 'balanced', got '5'"),
    ("train", "[model]\nclass_weight = 12\n", "[model] class_weight must be empty or 'balanced', got '12'"),
    ("train", "[model]\nfamily = mlp\nhidden = 0\n", "hidden and batch_size must be >= 1, got hidden=0"),
    ("train", "[model]\nfamily = mlp\nbatch_size = 0\n", "hidden and batch_size must be >= 1, got hidden=64, batch_size=0"),
    ("train", "[model]\nfamily = svm\n", "[model] family: unknown family 'svm'"),
    ("synth", "[synth]\ndenominations =\n", "[synth] denominations = (): must be one or more positive numbers"),
    ("graph", "[graph]\nsms_weight = nan\n", "bad value for graph.sms_weight: not a finite number: 'nan'"),
    ("synth", "[DEFAULT]\nsubscribers = 7\n[synth]\ntowers = 5\n", "unknown config section [DEFAULT]"),
    ("flows", "[flows]\nbaseline_days = -3\n", "[flows] baseline_days = -3: baseline_days must be >= 0"),
    ("flows", "[flows]\nmode = hourly\n", "[flows] mode = hourly: unknown mode 'hourly'"),
    ("anomaly", "[anomaly]\nmeasure = sms\n", "[anomaly] measure = sms: unknown measure 'sms'"),
    ("anomaly", "[anomaly]\nbin_width = 0\n", "[anomaly] bin_width = 0: bin_width must be positive"),
    ("rank-curves", "[rank_curves]\nbin_width = 0\n", "[rank_curves] bin_width = 0: bin_width must be a positive"),
    ("adoption", "[adoption]\np0 = 2\n", "[adoption] p0 = 2.0: p0 must be in [0, 1]"),
    ("adoption", "[adoption]\nmechanism = random\np = 2\n", "[adoption] p = 2.0: p must be in [0, 1]"),
    ("adoption", "[adoption]\nbeta = -1\n", "[adoption] beta = -1.0: beta must be >= 0"),
    ("adoption", "[adoption]\ndays = 0\n", "[adoption] days = 0: days must be >= 1"),
    ("graph", "[graph]\nsms_weight = -1\n", "[graph] sms_weight = -1.0: sms_weight must be >= 0"),
], ids=["class_weight 5", "class_weight 12", "hidden 0", "batch_size 0", "family", "no denominations", "nan weight",
        "DEFAULT section", "negative baseline_days", "flow mode", "measure", "bin_width 0", "rank bin_width 0",
        "p0 2", "random p 2", "beta -1", "adoption days 0", "sms_weight -1"])
def test_bad_config_value_exits_2(synth_dir, features_dir, tmp_path, capsys, command, ini, named):
    cfg = tmp_path / "run.ini"
    cfg.write_text(ini)
    rank = ["--event-time", str(T0 + 3 * DAY + 8 * 3600), "--comparison-days", str(T0 + DAY)]
    inputs = {"train": ["--features", str(features_dir / "features.csv"), "--labels", str(synth_dir / "labels.csv")],
              "synth": [], "graph": dataset_args(synth_dir), "anomaly": dataset_args(synth_dir),
              "flows": dataset_args(synth_dir), "adoption": dataset_args(synth_dir),
              "rank-curves": [*dataset_args(synth_dir), *rank]}[command]
    assert cli.main([command, *inputs, "--config", str(cfg), "--outdir", str(tmp_path / "out")]) == 2
    assert named in capsys.readouterr().err
    assert not list((tmp_path / "out").glob("*"))


def test_family_choices_are_the_family_table():
    train = cli._build_parser()._subparsers._group_actions[0].choices["train"]
    family = next(a for a in train._actions if a.dest == "family")
    assert family.choices == list(models.FAMILIES)


def test_train_short_feature_row_names_its_line(tmp_path, capsys):
    features = tmp_path / "features.csv"
    features.write_text("subscriber,f1,f2\ns1,0.5,1\ns2,0.4\n")
    labels = tmp_path / "labels.csv"
    labels.write_text("subscriber,label\ns1,low\ns2,high\n")
    assert cli.main(["train", "--features", str(features), "--labels", str(labels),
                     "--outdir", str(tmp_path / "train")]) == 2
    assert f"{features}:3: wrong field count" in capsys.readouterr().err


@pytest.mark.parametrize("features, labels, named, cause", [
    ("subscriber,f1\ns1,\ns2,\ns3,0.3\n", "subscriber,label\ns1,low\ns2,high\n", "features",
     "every one of the 2 labeled rows has a blank feature cell, and na_policy=drop drops them all"),
    ("subscriber,f1\ns1,0.1\ns2,0.2\ns3,0.3\n", "subscriber,label\ns1,high\ns2,high\ns3,high\n", "labels",
     "all 3 labeled feature rows are negative (--positive-label 'low'); train needs both classes"),
], ids=["no complete row", "one class"])
def test_train_without_two_classes_names_file_and_cause(tmp_path, capsys, features, labels, named, cause):
    files = {"features": tmp_path / "features.csv", "labels": tmp_path / "labels.csv"}
    files["features"].write_text(features)
    files["labels"].write_text(labels)
    assert cli.main(["train", "--features", str(files["features"]), "--labels", str(files["labels"]),
                     "--outdir", str(tmp_path / "train")]) == 2
    assert f"cdrlab: error: {files[named]}: {cause}\n" in capsys.readouterr().err


# Every side-file reader, each with one good file; a case swaps in one bad file.
SIDE_FILES = {
    "areas": "tower,area\n{t0},D0\n{t1},D1\n{more}",
    "samples": "area,value\nx,1\ny,2\nz,4\n",
    "adopters": "subscriber,day\n{s0},3\n{s1},4\n",
    "features": "subscriber,f1\ns1,0.9\ns2,0.8\ns3,0.8\ns4,0.5\ns5,0.3\ns6,0.1\n",
    "control": "subscriber\ns1\ns5\n",
    "outcomes": "subscriber,converted,renewed\ns1,1,1\ns2,1,1\ns3,1,0\ns4,0,0\ns5,0,0\ns6,0,0\n",
    "test-ids": "subscriber\ns1\ns2\ns5\ns6\n",
    "table": "id,resp,x1\nr0,1.0,2.0\nr1,3.0,1.0\nr2,2.0,2.5\nr3,5.0,0.5\nr4,4.0,0.9\nr5,0.5,3.1\n",
}


def run_with_side_file(kind, body, synth_dir, tmp_path):
    """Run the subcommand that reads a side file of this kind, with body as that file."""
    towers = tower_ids(synth_dir)
    ids = {"t0": towers[0], "t1": towers[1], "s0": subscriber_ids(synth_dir)[0], "s1": subscriber_ids(synth_dir)[1],
           # a district map must cover every tower
           "more": "".join(f"{t},D1\n" for t in towers[2:]), "more_swapped": "".join(f"D1,{t}\n" for t in towers[2:])}
    files = {}
    for name, good in SIDE_FILES.items():
        files[name] = tmp_path / f"{name}.csv"
        files[name].write_text((body if name == kind else good).format(**ids))
    other = tmp_path / "other.csv"
    other.write_text("area,value\nx,1\ny,3\nz,2\nw,5\n")
    model = tmp_path / "model.json"
    save_model(LogisticModel(columns=["f1"], mean=np.zeros(1), scale=np.ones(1),
                             coef=np.array([1.0]), bias=0.0, seed=0), str(model))
    labels = tmp_path / "labels.csv"
    labels.write_text("subscriber,label\ns1,low\ns2,low\ns3,high\ns4,high\ns5,high\ns6,low\n")
    campaign = ["campaign", "--model", str(model), "--features", str(files["features"]),
                "--control", str(files["control"]), "--outcomes", str(files["outcomes"]),
                "--treatment-size", "3"]
    argv = {
        "areas": ["anomaly", *dataset_args(synth_dir), "--entity", "district:D1", "--areas", str(files["areas"])],
        "samples": ["correlate", "--a", str(other), "--b", str(files["samples"])],
        "adopters": ["adoption", *dataset_args(synth_dir), "--adopters", str(files["adopters"])],
        "features": campaign,
        "control": campaign,
        "outcomes": campaign,
        "test-ids": ["eval", "--features", str(files["features"]), "--labels", str(labels),
                     "--model", str(model), "--test-ids", str(files["test-ids"])],
        "table": ["select-covariates", "--table", str(files["table"]), "--response", "resp"],
    }[kind]
    return cli.main([*argv, "--outdir", str(tmp_path / "out")]), files[kind], ids


SIDE_FILE_CASES = [
    # (reader, rule, file body, the error after "path" or None for exit 0)
    ("areas", "short row", "tower,area\n{t0},D0\n{t1}\n", ":3: wrong field count"),
    ("areas", "blank key", "tower,area\n{t0},D0\n,D1\n", ":3: missing tower"),
    ("areas", "repeated key", "tower,area\n{t0},D0\n{t1},D1\n{t0},D1\n", ":4: repeated tower '{t0}'"),
    ("areas", "blank row", "tower,area\n{t0},D0\n,\n{t1},D1\n{more}", None),
    ("areas", "columns by name", "area,tower\nD0,{t0}\nD1,{t1}\n{more_swapped}", None),
    ("samples", "short row", "area,value\nx,1\ny\nz,4\n", ":3: wrong field count"),
    ("samples", "blank key", "area,value\nx,1\n,2\nz,4\n", ":3: missing area"),
    ("samples", "repeated key", "area,value\nx,1\ny,2\nz,4\nx,4\n", ":5: repeated area 'x'"),
    ("samples", "bad number", "area,value\nx,1\ny,two\nz,4\n", ":3: bad number 'two'"),
    ("samples", "non-finite", "area,value\nx,1\ny,-inf\nz,4\n", ":3: non-finite value"),
    ("samples", "missing column", "area,val\nx,1\n", ": expected column(s) value"),
    ("samples", "blank row", "area,value\nx,1\n,\ny,2\nz,4\n", None),
    ("samples", "blank value", "area,value\nx,1\ny,\nz,4\nw,2\n", None),
    ("samples", "whitespace value", "area,value\nx,1\ny, \nz,4\nw,2\n", None),
    ("adopters", "blank key", "subscriber,day\n{s0},3\n,4\n", ":3: missing subscriber"),
    ("adopters", "repeated key", "subscriber,day\n{s0},3\n{s0},4\n", ":3: repeated subscriber '{s0}'"),
    ("adopters", "bad number", "subscriber,day\n{s0},3\n{s1},inf\n", ":3: bad number 'inf'"),
    ("adopters", "blank row", "subscriber,day\n{s0},3\n,\n{s1},4\n", None),
    ("adopters", "whitespace day", "subscriber,day\n{s0},3\n{s1}, \n", None),
    ("adopters", "short row", "subscriber,day\n{s0},3\n{s1}\n", ":3: wrong field count"),
    ("features", "blank key", "subscriber,f1\ns1,0.9\n,0.8\ns3,0.8\ns4,0.5\ns5,0.3\ns6,0.1\n",
     ":3: missing subscriber"),
    ("features", "repeated key", "subscriber,f1\ns1,0.9\ns2,0.8\ns3,0.8\ns4,0.5\ns5,0.3\ns6,0.1\ns2,0.2\n",
     ":8: repeated subscriber 's2'"),
    ("features", "bad number", "subscriber,f1\ns1,0.9\ns2,high\ns3,0.8\ns4,0.5\ns5,0.3\ns6,0.1\n",
     ":3: bad number 'high'"),
    ("features", "non-finite", "subscriber,f1\ns1,0.9\ns2,nan\ns3,0.8\ns4,0.5\ns5,0.3\ns6,0.1\n",
     ":3: non-finite value"),
    ("features", "short row", "subscriber,f1\ns1,0.9\ns2\ns3,0.8\ns4,0.5\ns5,0.3\ns6,0.1\n",
     ":3: wrong field count"),
    ("features", "blank row", "subscriber,f1\ns1,0.9\ns2,0.8\n,\ns3,0.8\ns4,0.5\ns5,0.3\ns6,0.1\n", None),
    ("features", "blank cell", "subscriber,f1\ns1,0.9\ns2,\ns3,0.8\ns4,0.5\ns5,0.3\ns6,0.1\n", None),
    ("features", "whitespace cell", "subscriber,f1\ns1,0.9\ns2, \ns3,0.8\ns4,0.5\ns5,0.3\ns6,0.1\n", None),
    # a row need not reach home_tower, which no model reads
    ("features", "short of an unread column",
     "subscriber,f1,home_tower\ns1,0.9,T1\ns2,0.8\ns3,0.8,T1\ns4,0.5,T1\ns5,0.3,T1\ns6,0.1,T1\n", None),
    ("control", "blank key", "subscriber,note\ns1,a\n,b\ns5,c\n", ":3: missing subscriber"),
    ("control", "repeated key", "subscriber\ns1\ns5\ns1\n", ":4: repeated subscriber 's1'"),
    ("control", "blank row", "subscriber,note\ns1,a\n,\ns5,c\n", None),
    ("outcomes", "short row", "subscriber,converted,renewed\ns1,1,1\ns2,1\n", ":3: wrong field count"),
    ("outcomes", "blank key", "subscriber,converted,renewed\ns1,1,1\n,1,1\n", ":3: missing subscriber"),
    ("outcomes", "repeated key",
     "subscriber,converted,renewed\ns1,1,1\ns2,1,1\ns3,1,0\ns4,0,0\ns5,0,0\ns6,0,0\ns2,0,0\n",
     ":8: repeated subscriber 's2'"),
    ("outcomes", "bad flag", "subscriber,converted,renewed\ns1,1,1\ns2,yes,yes\n", ":3: bad flag 'yes'"),
    ("outcomes", "missing column", "subscriber,converted\ns1,1\n", ": expected column(s) renewed"),
    ("outcomes", "blank row",
     "subscriber,converted,renewed\ns1,1,1\ns2,1,1\n,,\ns3,1,0\ns4,0,0\ns5,0,0\ns6,0,0\n", None),
    ("test-ids", "blank key", "subscriber,note\ns1,a\n,b\n", ":3: missing subscriber"),
    ("test-ids", "repeated key", "subscriber\ns1\ns2\ns5\ns1\n", ":5: repeated subscriber 's1'"),
    ("test-ids", "blank row", "subscriber,note\ns1,a\ns2,b\n,\ns5,c\ns6,d\n", None),
    ("test-ids", "absent id", "subscriber\ns1\nNOPE2\ns2\nNOPE1\n", ": test ids ['NOPE1', 'NOPE2'] are not labeled rows"),
    # non-finite cells: test_select_covariates_non_finite_cell_exits_2
    ("table", "short row", "id,resp,x1\nr0,1.0,2.0\nr1,3.0\n", ":3: wrong field count"),
    ("table", "bad number", "id,resp,x1\nr0,1.0,2.0\nr1,3.0,?\n", ":3: bad number '?'"),
    ("table", "bad number beside a blank", SIDE_FILES["table"] + "r99,,?,1\n", ":8: bad number '?'"),
    ("table", "missing column", "id,res,x1\nr0,1.0,2.0\n", ": expected column(s) resp"),
    ("table", "blank row", SIDE_FILES["table"] + ",,\n", None),
]


@pytest.mark.parametrize("kind, rule, body, want", SIDE_FILE_CASES,
                         ids=[f"{kind}-{rule}" for kind, rule, _, _ in SIDE_FILE_CASES])
def test_side_file_rules(synth_dir, tmp_path, capsys, kind, rule, body, want):
    rc, path, ids = run_with_side_file(kind, body, synth_dir, tmp_path)
    err = capsys.readouterr().err
    if want is None:
        assert rc == 0, err
    else:
        assert rc == 2
        assert f"{path}{want.format(**ids)}" in err
        assert not list((tmp_path / "out").glob("*"))


def test_eval_names_the_test_ids_it_cannot_evaluate(tmp_path, capsys):
    # under the default na_policy = drop, s2's blank cell drops its row; s7 has no label, and NOPE is no row
    features, labels, model, ids = (tmp_path / name for name in ("features.csv", "labels.csv", "model.json", "ids.csv"))
    features.write_text("subscriber,f1\ns1,0.9\ns2,\ns3,0.8\ns4,0.5\ns5,0.3\ns6,0.1\ns7,0.4\n")
    labels.write_text("subscriber,label\ns1,low\ns2,low\ns3,high\ns4,high\ns5,high\ns6,low\n")
    save_model(LogisticModel(columns=["f1"], mean=np.zeros(1), scale=np.ones(1), coef=np.array([1.0]), bias=0.0,
                             seed=0), str(model))
    for test_ids, want in [("s1\ns2\ns5\n", f"{features}: test ids ['s2'] have a blank feature cell, and "
                                             f"na_policy=drop drops their rows"),
                           ("s1\ns7\nNOPE\ns5\n", f"{ids}: test ids ['NOPE', 's7'] are not labeled rows of {features}"),
                           ("", f"{ids}: no test ids")]:
        ids.write_text("subscriber\n" + test_ids)
        assert cli.main(["eval", "--features", str(features), "--labels", str(labels), "--model", str(model),
                         "--test-ids", str(ids), "--outdir", str(tmp_path / "out")]) == 2
        assert f"cdrlab: error: {want}\n" in capsys.readouterr().err
        assert not list((tmp_path / "out").glob("*"))
    ids.write_text("subscriber\ns6\ns1\ns5\n")
    assert cli.main(["eval", "--features", str(features), "--labels", str(labels), "--model", str(model),
                     "--test-ids", str(ids), "--outdir", str(tmp_path / "out")]) == 0
    assert json.loads((tmp_path / "out" / "manifest_eval.json").read_text())["params"]["rows"] == 3


def test_idw_sample_without_value_exits_2(synth_dir, tmp_path, capsys):
    towers = tower_ids(synth_dir)
    samples = tmp_path / "samples.csv"
    samples.write_text(f"area,value\n{towers[0]},1\n{towers[1]}\n")
    assert cli.main(["idw", "--towers", str(synth_dir / "towers.csv"), "--samples", str(samples),
                     "--outdir", str(tmp_path / "idw")]) == 2
    assert f"{samples}:3: wrong field count" in capsys.readouterr().err
    assert not (tmp_path / "idw" / "grid.txt").exists()


def test_idw_samples_at_one_point_exit_2(tmp_path, capsys):
    towers, samples = tmp_path / "towers.csv", tmp_path / "samples.csv"
    towers.write_text("id,lon,lat\nT1,91.0,24.0\nT2,91.0,24.0\nT3,90.0,23.0\n")
    samples.write_text("area,value\nT1,1\nT2,5\nT3,3\n")
    assert cli.main(["idw", "--towers", str(towers), "--samples", str(samples),
                     "--outdir", str(tmp_path / "idw")]) == 2
    assert "--samples: towers 'T1' and 'T2' share the point (91.0, 24.0)" in capsys.readouterr().err
    assert not (tmp_path / "idw" / "grid.txt").exists()


def test_correlate_grid_with_nan_exits_2(tmp_path, capsys):
    values = np.arange(9.0).reshape(3, 3)
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    spatial.write_grid(spatial.GridRaster(0.0, 0.0, 1.0, values), str(a))
    values[1, 1] = np.nan
    spatial.write_grid(spatial.GridRaster(0.0, 0.0, 1.0, values), str(b))
    assert cli.main(["correlate", "--a", str(a), "--b", str(b), "--outdir", str(tmp_path / "corr")]) == 2
    assert f"{b}:8: non-finite value" in capsys.readouterr().err
    assert not (tmp_path / "corr" / "correlate.csv").exists()


@pytest.mark.parametrize("cell, line", [("resp", 7), ("x1", 12)])
@pytest.mark.parametrize("bad", ["inf", "nan"])
def test_select_covariates_non_finite_cell_exits_2(tmp_path, cell, line, bad):
    # run in a child with a deadline: a non-finite cell once sent the
    # stepwise search into an endless add/drop loop, or picked x2 over x1
    rng = np.random.default_rng(26)
    x1, x2 = rng.normal(size=40), rng.normal(size=40)
    cells = {"resp": 2.0 * x1 + 0.05 * rng.normal(size=40), "x1": x1, "x2": x2}
    rows = [{c: repr(float(v[i])) for c, v in cells.items()} for i in range(40)]
    rows[line - 2][cell] = bad
    table = tmp_path / "table.csv"
    table.write_text("resp,x1,x2\n" + "".join(f"{r['resp']},{r['x1']},{r['x2']}\n" for r in rows))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-m", "cdrlab.cli", "select-covariates", "--table", str(table),
                           "--response", "resp", "--outdir", str(tmp_path / "sel")],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert f"{table}:{line}: non-finite value" in done.stderr


# -- degenerate inputs: exit 0 or 2, no traceback, no nan ---------------------------------

def _stamp(offset):
    return f"{datetime.fromtimestamp(T0 + offset, tz=timezone.utc):%Y-%m-%dT%H:%M:%SZ}"


TOWER_LONLAT = {"T0": "90.0,23.0", "T1": "90.5,23.5"}


def _ring_calls(n, days, hours=(8, 12, 18), towers=("T0", "T1")):
    """Subscribers s0..s(n-1) on a ring; each calls the next at the given hours of every day."""
    return [(f"s{i}", f"s{(i + 1) % n}", towers[i % len(towers)], d * DAY + h * 3600 + i, "voice", 60)
            for d in range(days) for h in hours for i in range(n)]


def _ring_topups(n, days, towers=("T0", "T1")):
    """One top-up a day per ring subscriber, of 10, 20 or 30."""
    return [(f"s{i}", towers[d % len(towers)], d * DAY + 3600 + i, 10 * (1 + (i + d) % 3))
            for d in range(days) for i in range(n)]


# name -> (cdr rows (caller, callee, tower, offset, kind, magnitude), top-up rows
# (buyer, tower, offset, amount), labels); a top-up table of None writes only its header.
# "ring", a six-subscriber ring over three days, is the control every step passes.
RING_LABELS = {f"s{i}": ("low", "high")[i % 2] for i in range(6)}
DEGENERATE = {
    "one subscriber": ([("s0", "", f"T{d % 2}", d * DAY + h * 3600, "data", 1000)
                        for d in range(3) for h in (8, 12, 18)],
                       [("s0", "T0", 3600, 10), ("s0", "T1", DAY + 3600, 20)], {"s0": "low"}),
    "one pair": ([("s0", "s1", "T0", d * DAY + h * 3600, "voice", 60) for d in range(3) for h in (8, 12, 18)]
                 + [("s1", "s0", "T1", d * DAY + 20 * 3600, "sms", 1) for d in range(3)],
                 [("s0", "T0", 3600, 10), ("s1", "T1", DAY + 3600, 20)], {"s0": "low", "s1": "high"}),
    "one day": (_ring_calls(6, 1), _ring_topups(6, 1), RING_LABELS),
    "one tower": (_ring_calls(6, 3, towers=("T0",)), _ring_topups(6, 3, towers=("T0",)), RING_LABELS),
    # two calls a pair, under [graph] min_monthly_interactions = 3
    "no tie above the threshold": (_ring_calls(6, 2, hours=(8,)), _ring_topups(6, 2), RING_LABELS),
    "no top-ups": (_ring_calls(6, 3), None, RING_LABELS),
    "one-class labels": (_ring_calls(6, 3), _ring_topups(6, 3), dict.fromkeys(RING_LABELS, "low")),
    "blank feature column": (_ring_calls(6, 3), _ring_topups(6, 3), RING_LABELS),
    "ring": (_ring_calls(6, 3), _ring_topups(6, 3), RING_LABELS),
    # the ring again, plus a select-covariates --table whose response is constant
    "constant --table response": (_ring_calls(6, 3), _ring_topups(6, 3), RING_LABELS),
}
# (case, step) -> what the step's exit-2 message names: the file or config key at fault
NAMED = {
    ("one day", "anomaly"): "[anomaly] baseline = hour_of_day: baseline cell",
    ("no top-ups", "train_logistic"): "{d}/out_features/features.csv: column 'recharge_count' has no present values",
    ("constant --table response", "select_covariates"): "{d}/table.csv: response column 'resp' is constant",
}
RANK_CURVES_CONFIGS = {"bin_width = 0": "bin_width", "bin_width = 7": "bin_width",
                       "bin_width = 100000": "bin_width", "max_rank = 0": "max_rank"}


def _write_degenerate(d, case):
    cdrs, topups, labels = DEGENERATE[case]
    d.mkdir()
    towers = sorted({row[2] for row in cdrs} | {row[1] for row in topups or ()})
    (d / "towers.csv").write_text("id,lon,lat\n" + "".join(f"{t},{TOWER_LONLAT[t]}\n" for t in towers))
    (d / "cdr.csv").write_text("caller,callee,tower,timestamp,kind,magnitude\n" + "".join(
        f"{a},{b},{t},{_stamp(o)},{k},{m}\n" for a, b, t, o, k, m in cdrs))
    (d / "topups.csv").write_text("buyer,retailer,retailer_tower,timestamp,amount\n" + "".join(
        f"{b},R0,{t},{_stamp(o)},{a}\n" for b, t, o, a in topups or ()))
    (d / "labels.csv").write_text("subscriber,label\n" + "".join(f"{s},{v}\n" for s, v in labels.items()))
    (d / "samples.csv").write_text("area,value\n" + "".join(f"{t},{i + 1.0}\n" for i, t in enumerate(towers)))
    (d / "control.csv").write_text("subscriber\ns0\n")
    (d / "adopters.csv").write_text("subscriber\n" + "".join(f"{s}\n" for s in list(labels)[:2]))
    (d / "outcomes.csv").write_text("subscriber,converted,renewed\n" + "".join(f"{s},1,0\n" for s in labels))
    if case == "blank feature column":
        (d / "features.csv").write_text("subscriber,f1,f2\n" + "".join(f"{s},{i},\n" for i, s in enumerate(labels)))
    if case == "constant --table response":
        (d / "table.csv").write_text("resp,x1,x2\n1,1,2\n1,2,1\n1,3,5\n1,4,3\n1,5,9\n")
    return ["--cdr", str(d / "cdr.csv"), "--topups", str(d / "topups.csv"), "--towers", str(d / "towers.csv"),
            "--labels", str(d / "labels.csv")]


def _degenerate_steps(d, data):
    """(step name, argv) in run order; later steps read what earlier ones wrote."""
    features = d / ("features.csv" if (d / "features.csv").exists() else "out_features/features.csv")
    model_io = ["--features", str(features), "--labels", str(d / "labels.csv")]
    rank = ["rank-curves", *data, "--event-time", str(T0 + DAY + 12 * 3600), "--comparison-days", str(T0)]
    steps = [
        ("ingest-check", ["ingest-check", *data]),
        ("features", ["features", *data]),
        ("graph", ["graph", "--evc", *data]),
        ("adoption", ["adoption", *data]),
        ("kappa", ["kappa", "--replicates", "20", *data]),
        ("kappa_adopters", ["kappa", "--replicates", "20", "--adopters", str(d / "adopters.csv"), *data]),
        ("pk", ["pk", *data]),
        ("anomaly", ["anomaly", *data]),
        ("anomaly_per_tower", ["anomaly", "--per-tower", "--geojson", *data]),
        ("flows", ["flows", *data]),
        ("rank_curves", rank),
        ("distance_matrix", ["distance-matrix", *data, "--epicenter", "90.25,23.25", "--event-day",
                             str(T0 + DAY), "--comparison-days", str(T0)]),
        ("voronoi", ["voronoi", "--towers", str(d / "towers.csv")]),
        ("idw", ["idw", "--towers", str(d / "towers.csv"), "--samples", str(d / "samples.csv")]),
    ]
    for family in models.FAMILIES:
        steps += [(f"train_{family}", ["train", "--family", family, *model_io]),
                  (f"eval_{family}", ["eval", *model_io, "--model", str(d / f"out_train_{family}" / "model.json")])]
    steps.append(("campaign", ["campaign", *data, "--model", str(d / "out_train_logistic" / "model.json"),
                               "--features", str(features), "--control", str(d / "control.csv"),
                               "--outcomes", str(d / "outcomes.csv"), "--treatment-size", "1"]))
    if (d / "table.csv").exists():
        steps.append(("select_covariates", ["select-covariates", "--table", str(d / "table.csv"), "--response", "resp"]))
    return steps


def _sweep_run(name, argv, outdir, capsys):
    """(exit code, stderr, what is wrong: an exit other than 0 or 2, a traceback, a nan or inf in outdir)."""
    try:
        # a step's own --outdir comes later, so it wins
        rc = cli.main([argv[0], "--outdir", str(outdir), *argv[1:]])
    except Exception as exc:  # anything cli.main lets through is a traceback
        return None, "", [f"{name}: raised {type(exc).__name__}: {exc}"]
    err = capsys.readouterr().err
    problems = [] if rc in (0, 2) else [f"{name}: exit {rc}: {err}"]
    if "Traceback" in err:
        problems.append(f"{name}: traceback on stderr: {err}")
    for path in sorted(outdir.glob("*")) if outdir.is_dir() else ():
        tokens = re.split(r'[\s,:\[\]{}"]+', path.read_text(encoding="utf-8").lower())
        bad = sorted({t for t in tokens if t.lstrip("+-") in ("nan", "inf", "infinity")})
        if bad:
            problems.append(f"{name}: {path.name} holds {bad}")
    return rc, err, problems


@pytest.mark.parametrize("step, argv, message", [
    ("eval", ["--test-ids", ""], "--test-ids: expected a file path, got ''"),
    ("kappa", ["--adopters", ""], "--adopters: expected a file path, got ''"),
    ("voronoi", ["--clip", ""], "--clip: expected 4 comma-separated finite numbers, got ''"),
    ("features", ["--denominations", ""], "--denominations: expected one or more comma-separated finite numbers"),
    ("features", ["--topups", ""], "--topups: expected a file path, got ''"),
    ("flows", ["--areas", ""], "--areas: expected a file path, got ''"),
    ("anomaly", ["--areas", ""], "--areas: expected a file path, got ''"),
    ("synth", ["--config", ""], "--config: expected a file path, got ''"),
    ("train", ["--split-fraction", "1.5"], "--split-fraction: fraction must be in (0, 1), got 1.5"),
    ("voronoi", ["--outdir", ""], "--outdir: expected a file path, got ''"),
    ("idw", ["--samples", ""], "--samples: expected a file path, got ''"),
    ("correlate", ["--a", ""], "--a: expected a file path, got ''"),
    ("correlate", ["--b", ""], "--b: expected a file path, got ''"),
    ("eval", ["--features", ""], "--features: expected a file path, got ''"),
    ("train", ["--labels", ""], "--labels: expected a file path, got ''"),
    ("campaign", ["--model", ""], "--model: expected a file path, got ''"),
    ("campaign", ["--control", ""], "--control: expected a file path, got ''"),
    ("campaign", ["--outcomes", ""], "--outcomes: expected a file path, got ''"),
    ("select-covariates", ["--table", ""], "--table: expected a file path, got ''"),
])
def test_an_empty_or_out_of_range_flag_value_exits_2_naming_the_flag(tmp_path, capsys, step, argv, message):
    # an empty value is a bad value, not an absent flag that falls back to a default
    d = tmp_path / "in"
    data = _write_degenerate(d, "ring")
    features, labels, model = d / "features.csv", d / "labels.csv", d / "model.json"
    features.write_text("subscriber,f1\n" + "".join(f"{s},{i}\n" for i, s in enumerate(RING_LABELS)))
    save_model(LogisticModel(columns=["f1"], mean=np.zeros(1), scale=np.ones(1), coef=np.array([1.0]), bias=0.0,
                             seed=0), str(model))
    model_io = ["--features", str(features), "--labels", str(labels)]
    samples = str(d / "samples.csv")
    inputs = {"synth": [], "voronoi": ["--towers", str(d / "towers.csv")], "train": model_io,
              "eval": [*model_io, "--model", str(model)], "correlate": ["--a", samples, "--b", samples],
              "idw": ["--towers", str(d / "towers.csv")], "select-covariates": ["--response", "resp"],
              "campaign": [*data, "--model", str(model), "--features", str(features),
                           "--control", str(d / "control.csv"), "--outcomes", str(d / "outcomes.csv")]}.get(step, data)
    rc, err, problems = _sweep_run(step, [step, *inputs, *argv], tmp_path / "out", capsys)
    assert (rc, problems) == (2, [])
    assert message in err
    assert not list((tmp_path / "out").glob("*"))


def test_kappa_single_undefined_mode_exits_2(tmp_path, capsys):
    # on the ring the two given adopters' one link pairs in no null replicate
    d = tmp_path / "in"
    data = _write_degenerate(d, "ring")
    argv = ["kappa", "--replicates", "20", "--adopters", str(d / "adopters.csv"), *data]
    assert cli.main([*argv, "--mode", "link", "--outdir", str(tmp_path / "link")]) == 2
    assert "reference degenerate" in capsys.readouterr().err
    assert not (tmp_path / "link" / "kappa.csv").exists()
    assert cli.main([*argv, "--mode", "node", "--outdir", str(tmp_path / "node")]) == 0
    assert "undefined" not in json.loads((tmp_path / "node" / "manifest_kappa.json").read_text())["params"]


@pytest.mark.parametrize("case", [*DEGENERATE, *RANK_CURVES_CONFIGS])
def test_degenerate_inputs_exit_0_or_2_without_traceback_or_nan(tmp_path, capsys, case):
    # Under the default na_policy = drop, every row that lacks a recharge feature
    # goes, and the model steps would stop at their first check.
    ini = tmp_path / "run.ini"
    ini.write_text("[model]\nna_policy = impute_mean\n"
                   + (f"[rank_curves]\n{case}\n" if case in RANK_CURVES_CONFIGS else ""))
    d = tmp_path / "in"
    data = _write_degenerate(d, case if case in DEGENERATE else "ring")
    problems, failed, errs = [], [], {}
    for name, argv in _degenerate_steps(d, data):
        if case in DEGENERATE or name == "rank_curves":
            rc, err, found = _sweep_run(name, [*argv, "--config", str(ini)], d / f"out_{name}", capsys)
            problems += found
            failed += [name] if rc else []
            errs[name] = err
    assert problems == []
    for (named_case, step), text in NAMED.items():
        if named_case == case:
            assert step in failed and text.format(d=d) in errs[step]
    if case == "ring":
        # The simulated adopters induce no link, and the one link of the two given ones
        # pairs in no null replicate: under --mode all, link and clustering are empty
        # rows beside the node row, and the manifest says why.
        assert failed == []
        for step in ("kappa", "kappa_adopters"):
            rows = data_lines(d / f"out_{step}" / "kappa.csv")[1:]
            assert [r.split(",", 1)[0] for r in rows] == ["clustering", "link", "node"]
            assert rows[:2] == ["clustering,,,,,,", "link,,,,,,"] and ",," not in rows[2]
            params = json.loads((d / f"out_{step}" / "manifest_kappa.json").read_text())["params"]
            assert list(params["kappa"]) == ["node"]
            assert sorted(params["undefined"]) == ["clustering", "link"]
            assert all(why.startswith(("kappa undefined", "reference degenerate"))
                       for why in params["undefined"].values())
    if case == "constant --table response":
        assert failed == ["select_covariates"]
    if case in RANK_CURVES_CONFIGS:  # its one step is refused, naming the key
        assert RANK_CURVES_CONFIGS[case] in err
        assert not (d / "out_rank_curves" / "rank_curves.csv").exists()


EPICENTER = ["--epicenter", "90.25,23.25", "--event-day", str(T0 + DAY), "--comparison-days", str(T0)]


@pytest.mark.parametrize("step, argv, message", [
    ("features", ["--denominations", "10,abc"],
     "--denominations: expected one or more comma-separated finite numbers, got '10,abc'"),
    ("voronoi", ["--clip", "1,2,3"], "--clip: expected 4 comma-separated finite numbers, got '1,2,3'"),
    ("voronoi", ["--clip", "nan,22,91,25"], "--clip: expected 4 comma-separated finite numbers, got 'nan,22,91,25'"),
    ("voronoi", ["--clip", "1,2,1,2"], "--clip: expected lon_min < lon_max and lat_min < lat_max, got '1,2,1,2'"),
    ("voronoi", ["--clip", "90,22,91,22"], "--clip: expected lon_min < lon_max and lat_min < lat_max"),
    ("distance-matrix", [*EPICENTER, "--epicenter", "90,23,1"],
     "--epicenter: expected 2 comma-separated finite numbers, got '90,23,1'"),
    ("distance-matrix", [*EPICENTER, "--bins", "1,abc"],
     "--bins: expected one or more comma-separated finite numbers, got '1,abc'"),
    ("distance-matrix", [*EPICENTER, "--bins", "1,inf"], "--bins: expected one or more"),
])
def test_comma_separated_numbers_exit_2_naming_the_flag(tmp_path, capsys, step, argv, message):
    d = tmp_path / "in"
    data = _write_degenerate(d, "ring")
    inputs = ["--towers", str(d / "towers.csv")] if step == "voronoi" else data
    rc, err, problems = _sweep_run(step, [step, *inputs, *argv], tmp_path / "out", capsys)
    assert (rc, problems) == (2, [])
    assert message in err
    assert not any((tmp_path / "out").iterdir())


@pytest.mark.parametrize("step, argv, ini, message", [
    ("distance-matrix", [*EPICENTER, "--hour-start", "5", "--hour-end", "3"], "",
     "--hour-start 5, --hour-end 3: expected 0 <= --hour-start < --hour-end <= 24"),
    ("distance-matrix", [*EPICENTER, "--hour-start", "4", "--hour-end", "4"], "", "--hour-start 4, --hour-end 4: "),
    ("distance-matrix", [*EPICENTER, "--hour-start", "-4", "--hour-end", "30"], "", "--hour-start -4, --hour-end 30: "),
    ("distance-matrix", [*EPICENTER, "--hour-end", "25"], "", "--hour-start 0, --hour-end 25: "),
    ("distance-matrix", [*EPICENTER, "--epicenter", "190.5,23.5"], "",
     "--epicenter: expected lon in [-180, 180] and lat in [-90, 90], got '190.5,23.5'"),
    ("distance-matrix", [*EPICENTER, "--epicenter", "90.5,95"], "",
     "--epicenter: expected lon in [-180, 180] and lat in [-90, 90], got '90.5,95'"),
    ("distance-matrix", [*EPICENTER, "--bins", "5,5"], "", "--bins: expected strictly ascending edges, got '5,5'"),
    ("distance-matrix", [*EPICENTER, "--bins", "1,10,3"], "", "--bins: expected strictly ascending edges, got '1,10,3'"),
    ("distance-matrix", [*EPICENTER, "--event-day", "x"], "", "--event-day: Invalid isoformat string: 'x'"),
    ("distance-matrix", [*EPICENTER, "--comparison-days", ""], "", "--comparison-days: Invalid isoformat string: ''"),
    ("rank-curves", ["--event-time", "nope", "--comparison-days", str(T0)], "",
     "--event-time: Invalid isoformat string: 'nope'"),
    ("rank-curves", ["--event-time", "2016-05-02T12:00:00.5Z", "--comparison-days", str(T0)], "",
     "--event-time: fractional seconds not supported"),
    ("rank-curves", ["--event-time", str(T0 + DAY), "--comparison-days", "2016-05-13,x"], "",
     "--comparison-days: Invalid isoformat string: 'x'"),
    ("rank-curves", ["--event-time", str(T0 + DAY)], "[rank_curves]\ncomparison_days = 2016-05-01,y\n",
     "[rank_curves] comparison_days: Invalid isoformat string: 'y'"),
    ("synth", [], "[synth]\nstart = 2016-13-01\n", "[synth] start: month must be in 1..12"),
    # a day [day, day + 86400) that misses the ring's window, 2016-05-01T01:00 to 2016-05-03T18:00
    ("rank-curves", ["--event-time", "2017-05-20", "--comparison-days", "2017-05-13"], "",
     "--event-time: day 20170520 lies outside the dataset window 20160501..20160503"),
    ("rank-curves", ["--event-time", str(T0 + DAY), "--comparison-days", f"{T0},2016-04-30T23:59:59Z"], "",
     "--comparison-days: day 20160430 lies outside the dataset window 20160501..20160503"),
    ("rank-curves", ["--event-time", str(T0 + DAY)], "[rank_curves]\ncomparison_days = 2016-05-01,2016-05-04\n",
     "[rank_curves] comparison_days: day 20160504 lies outside the dataset window 20160501..20160503"),
    ("distance-matrix", [*EPICENTER, "--event-day", "2017-05-20"], "",
     "--event-day: day 20170520 lies outside the dataset window 20160501..20160503"),
    ("distance-matrix", [*EPICENTER, "--comparison-days", "2017-05-13"], "",
     "--comparison-days: day 20170513 lies outside the dataset window 20160501..20160503"),
    ("distance-matrix", [*EPICENTER, "--bins", "0,5,50"], "", "--bins: expected a first edge above 0, got '0,5,50'"),
    ("rank-curves", ["--event-time", str(T0 + DAY), "--comparison-days", ""], "[rank_curves]\ncomparison_days = 2016-05-01\n",
     "--comparison-days: Invalid isoformat string: ''"),
])
def test_bad_flag_values_exit_2_naming_the_flag_or_key(tmp_path, capsys, step, argv, ini, message):
    d = tmp_path / "in"
    data = _write_degenerate(d, "ring")
    (tmp_path / "run.ini").write_text(ini)
    inputs = [] if step == "synth" else data
    rc, err, problems = _sweep_run(step, [step, *inputs, *argv, "--config", str(tmp_path / "run.ini")],
                                   tmp_path / "out", capsys)
    assert (rc, problems) == (2, [])
    assert message in err
    assert not any((tmp_path / "out").iterdir())
