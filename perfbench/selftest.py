"""Self-tests of the benchmark at a tiny size; they take under a minute.

    python3 -m pytest -q perfbench/selftest.py

They run every workload's step chain (untraced and traced), check the
tracer's arithmetic, and show that the dirty-input check catches a missing
reject.  The file name keeps them out of the repository's own test run.
"""

from __future__ import annotations

import logging
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import dirty  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def one_pass(monkeypatch):
    monkeypatch.setattr(run, "MIN_PASSES", 1)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_chain_is_correct_and_reports_every_layer_metric(name, tmp_path, one_pass):
    result, lines = run.run(name, seed=3, seconds=0, trace=True, src=SRC,
                            work=tmp_path / "work", tiny=True)
    assert result["correct"], "\n".join(lines)
    assert result["failed"] == 0
    assert set(result["metrics"]) == set(run.per_layer_units())
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["cli.startup_s"] > 0 and m["cli.self_s"] > 0
    assert m["synthgen.generate_events_s"] > 0 and m["ingest.write_cdr_csv_s"] > 0
    assert 0 < m["ingest.accept_ratio"] <= 1
    if name == "session":
        assert m["anomaly.bin_series.calls"] == 60 + 1  # per tower, then global
        assert m["synthgen.inject_shock_s"] > 0
        assert m["features.extract_features.calls"] > 0
        assert m["ingest.parse_cdr_file.rejects"] > 0
        assert m["ingest.nonfinite_accepted"] > 0
    if name == "stats":
        assert m["adoption.replicates"] == 3 * 20
        assert m["spatial.idw_interpolate_s"] > 0
    assert not (tmp_path / "work").exists()


def test_untraced_run_reports_every_end_to_end_metric(tmp_path, one_pass):
    result, lines = run.run("stats", seed=4, seconds=0, trace=False, src=SRC,
                            work=tmp_path / "work", tiny=True)
    assert result["correct"], "\n".join(lines)
    assert result["attempted"] == run.SETUP_REPS + 3
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_a_failing_step_counts_as_failed(tmp_path, one_pass, monkeypatch):
    wl = workloads.build("stats", tiny=True)
    broken = workloads.Step("graph", ("graph", "--no-such-flag", *workloads.DATA))
    monkeypatch.setattr(workloads, "build",
                        lambda name, tiny: workloads.Workload(
                            wl.name, wl.why, wl.threads, wl.config, wl.make_inputs, (broken,)))
    result, _ = run.run("stats", seed=1, seconds=0, trace=False, src=SRC,
                        work=tmp_path / "work", tiny=True)
    assert not result["correct"]
    assert result["failed"] == 1


@pytest.fixture(scope="module")
def dirty_case(tmp_path_factory):
    """A small clean CDR file, its dirty copy, and what ingest made of it."""
    from cdrlab import ingest, synthgen

    d = tmp_path_factory.mktemp("dirty")
    cfg = synthgen.SynthConfig(seed=2, n_subscribers=80, n_towers=12, grid=(90.0, 22.0, 92.5, 26.0),
                               graph_model=synthgen.SmallWorld(6, 0.1), days=7, event_rate=6.0)
    graph, gt = synthgen.generate_population(cfg)
    ds = synthgen.generate_events(cfg, graph, gt)
    ingest.write_cdr_csv(ds.cdrs, d / "cdr.csv", header_comment="# clean")
    ingest.write_towers_csv(ds.towers, d / "towers.csv")
    expected = dirty.make_dirty(d / "cdr.csv", d / "dirty.csv", seed=9)
    logging.disable(logging.WARNING)  # one unknown-tower warning per line
    try:
        _, reports = ingest.load_dataset(str(d / "dirty.csv"), None, str(d / "towers.csv"))
    finally:
        logging.disable(logging.NOTSET)
    return expected, dict(reports["cdr"].rejects), reports["cdr"].total_rows


def test_dirty_copy_rejects_exactly_the_injected_lines(dirty_case):
    expected, rejects, rows = dirty_case
    reasons = set(expected.rejects.values())
    assert len(reasons) == len(dirty.BREAKERS)
    problems, accepted = dirty.check(expected, rejects, rows)
    assert problems == []
    assert accepted == len(expected.nonfinite)  # the parser accepts nan and inf today
    assert expected.offsets > 0


def test_dirty_check_fails_when_an_injected_reject_is_dropped(dirty_case):
    expected, rejects, rows = dirty_case
    line = min(expected.rejects)
    mutated = dirty.Expected(expected.rows, {k: v for k, v in expected.rejects.items()
                                             if k != line}, expected.nonfinite, expected.offsets)
    problems, _ = dirty.check(mutated, rejects, rows)
    assert problems and "untouched rows rejected" in problems[0]


def test_dirty_check_fails_when_a_reject_is_missing(dirty_case):
    expected, rejects, rows = dirty_case
    line = min(expected.rejects)
    problems, _ = dirty.check(expected, {k: v for k, v in rejects.items() if k != line}, rows)
    assert problems == [f"line {line}: expected reject {expected.rejects[line]!r}, got None"]


def test_self_time_subtracts_the_union_of_overlapping_children():
    span = {"start": 0.0, "end": 10.0}
    children = [{"start": 1.0, "end": 4.0}, {"start": 3.0, "end": 5.0},
                {"start": 9.0, "end": 12.0}]
    assert tracer.self_time(span, children) == pytest.approx(10.0 - 4.0 - 1.0)


def test_layer_metrics_derive_self_times_and_ratios():
    def span(sid, name, start, end, parent, counts=None):
        s = {"id": sid, "name": name, "start": start, "end": end, "parent": parent, "step": "x"}
        if counts:
            s["counts"] = counts
        return s

    trace = {"step": "x", "spawn": 0.0, "spans": [
        span(1, "ingest.parse_cdr_file", 1.5, 3.0, 0, {"rows": 100, "rejects": 4}),
        span(2, "ingest.load_dataset", 1.0, 4.0, 0),
        span(3, "adoption.clustering_kappa", 4.0, 5.0, 0, {"valid": 9, "excluded": 1}),
        span(0, "cli.main", 0.5, 6.0, None),
    ]}
    trace["spans"][0]["parent"] = 2
    m = tracer.layer_metrics([trace])
    assert m["cli.startup_s"] == pytest.approx(0.5)
    assert m["cli.self_s"] == pytest.approx(5.5 - 3.0 - 1.0)
    assert m["records.dataset_build_s"] == pytest.approx(3.0 - 1.5)
    assert m["ingest.accept_ratio"] == pytest.approx(0.96)
    assert m["adoption.replicates"] == 10
    assert m["adoption.clustering_valid_ratio"] == pytest.approx(0.9)
