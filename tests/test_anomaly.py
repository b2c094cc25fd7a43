import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdrlab import anomaly as an
from cdrlab.records import day_start

import anomaly_oracle
import curve_oracle
from geo_oracle import haversine_km
from conftest import (T0, DAY, CdrRecord, cdr_rows, data, flow_counts, flow_dicts, make_dataset, sms, topup, topup_rows,
                      voice)


def series(values, bin_width=3600, start=T0, entity=("global",)):
    """One series as a one-row matrix."""
    return an.TimeSeries(entities=[entity], bin_width=bin_width, start=start,
                         values=np.asarray(values, dtype=float).reshape(1, -1))


def former(report):
    """The report as the former per-series reports, one per entity, each flag an anomaly_oracle.AnomalyFlag of plain
    floats with z None where it is nan.  The flags must come row after row, each row's in bin order."""
    at = list(zip(report.row.tolist(), report.index.tolist()))
    assert at == sorted(set(at))
    reports = [anomaly_oracle.AnomalyReport(entity, []) for entity in report.entities]
    starts = report.starts.tolist()
    for (r, i), v, m, s, z in zip(at, report.value.tolist(), report.baseline_mean.tolist(),
                                  report.baseline_std.tolist(), report.z.tolist()):
        reports[r].flags.append(anomaly_oracle.AnomalyFlag(i, starts[i], v, m, s, None if math.isnan(z) else z,
                                                           "increase" if v > m else "decrease"))
    return reports


def single(report):
    """The flags of a one-series report, as a former report."""
    one, = former(report)
    return one


def flagged(report) -> set[int]:
    return {f.index for f in report.flags}


# -- binning -----------------------------------------------------------------------

def test_bin_series_counts_voice_only():
    cdrs = [
        voice("A", "B", "T1", T0 + 100),
        voice("B", "A", "T2", T0 + 200),
        sms("A", "B", "T1", T0 + 300),          # not a call
        data("A", "T1", T0 + 400),               # not a call
        voice("A", "B", "T1", T0 + 3700),        # second bin
    ]
    ds = make_dataset(cdrs, window=(T0, T0 + 2 * 3600))
    ts = an.bin_series(ds, [("global",), ("tower", "T1")], 3600)
    assert ts.values.tolist() == [[2.0, 1.0], [1.0, 1.0]]
    assert (ts.start, ts.bin_width) == (T0, 3600)
    assert ts.entities == [("global",), ("tower", "T1")]


def test_bin_series_district_and_recharges():
    cdrs = [voice("A", "B", "T1", T0 + 100), voice("A", "B", "T2", T0 + 200)]
    tops = [
        topup("A", T0 + 300, 50.0, retailer_tower="T1"),
        topup("B", T0 + 400, 20.0, retailer_tower="T2"),
        topup("C", T0 + 500, 70.0, retailer_tower=None),
    ]
    ds = make_dataset(cdrs, tops, window=(T0, T0 + 3600))
    area_map = {"T1": "D1", "T2": "D2"}
    assert an.bin_series(ds, [("district", "D1")], 3600, area_map=area_map).values.tolist() == [[1.0]]
    amt = an.bin_series(ds, [("district", "D1")], 3600, measure="recharge_amount", area_map=area_map)
    assert amt.values.tolist() == [[50.0]]
    # unlocated top-ups count globally but belong to no tower or district
    cnt = an.bin_series(ds, [("global",), ("tower", "T2")], 3600, measure="recharge_count")
    assert cnt.values.tolist() == [[3.0], [1.0]]


def test_bin_series_validation():
    ds = make_dataset([voice("A", "B", "T1", T0 + 100)], window=(T0, T0 + 5400))
    with pytest.raises(ValueError, match="measure"):
        an.bin_series(ds, [("global",)], 3600, measure="sms_count")
    with pytest.raises(ValueError, match="bin_width"):
        an.bin_series(ds, [("global",)], 0)
    with pytest.raises(ValueError, match="entity kind"):
        an.bin_series(ds, [("region", "x")], 3600)
    with pytest.raises(ValueError, match="area_map"):
        an.bin_series(ds, [("district", "D1")], 3600)
    with pytest.raises(ValueError, match="missing from area_map"):
        an.bin_series(ds, [("district", "D1")], 3600, area_map={"TX": "D1"})
    # ragged tail still gets its own bin
    assert an.bin_series(ds, [("global",)], 3600).values.shape == (1, 2)


def test_bin_series_rejects_unknown_entities():
    ds = make_dataset([voice("A", "B", "T1", T0 + 100)], window=(T0, T0 + 3600))
    with pytest.raises(ValueError, match="unknown tower 'NOPE'"):
        an.bin_series(ds, [("global",), ("tower", "NOPE")], 3600)
    with pytest.raises(ValueError, match="unknown district 'NOPE'"):
        an.bin_series(ds, [("district", "NOPE")], 3600, area_map={"T1": "D1"})


def per_entity_series(ds, entity, bin_width, measure, area_map):
    """The former bin_series: one scan over the events per entity."""
    start, end = ds.window
    values = np.zeros(max(1, math.ceil((end - start) / bin_width)), dtype=float)
    kind = entity[0]

    def matches(tower):
        if kind == "global":
            return True
        if tower is None:
            return False
        if kind == "tower":
            return tower == entity[1]
        if tower not in area_map:
            raise ValueError(f"tower {tower!r} missing from area_map")
        return area_map[tower] == entity[1]

    if measure == "call_count":
        for rec in cdr_rows(ds.cdrs):
            if rec.kind == "voice" and matches(rec.tower):
                values[(rec.timestamp - start) // bin_width] += 1
    else:
        for rec in topup_rows(ds.topups):
            if matches(rec.retailer_tower):
                values[(rec.timestamp - start) // bin_width] += rec.amount if measure == "recharge_amount" else 1
    return values


TOWERS = ("T1", "T2", "T3")
SPAN = 2 * DAY


@settings(max_examples=150, deadline=None)
@given(
    calls=st.lists(st.tuples(st.sampled_from(TOWERS), st.integers(0, SPAN - 1),
                             st.sampled_from(["voice", "voice", "sms"])), max_size=40),
    tops=st.lists(st.tuples(st.sampled_from(TOWERS + (None,)), st.integers(0, SPAN - 1),
                            st.floats(0.01, 1e6)), max_size=40),
    bin_width=st.one_of(st.sampled_from([600, 3600, 7 * 3600]), st.integers(1, SPAN + 10)),
    measure=st.sampled_from(["call_count", "recharge_amount", "recharge_count"]),
    areas=st.lists(st.sampled_from(["D1", "D2"]), min_size=3, max_size=3),
    mapped=st.booleans(),
)
def test_grouped_bin_series_matches_per_entity_loop(calls, tops, bin_width, measure, areas, mapped):
    cdrs = [voice("A", "B", t, T0 + off) if kind == "voice" else sms("A", "B", t, T0 + off)
            for t, off, kind in calls]
    ds = make_dataset(cdrs, [topup("A", T0 + off, amt, retailer_tower=t) for t, off, amt in tops],
                      towers={t: (90.0, 23.0) for t in TOWERS}, window=(T0, T0 + SPAN))
    # unmapped: T3 is missing from the area map, which district series reject
    area_map = dict(zip(TOWERS if mapped else TOWERS[:2], areas))
    entities = [("global",)] + [("tower", t) for t in TOWERS]
    districts = [("district", a) for a in sorted(set(area_map.values()))]
    try:
        expected = [per_entity_series(ds, e, bin_width, measure, area_map) for e in entities + districts]
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            an.bin_series(ds, entities + districts, bin_width, measure, area_map)
        expected = [per_entity_series(ds, e, bin_width, measure, area_map) for e in entities]
        districts = []
    got = an.bin_series(ds, entities + districts, bin_width, measure, area_map)
    assert got.entities == entities + districts
    assert [row.tobytes() for row in got.values] == [v.tobytes() for v in expected]


# -- sigma rule ----------------------------------------------------------------------

def test_detect_anomalies_global_mean_hand_computed():
    ts = series([10.0] * 20 + [100.0])
    report = single(an.detect_anomalies(ts, baseline="global_mean", threshold_sigma=3.0))
    assert flagged(report) == {20}
    flag = report.flags[0]
    assert flag.direction == "increase" and flag.z is not None
    assert flag.baseline_mean == pytest.approx(100 / 7)
    assert flag.baseline_std == pytest.approx(math.sqrt(18900) / 7)
    assert flag.z == pytest.approx(600 / math.sqrt(18900), abs=1e-12)
    # the same spike hides from a looser threshold
    assert single(an.detect_anomalies(ts, baseline="global_mean", threshold_sigma=5.0)).flags == []


def test_detect_anomalies_decrease_direction():
    ts = series([50.0] * 20 + [0.0])
    report = single(an.detect_anomalies(ts, baseline="global_mean", threshold_sigma=3.0))
    assert [f.direction for f in report.flags] == ["decrease"]


def test_detect_anomalies_hour_of_day_isolates_cells():
    # 12 days of hourly bins; hour 5 carries a spike on the last day
    values = np.tile(np.arange(24, dtype=float) + 10.0, 12)
    values[11 * 24 + 5] = 500.0
    ts = series(values)
    report = single(an.detect_anomalies(ts, baseline="hour_of_day", threshold_sigma=3.0))
    # every other cell is constant across days, hence degenerate but quiet
    assert flagged(report) == {11 * 24 + 5}


def test_detect_anomalies_inclusive_baseline_absorbs_small_cells():
    # the tested bin is part of its own baseline cell, so a bump in a
    # three-sample cell cannot clear 3 sigma and de-degenerates its cell
    values = [7.0] * 24 * 3
    values[30] = 7.5
    report = single(an.detect_anomalies(series(values), baseline="hour_of_day"))
    assert report.flags == []


def test_detect_anomalies_weekday_hour_constant_series():
    values = [3.0] * 24 * 14  # two full weeks, hourly
    report = single(an.detect_anomalies(series(values), baseline="weekday_hour"))
    assert report.flags == []


def test_detect_anomalies_requires_two_samples_per_cell():
    with pytest.raises(ValueError, match="need at least 2"):
        an.detect_anomalies(series([1.0] * 24), baseline="hour_of_day")
    with pytest.raises(ValueError, match="baseline"):
        an.detect_anomalies(series([1.0] * 48), baseline="median")


def test_detect_anomalies_affine_invariance():
    rng = np.random.default_rng(0)
    base = rng.integers(0, 100, size=24 * 12).astype(float)
    base[100] = 10_000.0
    ts = series(base)
    ref = single(an.detect_anomalies(ts, baseline="hour_of_day"))
    # powers of two scale exactly; z-scores and flag sets must not move
    for a, b in [(2.0, 0.0), (0.5, 100.0), (4.0, -7.0)]:
        scaled = series(base * a + b)
        rep = single(an.detect_anomalies(scaled, baseline="hour_of_day"))
        assert flagged(rep) == flagged(ref)
        for f, g in zip(rep.flags, ref.flags):
            assert f.z == g.z and f.direction == g.direction


def report_bits(report):
    """A report's entity and flags, each float field as its exact hex."""
    def bits(x):
        return None if x is None else float.hex(x)

    return report.entity, [(f.index, f.start, type(f.start), bits(f.value), bits(f.baseline_mean),
                            bits(f.baseline_std), bits(f.z), f.direction) for f in report.flags]


def outcome(fn, *args):
    """("ok", result) or ("error", message) of fn(*args)."""
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return "error", str(exc)


VALUE = st.one_of(st.integers(0, 12).map(float), st.floats(-1e9, 1e9))


def value_rows(n_bins):
    """One to five rows of n_bins values; a row may be one value throughout, whose every cell is degenerate."""
    row = st.one_of(st.lists(VALUE, min_size=n_bins, max_size=n_bins), VALUE.map(lambda v: [v] * n_bins))
    return st.lists(row, min_size=1, max_size=5)


# Every row of a matrix flagged at once, each bin's baseline cell from one
# array expression, against the former detector, one series at a time with
# per-bin cell keys: starts on both sides of the epoch's weekday boundaries,
# bin widths that do and do not divide an hour or a day, and series too short
# for some cells, which must fail with the same message.
@settings(max_examples=200, deadline=None)
@given(rows=st.integers(1, 400).flatmap(value_rows),
       start=st.integers(T0 - 9 * DAY, T0 + 9 * DAY),
       bin_width=st.one_of(st.sampled_from([600, 3600, 4 * 3600, 5400, DAY]), st.integers(1, 2 * DAY)),
       baseline=st.sampled_from(an.BASELINES), threshold=st.floats(0.5, 4.0))
def test_detect_anomalies_matches_the_former_per_bin_cells(rows, start, bin_width, baseline, threshold):
    entities = [("tower", f"T{i}") for i in range(len(rows))]
    ts = an.TimeSeries(entities, bin_width, start, np.array(rows, dtype=float))
    want = [outcome(anomaly_oracle.detect_anomalies, anomaly_oracle.TimeSeries(e, bin_width, start, ts.values[i]),
                    baseline, threshold) for i, e in enumerate(entities)]
    got = outcome(an.detect_anomalies, ts, baseline, threshold)
    if want[0][0] == "error":
        assert got == want[0]
    else:
        assert got[0] == "ok" and [report_bits(r) for r in former(got[1])] == [report_bits(r) for _, r in want]


# -- flows -------------------------------------------------------------------------

AREA_TOWERS = {
    "T1": (90.0, 23.0),
    "T2": (91.0, 23.0),   # ~102 km east of T1
    "T3": (90.02, 23.0),  # ~2 km east of T1
}
AREA_MAP = {"T1": "west", "T2": "east", "T3": "near"}


def test_area_centroids():
    cents = an.area_centroids(AREA_TOWERS, {"T1": "w", "T3": "w", "T2": "e"})
    assert cents["w"] == pytest.approx((90.01, 23.0))
    assert cents["e"] == (91.0, 23.0)
    assert an.area_centroids({}, {"T9": "x"}) == {}


def test_build_flow_network_first_last():
    cdrs = [
        voice("A", "B", "T1", T0 + 8 * 3600),
        voice("A", "B", "T2", T0 + 18 * 3600),
        voice("B", "A", "T2", T0 + 9 * 3600),   # stays east all day
        voice("B", "A", "T2", T0 + 19 * 3600),
        voice("C", "A", "T1", T0 + 9 * 3600),
        voice("C", "A", "T2", T0 + 12 * 3600),
        voice("C", "A", "T1", T0 + 20 * 3600),  # round trip: first == last
    ]
    ds = make_dataset(cdrs, towers=AREA_TOWERS, window=(T0 + 5, T0 + DAY))
    assert flow_dicts(an.build_flow_network(ds, AREA_MAP, min_count=1)) == [(T0, {("west", "east"): 1})]

    per = an.build_flow_network(ds, AREA_MAP, min_count=1, mode="per_transition")
    assert flow_dicts(per) == [(T0, {("west", "east"): 2, ("east", "west"): 1})]


def test_build_flow_network_filters():
    cdrs = [
        voice("A", "B", "T1", T0 + 8 * 3600),
        voice("A", "B", "T3", T0 + 18 * 3600),  # west -> near: ~2 km apart
    ]
    ds = make_dataset(cdrs, towers=AREA_TOWERS, window=(T0, T0 + DAY))
    assert flow_dicts(an.build_flow_network(ds, AREA_MAP, min_count=1)) == [(T0, {})]
    keep = an.build_flow_network(ds, AREA_MAP, min_count=1, min_distance_km=0.0)
    assert flow_dicts(keep) == [(T0, {("west", "near"): 1})]
    assert flow_dicts(an.build_flow_network(ds, AREA_MAP, min_count=2, min_distance_km=0.0)) == [(T0, {})]
    with pytest.raises(ValueError, match="unknown mode"):
        an.build_flow_network(ds, AREA_MAP, mode="hourly")
    with pytest.raises(ValueError, match="missing from area_map"):
        an.build_flow_network(ds, {"T1": "west"})


# The array forms of area_centroids and of build_flow_network (one pass over
# the window, one distance filter) against the former loops, one call per day.
# Six dataset towers 9 to 46 km apart fall into areas of one to six towers; the
# map also names two towers the dataset does not hold, T8 and T9, whose area
# "ghost", when only they are in it, has no centroid.  The map's order is the
# order the centroid sums run in.  Three callers make the trips, and no filter
# is the likeliest draw, so that most windows have flows.  Each window starts up
# to a day before 2016-05-31 and runs for one to three days, so it can cross the
# month end and start and end inside a day.

MONTH_END = T0 + 30 * DAY  # 2016-05-31
GRID = {f"T{i}": (90.0 + 0.09 * i, 23.0 + 0.04 * (i % 3)) for i in range(6)}
TRIP = st.tuples(st.sampled_from("ABCDEF"), st.sampled_from("ABCDEF"), st.sampled_from(sorted(GRID)),
                 st.integers(0, 2 * DAY - 1))
FLOW_TRIP = st.tuples(st.sampled_from("ABC"), st.sampled_from("ABC"), st.sampled_from(sorted(GRID)),
                      st.integers(0, 3 * DAY - 1))


def grid_area_map(order, grid_areas, unknown_areas):
    """order's towers, each in its area: GRID's from grid_areas, T8's and T9's from unknown_areas."""
    areas = {**dict(zip(GRID, grid_areas)), "T8": unknown_areas[0], "T9": unknown_areas[1]}
    return {tid: areas[tid] for tid in order}


GRID_AREA_MAPS = st.builds(grid_area_map, st.permutations([*GRID, "T8", "T9"]),
                     st.lists(st.sampled_from("nsew"), min_size=6, max_size=6),
                     st.lists(st.sampled_from(["n", "ghost"]), min_size=2, max_size=2))
SEVERAL = grid_area_map(["T9", "T0", "T3", "T1", "T8", "T2", "T4", "T5"], "wwweee", ["ghost", "w"])
SEVERAL_TRIPS = [("A", "B", "T0", 3600), ("A", "B", "T4", 7200), ("C", "A", "T5", 3600), ("C", "A", "T1", 9000)]
# The w-e centroid distance, and the next float up: as min_km, one keeps both
# flows and the other drops both, so a distance one bit off changes the flows.
W_E_KM = haversine_km(*anomaly_oracle.area_centroids(GRID, SEVERAL)["w"], *anomaly_oracle.area_centroids(GRID, SEVERAL)["e"])


@settings(max_examples=150, deadline=None)
@given(trips=st.lists(FLOW_TRIP, min_size=10, max_size=80), lead=st.integers(0, DAY - 1),
       span=st.integers(DAY, 3 * DAY), amap=GRID_AREA_MAPS, min_count=st.sampled_from([1, 1, 2, 3]),
       min_km=st.one_of(st.sampled_from([0.0, 0.0, 9.0, 10.0, 30.0]), st.floats(0.0, 60.0)),
       mode=st.sampled_from(["first_last", "per_transition"]))
@example(trips=SEVERAL_TRIPS, lead=0, span=2 * DAY, amap=SEVERAL, min_count=1, min_km=W_E_KM, mode="first_last")
@example(trips=SEVERAL_TRIPS, lead=0, span=2 * DAY, amap=SEVERAL, min_count=1,
         min_km=math.nextafter(W_E_KM, math.inf), mode="first_last")
def test_flows_match_the_former_per_pair_loop(trips, lead, span, amap, min_count, min_km, mode):
    start = MONTH_END - lead
    ds = make_dataset([voice(a, b, t, start + off % span) for a, b, t, off in trips], towers=GRID,
                      window=(start, start + span))
    got = list(an.area_centroids(GRID, amap).items())
    assert got == list(anomaly_oracle.area_centroids(GRID, amap).items())
    days = range(day_start(start), start + span, DAY)
    got = [(day, list(od.items())) for day, od in flow_dicts(an.build_flow_network(ds, amap, min_count, min_km, mode))]
    want = [anomaly_oracle.build_flow_network(ds, day, amap, min_count, min_km, mode) for day in days]
    assert got == [(day, list(od.items())) for day, od in want]


@pytest.mark.parametrize("mode", an.FLOW_MODES)
def test_flows_group_callers_past_16_bit_codes(mode):
    # 70,000 subscribers, each calling the next once from T0; S00001 and S65537,
    # whose codes are equal in 16 bits, move in opposite directions with their
    # rows interleaved, and S69999 moves on the second day.
    n = 70_000
    ids = [f"S{i:05d}" for i in range(n)]
    cdrs = [voice(ids[i], ids[(i + 1) % n], "T0", MONTH_END + i % 3600) for i in range(n)]
    cdrs += [voice("S00001", "S00002", "T0", MONTH_END + 4000), voice("S65537", "S00002", "T4", MONTH_END + 4001),
             voice("S00001", "S00002", "T4", MONTH_END + 4002), voice("S65537", "S00002", "T5", MONTH_END + 4003),
             voice("S00001", "S00002", "T2", MONTH_END + 4004),
             voice("S69999", "S00002", "T5", MONTH_END + DAY + 10), voice("S69999", "S00002", "T1", MONTH_END + DAY + 20)]
    ds = make_dataset(cdrs, towers=GRID, window=(MONTH_END, MONTH_END + 2 * DAY))
    assert len(ds.cdrs.subscriber_ids) == n
    amap = {t: t for t in GRID}
    got = [(day, list(od.items())) for day, od in flow_dicts(an.build_flow_network(ds, amap, 1, 0.0, mode))]
    want = [anomaly_oracle.build_flow_network(ds, day, amap, 1, 0.0, mode) for day in (MONTH_END, MONTH_END + DAY)]
    assert got == [(day, list(od.items())) for day, od in want]
    assert [len(od) for _, od in want] == [2 if mode == "first_last" else 3, 1]


def test_flow_symmetry():
    fn1 = (T0, {("a", "b"): 10, ("b", "a"): 10, ("a", "c"): 30, ("c", "a"): 28})
    fn2 = (T0 + DAY, {("a", "b"): 12, ("b", "a"): 12, ("a", "c"): 30, ("c", "a"): 32})
    r = an.flow_symmetry(flow_counts([fn1, fn2]))
    x = np.array([11.0, 30.0])
    y = np.array([11.0, 30.0])
    assert r == pytest.approx(np.corrcoef(x, y)[0, 1])
    with pytest.raises(ValueError, match="at least two pairs"):
        an.flow_symmetry(flow_counts([(T0, {("a", "b"): 5})]))
    with pytest.raises(ValueError, match="no flow networks"):
        an.flow_symmetry(flow_counts([]))
    flat = flow_counts([(T0, {("a", "b"): 5, ("c", "d"): 5})])
    with pytest.raises(ValueError, match="degenerate"):
        an.flow_symmetry(flat)


def flows_from(series_by_pair, n_days):
    return flow_counts([(T0 + i * DAY, {pair: vals[i] for pair, vals in series_by_pair.items()})
                        for i in range(n_days)])


def test_detect_flow_anomalies_pooled_sigma_hand_computed():
    # 15 consecutive days starting on a Sunday; every weekday cell holds the
    # value pair (8, 12) inside the 14 baseline days, so each contributes
    # residual 2 twice: pooled sigma = sqrt(56 / (14 - 7)) = sqrt(8)
    vals = [8, 12] * 7 + [50]
    flows = flows_from({("a", "b"): vals, ("a", "c"): [8] * 14 + [0]}, 15)
    rep, = former(an.detect_flow_anomalies(flows, threshold_sigma=3.0, baseline_days=14))
    assert rep.entity == ("pair", "a", "b")  # the other pair has a zero-flow day
    assert flagged(rep) == {14}
    f = rep.flags[0]
    assert f.baseline_mean == pytest.approx(10.0)  # weekday-6 mean of days 0 and 7
    assert f.baseline_std == pytest.approx(math.sqrt(8.0))
    assert f.z == pytest.approx(40 / math.sqrt(8.0))
    assert f.direction == "increase"


def test_detect_flow_anomalies_degenerate_baseline():
    vals = [10] * 14 + [50]
    flows = flows_from({("a", "b"): vals, ("b", "a"): vals}, 15)
    reports = former(an.detect_flow_anomalies(flows, baseline_days=14))
    rep = reports[0]
    assert rep.entity == ("pair", "a", "b")
    assert flagged(rep) == {14} and rep.flags[0].z is None


def test_detect_flow_anomalies_validation():
    flows = flows_from({("a", "b"): [10] * 8}, 8)
    # 8 consecutive days leave most weekdays with a single baseline sample
    with pytest.raises(ValueError, match="need at least 2"):
        an.detect_flow_anomalies(flows)
    with pytest.raises(ValueError, match="baseline_days must be >= 0, got -3"):
        an.detect_flow_anomalies(flows, baseline_days=-3)
    with pytest.raises(ValueError, match="no flow networks"):
        an.detect_flow_anomalies(flow_counts([]))


# Daily flows among four areas against the former per-day dicts: each directed
# pair's count on a day is near 10, or anywhere from 0 (no flow) to 60, so that
# most pairs have flow every day and some of those flag.  Windows of 1 to 30
# days start on any weekday and can cross the month end; windows under 14 days
# and short baselines leave a weekday with one baseline day, which must fail
# with the same message.  The baseline is 0 (all days) or the first 1 to 33 days.
FLOW_PAIRS = [(a, b) for a in "nsew" for b in "nsew" if a != b]
FLOW_COUNTS = st.lists(st.one_of(st.integers(9, 11), st.integers(0, 60)), min_size=30, max_size=30)


@settings(max_examples=200, deadline=None)
@given(series=st.lists(FLOW_COUNTS, min_size=len(FLOW_PAIRS), max_size=len(FLOW_PAIRS)),
       n_days=st.one_of(st.integers(1, 13), st.integers(14, 30)), first=st.integers(20, 30),
       baseline_days=st.one_of(st.just(0), st.integers(1, 33)),
       threshold=st.one_of(st.sampled_from([1.0, 2.0, 3.0]), st.floats(0.1, 5.0)))
def test_flow_reports_match_the_former_per_day_dicts(series, n_days, first, baseline_days, threshold):
    nets = [(T0 + (first + i) * DAY, {pair: c[i] for pair, c in zip(FLOW_PAIRS, series) if c[i] > 0})
            for i in range(n_days)]
    flows = flow_counts(nets)
    kind, want = outcome(anomaly_oracle.flow_symmetry, nets)
    got = outcome(an.flow_symmetry, flows)
    if kind == "error":
        assert got == (kind, want)
    else:
        assert got[0] == "ok" and float.hex(got[1]) == float.hex(want)
    base = {day for day, _ in nets[:baseline_days]} if baseline_days else None
    kind, want = outcome(anomaly_oracle.detect_flow_anomalies, nets, threshold, base)
    got = outcome(an.detect_flow_anomalies, flows, threshold, baseline_days)
    if kind == "error":
        assert got == (kind, want)
    else:
        assert got[0] == "ok" and [r.entity for r in former(got[1])] == [("pair",) + p for p in want]
        assert [report_bits(r) for r in former(got[1])] == [report_bits(r) for r in want.values()]


# -- rank curves ----------------------------------------------------------------------

def ranked_by_caller(ds, window, max_rank):
    """Caller code -> its contact codes in rank order, from the grouped pass."""
    keys, ranks = an._top_contacts(ds, window, max_rank)
    assert keys.dtype == ranks.dtype == np.int64 and np.all(keys[1:] > keys[:-1])
    callers, contacts = np.divmod(keys, max(len(ds.cdrs.subscriber_ids), 1))
    out = {}
    for code in np.unique(callers).tolist():
        mine = callers == code
        order = np.argsort(ranks[mine])
        assert ranks[mine][order].tolist() == list(range(1, np.count_nonzero(mine) + 1))
        out[code] = contacts[mine][order].tolist()
    return out


def test_rank_contacts_ordering_and_ties():
    cdrs = (
        [voice("A", "B", "T1", T0 + i * 60) for i in range(3)]
        + [voice("A", "C", "T1", T0 + 1000 + i * 60) for i in range(3)]
        + [voice("A", "D", "T1", T0 + 2000)]
        + [voice("C", "A", "T1", T0 + 3000), voice("C", "A", "T1", T0 + 3100)]
        + [sms("A", "E", "T1", T0 + 4000)]  # texts alone never rank
    )
    ds = make_dataset(cdrs, window=(T0, T0 + DAY))
    ids = ds.cdrs.subscriber_ids
    ranked = {ids[code]: [ids[i] for i in top] for code, top in ranked_by_caller(ds, (T0, T0 + DAY), 5).items()}
    assert ranked["A"] == ["C", "B", "D"]  # C wins the 3-3 tie on two-way volume
    assert "E" not in ranked
    assert ranked_by_caller(ds, (T0, T0 + DAY), 2)[ids.index("A")] == [ids.index("C"), ids.index("B")]


EVENT = st.tuples(st.sampled_from("ABCD"), st.sampled_from(["A", "B", "C", "D", "E", None]),
                  st.integers(0, 2 * DAY - 1), st.sampled_from(["voice", "voice", "sms", "data"]))


@settings(max_examples=200, deadline=None)
@given(events=st.lists(EVENT, max_size=60), lo=st.integers(0, 2 * DAY), width=st.integers(0, 2 * DAY),
       max_rank=st.integers(1, 6))
@example(events=[], lo=0, width=DAY, max_rank=1)  # no rows at all
@example(events=[("A", "B", 10, "sms"), ("B", None, 20, "data")], lo=0, width=DAY, max_rank=3)  # no voice row
@example(events=[("A", "B", 10, "voice"), ("A", "B", 20, "voice"), ("A", "A", 30, "voice"), ("A", "A", 40, "voice"),
                 ("B", "A", 50, "sms")], lo=0, width=DAY, max_rank=2)  # a self-call ties on calls and two-way
@example(events=[("A", "B", 10, "voice")], lo=DAY, width=0, max_rank=5)  # an empty window
def test_rank_contacts_match_the_all_subscriber_count(events, lo, width, max_rank):
    # Self-calls, texts, data rows and callee-only E all reach the counts.
    ds = make_dataset([CdrRecord(a, None if kind == "data" else b, "T1", T0 + off, kind, 30.0)
                       for a, b, off, kind in events], window=(T0, T0 + 2 * DAY))
    window = (T0 + lo, T0 + lo + width)
    got = ranked_by_caller(ds, window, max_rank)
    for code in range(len(ds.cdrs.subscriber_ids)):
        want = anomaly_oracle.ranked_contacts(ds, code, window)
        assert want.dtype == np.int64
        assert got.get(code, []) == want[:max_rank].tolist()


def test_rank_activation_curves_quantitative():
    rank_day = [
        voice("A", "B", "T1", T0 + 100), voice("A", "B", "T1", T0 + 200),
        voice("A", "X", "T1", T0 + 300),
        voice("C", "D", "T1", T0 + 400), voice("C", "D", "T1", T0 + 500),
        voice("C", "Y", "T1", T0 + 600),
    ]
    # the comparison day follows the event day, so the ranks come from the rank day alone
    event_day = [
        voice("A", "B", "T1", T0 + DAY + 10 * 3600),
        voice("C", "D", "T1", T0 + DAY + 10 * 3600),
    ]
    comparison_day = [
        voice("A", "B", "T1", T0 + 2 * DAY + 10 * 3600),
        voice("C", "Y", "T1", T0 + 2 * DAY + 10 * 3600),
    ]
    ds = make_dataset(rank_day + event_day + comparison_day, window=(T0, T0 + 3 * DAY))
    curves = an.rank_activation_curves(
        ds,
        event_time=T0 + DAY + 11 * 3600,
        max_rank=2,
        bin_width=3600,
        comparison_days=[T0 + 2 * DAY],
    )
    assert curves.event_day == T0 + DAY
    assert curves.ratio.shape == (2, 24) and 10 * curves.bin_width == 36000
    assert curves.event_fraction[0, 10] == pytest.approx(1.0)   # A and C both (rank 1)
    assert curves.comparison_mean[0, 10] == pytest.approx(0.5)  # only A
    assert curves.ratio[0, 10] == pytest.approx(2.0)
    assert curves.ratio[1, 10] == pytest.approx(0.0)  # C ignored their #2
    assert math.isnan(curves.ratio[0, 0])  # nobody calls at midnight either day


def test_rank_activation_curves_flat_traffic_gives_unit_ratio():
    cdrs = [voice("A", "B", "T1", T0 + d * DAY + 12 * 3600) for d in range(3)]
    ds = make_dataset(cdrs, window=(T0, T0 + 3 * DAY))
    curves = an.rank_activation_curves(
        ds, event_time=T0 + 2 * DAY, max_rank=1, bin_width=3600,
        comparison_days=[T0, T0 + DAY],
    )
    assert curves.ratio[0, 12] == pytest.approx(1.0)
    assert all(math.isnan(r) for i, r in enumerate(curves.ratio[0].tolist()) if i != 12)


def test_rank_activation_curves_validation():
    ds = make_dataset([voice("A", "B", "T1", T0 + 100)], window=(T0, T0 + DAY))
    with pytest.raises(ValueError, match="comparison day"):
        an.rank_activation_curves(ds, event_time=T0)
    with pytest.raises(ValueError, match="empty rank window"):
        an.rank_activation_curves(ds, event_time=T0, comparison_days=[T0])


def test_rank_activation_curves_bins_must_tile_a_day():
    # A calls its rank-1 contact B in the last 3 s of the event day; bins
    # of 7 s once dropped that call past the last whole bin as "rank 2"
    cdrs = [voice("A", "B", "T1", T0 + 100), voice("A", "B", "T1", T0 + DAY + 100),
            voice("A", "B", "T1", T0 + 3 * DAY - 3)]
    ds = make_dataset(cdrs, window=(T0, T0 + 3 * DAY))
    for width in (0, -300, 7, 100_000):
        with pytest.raises(ValueError, match=f"bin_width must be a positive divisor of 86400 seconds, got {width}$"):
            an.rank_activation_curves(ds, T0 + 2 * DAY, bin_width=width, comparison_days=[T0 + DAY])
    with pytest.raises(ValueError, match="at least one rank"):
        an.rank_activation_curves(ds, T0 + 2 * DAY, max_rank=0, comparison_days=[T0 + DAY])
    curves = an.rank_activation_curves(ds, T0 + 2 * DAY, max_rank=1, bin_width=8, comparison_days=[T0 + DAY])
    assert curves.event_fraction[0, -1] == 1.0 and sum(curves.event_fraction[0].tolist()) == 1.0


RANK_EVENT = st.tuples(st.sampled_from("ABCDEFG"), st.sampled_from(["A", "B", "C", "D", "E", "F", "G", "H", None]),
                       st.integers(0, 8 * DAY - 1), st.sampled_from(["voice", "voice", "voice", "sms", "data"]))


def two_ranks_daily():
    """A ranks B first and C second and calls both every day, while 0-4 others text, so each day's
    fractions are 1/1..1/5: twelve days of them sum to other bits pairwise than in day order."""
    events = [("A", "B", 100, "voice"), ("A", "B", 200, "voice"), ("A", "C", 300, "voice")]
    for d in range(7):
        events += [("A", "B", d * DAY + 1000, "voice"), ("A", "C", d * DAY + 2000, "voice")]
        events += [(x, "H", d * DAY + 3000, "sms") for x in "DEFG"[:d % 5]]
    return events


@settings(max_examples=150, deadline=None)
@given(events=st.lists(RANK_EVENT, min_size=20, max_size=150), event_day=st.integers(1, 7),
       comparison=st.lists(st.integers(0, 7), min_size=1, max_size=12),
       bin_width=st.sampled_from([600, 3600, 7200, 21600, DAY]), max_rank=st.integers(1, 6))
@example(events=two_ranks_daily(), event_day=7, comparison=[5, 4, 3, 2, 5, 2, 2, 6, 1, 1, 4, 4], bin_width=DAY,
         max_rank=2)  # one bin: the former mean summed its days pairwise
def test_rank_curves_match_the_former_rank_lists(tmp_path_factory, events, event_day, comparison, bin_width,
                                                  max_rank):
    # Up to twelve comparison days: numpy sums eight or more values pairwise along a contiguous axis.
    ds = make_dataset([CdrRecord(a, None if kind == "data" else b, "T1", T0 + off, kind, 30.0)
                       for a, b, off, kind in events], window=(T0, T0 + 8 * DAY))
    event_time, days = T0 + event_day * DAY + 3600, [T0 + d * DAY + 60 for d in comparison]
    got = an.rank_activation_curves(ds, event_time, max_rank=max_rank, bin_width=bin_width, comparison_days=days)
    want = curve_oracle.rank_activation_curves(ds, event_time, ranks=tuple(range(1, max_rank + 1)),
                                               bin_width=bin_width, comparison_days=days)
    assert (got.event_day, got.bin_width) == (want.event_day, want.bin_width)
    assert got.ratio.shape == got.event_fraction.shape == got.comparison_mean.shape == (max_rank, DAY // bin_width)
    assert [i * got.bin_width for i in range(got.ratio.shape[1])] == want.offsets
    for k in range(1, max_rank + 1):
        assert got.event_fraction[k - 1].tolist() == want.event_fraction[k]
        assert got.comparison_mean[k - 1].tolist() == want.comparison_mean[k]
        assert [None if math.isnan(r) else r for r in got.ratio[k - 1].tolist()] == want.ratio[k]
    out = tmp_path_factory.mktemp("rank")
    an.write_rank_curves_csv(got, str(out / "got.csv"), "# h")
    curve_oracle.write_rank_curves_csv(want, str(out / "want.csv"), "# h")
    assert (out / "got.csv").read_bytes() == (out / "want.csv").read_bytes()


# -- distance matrix --------------------------------------------------------------------

def test_distance_activation_matrix():
    towers = {"T1": (90.0, 23.0), "T2": (91.0, 23.0)}
    hour = 10 * 3600
    cdrs = [
        # homes: A and B call from T1 only; C's one outgoing event is a night data session at T2;
        # D makes no call, so it has no home
        data("C", "T2", T0 + 3 * 3600),
        # comparison day: one near-near tie
        voice("A", "B", "T1", T0 + hour + 60),
        # event day: the same tie (three times) plus a near-far tie
        voice("A", "B", "T1", T0 + DAY + hour + 60),
        voice("A", "B", "T1", T0 + DAY + hour + 120),
        voice("A", "B", "T1", T0 + DAY + hour + 180),
        voice("A", "C", "T1", T0 + DAY + hour + 240),
        voice("A", "D", "T1", T0 + DAY + hour + 300),  # a tie to no home: not counted
        # outside the hour window: ignored
        voice("B", "C", "T1", T0 + DAY + 20 * 3600),
    ]
    ds = make_dataset(cdrs, towers=towers, window=(T0, T0 + 2 * DAY))
    ratio, counts = an.distance_activation_matrix(
        ds, epicenter=(90.0, 23.0), event_day=T0 + DAY,
        hour_window=(hour, hour + 3600), distance_bins=[50.0],
        comparison_days=[T0],
    )
    assert ds.home_towers().tolist() == [0, 0, 1, -1]  # tower codes of A, B, C, D
    assert counts.shape == (2, 2)
    assert counts[0, 0] == 1.0  # repeated calls collapse to one tie
    assert counts[0, 1] == 1.0
    assert ratio[0, 0] == pytest.approx(1.0)
    assert np.isnan(ratio[0, 1])  # no comparison ties near->far
    with pytest.raises(ValueError, match="ascending"):
        an.distance_activation_matrix(ds, (90, 23), T0, (0, 3600), [50.0, 10.0], [T0])
    for bins in ([0.0, 5.0], [-1.0]):  # no distance lies below 0, so bin 0 would stay empty
        with pytest.raises(ValueError, match="above 0"):
            an.distance_activation_matrix(ds, (90, 23), T0, (0, 3600), bins, [T0])
    with pytest.raises(ValueError, match="comparison day"):
        an.distance_activation_matrix(ds, (90, 23), T0, (0, 3600), [50.0], [])


# The array form of the per-tower distance bins against the former loop.  The
# epicenter sits on a tower, between towers or anywhere near them.  The
# examples' edges are exact tower distances from T0, or the next floats up, so
# a distance one bit off falls in another bin.

ON_EDGE = sorted(haversine_km(lon, lat, 90.0, 23.0) for lon, lat in GRID.values())[1:4]
ALL_DAY = [(c, "A", f"T{i}", DAY + 3600 * i) for i, c in enumerate("ABCDEF")] + [("C", "A", "T2", 60)]  # homes T0..T5


@settings(max_examples=150, deadline=None)
@given(trips=st.lists(TRIP, max_size=40),
       epicenter=st.one_of(st.sampled_from(list(GRID.values())),
                           st.tuples(st.floats(89.5, 91.0), st.floats(22.5, 23.5))),
       bins=st.lists(st.floats(0.01, 80.0), min_size=1, max_size=4, unique=True).map(sorted),
       hours=st.sampled_from([(0, 24), (8, 12), (0, 1)]))
@example(trips=ALL_DAY, epicenter=(90.0, 23.0), bins=ON_EDGE, hours=(0, 24))
@example(trips=ALL_DAY, epicenter=(90.0, 23.0), bins=[math.nextafter(d, math.inf) for d in ON_EDGE], hours=(0, 24))
def test_distance_matrix_matches_the_former_per_tower_loop(trips, epicenter, bins, hours):
    ds = make_dataset([voice(a, b, t, T0 + off) for a, b, t, off in trips], towers=GRID, window=(T0, T0 + 2 * DAY))
    window = (hours[0] * 3600, hours[1] * 3600)
    got = an.distance_activation_matrix(ds, epicenter, T0 + DAY, window, bins, [T0])
    want = anomaly_oracle.distance_activation_matrix(ds, epicenter, T0 + DAY, window, bins, [T0])
    assert [m.tobytes() for m in got] == [m.tobytes() for m in want]


# -- writers ------------------------------------------------------------------------

def test_writers(tmp_path):
    ts = series([10.0] * 20 + [100.0])
    report = an.detect_anomalies(ts, baseline="global_mean")
    p1 = tmp_path / "anoms.csv"
    an.write_anomalies_csv(report, str(p1), header_comment="# a")
    lines = p1.read_text().splitlines()
    assert lines[0] == "# a"
    assert lines[1].startswith("entity,bin_start")
    assert lines[2].startswith(f"global,{T0 + 20 * 3600},100.0,")

    p2 = tmp_path / "flows.csv"
    flows = flow_counts([(T0, {("w", "n"): 1}), (T0 + DAY, {("w", "e"): 3, ("e", "w"): 2}), (T0 + 2 * DAY, {})])
    an.write_flows_csv(flows, 1, str(p2))
    assert p2.read_text().splitlines()[1:] == ["e,w,2", "w,e,3"]
    an.write_flows_csv(flows, 2, str(p2))
    assert p2.read_text().splitlines()[1:] == []


def test_anomaly_does_not_import_spatial():
    # cdrlab.spatial costs about 5 ms of start-up that anomaly, flows, rank-curves and distance-matrix do not use
    code = "import sys\nimport cdrlab.anomaly\nprint('cdrlab.spatial' in sys.modules)"
    src = os.path.dirname(os.path.dirname(an.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.stdout.splitlines() == ["False"], done.stderr
