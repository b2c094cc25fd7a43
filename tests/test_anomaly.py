import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdrlab import anomaly as an
from cdrlab.records import Tower

import anomaly_oracle
from conftest import T0, DAY, CdrRecord, cdr_rows, data, make_dataset, sms, topup, topup_rows, voice


def series(values, bin_width=3600, start=T0, entity=("global",)):
    return an.TimeSeries(entity=entity, bin_width=bin_width, start=start,
                         values=np.asarray(values, dtype=float))


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
    ts, tower = an.bin_series(ds, [("global",), ("tower", "T1")], 3600)
    assert list(ts.values) == [2.0, 1.0]
    assert ts.bin_start(1) == T0 + 3600
    assert tower.entity == ("tower", "T1")
    assert list(tower.values) == [1.0, 1.0]


def test_bin_series_district_and_recharges():
    cdrs = [voice("A", "B", "T1", T0 + 100), voice("A", "B", "T2", T0 + 200)]
    tops = [
        topup("A", T0 + 300, 50.0, retailer_tower="T1"),
        topup("B", T0 + 400, 20.0, retailer_tower="T2"),
        topup("C", T0 + 500, 70.0, retailer_tower=None),
    ]
    ds = make_dataset(cdrs, tops, window=(T0, T0 + 3600))
    area_map = {"T1": "D1", "T2": "D2"}
    d1, = an.bin_series(ds, [("district", "D1")], 3600, area_map=area_map)
    assert list(d1.values) == [1.0]
    amt, = an.bin_series(ds, [("district", "D1")], 3600, measure="recharge_amount", area_map=area_map)
    assert list(amt.values) == [50.0]
    # unlocated top-ups count globally but belong to no tower or district
    g, cnt = an.bin_series(ds, [("global",), ("tower", "T2")], 3600, measure="recharge_count")
    assert list(g.values) == [3.0]
    assert list(cnt.values) == [1.0]


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
    assert len(an.bin_series(ds, [("global",)], 3600)[0].values) == 2


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
                      towers={t: Tower(t, 90.0, 23.0) for t in TOWERS}, window=(T0, T0 + SPAN))
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
    assert [ts.entity for ts in got] == entities + districts
    assert [ts.values.tobytes() for ts in got] == [v.tobytes() for v in expected]


# -- sigma rule ----------------------------------------------------------------------

def test_detect_anomalies_global_mean_hand_computed():
    ts = series([10.0] * 20 + [100.0])
    report = an.detect_anomalies(ts, baseline="global_mean", threshold_sigma=3.0)
    assert report.flagged() == {20}
    flag = report.flags[0]
    assert flag.direction == "increase" and flag.z is not None
    assert flag.baseline_mean == pytest.approx(100 / 7)
    assert flag.baseline_std == pytest.approx(math.sqrt(18900) / 7)
    assert flag.z == pytest.approx(600 / math.sqrt(18900), abs=1e-12)
    # the same spike hides from a looser threshold
    assert an.detect_anomalies(ts, baseline="global_mean", threshold_sigma=5.0).flags == []


def test_detect_anomalies_decrease_direction():
    ts = series([50.0] * 20 + [0.0])
    report = an.detect_anomalies(ts, baseline="global_mean", threshold_sigma=3.0)
    assert [f.direction for f in report.flags] == ["decrease"]


def test_detect_anomalies_hour_of_day_isolates_cells():
    # 12 days of hourly bins; hour 5 carries a spike on the last day
    values = np.tile(np.arange(24, dtype=float) + 10.0, 12)
    values[11 * 24 + 5] = 500.0
    ts = series(values)
    report = an.detect_anomalies(ts, baseline="hour_of_day", threshold_sigma=3.0)
    # every other cell is constant across days, hence degenerate but quiet
    assert report.flagged() == {11 * 24 + 5}


def test_detect_anomalies_inclusive_baseline_absorbs_small_cells():
    # the tested bin is part of its own baseline cell, so a bump in a
    # three-sample cell cannot clear 3 sigma and de-degenerates its cell
    values = [7.0] * 24 * 3
    values[30] = 7.5
    report = an.detect_anomalies(series(values), baseline="hour_of_day")
    assert report.flags == []


def test_detect_anomalies_weekday_hour_constant_series():
    values = [3.0] * 24 * 14  # two full weeks, hourly
    report = an.detect_anomalies(series(values), baseline="weekday_hour")
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
    ref = an.detect_anomalies(ts, baseline="hour_of_day")
    # powers of two scale exactly; z-scores and flag sets must not move
    for a, b in [(2.0, 0.0), (0.5, 100.0), (4.0, -7.0)]:
        scaled = series(base * a + b)
        rep = an.detect_anomalies(scaled, baseline="hour_of_day")
        assert rep.flagged() == ref.flagged()
        for f, g in zip(rep.flags, ref.flags):
            assert f.z == g.z and f.direction == g.direction


# -- flows -------------------------------------------------------------------------

AREA_TOWERS = {
    "T1": Tower("T1", 90.0, 23.0),
    "T2": Tower("T2", 91.0, 23.0),   # ~102 km east of T1
    "T3": Tower("T3", 90.02, 23.0),  # ~2 km east of T1
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
    ds = make_dataset(cdrs, towers=AREA_TOWERS, window=(T0, T0 + DAY))
    fn = an.build_flow_network(ds, T0 + 5, AREA_MAP, min_count=1)
    assert fn.day == T0
    assert fn.od == {("west", "east"): 1}

    per = an.build_flow_network(ds, T0, AREA_MAP, min_count=1, mode="per_transition")
    assert per.od == {("west", "east"): 2, ("east", "west"): 1}


def test_build_flow_network_filters():
    cdrs = [
        voice("A", "B", "T1", T0 + 8 * 3600),
        voice("A", "B", "T3", T0 + 18 * 3600),  # west -> near: ~2 km apart
    ]
    ds = make_dataset(cdrs, towers=AREA_TOWERS, window=(T0, T0 + DAY))
    assert an.build_flow_network(ds, T0, AREA_MAP, min_count=1).od == {}
    keep = an.build_flow_network(ds, T0, AREA_MAP, min_count=1, min_distance_km=0.0)
    assert keep.od == {("west", "near"): 1}
    assert an.build_flow_network(ds, T0, AREA_MAP, min_count=2, min_distance_km=0.0).od == {}
    with pytest.raises(ValueError, match="unknown mode"):
        an.build_flow_network(ds, T0, AREA_MAP, mode="hourly")
    with pytest.raises(ValueError, match="missing from area_map"):
        an.build_flow_network(ds, T0, {"T1": "west"})


def test_flow_symmetry():
    fn1 = an.FlowNetwork(T0, {("a", "b"): 10, ("b", "a"): 10, ("a", "c"): 30, ("c", "a"): 28})
    fn2 = an.FlowNetwork(T0 + DAY, {("a", "b"): 12, ("b", "a"): 12, ("a", "c"): 30, ("c", "a"): 32})
    r = an.flow_symmetry([fn1, fn2])
    x = np.array([11.0, 30.0])
    y = np.array([11.0, 30.0])
    assert r == pytest.approx(np.corrcoef(x, y)[0, 1])
    with pytest.raises(ValueError, match="at least two pairs"):
        an.flow_symmetry([an.FlowNetwork(T0, {("a", "b"): 5})])
    with pytest.raises(ValueError, match="no flow networks"):
        an.flow_symmetry([])
    flat = [an.FlowNetwork(T0, {("a", "b"): 5, ("c", "d"): 5})]
    with pytest.raises(ValueError, match="degenerate"):
        an.flow_symmetry(flat)


def flows_from(series_by_pair, n_days):
    out = []
    for i in range(n_days):
        od = {pair: vals[i] for pair, vals in series_by_pair.items() if vals[i] > 0}
        out.append(an.FlowNetwork(T0 + i * DAY, od))
    return out


def test_detect_flow_anomalies_pooled_sigma_hand_computed():
    # 15 consecutive days starting on a Sunday; every weekday cell holds the
    # value pair (8, 12) inside the 14 baseline days, so each contributes
    # residual 2 twice: pooled sigma = sqrt(56 / (14 - 7)) = sqrt(8)
    vals = [8, 12] * 7 + [50]
    flows = flows_from({("a", "b"): vals, ("a", "c"): [8] * 14 + [0]}, 15)
    baseline = {T0 + i * DAY for i in range(14)}
    reports = an.detect_flow_anomalies(flows, threshold_sigma=3.0, baseline_days=baseline)
    assert set(reports) == {("a", "b")}  # the other pair has a zero-flow day
    rep = reports[("a", "b")]
    assert rep.flagged() == {14}
    f = rep.flags[0]
    assert f.baseline_mean == pytest.approx(10.0)  # weekday-6 mean of days 0 and 7
    assert f.baseline_std == pytest.approx(math.sqrt(8.0))
    assert f.z == pytest.approx(40 / math.sqrt(8.0))
    assert f.direction == "increase"


def test_detect_flow_anomalies_degenerate_baseline():
    vals = [10] * 14 + [50]
    flows = flows_from({("a", "b"): vals, ("b", "a"): vals}, 15)
    baseline = {T0 + i * DAY for i in range(14)}
    reports = an.detect_flow_anomalies(flows, baseline_days=baseline)
    rep = reports[("a", "b")]
    assert rep.flagged() == {14} and rep.flags[0].z is None


def test_detect_flow_anomalies_validation():
    flows = flows_from({("a", "b"): [10] * 8}, 8)
    # 8 consecutive days leave most weekdays with a single baseline sample
    with pytest.raises(ValueError, match="need at least 2"):
        an.detect_flow_anomalies(flows)
    with pytest.raises(ValueError, match="not all present"):
        an.detect_flow_anomalies(flows, baseline_days={T0 - DAY})
    with pytest.raises(ValueError, match="no flow networks"):
        an.detect_flow_anomalies([])


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
    comparison_day = [
        voice("A", "B", "T1", T0 + DAY + 10 * 3600),
        voice("C", "Y", "T1", T0 + DAY + 10 * 3600),
    ]
    event_day = [
        voice("A", "B", "T1", T0 + 2 * DAY + 10 * 3600),
        voice("C", "D", "T1", T0 + 2 * DAY + 10 * 3600),
    ]
    ds = make_dataset(rank_day + comparison_day + event_day, window=(T0, T0 + 3 * DAY))
    curves = an.rank_activation_curves(
        ds,
        event_time=T0 + 2 * DAY + 11 * 3600,
        ranks=(1, 2),
        bin_width=3600,
        comparison_days=[T0 + DAY],
        rank_window=(T0, T0 + DAY),
    )
    assert curves.event_day == T0 + 2 * DAY
    assert len(curves.offsets) == 24 and curves.offsets[10] == 36000
    assert curves.event_fraction[1][10] == pytest.approx(1.0)   # A and C both
    assert curves.comparison_mean[1][10] == pytest.approx(0.5)  # only A
    assert curves.ratio[1][10] == pytest.approx(2.0)
    assert curves.ratio[2][10] == pytest.approx(0.0)  # C ignored their #2
    assert curves.ratio[1][0] is None  # nobody calls at midnight either day


def test_rank_activation_curves_flat_traffic_gives_unit_ratio():
    cdrs = [voice("A", "B", "T1", T0 + d * DAY + 12 * 3600) for d in range(3)]
    ds = make_dataset(cdrs, window=(T0, T0 + 3 * DAY))
    curves = an.rank_activation_curves(
        ds, event_time=T0 + 2 * DAY, ranks=(1,), bin_width=3600,
        comparison_days=[T0, T0 + DAY],
    )
    assert curves.ratio[1][12] == pytest.approx(1.0)
    assert all(r is None for i, r in enumerate(curves.ratio[1]) if i != 12)


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
        an.rank_activation_curves(ds, T0 + 2 * DAY, ranks=(), comparison_days=[T0 + DAY])
    curves = an.rank_activation_curves(ds, T0 + 2 * DAY, ranks=(1,), bin_width=8, comparison_days=[T0 + DAY])
    assert curves.event_fraction[1][-1] == 1.0 and sum(curves.event_fraction[1]) == 1.0


# -- distance matrix --------------------------------------------------------------------

def test_distance_activation_matrix():
    towers = {"T1": Tower("T1", 90.0, 23.0), "T2": Tower("T2", 91.0, 23.0)}
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
    with pytest.raises(ValueError, match="comparison day"):
        an.distance_activation_matrix(ds, (90, 23), T0, (0, 3600), [50.0], [])


# -- writers ------------------------------------------------------------------------

def test_writers(tmp_path):
    ts = series([10.0] * 20 + [100.0])
    report = an.detect_anomalies(ts, baseline="global_mean")
    p1 = tmp_path / "anoms.csv"
    an.write_anomalies_csv([report], str(p1), header_comment="# a")
    lines = p1.read_text().splitlines()
    assert lines[0] == "# a"
    assert lines[1].startswith("entity,bin_start")
    assert lines[2].startswith(f"global,{T0 + 20 * 3600},100.0,")

    p2 = tmp_path / "flows.csv"
    an.write_flows_csv(an.FlowNetwork(T0, {("w", "e"): 3, ("e", "w"): 2}), str(p2))
    assert p2.read_text().splitlines()[1:] == ["e,w,2", "w,e,3"]
