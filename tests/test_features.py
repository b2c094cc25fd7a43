import csv
import math
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdrlab import features as feat
from cdrlab.geo import EARTH_RADIUS_KM, haversine_km_to
from cdrlab.records import Tower

import features_oracle as oracle
from geo_oracle import haversine_km
from conftest import T0, DAY, CdrRecord, cdr_rows, data, make_dataset, sms, topup, voice

LN2 = math.log(2.0)


def table(ds, denominations=None):
    """subscriber -> (home tower id or None, feature name -> value or None), from the grouped pass."""
    columns = feat.extract_features(ds, denominations)
    homes = feat.home_tower(ds)
    out = {}
    for i, sub in enumerate(ds.subscribers()):
        values = {name: float(columns[name][i]) for name in feat.FEATURE_ORDER}
        out[sub] = (homes[i] or None, {k: None if math.isnan(v) else v for k, v in values.items()})
    return out


def written_rows(ds, denominations=None) -> list[list[str]]:
    """features.csv's data rows as the grouped pass writes them."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "features.csv"
        feat.write_features_csv(ds, feat.extract_features(ds, denominations), str(path))
        with open(path, newline="") as fh:
            return list(csv.reader(fh))[1:]


# -- known values on tiny datasets ---------------------------------------------------------

def contact_entropy(counts):
    cdrs = [sms("A", f"C{i}", "T1", T0 + 60 * j + i) for i, c in enumerate(counts) for j in range(c)]
    return table(make_dataset(cdrs))["A"][1]["entropy_of_contacts"]


def test_entropy_known_values():
    assert contact_entropy([1, 1, 1]) == pytest.approx(math.log(3), abs=1e-12)
    # probabilities 1/2, 1/4, 1/4
    assert contact_entropy([2, 1, 1]) == pytest.approx(1.0397207708399179, abs=1e-12)
    assert contact_entropy([3]) == 0.0
    assert math.copysign(1.0, contact_entropy([1])) == 1.0  # 0.0, not -0.0
    assert contact_entropy([2, 2]) == pytest.approx(LN2, abs=1e-12)
    # no contacts: absent, not an entropy of an empty distribution
    assert table(make_dataset([data("A", "T1", T0)]))["A"][1]["entropy_of_contacts"] is None


def radii(visit_lists):
    """The grouped radius of gyration of one subscriber per visit list, one data session per (lon, lat) visit."""
    ids, towers, cdrs = {}, {}, []
    for s, visits in enumerate(visit_lists):
        for lon, lat in visits:  # one tower per distinct point, 0.0 and -0.0 apart
            tid = ids.setdefault((lon.hex(), lat.hex()), f"T{len(ids)}")
            towers[tid] = Tower(tid, lon, lat)
            cdrs.append(data(f"S{s:04d}", tid, T0 + len(cdrs)))
    rows = table(make_dataset(cdrs, towers=towers))
    return [rows[f"S{s:04d}"][1]["radius_of_gyration"] for s in range(len(visit_lists))]


def radius(visits):
    return radii([visits])[0]


def test_radius_of_gyration_equator_pair():
    # two points 0.2 deg apart on the equator: each 0.1 deg from the centroid
    expected = EARTH_RADIUS_KM * math.radians(0.1)
    assert radius([(0.0, 0.0), (0.2, 0.0)]) == pytest.approx(expected, rel=1e-9)
    assert radius([(5.0, 5.0)]) == 0.0
    # repeated visits pull the centroid: 3 visits at A, 1 at B (0.2 deg apart)
    d_a = EARTH_RADIUS_KM * math.radians(0.05)
    d_b = EARTH_RADIUS_KM * math.radians(0.15)
    assert radius([(0.0, 0.0)] * 3 + [(0.2, 0.0)]) == pytest.approx(math.sqrt((3 * d_a**2 + d_b**2) / 4), rel=1e-6)


def test_nocturnal_window_boundaries():
    assert feat.is_nocturnal(T0 + 22 * 3600)
    assert not feat.is_nocturnal(T0 + 22 * 3600 - 1)
    assert feat.is_nocturnal(T0 + 6 * 3600 - 1)
    assert not feat.is_nocturnal(T0 + 6 * 3600)
    stamps = np.array([T0 + 22 * 3600, T0 + 22 * 3600 - 1, T0 + 6 * 3600 - 1, T0 + 6 * 3600])
    assert feat.is_nocturnal(stamps).tolist() == [True, False, True, False]


def homes(ds):
    return dict(zip(ds.subscribers(), feat.home_tower(ds)))


def test_home_tower_prefers_nocturnal_majority():
    cdrs = [
        # daytime activity concentrated on T1
        voice("A", "B", "T1", T0 + 10 * 3600),
        voice("A", "B", "T1", T0 + 11 * 3600),
        voice("A", "B", "T1", T0 + 12 * 3600),
        # nights on T2
        voice("A", "B", "T2", T0 + 23 * 3600),
    ]
    assert homes(make_dataset(cdrs))["A"] == "T2"


def test_home_tower_fallback_and_ties():
    ds = make_dataset([
        voice("A", "B", "T2", T0 + 10 * 3600),
        voice("A", "B", "T1", T0 + 11 * 3600),
    ])
    assert homes(ds) == {"A": "T1",  # all-hours tie, lexicographic
                         "B": ""}  # callee only, no located events


def test_spending_speed_inclusive_span():
    ds = make_dataset([sms("C", "A", "T1", T0)],
                      [topup("A", T0, 100.0), topup("A", T0 + 10 * DAY, 500.0), topup("B", T0, 50.0)],
                      window=(T0, T0 + 28 * DAY))
    speed = {sub: values["spending_speed"] for sub, (_, values) in table(ds).items()}
    assert speed["A"] == pytest.approx(600 / 11, abs=1e-12)
    assert speed["B"] == 50.0
    assert speed["C"] is None


# -- full vectors -------------------------------------------------------------------

@pytest.fixture
def rich_ds():
    towers = {"T1": Tower("T1", 90.0, 23.0), "T2": Tower("T2", 90.2, 23.0)}
    cdrs = [
        voice("A", "B", "T1", T0 + 10 * 3600, 120),
        voice("A", "B", "T2", T0 + 23 * 3600, 60),
        sms("A", "C", "T1", T0 + 12 * 3600),
        data("A", "T1", T0 + 13 * 3600, 5_000_000),
        voice("B", "A", "T2", T0 + 14 * 3600, 30),
        sms("C", "A", "T1", T0 + 15 * 3600),
    ]
    tops = [topup("A", T0 + 1000, 100.0), topup("A", T0 + 10 * DAY + 1000, 500.0)]
    return make_dataset(cdrs, tops, towers=towers, window=(T0, T0 + 28 * DAY))


def test_extract_features_full_vector(rich_ds):
    columns = feat.extract_features(rich_ds)
    assert list(columns) == feat.FEATURE_ORDER and len(columns) == 22
    assert all(len(col) == 3 for col in columns.values())  # A, B, C
    home, v = table(rich_ds)["A"]
    assert v["out_voice_duration"] == 180.0
    assert v["in_voice_duration"] == 30.0
    assert v["sms_out_count"] == 1 and v["sms_in_count"] == 1
    assert v["internet_volume"] == 5_000_000.0
    assert v["percent_nocturnal_calls"] == pytest.approx(1 / 3)
    # contacts: B 2 out + 1 in, C 1 out + 1 in
    assert v["degree"] == 2
    assert v["interactions_per_contact"] == 2.5
    assert v["entropy_of_contacts"] == pytest.approx(-(0.6 * math.log(0.6) + 0.4 * math.log(0.4)))
    # located outgoing events: T1 x3, T2 x1
    assert v["number_of_places"] == 2
    assert v["entropy_of_places"] == pytest.approx(-(0.75 * math.log(0.75) + 0.25 * math.log(0.25)))
    visits = [(90.0, 23.0), (90.2, 23.0), (90.0, 23.0), (90.0, 23.0)]
    assert v["radius_of_gyration"] == pytest.approx(oracle.radius_of_gyration(visits))
    assert home == "T2"  # the single nocturnal event decides
    assert (v["home_tower_lon"], v["home_tower_lat"]) == (90.2, 23.0)
    # financial block
    assert v["recharge_count"] == 2
    assert v["recharge_total"] == 600.0
    assert v["recharge_amount_mean"] == 300.0
    assert v["recharge_amount_cv"] == pytest.approx(math.sqrt(80000) / 300, abs=1e-12)
    assert v["spending_speed"] == pytest.approx(600 / 11)
    assert v["median_days_between_refills"] == pytest.approx(10.0)
    # dataset-wide min/max amounts stand in for the denomination list
    assert v["fraction_lowest_denomination"] == 0.5
    assert v["fraction_highest_denomination"] == 0.5


def test_extract_features_explicit_denominations(rich_ds):
    v = table(rich_ds, denominations=(10.0, 100.0, 500.0))["A"][1]
    assert v["fraction_lowest_denomination"] == 0.0  # nobody bought the 10
    assert v["fraction_highest_denomination"] == 0.5


def test_dataset_denominations_are_the_fallback(rich_ds):
    assert table(rich_ds) == table(rich_ds, denominations=(100.0, 500.0))
    assert table(rich_ds) != table(rich_ds, denominations=(10.0, 500.0))


def test_extract_features_absent_not_zero(rich_ds):
    # C only texts and receives: no voice, no data, no topups, no nocturnal comm
    v = table(rich_ds)["C"][1]
    assert v["out_voice_duration"] == 0.0
    assert v["percent_nocturnal_calls"] == 0.0
    assert v["degree"] == 1
    assert v["recharge_count"] is None
    assert v["spending_speed"] is None
    assert v["recharge_amount_cv"] is None
    # one place: zero entropy, written as 0.0, never -0.0
    assert v["number_of_places"] == 1 and math.copysign(1.0, v["entropy_of_places"]) == 1.0


def test_extract_features_callee_only_subscriber():
    home, v = table(make_dataset([voice("A", "B", "T1", T0 + 100, 60)]))["B"]
    assert v["in_voice_duration"] == 60.0
    assert v["percent_nocturnal_calls"] is None  # no outgoing comm
    assert v["number_of_places"] is None  # callee location is unknown
    assert v["radius_of_gyration"] is None
    assert home is None
    assert v["degree"] == 1  # the inbound contact still counts


def test_write_features_csv(tmp_path, rich_ds):
    path = tmp_path / "features.csv"
    feat.write_features_csv(rich_ds, feat.extract_features(rich_ds), str(path), header_comment="# features")
    lines = path.read_text().splitlines()
    assert lines[0] == "# features"
    header = lines[1].split(",")
    assert header == ["subscriber", "home_tower"] + feat.FEATURE_ORDER
    row_a = lines[2].split(",")
    assert row_a[0] == "A" and row_a[1] == "T2"
    assert row_a[2 + feat.FEATURE_ORDER.index("out_voice_duration")] == "180.0"
    row_b = lines[3].split(",")
    # B has no recharges: financial cells are empty strings
    assert row_b[2 + feat.FEATURE_ORDER.index("recharge_count")] == ""
    assert [line.split(",")[0] for line in lines[2:]] == ["A", "B", "C"]


def test_feature_families_cover_four_groups():
    assert set(feat.FEATURE_FAMILY.values()) == {"basic", "social", "mobility", "financial"}
    assert len(feat.FEATURE_ORDER) == 22


# -- the grouped pass against the per-subscriber oracles ----------------------------------


def scalar_radius_of_gyration(visits):
    """The first radius of gyration: one scalar haversine call per visit, sums left to right."""
    pts = list(visits)
    lon0 = oracle.lsum(p[0] for p in pts) / len(pts)
    lat0 = oracle.lsum(p[1] for p in pts) / len(pts)
    mean_sq = oracle.lsum(haversine_km(lon, lat, lon0, lat0) ** 2 for lon, lat in pts) / len(pts)
    return math.sqrt(mean_sq)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.floats(-180, 180), st.floats(-90, 90)), min_size=1, max_size=60),
       st.integers(0, 2**32 - 1), st.integers(1, 400))
def test_radius_of_gyration_is_bitwise_the_scalar_form(visits, seed, n):
    # drawn points, and towers over a city-sized box as the features see them
    rng = np.random.default_rng(seed)
    city = np.column_stack((rng.uniform(90.0, 92.5, n), rng.uniform(22.0, 26.0, n)))
    for pts in (visits, city.tolist()):
        assert radius(pts).hex() == scalar_radius_of_gyration(pts).hex()
    # a last-bit slip in one squared distance survives into a two-visit radius about
    # half the time, where it is lost in the sum of hundreds of squares
    pairs = [city[i:i + 2].tolist() for i in range(0, n, 2)]
    assert [r.hex() for r in radii(pairs)] == [scalar_radius_of_gyration(p).hex() for p in pairs]
    # each distance too, from one centroid and from a centroid per point
    lon0, lat0 = city.mean(axis=0).tolist()
    got = haversine_km_to(city[:, 0], city[:, 1], lon0, lat0).tolist()
    assert [d.hex() for d in got] == [haversine_km(lon, lat, lon0, lat0).hex() for lon, lat in city.tolist()]
    centroids = city[::-1]
    got = haversine_km_to(city[:, 0], city[:, 1], centroids[:, 0], centroids[:, 1]).tolist()
    assert [d.hex() for d in got] == [haversine_km(lon, lat, lon0, lat0).hex()
                                      for (lon, lat), (lon0, lat0) in zip(city.tolist(), centroids.tolist())]


def per_subscriber_home_tower(ds, subscriber):
    """The former home_tower: one scan over the subscriber's outgoing events."""
    nocturnal: Counter = Counter()
    allhours: Counter = Counter()
    for rec in cdr_rows(ds.cdrs):
        if rec.caller != subscriber:
            continue
        allhours[rec.tower] += 1
        if feat.is_nocturnal(rec.timestamp):
            nocturnal[rec.tower] += 1
    counts = nocturnal or allhours
    if not counts:
        return None
    top = max(counts.values())
    return min(t for t, c in counts.items() if c == top)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["A", "B", "C"]), st.sampled_from(["A", "B", "D"]),
                          st.sampled_from(["T1", "T2", "T10", "T3"]), st.integers(0, 2 * DAY - 1)),
                max_size=40))
def test_grouped_home_towers_match_per_subscriber_scan(events):
    ds = make_dataset([voice(a, b, t, T0 + off) for a, b, t, off in events],
                      towers={t: Tower(t, 90.0, 23.0) for t in ("T1", "T2", "T10", "T3")},
                      window=(T0, T0 + 2 * DAY))
    got = homes(ds)
    for sub in ds.subscribers():
        assert (got[sub] or None) == per_subscriber_home_tower(ds, sub)


TOWERS = {"T1": Tower("T1", 90.0, 23.0), "T2": Tower("T2", 90.21, 23.4), "T3": Tower("T3", -0.0, 0.5)}
KINDS = ("voice", "sms", "data", "video", "mms")
MAGNITUDES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 60.0, 0.1]), st.floats(0, 1e6))
CDRS = st.lists(st.tuples(st.sampled_from("ABC"), st.sampled_from(["A", "B", "C", "D", None]),
                          st.sampled_from(sorted(TOWERS)), st.integers(0, 6 * DAY - 1),
                          st.sampled_from(KINDS), MAGNITUDES), max_size=40)
TOPUPS = st.lists(st.tuples(st.sampled_from("ABE"), st.integers(0, 6 * DAY - 1),
                            st.one_of(st.sampled_from([10.0, 20.0, 50.0]), st.floats(0.5, 500.0))),
                  max_size=12)
DENOMINATIONS = st.one_of(st.none(), st.lists(st.sampled_from([10.0, 20.0, 50.0, 100.0]), min_size=1,
                                              max_size=3).map(tuple))


@settings(max_examples=300, deadline=None)
@given(CDRS, TOPUPS, DENOMINATIONS)
def test_grouped_table_matches_the_per_subscriber_oracle(cdrs, topups, denominations):
    # Callers and callees overlap (self-calls, callee-only D), buyers may have no
    # event (E), one top-up or none, and a kind may be a subscriber's only one.
    records = [CdrRecord(a, None if kind == "data" else b, t, T0 + off, kind, m)
               for a, b, t, off, kind, m in cdrs]
    ds = make_dataset(records, [topup(b, T0 + off, amount) for b, off, amount in topups],
                      towers=TOWERS, window=(T0, T0 + 6 * DAY))
    assert written_rows(ds, denominations) == oracle.feature_rows(ds, denominations)
