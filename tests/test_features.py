import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdrlab import features as feat
from cdrlab.geo import EARTH_RADIUS_KM, haversine_km, haversine_km_to
from cdrlab.records import Tower

from conftest import T0, DAY, cdr_rows, data, make_dataset, sms, topup, voice

LN2 = math.log(2.0)


# -- primitives ------------------------------------------------------------------

def test_entropy_known_values():
    assert feat._count_entropy([1, 1, 1]) == pytest.approx(math.log(3), abs=1e-12)
    # probabilities 1/2, 1/4, 1/4
    assert feat._count_entropy([2, 1, 1]) == pytest.approx(1.0397207708399179, abs=1e-12)
    assert feat._count_entropy([3]) == 0.0
    assert math.copysign(1.0, feat._count_entropy([1])) == 1.0  # 0.0, not -0.0
    assert feat._count_entropy([2, 2]) == pytest.approx(LN2, abs=1e-12)
    with pytest.raises(ValueError):
        feat._count_entropy([])


def test_radius_of_gyration_equator_pair():
    # two points 0.2 deg apart on the equator: each 0.1 deg from the centroid
    rog = feat.radius_of_gyration([(0.0, 0.0), (0.2, 0.0)])
    expected = EARTH_RADIUS_KM * math.radians(0.1)
    assert rog == pytest.approx(expected, rel=1e-9)
    assert feat.radius_of_gyration([(5.0, 5.0)]) == 0.0
    # repeated visits pull the centroid: 3 visits at A, 1 at B (0.2 deg apart)
    rog2 = feat.radius_of_gyration([(0.0, 0.0)] * 3 + [(0.2, 0.0)])
    d_a = EARTH_RADIUS_KM * math.radians(0.05)
    d_b = EARTH_RADIUS_KM * math.radians(0.15)
    assert rog2 == pytest.approx(math.sqrt((3 * d_a**2 + d_b**2) / 4), rel=1e-6)
    with pytest.raises(ValueError):
        feat.radius_of_gyration([])


def test_nocturnal_window_boundaries():
    assert feat.is_nocturnal(T0 + 22 * 3600)
    assert not feat.is_nocturnal(T0 + 22 * 3600 - 1)
    assert feat.is_nocturnal(T0 + 6 * 3600 - 1)
    assert not feat.is_nocturnal(T0 + 6 * 3600)
    stamps = np.array([T0 + 22 * 3600, T0 + 22 * 3600 - 1, T0 + 6 * 3600 - 1, T0 + 6 * 3600])
    assert feat.is_nocturnal(stamps).tolist() == [True, False, True, False]


def test_home_tower_prefers_nocturnal_majority():
    cdrs = [
        # daytime activity concentrated on T1
        voice("A", "B", "T1", T0 + 10 * 3600),
        voice("A", "B", "T1", T0 + 11 * 3600),
        voice("A", "B", "T1", T0 + 12 * 3600),
        # nights on T2
        voice("A", "B", "T2", T0 + 23 * 3600),
    ]
    ds = make_dataset(cdrs)
    assert feat.home_tower(ds, "A") == "T2"


def test_home_tower_fallback_and_ties():
    ds = make_dataset([
        voice("A", "B", "T2", T0 + 10 * 3600),
        voice("A", "B", "T1", T0 + 11 * 3600),
    ])
    assert feat.home_tower(ds, "A") == "T1"  # all-hours tie, lexicographic
    assert feat.home_tower(ds, "B") is None  # callee only, no located events


def test_spending_speed_inclusive_span():
    assert feat.spending_speed([100.0, 500.0], [T0, T0 + 10 * DAY]) == pytest.approx(600 / 11, abs=1e-12)
    assert feat.spending_speed([50.0], [T0]) == 50.0
    assert feat.spending_speed([], []) is None


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
    vec = feat.extract_features(rich_ds, "A")
    v = vec.values
    assert list(v) == feat.FEATURE_ORDER and len(v) == 22
    assert v["out_voice_duration"] == 180.0
    assert v["in_voice_duration"] == 30.0
    assert v["sms_out_count"] == 1 and v["sms_in_count"] == 1
    assert v["internet_volume"] == 5_000_000.0
    assert v["percent_nocturnal_calls"] == pytest.approx(1 / 3)
    # contacts: B 2 out + 1 in, C 1 out + 1 in
    assert v["degree"] == 2
    assert v["interactions_per_contact"] == 2.5
    assert v["entropy_of_contacts"] == pytest.approx(feat._count_entropy([3, 2]))
    # located outgoing events: T1 x3, T2 x1
    assert v["number_of_places"] == 2
    assert v["entropy_of_places"] == pytest.approx(feat._count_entropy([3, 1]))
    visits = [(90.0, 23.0), (90.2, 23.0), (90.0, 23.0), (90.0, 23.0)]
    assert v["radius_of_gyration"] == pytest.approx(feat.radius_of_gyration(visits))
    assert vec.home_tower == "T2"  # the single nocturnal event decides
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
    v = feat.extract_features(rich_ds, "A", denominations=(10.0, 100.0, 500.0)).values
    assert v["fraction_lowest_denomination"] == 0.0  # nobody bought the 10
    assert v["fraction_highest_denomination"] == 0.5


def test_dataset_denominations_are_the_fallback(rich_ds):
    assert feat.dataset_denominations(rich_ds) == (100.0, 500.0)
    assert feat.dataset_denominations(make_dataset([voice("A", "B", "T1", T0)])) is None
    for sub in rich_ds.subscribers():
        assert feat.extract_features(rich_ds, sub) == feat.extract_features(
            rich_ds, sub, denominations=feat.dataset_denominations(rich_ds))


def test_extract_features_absent_not_zero(rich_ds):
    # C only texts and receives: no voice, no data, no topups, no nocturnal comm
    v = feat.extract_features(rich_ds, "C").values
    assert v["out_voice_duration"] == 0.0
    assert v["percent_nocturnal_calls"] == 0.0
    assert v["degree"] == 1
    assert v["recharge_count"] is None
    assert v["spending_speed"] is None
    assert v["recharge_amount_cv"] is None
    # one place: zero entropy, written as 0.0, never -0.0
    assert v["number_of_places"] == 1 and math.copysign(1.0, v["entropy_of_places"]) == 1.0


def test_extract_features_callee_only_subscriber():
    ds = make_dataset([voice("A", "B", "T1", T0 + 100, 60)])
    v = feat.extract_features(ds, "B")
    assert v.values["in_voice_duration"] == 60.0
    assert v.values["percent_nocturnal_calls"] is None  # no outgoing comm
    assert v.values["number_of_places"] is None  # callee location is unknown
    assert v.values["radius_of_gyration"] is None
    assert v.home_tower is None
    assert v.values["degree"] == 1  # the inbound contact still counts


def test_extract_features_unknown_subscriber(rich_ds):
    with pytest.raises(ValueError, match="not present"):
        feat.extract_features(rich_ds, "ZZZ")


def test_write_features_csv(tmp_path, rich_ds):
    vecs = [feat.extract_features(rich_ds, s) for s in ("A", "B")]
    path = tmp_path / "features.csv"
    feat.write_features_csv(vecs, str(path), header_comment="# features")
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


def test_feature_families_cover_four_groups():
    assert set(feat.FEATURE_FAMILY.values()) == {"basic", "social", "mobility", "financial"}
    assert len(feat.FEATURE_ORDER) == 22


# -- grouped and vectorised passes against the per-subscriber oracles ------------------


def scalar_radius_of_gyration(visits):
    """The former radius of gyration: one scalar haversine call per visit."""
    pts = list(visits)
    lon0 = sum(p[0] for p in pts) / len(pts)
    lat0 = sum(p[1] for p in pts) / len(pts)
    mean_sq = sum(haversine_km(lon, lat, lon0, lat0) ** 2 for lon, lat in pts) / len(pts)
    return math.sqrt(mean_sq)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.floats(-180, 180), st.floats(-90, 90)), min_size=1, max_size=60),
       st.integers(0, 2**32 - 1), st.integers(1, 400))
def test_radius_of_gyration_is_bitwise_the_scalar_form(visits, seed, n):
    # drawn points, and towers over a city-sized box as the features see them
    rng = np.random.default_rng(seed)
    city = np.column_stack((rng.uniform(90.0, 92.5, n), rng.uniform(22.0, 26.0, n)))
    for pts in (visits, city.tolist()):
        want = scalar_radius_of_gyration(pts)
        assert feat.radius_of_gyration(pts).hex() == want.hex()
        assert feat.radius_of_gyration(np.array(pts)).hex() == want.hex()
    # each distance too, where a last-bit slip rarely survives into the radius
    lon0, lat0 = city.mean(axis=0).tolist()
    got = haversine_km_to(city[:, 0], city[:, 1], lon0, lat0).tolist()
    assert [d.hex() for d in got] == [haversine_km(lon, lat, lon0, lat0).hex() for lon, lat in city.tolist()]


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
    for sub in ds.subscribers():
        want = per_subscriber_home_tower(ds, sub)
        assert feat.home_tower(ds, sub) == want
        assert feat.extract_features(ds, sub).home_tower == want
