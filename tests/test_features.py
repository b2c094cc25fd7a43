import math

import numpy as np
import pytest

from cdrlab import features as feat
from cdrlab.geo import EARTH_RADIUS_KM
from cdrlab.records import Tower

from conftest import T0, DAY, data, make_dataset, sms, topup, voice

LN2 = math.log(2.0)


# -- primitives ------------------------------------------------------------------

def test_entropy_known_values():
    assert feat.entropy(["a", "b", "c"]) == pytest.approx(math.log(3), abs=1e-12)
    # probabilities 1/2, 1/4, 1/4
    assert feat.entropy({"a": 2, "b": 1, "c": 1}) == pytest.approx(1.0397207708399179, abs=1e-12)
    assert feat.entropy(["x", "x", "x"]) == 0.0
    assert feat.entropy({"a": 3, "b": 0}) == 0.0  # zero counts ignored
    assert feat.entropy(["a", "a", "b", "b"]) == feat.entropy({"a": 2, "b": 2})
    with pytest.raises(ValueError):
        feat.entropy([])
    with pytest.raises(ValueError):
        feat.entropy({"a": 0})


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
    assert feat._is_nocturnal(T0 + 22 * 3600)
    assert not feat._is_nocturnal(T0 + 22 * 3600 - 1)
    assert feat._is_nocturnal(T0 + 6 * 3600 - 1)
    assert not feat._is_nocturnal(T0 + 6 * 3600)


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
    tops = [topup("A", T0, 100.0), topup("A", T0 + 10 * DAY, 500.0)]
    assert feat.spending_speed(tops) == pytest.approx(600 / 11, abs=1e-12)
    assert feat.spending_speed([topup("A", T0, 50.0)]) == 50.0
    assert feat.spending_speed([]) is None


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
    assert v["entropy_of_contacts"] == pytest.approx(feat.entropy({"B": 3, "C": 2}))
    # located outgoing events: T1 x3, T2 x1
    assert v["number_of_places"] == 2
    assert v["entropy_of_places"] == pytest.approx(feat.entropy({"T1": 3, "T2": 1}))
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


def test_extract_features_callee_only_subscriber():
    ds = make_dataset([voice("A", "B", "T1", T0 + 100, 60)])
    v = feat.extract_features(ds, "B")
    assert v.values["in_voice_duration"] == 60.0
    assert v.values["percent_nocturnal_calls"] is None  # no outgoing comm
    assert v.values["number_of_places"] is None  # callee location is unknown
    assert v.values["radius_of_gyration"] is None
    assert v.home_tower is None
    assert v.values["degree"] == 1  # the inbound contact still counts


def test_extract_features_window_restriction(rich_ds):
    vec = feat.extract_features(rich_ds, "A", window=(T0 + 20 * DAY, T0 + 28 * DAY))
    assert all(value is None for value in vec.values.values())
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
