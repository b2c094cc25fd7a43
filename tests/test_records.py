import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdrlab.records import (
    Dataset,
    day_start,
    format_timestamp,
    parse_timestamp,
)

from conftest import T0, DAY, make_dataset, sms, topup, voice


def test_parse_timestamp_zulu_and_offset():
    assert parse_timestamp("2016-05-01T00:00:00Z") == T0
    assert parse_timestamp("2016-05-01T00:00:00+00:00") == T0
    assert parse_timestamp("2016-05-01T06:00:00+06:00") == T0


def test_parse_timestamp_naive_is_utc():
    assert parse_timestamp("2016-05-01T00:00:00") == T0


def test_parse_timestamp_rejects_fractional_seconds():
    with pytest.raises(ValueError):
        parse_timestamp("2016-05-01T00:00:00.250Z")


def test_format_round_trip():
    stamps = [0, T0, T0 + 86399, 1500000000]
    for ts in stamps:
        assert parse_timestamp(format_timestamp(ts)) == ts


def test_day_start():
    assert day_start(T0) == T0
    assert day_start(T0 + 86399) == T0
    assert day_start(T0 + DAY) == T0 + DAY


def test_dataset_sorts_events_stably():
    e1 = voice("A", "B", "T1", T0 + 100)
    e2 = sms("C", "D", "T1", T0 + 50)
    e3 = sms("E", "F", "T1", T0 + 100)  # ties keep input order
    ds = make_dataset([e1, e2, e3], window=(T0, T0 + DAY))
    assert [r.caller for r in ds.cdrs] == ["C", "A", "E"]


def test_dataset_indexes():
    ds = make_dataset(
        [voice("A", "B", "T1", T0 + 1), voice("B", "A", "T1", T0 + 2)],
        [topup("A", T0 + 3, 20.0)],
        window=(T0, T0 + DAY),
    )
    assert [r.timestamp for r in ds.cdrs_by_caller()["A"]] == [T0 + 1]
    assert [r.timestamp for r in ds.cdrs_by_callee()["A"]] == [T0 + 2]
    assert [t.amount for t in ds.topups_by_buyer()["A"]] == [20.0]
    # subscribers: callers and buyers, sorted
    assert ds.subscribers() == ["A", "B"]


def test_with_events_keeps_towers_and_labels():
    ds = make_dataset([voice("A", "B", "T1", T0 + 1)], labels={"A": "low"},
                      window=(T0, T0 + DAY))
    ds2 = ds.with_events(cdrs=[voice("B", "A", "T1", T0 + 5)])
    assert ds2.towers == ds.towers
    assert ds2.labels == {"A": "low"}
    assert len(ds2.cdrs) == 1 and ds2.cdrs[0].caller == "B"


def test_dataset_is_frozen():
    ds = make_dataset([voice("A", "B", "T1", T0 + 1)], window=(T0, T0 + DAY))
    with pytest.raises(Exception):
        ds.window = (0, 1)


def test_dataset_rejects_events_outside_its_window():
    window = (T0, T0 + DAY)
    make_dataset([voice("A", "B", "T1", T0), voice("A", "B", "T1", T0 + DAY - 1)], window=window)
    with pytest.raises(ValueError, match="outside window"):
        make_dataset([voice("A", "B", "T1", T0 - 100)], window=window)
    with pytest.raises(ValueError, match="outside window"):
        make_dataset([voice("A", "B", "T1", T0 + DAY)], window=window)
    with pytest.raises(ValueError, match="top-up timestamps"):
        make_dataset([voice("A", "B", "T1", T0)], [topup("A", T0 + DAY, 5.0)], window=window)


@settings(max_examples=100, deadline=None)
@given(offsets=st.lists(st.integers(0, 99), max_size=30), lo=st.integers(-5, 105), width=st.integers(-5, 110))
def test_cdrs_between_matches_the_filter(offsets, lo, width):
    ds = make_dataset([voice(f"S{i}", "B", "T1", T0 + off) for i, off in enumerate(offsets)],
                      window=(T0, T0 + 100))
    lo, hi = T0 + lo, T0 + lo + width
    assert ds.cdrs_between(lo, hi) == tuple(r for r in ds.cdrs if lo <= r.timestamp < hi)
