import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdrlab.records import (
    Dataset,
    day_start,
    parse_timestamp,
)

from conftest import T0, DAY, cdr_rows, make_dataset, sms, topup, tower, voice
from ingest_oracle import format_timestamp


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
    assert [r.caller for r in cdr_rows(ds.cdrs)] == ["C", "A", "E"]


def test_dataset_indexes():
    ds = make_dataset(
        [voice("A", "B", "T1", T0 + 1), voice("B", "A", "T1", T0 + 2)],
        [topup("A", T0 + 3, 20.0)],
        window=(T0, T0 + DAY),
    )
    a = ds.subscribers().index("A")
    for (rows, offsets), column, want in ((ds.cdrs_by_caller(), ds.cdrs.ts, T0 + 1),
                                          (ds.cdrs_by_callee(), ds.cdrs.ts, T0 + 2),
                                          (ds.topups_by_buyer(), ds.topups.amount, 20.0)):
        assert column[rows[offsets[a]:offsets[a + 1]]].tolist() == [want]
    # subscribers: callers and buyers, sorted
    assert ds.subscribers() == ["A", "B"]


def test_with_events_keeps_towers_and_window():
    ds = make_dataset([voice("A", "B", "T1", T0 + 1)], window=(T0, T0 + DAY))
    ds2 = ds.with_events(cdrs=make_dataset([voice("B", "A", "T1", T0 + 5)]).cdrs)
    assert ds2.towers == ds.towers
    assert ds2.window == ds.window
    assert [r.caller for r in cdr_rows(ds2.cdrs)] == ["B"]


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


def test_dataset_rejects_events_at_unknown_towers():
    towers = {"T1": tower("T1")}
    make_dataset([voice("A", "B", "T1", T0)], [topup("A", T0, 5.0, retailer_tower="T1")], towers=towers)
    with pytest.raises(ValueError, match="cdr tower 'TX' not in towers"):
        make_dataset([voice("A", "B", "TX", T0)], towers=towers)
    with pytest.raises(ValueError, match="top-up tower 'TX' not in towers"):
        make_dataset([], [topup("A", T0, 5.0, retailer_tower="TX")], towers=towers)


@settings(max_examples=100, deadline=None)
@given(offsets=st.lists(st.integers(0, 99), max_size=30), lo=st.integers(-5, 105), width=st.integers(-5, 110))
def test_cdrs_between_matches_the_filter(offsets, lo, width):
    ds = make_dataset([voice(f"S{i}", "B", "T1", T0 + off) for i, off in enumerate(offsets)],
                      window=(T0, T0 + 100))
    lo, hi = T0 + lo, T0 + lo + width
    rows = cdr_rows(ds.cdrs)
    assert rows[ds.cdrs_between(lo, hi)] == [r for r in rows if lo <= r.timestamp < hi]
