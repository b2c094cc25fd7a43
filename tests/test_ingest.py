import csv
import gzip
import io
import logging
from datetime import timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdrlab import ingest
from cdrlab.records import EVENT_KINDS, Dataset, Tower

import ingest_oracle
from conftest import (T0, CdrRecord, TopUpRecord, cdr_rows, cdr_table, dataset_from_records, make_dataset, sms,
                      topup, topup_rows, topup_table, voice)

CDR_HEADER = "caller,callee,tower,timestamp,kind,magnitude"


def write(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_parse_cdr_happy_path(tmp_path):
    p = write(tmp_path / "c.csv", [
        CDR_HEADER,
        "A,B,T1,2016-05-01T00:10:00Z,voice,120",
        "B,A,T1,2016-05-01T00:20:00Z,sms,",
        "C,,T1,2016-05-01T00:30:00Z,data,",
    ])
    table, report = ingest.parse_cdr_file(p)
    recs = cdr_rows(table)
    assert report.rejects == [] and report.total_rows == 3
    assert recs[0].magnitude == 120.0
    assert recs[1].magnitude == 1.0  # blank sms magnitude defaults to one message
    assert recs[2].magnitude == 0.0 and recs[2].callee is None


def test_parse_cdr_reject_reasons(tmp_path):
    p = write(tmp_path / "c.csv", [
        CDR_HEADER,
        ",B,T1,2016-05-01T00:10:00Z,voice,10",        # missing caller
        "A,,T1,2016-05-01T00:10:00Z,voice,10",         # voice needs callee
        "A,B,T1,2016-05-01T00:10:00Z,fax,10",          # unknown kind
        "A,B,T1,not-a-time,voice,10",                  # bad timestamp
        "A,B,T1,2016-05-01T00:10:00Z,voice,",          # voice missing magnitude
        "A,B,T1,2016-05-01T00:10:00Z,voice,-3",        # negative magnitude
        "A,B,T1,2016-05-01T00:10:00Z,voice",           # wrong field count
        "A,B,T1,2016-05-01T00:10:00Z,voice,60",        # good
    ])
    table, report = ingest.parse_cdr_file(p, reject_cap=1.0)
    assert len(table) == 1
    reasons = [r for _, r in report.rejects]
    assert reasons == [
        "missing caller", "voice missing callee", "unknown kind 'fax'",
        "bad timestamp", "missing magnitude", "negative magnitude",
        "wrong field count",
    ]
    # physical line numbers: header is line 1
    assert [n for n, _ in report.rejects] == [2, 3, 4, 5, 6, 7, 8]


def test_parse_cdr_window_and_unknown_tower(tmp_path):
    p = write(tmp_path / "c.csv", [
        CDR_HEADER,
        "A,B,T1,2016-04-30T23:59:59Z,voice,10",
        "A,B,TX,2016-05-01T00:10:00Z,voice,10",
        "A,B,T1,2016-05-01T00:10:00Z,voice,10",
    ])
    table, report = ingest.parse_cdr_file(p, known_towers={"T1"}, reject_cap=1.0)
    # the parser selects no time range: the row before the day is an event
    assert [r.timestamp for r in cdr_rows(table)] == [T0 - 1, T0 + 600]
    assert report.rejects == [(3, "unknown tower 'TX'")]


def test_parse_cdr_missing_column_is_fatal(tmp_path):
    p = write(tmp_path / "c.csv", [
        "a_party,b_party,cell,ts,type,dur",
        "A,B,T1,2016-05-01T00:10:00Z,voice,10",
    ])
    with pytest.raises(ingest.IngestError, match="schema columns not found"):
        ingest.parse_cdr_file(p)


def test_reject_cap_aborts(tmp_path):
    lines = [CDR_HEADER] + ["A,B,T1,bad,voice,10"] * 5 + [
        "A,B,T1,2016-05-01T00:10:00Z,voice,10"
    ] * 95
    p = write(tmp_path / "c.csv", lines)
    with pytest.raises(ingest.IngestError, match="rejected"):
        ingest.parse_cdr_file(p, reject_cap=0.01)
    table, _ = ingest.parse_cdr_file(p, reject_cap=0.10)
    assert len(table) == 95


def test_comment_and_blank_lines_skipped_with_line_numbers(tmp_path):
    p = write(tmp_path / "c.csv", [
        "# produced by tooling",
        CDR_HEADER,
        "",
        "A,B,T1,bad,voice,10",
    ])
    table, report = ingest.parse_cdr_file(p, reject_cap=1.0)
    assert len(table) == 0
    assert report.rejects == [(4, "bad timestamp")]


def test_parse_topup_rules(tmp_path):
    p = write(tmp_path / "t.csv", [
        "buyer,retailer,retailer_tower,timestamp,amount",
        "A,R1,T1,2016-05-01T01:00:00Z,50",
        "A,R1,,2016-05-01T01:00:00Z,50",
        "A,R1,T1,2016-05-01T01:00:00Z,0",
        "A,R1,T1,2016-05-01T01:00:00Z,-5",
        ",R1,T1,2016-05-01T01:00:00Z,50",
    ])
    table, report = ingest.parse_topup_file(p, reject_cap=1.0)
    recs = topup_rows(table)
    assert len(recs) == 2 and recs[1].retailer_tower is None
    assert [r for _, r in report.rejects] == [
        "non-positive amount", "non-positive amount", "missing buyer",
    ]


def test_dataset_keeps_an_odd_line_before_a_later_line_of_its_timestamp(tmp_path):
    # a quoted line is split on its own and checked after its chunk's plain
    # lines; the parse puts it back in line order, which the stable time sort keeps
    c = write(tmp_path / "c.csv", [
        CDR_HEADER,
        '"A",B,T1,2016-05-01T00:10:00Z,voice,10',
        "C,B,T1,2016-05-01T00:10:00Z,voice,20",
    ])
    t = write(tmp_path / "t.csv", [
        "buyer,retailer,retailer_tower,timestamp,amount",
        '"A",R1,T1,2016-05-01T01:00:00Z,50',
        "C,R1,T1,2016-05-01T01:00:00Z,60",
    ])
    w = write(tmp_path / "w.csv", ["id,lon,lat", "T1,90,23"])
    ds, _ = ingest.load_dataset(c, t, w)
    assert [(r.caller, r.magnitude) for r in cdr_rows(ds.cdrs)] == [("A", 10.0), ("C", 20.0)]
    assert [(r.buyer, r.amount) for r in topup_rows(ds.topups)] == [("A", 50.0), ("C", 60.0)]


def test_dataset_sorts_the_retailer_ids_of_a_parsed_table(tmp_path):
    p = write(tmp_path / "t.csv", [
        "buyer,retailer,retailer_tower,timestamp,amount",
        "A,R2,,2016-05-01T01:00:00Z,50",
        ",R0,,2016-05-01T01:00:00Z,50",  # rejected: R0 is seen, but no row uses it
        "B,R1,,2016-05-01T00:00:00Z,50",
    ])
    table, report = ingest.parse_topup_file(p, reject_cap=1.0)
    assert report.rejects == [(3, "missing buyer")]
    assert table.retailer_ids == ("R2", "R0", "R1")  # first sight
    ds = Dataset(cdr_table(), table, {}, WIDE)
    assert ds.topups.retailer_ids == ("R1", "R2")
    assert [(r.buyer, r.retailer) for r in topup_rows(ds.topups)] == [("B", "R1"), ("A", "R2")]


def test_parse_tower_file(tmp_path):
    p = write(tmp_path / "towers.csv", [
        "id,lon,lat",
        "T1,90.5,23.5",
        "T2,190.0,23.5",
        "T3,90.5,95.0",
    ])
    towers, report = ingest.parse_tower_file(p, reject_cap=1.0)
    assert set(towers) == {"T1"}
    assert [r for _, r in report.rejects] == ["lon out of range", "lat out of range"]


def test_duplicate_tower_is_fatal(tmp_path):
    p = write(tmp_path / "towers.csv", ["id,lon,lat", "T1,90,23", "T1,91,23"])
    with pytest.raises(ingest.IngestError, match="duplicate tower id 'T1'"):
        ingest.parse_tower_file(p)


def test_gzip_round_trip(tmp_path):
    p = tmp_path / "c.csv.gz"
    with gzip.open(p, "wt") as fh:
        fh.write(CDR_HEADER + "\nA,B,T1,2016-05-01T00:10:00Z,voice,10\n")
    table, _ = ingest.parse_cdr_file(str(p))
    assert len(table) == 1


def test_writers_round_trip(tmp_path):
    cdrs = [voice("A", "B", "T1", T0 + 600, 120), sms("B", "A", "T2", T0 + 700)]
    tops = [topup("A", T0 + 800, 50.0, retailer_tower="T2")]
    towers = {"T1": Tower("T1", 90.25, 23.5), "T2": Tower("T2", 90.5, 23.75)}
    c, t, w = tmp_path / "c.csv", tmp_path / "t.csv", tmp_path / "w.csv"
    written = make_dataset(cdrs, tops, towers=towers)
    ingest.write_cdr_csv(written.cdrs, str(c), header_comment="# test")
    ingest.write_topup_csv(written.topups, str(t), header_comment="# test")
    ingest.write_towers_csv(towers, str(w), header_comment="# test")
    ds, reports = ingest.load_dataset(str(c), str(t), str(w))
    assert all(not r.rejects for r in reports.values())
    assert cdr_rows(ds.cdrs) == cdrs
    assert topup_rows(ds.topups) == tops
    assert ds.towers == towers
    # derived window covers min..max inclusive
    assert ds.window == (T0 + 600, T0 + 801)


def test_labels_round_trip(tmp_path):
    p = tmp_path / "labels.csv"
    ingest.write_labels_csv({"A": "low", "B": "high"}, str(p), header_comment="# x")
    labels, report = ingest.parse_labels_file(str(p))
    assert labels == {"A": "low", "B": "high"}
    assert report.rejects == [] and report.total_rows == 2


# -- streaming row reader ----------------------------------------------------------


def oracle_rows(fh):
    """The former row reader: the whole file's data lines through one csv.reader."""
    numbered = []
    for physical, raw in enumerate(fh, start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        numbered.append((physical, raw))
    rows = csv.reader(text for _, text in numbered)
    return [(num, row) for (num, _), row in zip(numbered, rows)]


def render_field(text, quote, pad):
    """A field as it appears in a file; text holding a quote or a comma is
    always quoted (with its quotes doubled), so every line stays balanced."""
    if quote or '"' in text or "," in text:
        return '"' + text.replace('"', '""') + '"'
    return " " * pad + text + " " * pad


FIELD = st.tuples(
    st.text(alphabet='ab1 .,;"\t#', max_size=6), st.booleans(), st.integers(0, 2),
)
LINE = st.one_of(
    st.tuples(st.just("row"), st.lists(FIELD, min_size=1, max_size=5)),
    st.tuples(st.just("blank"), st.sampled_from(["", " ", "\t", "  \t "])),
    st.tuples(st.just("comment"), st.sampled_from(["#", "# note", "  # indented", "\t#x,y"])),
)


@settings(max_examples=200, deadline=None)
@given(
    lines=st.lists(st.tuples(LINE, st.sampled_from(["\n", "\r\n"])), min_size=1, max_size=8),
    final_newline=st.booleans(),
)
def test_streaming_reader_matches_csv_oracle(lines, final_newline):
    parts = []
    for (kind, body), ending in lines:
        if kind == "row":
            body = ",".join(render_field(t, q, pad) for t, q, pad in body)
        parts.append(body + ending)
    if not final_newline:
        parts[-1] = parts[-1].rstrip("\r\n")
    text = "".join(parts)
    got = list(ingest.numbered_rows(io.StringIO(text, newline="")))
    assert got == oracle_rows(io.StringIO(text, newline=""))


def test_stray_quote_stays_on_its_line_cdr(tmp_path):
    p = write(tmp_path / "c.csv", [
        CDR_HEADER,
        "A,B,T1,2016-05-01T00:10:00Z,voice,10",
        '"B,A,T1,2016-05-01T00:11:00Z,voice,10',
        "C,A,T1,2016-05-01T00:12:00Z,voice,10",
        "D,A,T1,2016-05-01T00:13:00Z,voice,10",
    ])
    table, report = ingest.parse_cdr_file(p, reject_cap=1.0)
    assert [r.caller for r in cdr_rows(table)] == ["A", "C", "D"]
    assert report.rejects == [(3, "wrong field count")] and report.total_rows == 4


def test_stray_quote_stays_on_its_line_topup(tmp_path):
    p = write(tmp_path / "t.csv", [
        "buyer,retailer,retailer_tower,timestamp,amount",
        "A,R1,T1,2016-05-01T01:00:00Z,50",
        'B,"R1,T1,2016-05-01T01:00:00Z,50',
        "C,R1,T1,2016-05-01T01:00:00Z,50",
        "D,R1,T1,2016-05-01T01:00:00Z,50",
    ])
    table, report = ingest.parse_topup_file(p, reject_cap=1.0)
    assert [r.buyer for r in topup_rows(table)] == ["A", "C", "D"]
    assert report.rejects == [(3, "wrong field count")] and report.total_rows == 4


def test_stray_quote_stays_on_its_line_tower(tmp_path):
    p = write(tmp_path / "towers.csv", ["id,lon,lat", "T1,90,23", '"T2,91,23', "T3,92,23", "T4,93,23"])
    towers, report = ingest.parse_tower_file(p, reject_cap=1.0)
    assert sorted(towers) == ["T1", "T3", "T4"]
    assert report.rejects == [(3, "wrong field count")] and report.total_rows == 4


def test_quoted_fields_hold_delimiters_and_quotes(tmp_path):
    p = write(tmp_path / "c.csv", [
        CDR_HEADER,
        '"A,1","B ""x""",T1,2016-05-01T00:10:00Z,voice,10',
    ])
    table, report = ingest.parse_cdr_file(p)
    recs = cdr_rows(table)
    assert (recs[0].caller, recs[0].callee) == ("A,1", 'B "x"') and report.rejects == []


# -- input boundary ------------------------------------------------------------------


def test_non_finite_magnitude_rejected(tmp_path):
    p = write(tmp_path / "c.csv", [CDR_HEADER] + [
        f"A,B,T1,2016-05-01T00:10:00Z,voice,{m}" for m in ("nan", "inf", "-inf", "NaN", "Infinity", "60")
    ])
    table, report = ingest.parse_cdr_file(p, reject_cap=1.0)
    assert [r.magnitude for r in cdr_rows(table)] == [60.0]
    assert report.rejects == [(n, "non-finite magnitude") for n in range(2, 7)]


def test_non_finite_amount_rejected(tmp_path):
    p = write(tmp_path / "t.csv", ["buyer,retailer,retailer_tower,timestamp,amount"] + [
        f"A,R1,T1,2016-05-01T01:00:00Z,{a}" for a in ("nan", "inf", "-inf", "50")
    ])
    table, report = ingest.parse_topup_file(p, reject_cap=1.0)
    assert [r.amount for r in topup_rows(table)] == [50.0]
    assert report.rejects == [(n, "non-finite amount") for n in range(2, 5)]


def test_short_label_row_is_a_line_numbered_reject(tmp_path):
    p = write(tmp_path / "labels.csv", ["subscriber,label", "A,low", "B", "C,high"])
    with pytest.raises(ingest.IngestError, match="line 3: wrong field count"):
        ingest.parse_labels_file(p)
    labels, report = ingest.parse_labels_file(p, reject_cap=1.0)
    assert labels == {"A": "low", "C": "high"}
    assert report.rejects == [(3, "wrong field count")] and report.total_rows == 3


def test_load_dataset_reports_label_rejects(tmp_path):
    c = write(tmp_path / "c.csv", [CDR_HEADER, "A,B,T1,2016-05-01T00:10:00Z,voice,10"])
    w = write(tmp_path / "w.csv", ["id,lon,lat", "T1,90,23"])
    lab = write(tmp_path / "l.csv", ["subscriber,label", "A,low", "B"])
    _, reports = ingest.load_dataset(c, None, w, labels_path=lab, reject_cap=1.0)
    assert reports["labels"].rejects == [(3, "wrong field count")]


def test_unknown_towers_warn_once_per_file(tmp_path, caplog):
    cdr = write(tmp_path / "c.csv", [CDR_HEADER] + [
        f"A,B,TX,2016-05-01T00:1{i}:00Z,voice,10" for i in range(7)
    ] + ["A,B,T1,2016-05-01T00:20:00Z,voice,10"])
    top = write(tmp_path / "t.csv", [
        "buyer,retailer,retailer_tower,timestamp,amount",
        "A,R1,TX,2016-05-01T01:00:00Z,50",
        "A,R1,T1,2016-05-01T01:00:00Z,50",
    ])
    with caplog.at_level(logging.WARNING, logger="cdrlab.ingest"):
        recs, report = ingest.parse_cdr_file(cdr, known_towers={"T1"}, reject_cap=1.0)
        tops, _ = ingest.parse_topup_file(top, known_towers={"T1"}, reject_cap=1.0)
    assert len(recs) == 1 and len(report.rejects) == 7 and len(tops) == 1
    messages = [r.getMessage() for r in caplog.records if r.name == "cdrlab.ingest"]
    assert messages == [
        f"{cdr}: 7 rows rejected for an unknown tower (lines 2, 3, 4, 5, 6, ...)",
        f"{top}: 1 rows rejected for an unknown tower (lines 2)",
    ]


# -- per-parser fuzz ----------------------------------------------------------------
#
# Any text without a line break, in any field.  Each file is a fixed header
# plus generated lines; a data line is one that is neither blank nor a '#'
# comment.  Every data line must end as exactly one record or one reject
# carrying its physical line number, and what was parsed must survive
# write -> parse unchanged.

ANY = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"), max_size=6)
OFFSETS = st.one_of(st.none(), st.integers(-1439, 1439).map(lambda m: timezone(timedelta(minutes=m))))
STAMP = st.one_of(
    ANY,
    st.builds(lambda dt, tz: dt.replace(tzinfo=tz).isoformat(), st.datetimes(), OFFSETS),
    st.sampled_from(["2016-05-01T00:10:00Z", "0099-01-01T00:00:00Z", "0001-01-01T00:00:00+01:00"]),
)
NUMBER = st.one_of(
    ANY,
    st.floats().map(repr),
    st.sampled_from(["", "0", "-0", "12.5", " 7 ", "-3", "1e400", "1_0", "nan", "inf"]),
)
ID = st.one_of(ANY, st.sampled_from(["A", " B ", "#C", '"D"', "E,F", 'G"H', ""]))


def fuzz_line(fields, extra, quote):
    """One generated line: fields plus extras, as text or each field quoted."""
    cells = list(fields) + extra
    if quote:
        return ",".join('"' + c.replace('"', '""') + '"' for c in cells)
    return ",".join(cells)


def fuzz_lines(*fields):
    line = st.builds(fuzz_line, st.tuples(*fields), st.lists(ANY, max_size=1), st.booleans())
    short = st.lists(ANY, max_size=len(fields) - 1).map(",".join)
    return st.lists(st.one_of(line, short, ANY), max_size=8)


def write_fuzz(directory, name, header, lines):
    path = directory / name
    path.write_text("\n".join([header] + lines) + "\n", encoding="utf-8", newline="")
    data = [n for n, line in enumerate(lines, start=2) if line.strip() and not line.strip().startswith("#")]
    return str(path), data


def assert_one_outcome_per_line(report, accepted, data):
    numbers = [n for n, _ in report.rejects]
    assert report.total_rows == len(data)
    assert numbers == sorted(set(numbers)) and set(numbers) <= set(data)
    assert accepted + len(numbers) == len(data)


@settings(max_examples=150, deadline=None)
@given(lines=fuzz_lines(ID, ID, ID, STAMP, st.one_of(ANY, st.sampled_from(["voice", " SMS", "data", "fax"])), NUMBER))
def test_cdr_parser_fuzz_and_round_trip(tmp_path_factory, lines):
    d = tmp_path_factory.mktemp("cdr")
    path, data = write_fuzz(d, "c.csv", CDR_HEADER, lines)
    table, report = ingest.parse_cdr_file(path, reject_cap=1.0)
    assert_one_outcome_per_line(report, len(table), data)
    ingest.write_cdr_csv(table, str(d / "back.csv"))
    back, again = ingest.parse_cdr_file(str(d / "back.csv"), reject_cap=1.0)
    assert cdr_rows(back) == cdr_rows(table) and again.rejects == [] and again.total_rows == len(table)


@settings(max_examples=150, deadline=None)
@given(lines=fuzz_lines(ID, ID, ID, STAMP, NUMBER))
def test_topup_parser_fuzz_and_round_trip(tmp_path_factory, lines):
    d = tmp_path_factory.mktemp("topup")
    path, data = write_fuzz(d, "t.csv", "buyer,retailer,retailer_tower,timestamp,amount", lines)
    table, report = ingest.parse_topup_file(path, reject_cap=1.0)
    assert_one_outcome_per_line(report, len(table), data)
    ingest.write_topup_csv(table, str(d / "back.csv"))
    back, again = ingest.parse_topup_file(str(d / "back.csv"), reject_cap=1.0)
    assert topup_rows(back) == topup_rows(table) and again.rejects == [] and again.total_rows == len(table)


@settings(max_examples=150, deadline=None)
@given(lines=fuzz_lines(ID, NUMBER, NUMBER))
def test_tower_parser_fuzz_and_round_trip(tmp_path_factory, lines):
    d = tmp_path_factory.mktemp("tower")
    path, data = write_fuzz(d, "w.csv", "id,lon,lat", lines)
    try:
        towers, report = ingest.parse_tower_file(path, reject_cap=1.0)
    except ingest.IngestError as exc:
        assert "duplicate tower id" in str(exc)  # fatal by contract
        return
    assert_one_outcome_per_line(report, len(towers), data)
    ingest.write_towers_csv(towers, str(d / "back.csv"))
    back, again = ingest.parse_tower_file(str(d / "back.csv"), reject_cap=1.0)
    assert back == towers and again.rejects == [] and again.total_rows == len(towers)


@settings(max_examples=150, deadline=None)
@given(lines=fuzz_lines(ID, ID))
def test_labels_parser_fuzz_and_round_trip(tmp_path_factory, lines):
    d = tmp_path_factory.mktemp("labels")
    path, data = write_fuzz(d, "l.csv", "subscriber,label", lines)
    labels, report = ingest.parse_labels_file(path, reject_cap=1.0)
    # a later row for a subscriber wins, so count the rows, not the labels
    assert_one_outcome_per_line(report, len(data) - len(report.rejects), data)
    assert len(labels) <= len(data) - len(report.rejects)
    ingest.write_labels_csv(labels, str(d / "back.csv"))
    back, again = ingest.parse_labels_file(str(d / "back.csv"), reject_cap=1.0)
    assert back == labels and again.rejects == [] and again.total_rows == len(labels)


def test_leading_hash_id_survives_a_round_trip(tmp_path):
    p = write(tmp_path / "c.csv", [CDR_HEADER, '"#A1",B,T1,2016-05-01T00:00:00Z,voice,30',
                                   "A2,B,T1,2016-05-01T00:00:00Z,voice,30"])
    table, _ = ingest.parse_cdr_file(p)
    assert cdr_rows(table)[0].caller == "#A1"
    ingest.write_cdr_csv(table, str(tmp_path / "back.csv"))
    back, report = ingest.parse_cdr_file(str(tmp_path / "back.csv"))
    assert cdr_rows(back) == cdr_rows(table) and report.total_rows == 2


def test_blank_label_subscriber_is_a_line_numbered_reject(tmp_path):
    p = write(tmp_path / "labels.csv", ["subscriber,label", ",high", "A,low", " ,low"])
    with pytest.raises(ingest.IngestError, match="line 2: missing subscriber"):
        ingest.parse_labels_file(p)
    labels, report = ingest.parse_labels_file(p, reject_cap=1.0)
    assert labels == {"A": "low"}
    assert report.rejects == [(2, "missing subscriber"), (4, "missing subscriber")]
    assert report.total_rows == 3


# -- columnar parse against the per-row oracle ----------------------------------------
#
# The columnar parsers split most lines at once, the rest one by one, and
# check them all with array operations.  On any mix of lines, under a header
# with or without an extra column, they must give what the former per-row
# parsers give: the same events, the same (line, reason) rejects and the same
# row count, whatever the chunk size.

KNOWN = ("T1", "T2")
WIDE = (-62135596800, 253402300800)
PAD = st.sampled_from(["", " ", "\t"])
ORACLE_ID = st.sampled_from(["A", "B", "b", "#C", "D,E", 'F"G', "", "T1"])
ORACLE_TOWER = st.sampled_from(["T1", "T2", "TX", "", "t1"])
CLEAN_STAMP = st.builds("{:04d}-{:02d}-{:02d}T{:02d}:{:02d}:{:02d}{}".format, st.integers(1, 9999),
                        st.integers(1, 12), st.integers(1, 28), st.integers(0, 23), st.integers(0, 59),
                        st.integers(0, 59), st.sampled_from("Zz"))
CLEAN_ID = st.sampled_from(["A", "B", "b", "C1"])
CLEAN_TOWER = st.sampled_from(KNOWN)
ORACLE_STAMP = st.one_of(
    CLEAN_STAMP,
    st.builds("{:04d}-{:02d}-{:02d}T{:02d}:{:02d}:{:02d}{}".format,
              st.sampled_from([1, 99, 999, 1900, 2000, 2015, 2016, 9999]), st.integers(0, 13),
              st.integers(0, 32), st.integers(0, 24), st.integers(0, 60), st.integers(0, 60),
              st.sampled_from(["Z", "z", "+00:00", "+06:00", "-01:30", "", "Q"])),
    st.sampled_from(["2016-02-29T12:00:00Z", "2015-02-29T12:00:00Z", "2016-02-30T00:00:00Z",
                     "2016-05-01T24:00:00Z", "2016-05-01 00:10:00Z", "2016-05-01T00:10:00.5Z",
                     "0001-01-01T00:00:00+01:00", "9999-12-31T23:59:59-01:00", "not-a-time"]),
)
ORACLE_KIND = st.sampled_from(["voice", "sms", "data", "video", "mms", "VOICE", " Sms ", "fax", ""])
ORACLE_NUMBER = st.sampled_from(["60", "1.5", "", "0", "-0", "-0.5", "-5", "12x5", "nan", "inf", "-inf",
                                 " 7 ", "1e3", "1_0", "1e400"])


def oracle_field(text, pad, quote):
    """A field as written: padded, and quoted when asked or when it must be."""
    if quote or "," in text or '"' in text:
        return pad + '"' + text.replace('"', '""') + '"' + pad
    return pad + text + pad


def oracle_tail(row, tail):
    """row with tail appended, or with its last comma and what follows cut when tail is None."""
    return row.rsplit(",", 1)[0] if tail is None else row + tail


def oracle_lines(fields, clean, ends=("\n", "\r\n")):
    """Lines of the given fields (one in ten quoted), lines of clean fields,
    either of them sometimes over-long or cut short, short rows, blanks and
    comments, each ending in one of ends."""
    cell = [st.tuples(f, PAD, st.integers(0, 9).map(lambda q: q == 0)) for f in fields]
    row = st.one_of(
        st.tuples(*cell).map(lambda cells: ",".join(oracle_field(*c) for c in cells)),
        st.tuples(*clean).map(",".join),
    )
    line = st.one_of(
        st.tuples(row, st.sampled_from(["", "", "", ",x", ',"q,r"', ",1,2", None])).map(lambda t: oracle_tail(*t)),
        st.sampled_from(["", "  ", "# comment", "  #x,y,z,1,2,3", "A,B,T1"]),
    )
    return st.lists(st.tuples(line, st.sampled_from(ends)), max_size=25)


def oracle_file(directory, name, header, lines, extra):
    """The file of header and lines; extra "first" puts a column before the
    header's and a field before each line's, extra "last" a column after the
    header's."""
    if extra == "first":
        header = "extra," + header
        lines = [("x," + line if line.strip() and not line.lstrip().startswith("#") else line, end)
                 for line, end in lines]
    elif extra == "last":
        header += ",extra"
    path = directory / name
    path.write_bytes((header + "\n" + "".join(line + end for line, end in lines)).encode("utf-8"))
    return str(path)


EXTRA = st.sampled_from([None, "first", "last"])


CLEAN_NUMBER = st.floats(0.5, 1e6).map(repr)
CDR_LINES = oracle_lines(
    (ORACLE_ID, ORACLE_ID, ORACLE_TOWER, ORACLE_STAMP, ORACLE_KIND, ORACLE_NUMBER),
    (CLEAN_ID, CLEAN_ID, CLEAN_TOWER, CLEAN_STAMP, st.sampled_from(EVENT_KINDS), CLEAN_NUMBER))
TOPUP_LINES = oracle_lines(
    (ORACLE_ID, ORACLE_ID, ORACLE_TOWER, ORACLE_STAMP, ORACLE_NUMBER),
    (CLEAN_ID, CLEAN_ID, st.sampled_from(KNOWN + ("",)), CLEAN_STAMP, CLEAN_NUMBER))
TOWERS = {t: Tower(t, 90.0, 23.0) for t in KNOWN}


@settings(max_examples=300, deadline=None)
@given(lines=CDR_LINES, chunk=st.sampled_from([1, 5, 40, ingest.CHUNK_CHARS]), extra=EXTRA)
def test_columnar_cdr_parse_matches_per_row_oracle(tmp_path_factory, lines, chunk, extra):
    path = oracle_file(tmp_path_factory.mktemp("cdr"), "c.csv", CDR_HEADER, lines, extra)
    default, ingest.CHUNK_CHARS = ingest.CHUNK_CHARS, chunk
    try:
        table, report = ingest.parse_cdr_file(path, known_towers=set(KNOWN), reject_cap=1.0)
    finally:
        ingest.CHUNK_CHARS = default
    records, oracle_report = ingest_oracle.parse_cdr_file(path, known_towers=set(KNOWN), reject_cap=1.0)
    assert report.rejects == oracle_report.rejects
    assert report.total_rows == oracle_report.total_rows
    got = Dataset(table, topup_table(), TOWERS, WIDE)
    want = dataset_from_records(records, (), TOWERS, WIDE)
    assert cdr_rows(got.cdrs) == cdr_rows(want.cdrs)
    assert cdr_rows(table) == records  # the parse keeps line order


@settings(max_examples=300, deadline=None)
@given(lines=TOPUP_LINES, chunk=st.sampled_from([1, 5, 40, ingest.CHUNK_CHARS]), extra=EXTRA)
def test_columnar_topup_parse_matches_per_row_oracle(tmp_path_factory, lines, chunk, extra):
    header = "buyer,retailer,retailer_tower,timestamp,amount"
    path = oracle_file(tmp_path_factory.mktemp("topup"), "t.csv", header, lines, extra)
    default, ingest.CHUNK_CHARS = ingest.CHUNK_CHARS, chunk
    try:
        table, report = ingest.parse_topup_file(path, known_towers=set(KNOWN), reject_cap=1.0)
    finally:
        ingest.CHUNK_CHARS = default
    records, oracle_report = ingest_oracle.parse_topup_file(path, known_towers=set(KNOWN), reject_cap=1.0)
    assert report.rejects == oracle_report.rejects
    assert report.total_rows == oracle_report.total_rows
    got = Dataset(cdr_table(), table, TOWERS, WIDE)
    want = dataset_from_records((), records, TOWERS, WIDE)
    assert topup_rows(got.topups) == topup_rows(want.topups)
    assert topup_rows(table) == records  # the parse keeps line order


LABEL_LINES = oracle_lines((ORACLE_ID, st.sampled_from(["low", "high", "", " mid ", "a,b", 'q"r', "#x"])),
                           (CLEAN_ID, st.sampled_from(["low", "high"])), ends=("\n", "\r\n", "\r"))


def refused(parse, path) -> bool:
    """Whether parse stops path at a reject cap of 0."""
    try:
        parse(path, reject_cap=0.0)
    except ingest.IngestError:
        return True
    return False


@settings(max_examples=300, deadline=None)
@given(lines=LABEL_LINES, chunk=st.sampled_from([1, 5, 40, ingest.CHUNK_CHARS]), extra=EXTRA, gz=st.booleans())
def test_columnar_labels_parse_matches_per_row_oracle(tmp_path_factory, lines, chunk, extra, gz):
    path = oracle_file(tmp_path_factory.mktemp("labels"), "l.csv", "subscriber,label", lines, extra)
    if gz:
        with open(path, "rb") as raw, gzip.open(path + ".gz", "wb") as packed:
            packed.write(raw.read())
        path += ".gz"
    default, ingest.CHUNK_CHARS = ingest.CHUNK_CHARS, chunk
    try:
        labels, report = ingest.parse_labels_file(path, reject_cap=1.0)
        refuses = refused(ingest.parse_labels_file, path)
    finally:
        ingest.CHUNK_CHARS = default
    want, oracle_report = ingest_oracle.parse_labels_file(path, reject_cap=1.0)
    assert list(labels.items()) == list(want.items())  # a later row wins, in order of first sight
    assert report.rejects == oracle_report.rejects
    assert report.total_rows == oracle_report.total_rows
    assert refuses == refused(ingest_oracle.parse_labels_file, path)


# -- columnar writers against the per-row oracle --------------------------------------
#
# The CDR and top-up writers format whole columns per chunk of rows and join
# each chunk's lines at once; a table with an id that needs quoting goes
# through the csv module row by row.  Either way they must write the bytes
# the former per-row writers write, whatever the chunk size.

FIRST_TS, LAST_TS = -62135596800, 253402300799  # 0001-01-01T00:00:00Z, 9999-12-31T23:59:59Z
PLAIN_ID = st.sampled_from(["A", "b", "C1", "T1", "x y"])
QUOTED_ID = st.one_of(PLAIN_ID, st.sampled_from(["E,F", 'G"H', "#C", " #C", "\t#D", "I\nJ", "K\rL"]), ANY)
WRITE_TS = st.one_of(
    st.integers(FIRST_TS, LAST_TS),
    st.sampled_from([FIRST_TS, FIRST_TS + 86399, LAST_TS - 86399, LAST_TS, -1, 0, T0, 951782400, 4107542399]),
)
WHOLE = st.one_of(st.integers(-2**53 + 1, 2**53 - 1).map(float), st.sampled_from([0.0, -0.0, 60.0, 1.0]))
ANY_NUMBER = st.one_of(WHOLE, st.floats(), st.sampled_from([0.5, -3.25, 2.0**53, -2.0**53, 1e300, -1e300]))


def write_both(directory, write, oracle, table, gz, comment):
    """The bytes write and oracle each give for table, read back through gzip for a .gz path."""
    name = "t.csv.gz" if gz else "t.csv"
    got, want = directory / "got", directory / "want"
    got.mkdir(), want.mkdir()
    write(table, str(got / name), header_comment=comment)
    oracle(table, str(want / name), header_comment=comment)
    read = (lambda p: gzip.decompress(p.read_bytes())) if gz else (lambda p: p.read_bytes())
    return read(got / name), read(want / name)


def drawn_rows(data, chunk, row):
    """0 rows, one chunk, one chunk plus one, or any count up to 3 chunks, of row."""
    n = data.draw(st.one_of(st.sampled_from([0, chunk, chunk + 1]), st.integers(0, 3 * chunk)))
    return data.draw(st.lists(row, min_size=n, max_size=n))


WRITERS = {
    "cdr": (lambda ids, numbers: st.builds(CdrRecord, ids, st.one_of(st.none(), ids), ids, WRITE_TS,
                                           st.sampled_from(EVENT_KINDS), numbers),
            cdr_table, ingest.write_cdr_csv, ingest_oracle.write_cdr_csv),
    "topup": (lambda ids, numbers: st.builds(TopUpRecord, ids, ids, st.one_of(st.none(), ids), WRITE_TS, numbers),
              topup_table, ingest.write_topup_csv, ingest_oracle.write_topup_csv),
}


@pytest.mark.parametrize("kind", list(WRITERS))
@settings(max_examples=200, deadline=None)
@given(data=st.data(), ids=st.sampled_from([PLAIN_ID, QUOTED_ID]), numbers=st.sampled_from([WHOLE, ANY_NUMBER]),
       chunk=st.sampled_from([1, 3, 8]), gz=st.booleans(), comment=st.sampled_from([None, "# x"]))
def test_columnar_writer_matches_per_row_oracle(tmp_path_factory, kind, data, ids, numbers, chunk, gz, comment):
    row, build, write, oracle = WRITERS[kind]
    table = build(drawn_rows(data, chunk, row(ids, numbers)))
    default, ingest.WRITE_CHUNK_ROWS = ingest.WRITE_CHUNK_ROWS, chunk
    try:
        got, want = write_both(tmp_path_factory.mktemp(kind), write, oracle, table, gz, comment)
    finally:
        ingest.WRITE_CHUNK_ROWS = default
    assert got == want


@pytest.mark.parametrize("ts", [FIRST_TS - 1, LAST_TS + 1])
def test_writers_refuse_a_timestamp_outside_years_1_to_9999(tmp_path, ts):
    cdrs = cdr_table([voice("A", "B", "T1", T0), voice("A", "B", "T1", ts)])
    topups = topup_table([topup("A", T0, 5.0), topup("A", ts, 5.0)])
    for write, table in ((ingest.write_cdr_csv, cdrs), (ingest.write_topup_csv, topups),
                         (ingest_oracle.write_cdr_csv, cdrs), (ingest_oracle.write_topup_csv, topups)):
        with pytest.raises(ValueError):
            write(table, str(tmp_path / "t.csv"))
