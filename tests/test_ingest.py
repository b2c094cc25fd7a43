import csv
import gzip
import io
import logging
from datetime import timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdrlab import ingest
from cdrlab.records import Tower

from conftest import T0, DAY, sms, topup, voice

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
    recs, report = ingest.parse_cdr_file(p)
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
    recs, report = ingest.parse_cdr_file(p, reject_cap=1.0)
    assert len(recs) == 1
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
    recs, report = ingest.parse_cdr_file(
        p, known_towers={"T1"}, window=(T0, T0 + DAY), reject_cap=1.0
    )
    assert len(recs) == 1
    assert [r for _, r in report.rejects] == ["timestamp outside window", "unknown tower 'TX'"]


def test_parse_cdr_attr_passthrough(tmp_path):
    p = write(tmp_path / "c.csv", [
        CDR_HEADER + ",imsi",
        "A,B,T1,2016-05-01T00:10:00Z,voice,10,123456",
    ])
    schema = dict(ingest.DEFAULT_CDR_SCHEMA, imsi="imsi")
    recs, _ = ingest.parse_cdr_file(p, schema=schema)
    assert recs[0].attrs == (("imsi", "123456"),)


def test_parse_cdr_schema_remap_and_missing_column(tmp_path):
    p = write(tmp_path / "c.csv", [
        "a_party,b_party,cell,ts,type,dur",
        "A,B,T1,2016-05-01T00:10:00Z,voice,10",
    ])
    schema = {"caller": "a_party", "callee": "b_party", "tower": "cell",
              "timestamp": "ts", "kind": "type", "magnitude": "dur"}
    recs, _ = ingest.parse_cdr_file(p, schema=schema)
    assert recs[0].caller == "A"
    with pytest.raises(ingest.IngestError, match="schema columns not found"):
        ingest.parse_cdr_file(p)


def test_reject_cap_aborts(tmp_path):
    lines = [CDR_HEADER] + ["A,B,T1,bad,voice,10"] * 5 + [
        "A,B,T1,2016-05-01T00:10:00Z,voice,10"
    ] * 95
    p = write(tmp_path / "c.csv", lines)
    with pytest.raises(ingest.IngestError, match="rejected"):
        ingest.parse_cdr_file(p, reject_cap=0.01)
    recs, _ = ingest.parse_cdr_file(p, reject_cap=0.10)
    assert len(recs) == 95


def test_comment_and_blank_lines_skipped_with_line_numbers(tmp_path):
    p = write(tmp_path / "c.csv", [
        "# produced by tooling",
        CDR_HEADER,
        "",
        "A,B,T1,bad,voice,10",
    ])
    recs, report = ingest.parse_cdr_file(p, reject_cap=1.0)
    assert recs == []
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
    recs, report = ingest.parse_topup_file(p, reject_cap=1.0)
    assert len(recs) == 2 and recs[1].retailer_tower is None
    assert [r for _, r in report.rejects] == [
        "non-positive amount", "non-positive amount", "missing buyer",
    ]


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
    recs, _ = ingest.parse_cdr_file(str(p))
    assert len(recs) == 1


def test_writers_round_trip(tmp_path):
    cdrs = [voice("A", "B", "T1", T0 + 600, 120), sms("B", "A", "T2", T0 + 700)]
    tops = [topup("A", T0 + 800, 50.0, retailer_tower="T2")]
    towers = {"T1": Tower("T1", 90.25, 23.5), "T2": Tower("T2", 90.5, 23.75)}
    c, t, w = tmp_path / "c.csv", tmp_path / "t.csv", tmp_path / "w.csv"
    ingest.write_cdr_csv(cdrs, str(c), header_comment="# test")
    ingest.write_topup_csv(tops, str(t), header_comment="# test")
    ingest.write_towers_csv(towers, str(w), header_comment="# test")
    ds, reports = ingest.load_dataset(str(c), str(t), str(w))
    assert all(not r.rejects for r in reports.values())
    assert list(ds.cdrs) == cdrs
    assert list(ds.topups) == tops
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
    recs, report = ingest.parse_cdr_file(p, reject_cap=1.0)
    assert [r.caller for r in recs] == ["A", "C", "D"]
    assert report.rejects == [(3, "wrong field count")] and report.total_rows == 4


def test_stray_quote_stays_on_its_line_topup(tmp_path):
    p = write(tmp_path / "t.csv", [
        "buyer,retailer,retailer_tower,timestamp,amount",
        "A,R1,T1,2016-05-01T01:00:00Z,50",
        'B,"R1,T1,2016-05-01T01:00:00Z,50',
        "C,R1,T1,2016-05-01T01:00:00Z,50",
        "D,R1,T1,2016-05-01T01:00:00Z,50",
    ])
    recs, report = ingest.parse_topup_file(p, reject_cap=1.0)
    assert [r.buyer for r in recs] == ["A", "C", "D"]
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
    recs, report = ingest.parse_cdr_file(p)
    assert (recs[0].caller, recs[0].callee) == ("A,1", 'B "x"') and report.rejects == []


# -- input boundary ------------------------------------------------------------------


def test_non_finite_magnitude_rejected(tmp_path):
    p = write(tmp_path / "c.csv", [CDR_HEADER] + [
        f"A,B,T1,2016-05-01T00:10:00Z,voice,{m}" for m in ("nan", "inf", "-inf", "NaN", "Infinity", "60")
    ])
    recs, report = ingest.parse_cdr_file(p, reject_cap=1.0)
    assert [r.magnitude for r in recs] == [60.0]
    assert report.rejects == [(n, "non-finite magnitude") for n in range(2, 7)]


def test_non_finite_amount_rejected(tmp_path):
    p = write(tmp_path / "t.csv", ["buyer,retailer,retailer_tower,timestamp,amount"] + [
        f"A,R1,T1,2016-05-01T01:00:00Z,{a}" for a in ("nan", "inf", "-inf", "50")
    ])
    recs, report = ingest.parse_topup_file(p, reject_cap=1.0)
    assert [r.amount for r in recs] == [50.0]
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
    ds, reports = ingest.load_dataset(c, None, w, labels_path=lab, reject_cap=1.0)
    assert ds.labels == {"A": "low"}
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
    recs, report = ingest.parse_cdr_file(path, reject_cap=1.0)
    assert_one_outcome_per_line(report, len(recs), data)
    ingest.write_cdr_csv(recs, str(d / "back.csv"))
    back, again = ingest.parse_cdr_file(str(d / "back.csv"), reject_cap=1.0)
    assert back == recs and again.rejects == [] and again.total_rows == len(recs)


@settings(max_examples=150, deadline=None)
@given(lines=fuzz_lines(ID, ID, ID, STAMP, NUMBER))
def test_topup_parser_fuzz_and_round_trip(tmp_path_factory, lines):
    d = tmp_path_factory.mktemp("topup")
    path, data = write_fuzz(d, "t.csv", "buyer,retailer,retailer_tower,timestamp,amount", lines)
    recs, report = ingest.parse_topup_file(path, reject_cap=1.0)
    assert_one_outcome_per_line(report, len(recs), data)
    ingest.write_topup_csv(recs, str(d / "back.csv"))
    back, again = ingest.parse_topup_file(str(d / "back.csv"), reject_cap=1.0)
    assert back == recs and again.rejects == [] and again.total_rows == len(recs)


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
    recs, _ = ingest.parse_cdr_file(p)
    assert recs[0].caller == "#A1"
    ingest.write_cdr_csv(recs, str(tmp_path / "back.csv"))
    back, report = ingest.parse_cdr_file(str(tmp_path / "back.csv"))
    assert back == recs and report.total_rows == 2
