"""Parse, validate, and serialize CDR, top-up, tower, and label files.

All parsers are line-oriented: well-formed lines become events, malformed
lines land in a reject report carrying the physical line number and a
reason.  Crossing the reject-fraction cap aborts with a summary, since a
dirty file is more likely a schema mismatch than real data.

Every file is comma-separated.  A line without a double quote is split on
commas; a line with one goes through ``csv.reader`` on its own, so quoted
fields may hold commas or doubled quotes but never a line break.  An
unbalanced quote therefore damages only its own line, which usually ends as
a "wrong field count" reject, and never swallows the lines after it.

The side files that ``cli`` reads are streamed one line at a time by
``numbered_rows``.  CDR, top-up, towers and labels files are read in chunks
of about ``CHUNK_CHARS`` characters, each ending at a line end, straight
into column arrays.  The unquoted lines of a chunk that have the header's
field count are split at once; every other data line is split on its own and
cut or padded to the header's width.  Every rule is then one array test over
the chunk's lines: ids, towers and kinds are decoded once per distinct text,
canonical ``YYYY-MM-DDTHH:MM:SSZ`` timestamps at once and any other through
``parse_timestamp``, once per distinct text.  A line is rejected for the
first rule it breaks, in the order the parsers list them, and only the
rejected lines get their reason formatted.  One rule depends on line order,
the fatal repeat of an accepted tower id; it is a short pass over each
chunk's lines in line order.  The accepted rows come back in line order,
event ids coded into id tables in order of first sight; ``load_dataset``
hands the events to a ``Dataset``, which alone sorts ids and rows.

``load_dataset`` parses each CDR and top-up file once per content.  It
stores a parse (the columns in line order, and one JSON member of the
first-sight id tables, the rejects and the row count) as one uncompressed
``.npz`` under ``$XDG_CACHE_HOME/cdrlab``, else ``~/.cache/cdrlab``, and a
later parse of the same bytes reads that snapshot instead.  The key is the
sha256 of the file's bytes, the table it fills, whether it is gzip, the
known tower ids (they decide the unknown-tower rejects), the code of this
module and of ``records``, and the Python and numpy versions.  The snapshots
take at most ``SNAPSHOT_BUDGET`` bytes; the least recently used go first.  A
missing or damaged entry, a cache directory that cannot be written and an
input that is not a regular file (a FIFO; hashing would consume it) each
mean a plain parse, never an error or another result.  The towers and labels
files, a few thousand lines at most, are parsed every time.

``write_csv`` writes output tables a row at a time through the csv module,
every cell under one rule (see there).
The CDR and top-up writers format whole columns per chunk of rows instead,
and join each chunk's lines at once; a table with an id that needs quoting
goes through ``write_csv``'s row loop, so the bytes are the same either way.
"""

from __future__ import annotations

import contextlib
import csv
import gzip
import hashlib
import io
import json
import math
import os
import stat
import sys
import zipfile
from dataclasses import dataclass, fields as dataclass_fields

import numpy as np

from . import records
from .records import (
    DATA,
    EVENT_KINDS,
    MMS,
    SMS,
    VIDEO,
    VOICE,
    FIRST_TS,
    LAST_TS,
    SECONDS_PER_DAY,
    CdrTable,
    Dataset,
    TopUpTable,
    civil_from_days,
    days_from_civil,
    parse_timestamp,
)

CDR_FIELDS = ("caller", "callee", "tower", "timestamp", "kind", "magnitude")
TOPUP_FIELDS = ("buyer", "retailer", "retailer_tower", "timestamp", "amount")
LABEL_FIELDS = ("subscriber", "label")

DEFAULT_REJECT_CAP = 0.01

# Characters per chunk of an event file, which also holds the rest of its
# last line.  It bounds the transient strings of a parse; at this size (about
# 2,700 CDR lines) a chunk stays in cache, and parsing ran both faster and in
# less memory than with chunks of 2^16, 2^18, 2^19 or 2^20 characters.
CHUNK_CHARS = 1 << 17
# Rows per chunk of a CDR or top-up write.  It bounds the transient strings
# of a chunk's lines: joining all 839k rows of the 5,000-subscriber Baseline
# table at once took `synth` to a 395 MB peak RSS, against 172 MB in chunks
# of this size.
WRITE_CHUNK_ROWS = 1 << 16
# The code of a blank id or tower, and of a tower or kind that is not known.
MISSING, UNKNOWN = -2, -3
# The seconds of a timestamp text that parse_timestamp refuses.
BAD_STAMP = np.iinfo(np.int64).min


class IngestError(ValueError):
    """Unrecoverable input problem: missing file columns, dirty beyond cap."""


@dataclass
class RejectReport:
    source: str
    rejects: list[tuple[int, str]]
    total_rows: int

    def fraction(self) -> float:
        if self.total_rows == 0:
            return 0.0
        return len(self.rejects) / self.total_rows


def open_text(path: str, mode: str = "rt"):
    """Open a text file, transparently gzip when the name ends '.gz'.

    A file read skips a leading UTF-8 byte order mark, which Excel's "CSV
    UTF-8" export writes; a file written gets none.
    """
    encoding = "utf-8-sig" if mode.startswith("r") else "utf-8"
    if str(path).endswith(".gz"):
        return gzip.open(path, mode, encoding=encoding, newline="")
    return io.open(path, mode, encoding=encoding, newline="")


def _split(raw: str) -> list[str]:
    """The fields of one physical line."""
    if '"' in raw:
        return next(csv.reader((raw,)))
    return raw.rstrip("\r\n").split(",")


def numbered_rows(fh):
    """Yield (physical line number, fields) per data line of fh.

    Blank, whitespace-only and '#' comment lines are skipped.  A line is
    split on its own (see the module docstring), so line numbers stay exact
    and one stray quote cannot pull later lines into a field.
    """
    for physical, raw in enumerate(fh, start=1):
        stripped = raw.strip()
        if stripped and stripped[0] != "#":
            yield physical, _split(raw)


def number(path: str, line: int, text: str, kind=float):
    """text as a finite number; a bad or non-finite one is a ValueError naming path:line."""
    try:
        value = kind(text)
    except ValueError:
        raise ValueError(f"{path}:{line}: bad number {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{path}:{line}: non-finite value")
    return value


def write_csv(path: str, columns, rows, header_comment: str | None = None) -> None:
    """Write an output table: the optional comment line, the header, the rows.

    Every cell follows one rule: None and a float nan are empty cells, every
    other float (numpy's too) is repr(float(x)), an infinity is a ValueError,
    and ints and strings are written as the csv module writes them.
    Rows end in CRLF, the csv module's default; the comment line ends in LF.
    A row whose first cell starts with '#' is written fully quoted, so it
    does not read back as a comment line.
    """
    with open_text(path, "wt") as fh:
        _write_head(fh, columns, header_comment)
        _write_rows(fh, (list(map(_cell, row)) for row in rows))


_FLOAT_TYPES = (float, np.floating)


def _cell(x):
    """x as write_csv writes it in a cell; the csv module writes a float as its repr."""
    if isinstance(x, _FLOAT_TYPES):
        if math.isfinite(x):
            return float(x)
        if math.isnan(x):
            return ""
        raise ValueError(f"cannot write {float(x)!r} in a CSV cell")
    return "" if x is None else x


def _write_head(fh, columns, header_comment: str | None) -> None:
    if header_comment:
        fh.write(header_comment.rstrip("\n") + "\n")
    csv.writer(fh).writerow(columns)


def _write_rows(fh, rows) -> None:
    """Write rows through the csv module, a row whose first cell starts with '#' fully quoted."""
    writer, quoted = csv.writer(fh), csv.writer(fh, quoting=csv.QUOTE_ALL)
    for row in rows:
        (quoted if row and str(row[0]).lstrip().startswith("#") else writer).writerow(row)


def write_json(path: str, doc, indent: int) -> None:
    """Write doc as JSON with sorted keys and a final newline; a nan or an infinity is a ValueError."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=indent, sort_keys=True, allow_nan=False)
        fh.write("\n")


def write_rejects_csv(report: RejectReport, path: str, header_comment: str | None = None) -> None:
    write_csv(path, ["line", "reason"], report.rejects, header_comment)


def _header_positions(header: list[str], fields: tuple[str, ...], required: tuple[str, ...], source: str) -> dict[str, int]:
    """The column of each of fields that header holds; a missing required one is an IngestError."""
    positions = {name: header.index(name) for name in fields if name in header}
    missing = [f for f in required if f not in positions]
    if missing:
        raise IngestError(f"{source}: schema columns not found in header: {', '.join(missing)}")
    return positions


def _warn_unknown_towers(path: str, lines: list[int]) -> None:
    """Log one warning that sums up a file's unknown-tower rejects."""
    if lines:
        import logging  # only here: a run with nothing to warn of skips the import
        first = ", ".join(str(n) for n in lines[:5]) + (", ..." if len(lines) > 5 else "")
        logging.getLogger("cdrlab.ingest").warning(
            "%s: %d rows rejected for an unknown tower (lines %s)", path, len(lines), first)


_STAMP_DIGITS = [0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18]
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])


def _canonical_stamps(texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """(epoch seconds, ok) of 'YYYY-MM-DDTHH:MM:SSZ' texts ('z' too).

    ok is False for every other text, valid or not; `parse_timestamp`
    judges those.  Where ok is True the seconds equal parse_timestamp's.
    """
    n = len(texts)
    ts = np.zeros(n, dtype=np.int64)
    ok = np.fromiter(map(len, texts), np.int64, n) == 20
    rows = np.flatnonzero(ok)
    if not len(rows):
        return ts, ok
    if len(rows) < n:
        texts = [texts[i] for i in rows.tolist()]
    c = _chars("".join(texts)).reshape(-1, 20)
    d = c[:, _STAMP_DIGITS].astype(np.int64) - 48
    good = ((d >= 0) & (d <= 9)).all(axis=1)
    good &= (c[:, 4] == 45) & (c[:, 7] == 45) & (c[:, 10] == 84) & (c[:, 13] == 58) & (c[:, 16] == 58)
    good &= (c[:, 19] == 90) | (c[:, 19] == 122)
    year = d[:, 0] * 1000 + d[:, 1] * 100 + d[:, 2] * 10 + d[:, 3]
    month, day, hour, minute, second = (d[:, i] * 10 + d[:, i + 1] for i in range(4, 14, 2))
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    month_days = _MONTH_DAYS[np.clip(month, 0, 12)] + ((month == 2) & leap)
    good &= (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (day <= month_days)
    good &= (hour <= 23) & (minute <= 59) & (second <= 59)
    ts[rows] = days_from_civil(year, month, day) * 86400 + hour * 3600 + minute * 60 + second
    ok[rows] = good
    return ts, ok


def _stamp(text: str) -> int:
    """parse_timestamp(text), or BAD_STAMP where it refuses text."""
    try:
        return parse_timestamp(text)
    except ValueError:
        return BAD_STAMP


def _timestamps(texts: list[str], stamps: _Decoder) -> tuple[np.ndarray, np.ndarray]:
    """(epoch seconds, bad) of texts as parse_timestamp reads them.

    Canonical texts are read at once; stamps, a decoder of `_stamp`, reads
    each of the others once per distinct text.
    """
    ts, ok = _canonical_stamps(texts)
    rest = np.flatnonzero(~ok)
    if len(rest):
        ts[rest] = stamps.codes([texts[i] for i in rest.tolist()])
    return ts, ts == BAD_STAMP


def _floats(texts: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(values, parsed, blank) of texts through float().

    values is nan where a text does not parse; blank marks the texts that
    are empty or whitespace.
    """
    n = len(texts)
    blank = np.zeros(n, dtype=bool)
    try:
        return np.fromiter(map(float, texts), np.float64, n), np.ones(n, dtype=bool), blank
    except ValueError:
        pass
    values = np.full(n, np.nan)
    parsed = np.zeros(n, dtype=bool)
    for i, text in enumerate(texts):
        try:
            values[i] = float(text)
        except ValueError:
            blank[i] = not text.strip()
            continue
        parsed[i] = True
    return values, parsed, blank


class _Decoder(dict):
    """decode(text), computed once per distinct text."""

    def __init__(self, decode):
        super().__init__()
        self.decode = decode

    def __missing__(self, text: str) -> int:
        value = self[text] = self.decode(text)
        return value

    def codes(self, texts: list[str]) -> np.ndarray:
        """decode(text) for each of texts."""
        return np.fromiter(map(self.__getitem__, texts), np.int64, len(texts))


def _id_decoder(index: dict[str, int], known: set[str] | None = None) -> _Decoder:
    """A decoder of id texts, stripped, into codes in index's order of first
    sight: MISSING for a blank text, UNKNOWN for one that known (when given)
    does not hold."""

    def code(text: str) -> int:
        text = text.strip()
        if not text:
            return MISSING
        if known is not None and text not in known:
            return UNKNOWN
        return index.setdefault(text, len(index))

    return _Decoder(code)


def _chars(text: str) -> np.ndarray:
    """The code points of text as an array, one byte each when it is ASCII."""
    if text.isascii():
        return np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    return np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)


class _EventFile:
    """The header of an event file, then its data lines chunk by chunk."""

    def __init__(self, fh, path: str, fields: tuple[str, ...], required: tuple[str, ...]):
        self.fh = fh
        self.line, self.header = next(numbered_rows(fh), (0, None))
        if self.header is not None:
            self.pos = _header_positions(self.header, fields, required, str(path))
            self.width = max(self.pos.values())

    def chunks(self):
        """Yield (numbers, fields, short) per chunk of data lines.

        Every line is cut or padded with blank fields to the header's field
        count: fields[i * ncols + j] is field j of the line numbered
        numbers[i], and short[i] is True where that line had too few fields
        to reach every column the parse reads.  The lines with no quote and
        the header's field count are split at once; every other line is
        split on its own and put after them.
        """
        ncols = len(self.header)
        while True:
            text = self.fh.read(CHUNK_CHARS)
            if not text:
                return
            text += self.fh.readline()  # a chunk ends where a line ends
            if "\r" in text:  # each line break, \r\n, \r or \n, becomes one \n
                text = text.replace("\r\n", "\n").replace("\r", "\n")
            if not text.endswith("\n"):
                text += "\n"
            chars = _chars(text)
            ends = np.flatnonzero(chars == 10)  # line i ends at ends[i]
            commas = np.diff(np.searchsorted(np.flatnonzero(chars == 44), ends), prepend=0)
            commas[np.searchsorted(ends, np.flatnonzero(chars == 34))] = -1  # a quote: csv.reader
            whole = commas == ncols - 1
            first = self.line + 1
            self.line += len(ends)
            numbers = np.flatnonzero(whole) + first
            odd = []
            if not whole.all():
                starts = np.concatenate(([0], ends[:-1] + 1))
                pieces, at = [], 0
                for i in np.flatnonzero(~whole).tolist():
                    raw = text[starts[i]:ends[i] + 1]
                    stripped = raw.strip()
                    if stripped and stripped[0] != "#":
                        odd.append((first + i, _split(raw)))
                    pieces.append(text[at:starts[i]])
                    at = ends[i] + 1
                text = "".join(pieces) + text[at:]
            fields = text[:-1].replace("\n", ",").split(",") if len(numbers) else []
            # A line whose first field starts with '#' is a comment.  Only the
            # lines split at once are tested: an odd line was tested raw, and
            # its quoted first field "#A" is an id.
            if "#" in text:
                comment = _Decoder(lambda t: t.lstrip().startswith("#")).codes(fields[::ncols]).astype(bool)
                if comment.any():
                    keep = np.flatnonzero(~comment)
                    fields = [f for i in keep.tolist() for f in fields[i * ncols:(i + 1) * ncols]]
                    numbers = numbers[keep]
            short = np.zeros(len(numbers) + len(odd), dtype=bool)
            if odd:
                numbers = np.concatenate((numbers, [n for n, _ in odd]))
                short[-len(odd):] = [len(row) <= self.width for _, row in odd]
                for _, row in odd:
                    fields += (row + [""] * ncols)[:ncols]
            yield numbers, fields, short


def _parse_events(path, fields, required, reject_cap, dtypes, check):
    """Drive the parse of one CDR, top-up, towers or labels file into column
    arrays, rows in line order.

    check(col, short, numbers), where col maps each field the header holds
    to the texts of a chunk's lines and numbers holds their line numbers (see
    `_EventFile.chunks`), returns (tests, columns): the column arrays of those
    lines, one per dtype of dtypes, and a list of (fails, reason) in the order
    the rules are checked, where fails marks the lines that break the rule
    and reason is its text, or a function that formats it for the line at an
    index.  A line is rejected for the first rule it breaks; check may also
    raise, as the towers file's does for a repeated id.  The columns of the
    accepted lines, as dtypes, come back with the report of the rejects.
    """
    rejects: list[tuple[int, str]] = []
    total = 0
    parts = [[np.zeros(0, dtype=d) for d in dtypes]]
    with open_text(path) as fh:
        src = _EventFile(fh, path, fields, required)
        chunks = src.chunks() if src.header is not None else ()
        for numbers, texts, short in chunks:
            tests, columns = check({name: texts[j::len(src.header)] for name, j in src.pos.items()}, short, numbers)
            fails = np.array([f for f, _ in tests])
            ok = ~fails.any(axis=0)
            rows = np.arange(len(numbers))
            if np.any(numbers[1:] < numbers[:-1]):  # the chunk's odd lines, put last, go back in place
                rows = np.argsort(numbers)
            good, bad = rows[ok[rows]], rows[~ok[rows]]
            parts.append([c[good] for c in columns])
            total += len(numbers)
            for i, rule in zip(bad.tolist(), fails[:, bad].argmax(axis=0).tolist()):
                reason = tests[rule][1]
                rejects.append((int(numbers[i]), reason if isinstance(reason, str) else reason(i)))
    report = _report(path, rejects, total, reject_cap)
    return [np.concatenate(c, dtype=d) for c, d in zip(zip(*parts), dtypes)], report


def _report(path, rejects: list[tuple[int, str]], total: int, reject_cap: float) -> RejectReport:
    """The report of an event file's rejects, after the warning that sums up its unknown towers.

    Past reject_cap it is an IngestError instead.
    """
    _warn_unknown_towers(path, [n for n, reason in rejects if reason.startswith("unknown tower")])
    report = RejectReport(str(path), rejects, total)
    if total and report.fraction() > reject_cap:
        sample = "; ".join(f"line {n}: {r}" for n, r in rejects[:5])
        raise IngestError(
            f"{path}: {len(rejects)} of {total} lines rejected "
            f"(fraction {report.fraction():.4f} > cap {reject_cap}); first reasons: {sample}"
        )
    return report


def _kind_code(text: str) -> int:
    text = text.strip().lower()
    return EVENT_KINDS.index(text) if text in EVENT_KINDS else UNKNOWN


def parse_cdr_file(
    path: str,
    known_towers: set[str] | None = None,
    reject_cap: float = DEFAULT_REJECT_CAP,
) -> tuple[CdrTable, RejectReport]:
    """Read one CDR CSV into a CdrTable, rows in line order.

    Its subscriber and tower id tables are in order of first sight and may
    hold ids that only rejected lines use; a `Dataset` puts the table in
    canonical form.  Every CDR field needs a header column, though callee
    and magnitude may be blank per row.
    """
    subscriber_ids, tower_ids = {}, {}
    sub_codes, tower_codes = _id_decoder(subscriber_ids), _id_decoder(tower_ids, known_towers)
    kind_codes, stamps = _Decoder(_kind_code), _Decoder(_stamp)

    def check(col, short, _):
        caller, callee = sub_codes.codes(col["caller"]), sub_codes.codes(col["callee"])
        tower, kind = tower_codes.codes(col["tower"]), kind_codes.codes(col["kind"])
        ts, bad_ts = _timestamps(col["timestamp"], stamps)
        magnitude, parsed, blank = _floats(col["magnitude"])
        magnitude[blank & ((kind == SMS) | (kind == MMS))] = 1.0
        magnitude[blank & (kind == DATA)] = 0.0
        tests = [
            (short, "wrong field count"),
            (caller == MISSING, "missing caller"),
            (tower == MISSING, "missing tower"),
            (kind == UNKNOWN, lambda i: f"unknown kind {col['kind'][i].strip().lower()!r}"),
            ((kind == VOICE) & (callee == MISSING), "voice missing callee"),
            (bad_ts, "bad timestamp"),
            (blank & ((kind == VOICE) | (kind == VIDEO)), "missing magnitude"),
            (~parsed & ~blank, "bad magnitude"),
            (~np.isfinite(magnitude), "non-finite magnitude"),
            (magnitude < 0, "negative magnitude"),
            (tower == UNKNOWN, lambda i: f"unknown tower {col['tower'][i].strip()!r}"),
        ]
        callee[callee == MISSING] = -1  # no callee
        return tests, (ts, caller, callee, tower, kind, magnitude)

    columns, report = _parse_events(path, CDR_FIELDS, CDR_FIELDS, reject_cap,
                                    (np.int64, np.int32, np.int32, np.int32, np.int8, np.float64), check)
    return CdrTable(*columns, tuple(subscriber_ids), tuple(tower_ids)), report


def parse_topup_file(
    path: str,
    known_towers: set[str] | None = None,
    reject_cap: float = DEFAULT_REJECT_CAP,
) -> tuple[TopUpTable, RejectReport]:
    """Read one top-up CSV into a TopUpTable, rows in line order.

    Its id tables are in order of first sight, as `parse_cdr_file`'s are.
    The retailer_tower column is optional, and may be blank per row.
    """
    subscriber_ids, retailer_ids, tower_ids = {}, {}, {}
    buyers, retailer_codes = _id_decoder(subscriber_ids), _id_decoder(retailer_ids)
    tower_codes, stamps = _id_decoder(tower_ids, known_towers), _Decoder(_stamp)

    def check(col, short, _):
        buyer, retailer = buyers.codes(col["buyer"]), retailer_codes.codes(col["retailer"])
        ts, bad_ts = _timestamps(col["timestamp"], stamps)
        if "retailer_tower" in col:
            tower = tower_codes.codes(col["retailer_tower"])
        else:
            tower = np.full(len(ts), MISSING, dtype=np.int64)
        amount, parsed, _ = _floats(col["amount"])
        tests = [
            (short, "wrong field count"),
            (buyer == MISSING, "missing buyer"),
            (retailer == MISSING, "missing retailer"),
            (bad_ts, "bad timestamp"),
            (~parsed, "bad amount"),
            (~np.isfinite(amount), "non-finite amount"),
            (amount <= 0, "non-positive amount"),
            (tower == UNKNOWN, lambda i: f"unknown tower {col['retailer_tower'][i].strip()!r}"),
        ]
        tower[tower == MISSING] = -1  # no retailer tower
        return tests, (ts, buyer, retailer, tower, amount)

    columns, report = _parse_events(path, TOPUP_FIELDS, ("buyer", "retailer", "timestamp", "amount"), reject_cap,
                                    (np.int64, np.int32, np.int32, np.int32, np.float64), check)
    return TopUpTable(*columns, tuple(subscriber_ids), tuple(retailer_ids), tuple(tower_ids)), report


def parse_tower_file(
    path: str,
    reject_cap: float = DEFAULT_REJECT_CAP,
) -> tuple[dict[str, tuple[float, float]], RejectReport]:
    """CSV of id,lon,lat as id -> (lon, lat).  Bad coordinates reject; a repeat of an accepted id is fatal.

    The repeat rule follows line order: a line that has the fields and an id
    is an IngestError when an earlier accepted line holds its id, whatever
    its coordinates.
    """
    accepted: set[str] = set()

    def check(col, short, numbers):
        ids = np.array([t.strip() for t in col["id"]], dtype=object)
        (lon, lon_ok, _), (lat, lat_ok, _) = _floats(col["lon"]), _floats(col["lat"])
        tests = [
            (short, "wrong field count"),
            (ids == "", "missing id"),
            (~(lon_ok & lat_ok), "bad coordinate"),
            (~(np.abs(lon) <= 180.0), "lon out of range"),  # nan is out of range too
            (~(np.abs(lat) <= 90.0), "lat out of range"),
        ]
        fails = np.array([f for f, _ in tests])
        named, ok = ~fails[:2].any(axis=0), ~fails.any(axis=0)
        for i in sorted(np.flatnonzero(named).tolist(), key=numbers.__getitem__):
            if ids[i] in accepted:
                raise IngestError(f"{path}: duplicate tower id {ids[i]!r} at line {numbers[i]}")
            if ok[i]:
                accepted.add(ids[i])
        return tests, (ids, lon, lat)

    (ids, lon, lat), report = _parse_events(path, ("id", "lon", "lat"), ("id", "lon", "lat"), reject_cap,
                                            (object, np.float64, np.float64), check)
    return dict(zip(ids.tolist(), zip(lon.tolist(), lat.tolist()))), report


def parse_labels_file(
    path: str,
    reject_cap: float = DEFAULT_REJECT_CAP,
) -> tuple[dict[str, str], RejectReport]:
    """CSV of subscriber,label.  A later row for a subscriber wins."""

    def check(col, short, _):
        subscriber, label = (np.array([t.strip() for t in col[name]], dtype=object) for name in LABEL_FIELDS)
        return [(short, "wrong field count"), (subscriber == "", "missing subscriber")], (subscriber, label)

    (subscriber, label), report = _parse_events(path, LABEL_FIELDS, LABEL_FIELDS, reject_cap, (object, object), check)
    return dict(zip(subscriber.tolist(), label.tolist())), report


# The snapshots in the cache directory may take this many bytes together;
# past it, the least recently used go first.  The snapshot of the Baseline
# CDR file (839k rows) takes about 25 MB.
SNAPSHOT_BUDGET = 1 << 30
# The modules whose code decides what a parse returns, and so a snapshot's key.
SNAPSHOT_SOURCES = (__file__, records.__file__)


def _snapshot_dir() -> str | None:
    """$XDG_CACHE_HOME/cdrlab, else ~/.cache/cdrlab; None when neither is an absolute path."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "cdrlab") if os.path.isabs(base) else None


def _file_state(path) -> tuple[int, int, int, int] | None:
    """(device, inode, size, mtime in ns) of a regular file; None for any other, such as a FIFO."""
    st = os.stat(path)
    return (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns) if stat.S_ISREG(st.st_mode) else None


def _snapshot_key(path, table_type, known: set[str]) -> str:
    """The sha256 of all that a parse of path depends on: the parser's code, the
    platform, the table it fills, whether the file is gzip, the known tower ids
    and the file's bytes."""
    h = hashlib.sha256()
    parts = []
    for name in SNAPSHOT_SOURCES:
        with open(name, "rb") as fh:
            parts.append(fh.read())
    parts.append(f"{table_type.__name__} gz={str(path).endswith('.gz')} "
                 f"python {sys.version} numpy {np.__version__}".encode())
    parts.append(json.dumps(sorted(known)).encode())
    for part in parts:
        h.update(len(part).to_bytes(8, "little") + part)
    with open(path, "rb") as fh:
        while block := fh.read(1 << 20):
            h.update(block)
    return h.hexdigest()


def _read_snapshot(entry: str, table_type):
    """(table, rejects, rows) that entry holds; None when it is missing, unreadable or of another shape."""
    try:
        with np.load(entry, allow_pickle=False) as z:
            record = json.loads(z["record"].tobytes())
            ids = {name: tuple(texts) for name, texts in record["ids"].items()}
            table = table_type(**{c: z[c] for c in table_type.COLUMNS}, **ids)
            rejects, total = [tuple(r) for r in record["rejects"]], record["rows"]
    except (OSError, ValueError, KeyError, TypeError, AttributeError, EOFError, zipfile.BadZipFile):
        return None
    with contextlib.suppress(OSError):
        os.utime(entry)  # the mtime orders entries for eviction
    return table, rejects, total


def _write_snapshot(directory: str, key: str, table, report: RejectReport) -> None:
    """Store a parse as directory/<key>.npz, through a temp name; then drop the
    least recently used entries past SNAPSHOT_BUDGET.

    The columns are arrays; the id tables, the rejects and the row count are
    one JSON member, which keeps every text exactly.
    """
    arrays = {c: getattr(table, c) for c in table.COLUMNS}
    ids = {f.name: getattr(table, f.name) for f in dataclass_fields(table) if f.name not in arrays}
    record = json.dumps({"ids": ids, "rejects": report.rejects, "rows": report.total_rows})
    os.makedirs(directory, exist_ok=True)
    temp = os.path.join(directory, f"{key}.{os.getpid()}.tmp")
    try:
        with open(temp, "wb") as fh:
            np.savez(fh, record=np.frombuffer(record.encode(), dtype=np.uint8), **arrays)
        os.replace(temp, os.path.join(directory, f"{key}.npz"))
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(temp)
    entries = []
    for item in os.scandir(directory):
        if item.name.endswith((".npz", ".tmp")):
            st = item.stat()
            entries.append((st.st_mtime_ns, st.st_size, item.path))
    excess = sum(size for _, size, _ in entries) - SNAPSHOT_BUDGET
    for _, size, path in sorted(entries):
        if excess <= 0:
            break
        with contextlib.suppress(FileNotFoundError):  # another process evicted it
            os.remove(path)
        excess -= size


def _parse_once(parse, table_type, path, known: set[str], reject_cap: float):
    """parse(path, known_towers=known, reject_cap=reject_cap), or the same
    result from the snapshot of an earlier parse of the same bytes.

    A regular file is looked up by `_snapshot_key` in `_snapshot_dir()`.  A
    missing or unreadable entry, a cache directory that cannot be written and
    a file of any other kind all mean a plain parse; a parse is stored unless
    it failed or the file's size or mtime changed while it was read.
    """
    directory = _snapshot_dir()
    try:
        before = _file_state(path) if directory else None
        key = _snapshot_key(path, table_type, known) if before else None
    except OSError:
        key = None
    if key is None:
        return parse(path, known_towers=known, reject_cap=reject_cap)
    hit = _read_snapshot(os.path.join(directory, f"{key}.npz"), table_type)
    if hit is not None:
        table, rejects, total = hit
        return table, _report(path, rejects, total, reject_cap)
    table, report = parse(path, known_towers=known, reject_cap=reject_cap)
    with contextlib.suppress(OSError, ValueError):
        if _file_state(path) == before:
            _write_snapshot(directory, key, table, report)
    return table, report


def load_dataset(
    cdr_path: str,
    topup_path: str | None,
    towers_path: str,
    labels_path: str | None = None,
    reject_cap: float = DEFAULT_REJECT_CAP,
) -> tuple[Dataset, dict[str, RejectReport]]:
    """Parse all inputs and assemble a validated Dataset.

    Events referencing unknown towers are rejected during parsing.  The
    window is derived as [min ts, max ts + 1).  The reports are keyed
    "towers", "cdr", and "topup" / "labels" when those files are given; a
    labels file is parsed only for its report.  The CDR and top-up files are
    parsed once per content (see `_parse_once`).
    """
    towers, tower_report = parse_tower_file(towers_path, reject_cap)
    known = set(towers)
    cdrs, cdr_report = _parse_once(parse_cdr_file, CdrTable, cdr_path, known, reject_cap)
    reports = {"towers": tower_report, "cdr": cdr_report}
    no_codes = np.zeros(0, dtype=np.int32)
    topups = TopUpTable(np.zeros(0, dtype=np.int64), no_codes, no_codes, no_codes, np.zeros(0), (), (), ())
    if topup_path is not None:
        topups, reports["topup"] = _parse_once(parse_topup_file, TopUpTable, topup_path, known, reject_cap)
    firsts = [int(t.ts.min()) for t in (cdrs, topups) if len(t)]
    lasts = [int(t.ts.max()) for t in (cdrs, topups) if len(t)]
    window = (min(firsts), max(lasts) + 1) if firsts else (0, 1)
    if labels_path:
        _, reports["labels"] = parse_labels_file(labels_path, reject_cap)
    ds = Dataset(cdrs=cdrs, topups=topups, towers=towers, window=window)
    return ds, reports


def _format_number(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _format_numbers(values: np.ndarray) -> list[str]:
    """_format_number of each value: at once when all are whole and below 2**53 in magnitude."""
    if np.all((np.trunc(values) == values) & (np.abs(values) < 2.0 ** 53)):
        return list(map(str, values.astype(np.int64).tolist()))
    return list(map(_format_number, values.tolist()))


_STAMP_TEMPLATE = np.frombuffer(b"0000-00-00T00:00:00Z", dtype=np.uint8)
_STAMP_POWERS = 10 ** np.arange(len(_STAMP_DIGITS) - 1, -1, -1, dtype=np.int64)


def _format_stamps(ts: np.ndarray) -> list[str]:
    """'YYYY-MM-DDTHH:MM:SSZ' texts of epoch seconds, years 1..9999; any other year is a ValueError."""
    bad = ts[(ts < FIRST_TS) | (ts > LAST_TS)]
    if len(bad):
        raise ValueError(f"timestamp {bad[0]} lies outside the years 1..9999")
    days, seconds = np.divmod(ts, SECONDS_PER_DAY)
    year, month, day = civil_from_days(days)
    clock = seconds // 3600 * 10000 + seconds // 60 % 60 * 100 + seconds % 60
    digits = ((year * 100 + month) * 100 + day) * 1000000 + clock  # YYYYMMDDhhmmss
    chars = np.tile(_STAMP_TEMPLATE, (len(ts), 1))
    chars[:, _STAMP_DIGITS] = 48 + digits[:, None] // _STAMP_POWERS % 10
    return chars.view("S20").ravel().astype(str).tolist()


def _plain(ids, first: bool = False) -> bool:
    """Whether the csv module writes each of ids as it is; first: as a row's first cell too."""
    return not any(c in s for s in ids for c in ',"\r\n') and not (
        first and any(s.lstrip().startswith("#") for s in ids))


def _write_events(path: str, fields, n: int, cells, plain: bool, header_comment: str | None) -> None:
    """Write n rows whose cells(lo, hi) are the formatted columns of rows lo..hi, a chunk at a time.

    plain says that no cell needs quoting; then each chunk is joined at once,
    with the csv module's CRLF row ends.  Otherwise the csv module writes
    each row, as write_csv does.
    """
    with open_text(path, "wt") as fh:
        _write_head(fh, fields, header_comment)
        for lo in range(0, n, WRITE_CHUNK_ROWS):
            rows = zip(*cells(lo, lo + WRITE_CHUNK_ROWS))
            if plain:
                fh.write("\r\n".join(map(",".join, rows)) + "\r\n")
            else:
                _write_rows(fh, rows)


def write_cdr_csv(cdrs: CdrTable, path: str, header_comment: str | None = None) -> None:
    people = np.array([*cdrs.subscriber_ids, ""], dtype=object)  # code -1, no callee, is an empty cell
    towers = np.array(cdrs.tower_ids, dtype=object)
    kinds = np.array(EVENT_KINDS, dtype=object)

    def cells(lo, hi):
        return (people[cdrs.caller[lo:hi]].tolist(), people[cdrs.callee[lo:hi]].tolist(),
                towers[cdrs.tower[lo:hi]].tolist(), _format_stamps(cdrs.ts[lo:hi]),
                kinds[cdrs.kind[lo:hi]].tolist(), _format_numbers(cdrs.magnitude[lo:hi]))

    plain = _plain(cdrs.subscriber_ids, first=True) and _plain(cdrs.tower_ids)
    _write_events(path, CDR_FIELDS, len(cdrs), cells, plain, header_comment)


def write_topup_csv(topups: TopUpTable, path: str, header_comment: str | None = None) -> None:
    buyers = np.array(topups.subscriber_ids, dtype=object)
    retailers = np.array(topups.retailer_ids, dtype=object)
    towers = np.array([*topups.tower_ids, ""], dtype=object)  # code -1, no retailer tower, is an empty cell

    def cells(lo, hi):
        return (buyers[topups.buyer[lo:hi]].tolist(), retailers[topups.retailer[lo:hi]].tolist(),
                towers[topups.tower[lo:hi]].tolist(), _format_stamps(topups.ts[lo:hi]),
                _format_numbers(topups.amount[lo:hi]))

    plain = _plain(topups.subscriber_ids, first=True) and _plain(topups.retailer_ids) and _plain(topups.tower_ids)
    _write_events(path, TOPUP_FIELDS, len(topups), cells, plain, header_comment)


def write_towers_csv(towers: dict[str, tuple[float, float]], path: str, header_comment: str | None = None) -> None:
    write_csv(path, ["id", "lon", "lat"], ([tid, *towers[tid]] for tid in sorted(towers)), header_comment)


def write_labels_csv(labels: dict[str, str], path: str, header_comment: str | None = None) -> None:
    write_csv(path, LABEL_FIELDS, ([sub, labels[sub]] for sub in sorted(labels)), header_comment)
