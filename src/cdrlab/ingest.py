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

Side files (towers, labels, areas, ...) are streamed one line at a time by
``numbered_rows``.  CDR and top-up files are read in chunks of about
``CHUNK_CHARS`` characters, each ending at a line end, straight into the
columns of a ``CdrTable`` or ``TopUpTable``.  The unquoted lines of a
chunk that have the header's field count are split at once, and their ids,
kinds, canonical ``YYYY-MM-DDTHH:MM:SSZ`` timestamps and numbers are
checked with array operations.  Any line that fails one of those checks,
and every other line, goes through the per-row check (``_cdr_row``,
``_topup_row``), which alone decides rejects and their reasons.
``write_csv`` is the one writer of output tables.
"""

from __future__ import annotations

import csv
import gzip
import io
import logging
import math
from dataclasses import dataclass

import numpy as np

from .records import (
    EVENT_KINDS,
    VOICE,
    CdrTable,
    Dataset,
    TopUpTable,
    Tower,
    days_from_civil,
    format_timestamp,
    parse_timestamp,
    recode,
)

log = logging.getLogger("cdrlab.ingest")

CDR_FIELDS = ("caller", "callee", "tower", "timestamp", "kind", "magnitude")
TOPUP_FIELDS = ("buyer", "retailer", "retailer_tower", "timestamp", "amount")

DEFAULT_CDR_SCHEMA = {name: name for name in CDR_FIELDS}
DEFAULT_TOPUP_SCHEMA = {name: name for name in TOPUP_FIELDS}

DEFAULT_REJECT_CAP = 0.01

# Characters per chunk of an event file, which also holds the rest of its
# last line.  It bounds the transient strings of a parse; at this size (about
# 2,700 CDR lines) a chunk stays in cache, and parsing ran both faster and in
# less memory than with chunks of 2^16, 2^18, 2^19 or 2^20 characters.
CHUNK_CHARS = 1 << 17
# A code the array checks give a value they leave to the per-row check.
REFUSED = -2


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
    """Open a text file, transparently gzip when the name ends '.gz'."""
    if str(path).endswith(".gz"):
        return gzip.open(path, mode, encoding="utf-8", newline="")
    return io.open(path, mode, encoding="utf-8", newline="")


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
    """text as a number; a bad one is a ValueError naming path:line."""
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"{path}:{line}: bad number {text!r}") from None


def write_csv(path: str, columns, rows, header_comment: str | None = None) -> None:
    """Write an output table: the optional comment line, the header, the rows.

    Rows end in CRLF, the csv module's default; the comment line ends in LF.
    A row whose first cell starts with '#' is written fully quoted, so it
    does not read back as a comment line.
    """
    with open_text(path, "wt") as fh:
        if header_comment:
            fh.write(header_comment.rstrip("\n") + "\n")
        writer, quoted = csv.writer(fh), csv.writer(fh, quoting=csv.QUOTE_ALL)
        writer.writerow(columns)
        for row in rows:
            (quoted if row and str(row[0]).lstrip().startswith("#") else writer).writerow(row)


def write_rejects_csv(report: RejectReport, path: str, header_comment: str | None = None) -> None:
    write_csv(path, ["line", "reason"], report.rejects, header_comment)


def _header_positions(header: list[str], schema: dict[str, str], required: tuple[str, ...], source: str) -> dict[str, int]:
    positions = {}
    for logical, column in schema.items():
        if column in header:
            positions[logical] = header.index(column)
    missing = [f for f in required if f not in positions]
    if missing:
        raise IngestError(f"{source}: schema columns not found in header: {', '.join(missing)}")
    return positions


def _check_cap(report: RejectReport, cap: float) -> None:
    if report.total_rows and report.fraction() > cap:
        sample = "; ".join(f"line {n}: {r}" for n, r in report.rejects[:5])
        raise IngestError(
            f"{report.source}: {len(report.rejects)} of {report.total_rows} lines rejected "
            f"(fraction {report.fraction():.4f} > cap {cap}); first reasons: {sample}"
        )


def _warn_unknown_towers(path: str, lines: list[int]) -> None:
    """Log one warning that sums up a file's unknown-tower rejects."""
    if lines:
        first = ", ".join(str(n) for n in lines[:5])
        more = ", ..." if len(lines) > 5 else ""
        log.warning("%s: %d rows rejected for an unknown tower (lines %s%s)", path, len(lines), first, more)


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


def _floats(texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """(values, parsed) of texts through float(); nan where one does not parse."""
    n = len(texts)
    try:
        return np.fromiter(map(float, texts), np.float64, n), np.ones(n, dtype=bool)
    except ValueError:
        pass
    values = np.full(n, np.nan)
    parsed = np.zeros(n, dtype=bool)
    for i, text in enumerate(texts):
        try:
            values[i] = float(text)
        except ValueError:
            continue
        parsed[i] = True
    return values, parsed


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


class _Ids:
    """Codes ids in order of first sight; `finish` re-codes into a sorted table."""

    def __init__(self):
        self.index: dict[str, int] = {}

    def code(self, text: str) -> int:
        return self.index.setdefault(text, len(self.index))

    def finish(self, *columns: np.ndarray) -> tuple[list[np.ndarray], tuple[str, ...]]:
        """The columns as codes into the sorted table of the ids they use."""
        names = list(self.index)
        used = np.zeros(len(names), dtype=bool)
        for c in columns:
            used[c[c >= 0]] = True
        ids = tuple(sorted(names[i] for i in np.flatnonzero(used).tolist()))
        return [recode(c, names, ids) for c in columns], ids


def _chars(text: str) -> np.ndarray:
    """The code points of text as an array, one byte each when it is ASCII."""
    if text.isascii():
        return np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    return np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)


class _EventFile:
    """The header of an event file, then its data lines chunk by chunk."""

    def __init__(self, fh, path: str, schema: dict[str, str], required: tuple[str, ...]):
        self.fh = fh
        self.line = 0
        self.header = None
        for raw in fh:
            self.line += 1
            stripped = raw.strip()
            if stripped and stripped[0] != "#":
                self.header = _split(raw)
                self.pos = _header_positions(self.header, schema, required, str(path))
                self.width = max(self.pos.values())
                break

    def chunks(self):
        """Yield (numbers, fields, slow) per chunk of lines.

        The lines with no quote and the header's field count are split at
        once: fields[i * ncols + j] is field j of the line numbered
        numbers[i].  slow holds every other data line as (number, fields).
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
            slow = []
            if not whole.all():
                starts = np.concatenate(([0], ends[:-1] + 1))
                pieces, at = [], 0
                for i in np.flatnonzero(~whole).tolist():
                    raw = text[starts[i]:ends[i] + 1]
                    stripped = raw.strip()
                    if stripped and stripped[0] != "#":
                        slow.append((first + i, _split(raw)))
                    pieces.append(text[at:starts[i]])
                    at = ends[i] + 1
                text = "".join(pieces) + text[at:]
            fields = text[:-1].replace("\n", ",").split(",") if len(numbers) else []
            if "#" in text:  # a line whose first field starts with '#' is a comment
                comment = _Decoder(lambda t: t.lstrip().startswith("#")).codes(fields[::ncols]).astype(bool)
                if comment.any():
                    keep = np.flatnonzero(~comment)
                    fields = [f for i in keep.tolist() for f in fields[i * ncols:(i + 1) * ncols]]
                    numbers = numbers[keep]
            yield numbers, fields, slow

    def refused(self, numbers, fields, rows: np.ndarray) -> list[tuple[int, list[str]]]:
        """The lines at rows of a chunk's split lines, as (number, fields)."""
        ncols = len(self.header)
        return [(int(numbers[i]), fields[i * ncols:(i + 1) * ncols]) for i in rows.tolist()]


def _parse_events(path, schema, required, reject_cap, n_columns, fast, check_row):
    """Drive the parse of one event file into (line number, *columns) arrays.

    fast(col), where col maps each schema field to the texts of a chunk's
    split lines, returns (ok, columns) for those lines; the lines it refuses
    and every other data line go, in line order, through check_row(fields,
    positions, width), which returns (reason, None) or (None, column values).
    The columns come back with the report of the rejects; rows are grouped
    by chunk, not in line order.
    """
    rejects: list[tuple[int, str]] = []
    unknown: list[int] = []
    total = 0
    parts = []
    with open_text(path) as fh:
        src = _EventFile(fh, path, schema, required)
        chunks = src.chunks() if src.header is not None else ()
        for numbers, fields, slow in chunks:
            ok, columns = fast({name: fields[j::len(src.header)] for name, j in src.pos.items()})
            parts.append([numbers[ok]] + [c[ok] for c in columns])
            total += len(numbers) + len(slow)
            accepted = []
            for n, row in sorted(slow + src.refused(numbers, fields, np.flatnonzero(~ok)), key=lambda r: r[0]):
                reason, values = check_row(row, src.pos, src.width)
                if reason is None:
                    accepted.append((n, *values))
                    continue
                if reason.startswith("unknown tower"):
                    unknown.append(n)
                rejects.append((n, reason))
            if accepted:
                parts.append([np.array(c) for c in zip(*accepted)])
    _warn_unknown_towers(path, unknown)
    report = RejectReport(str(path), rejects, total)
    _check_cap(report, reject_cap)
    if not parts:
        return [np.zeros(0, dtype=np.int64) for _ in range(n_columns + 1)], report
    return [np.concatenate(c) for c in zip(*parts)], report


def _cdr_row(row: list[str], pos: dict[str, int], width: int, known_towers):
    """(reason, None) for a rejected CDR row, else (None, its values)."""
    if width >= len(row):
        return "wrong field count", None
    caller = row[pos["caller"]].strip()
    callee = row[pos["callee"]].strip() or None
    tower = row[pos["tower"]].strip()
    kind = row[pos["kind"]].strip().lower()
    raw_mag = row[pos["magnitude"]].strip()
    if not caller:
        return "missing caller", None
    if not tower:
        return "missing tower", None
    if kind not in EVENT_KINDS:
        return f"unknown kind {kind!r}", None
    if kind == "voice" and callee is None:
        return "voice missing callee", None
    try:
        ts = parse_timestamp(row[pos["timestamp"]].strip())
    except ValueError:
        return "bad timestamp", None
    if raw_mag == "":
        if kind in ("sms", "mms"):
            magnitude = 1.0
        elif kind == "data":
            magnitude = 0.0
        else:
            return "missing magnitude", None
    else:
        try:
            magnitude = float(raw_mag)
        except ValueError:
            return "bad magnitude", None
        if not math.isfinite(magnitude):
            return "non-finite magnitude", None
        if magnitude < 0:
            return "negative magnitude", None
    if known_towers is not None and tower not in known_towers:
        return f"unknown tower {tower!r}", None
    return None, (ts, caller, callee, tower, EVENT_KINDS.index(kind), magnitude)


def parse_cdr_file(
    path: str,
    schema: dict[str, str] | None = None,
    known_towers: set[str] | None = None,
    reject_cap: float = DEFAULT_REJECT_CAP,
) -> tuple[CdrTable, RejectReport]:
    """Read one CDR CSV into a CdrTable sorted by time (stable in line order).

    Schema maps logical field -> header column; every CDR field needs a
    column, though callee and magnitude may be blank per row.
    """
    subs, towers = _Ids(), _Ids()

    def sub_code(text):
        text = text.strip()
        return subs.code(text) if text else REFUSED

    def tower_code(text):
        text = text.strip()
        if not text or (known_towers is not None and text not in known_towers):
            return REFUSED
        return towers.code(text)

    def kind_code(text):
        text = text.strip().lower()
        return EVENT_KINDS.index(text) if text in EVENT_KINDS else REFUSED

    callers, callees = _Decoder(sub_code), _Decoder(lambda t: sub_code(t) if t.strip() else -1)
    tower_codes, kind_codes = _Decoder(tower_code), _Decoder(kind_code)

    def fast(col):
        caller, callee = callers.codes(col["caller"]), callees.codes(col["callee"])
        tower, kind = tower_codes.codes(col["tower"]), kind_codes.codes(col["kind"])
        ts, ok = _canonical_stamps(col["timestamp"])
        magnitude, parsed = _floats(col["magnitude"])
        ok &= parsed & np.isfinite(magnitude) & (magnitude >= 0)
        ok &= (caller != REFUSED) & (tower != REFUSED) & (kind != REFUSED)
        ok &= (kind != VOICE) | (callee != -1)
        return ok, (ts, caller, callee, tower, kind, magnitude)

    def check_row(row, pos, width):
        reason, values = _cdr_row(row, pos, width, known_towers)
        if reason is None:
            ts, caller, callee, tower, kind, magnitude = values
            callee = -1 if callee is None else subs.code(callee)
            values = (ts, subs.code(caller), callee, towers.code(tower), kind, magnitude)
        return reason, values

    (line, ts, caller, callee, tower, kind, magnitude), report = _parse_events(
        path, dict(schema or DEFAULT_CDR_SCHEMA), CDR_FIELDS, reject_cap, 6, fast, check_row)
    (caller, callee), subscriber_ids = subs.finish(caller, callee)
    (tower,), tower_ids = towers.finish(tower)
    order = np.lexsort((line, ts))
    table = CdrTable(ts[order].astype(np.int64), caller[order], callee[order], tower[order],
                     kind[order].astype(np.int8), magnitude[order].astype(np.float64),
                     subscriber_ids, tower_ids)
    return table, report


def _topup_row(row: list[str], pos: dict[str, int], width: int, known_towers):
    """(reason, None) for a rejected top-up row, else (None, its values)."""
    if width >= len(row):
        return "wrong field count", None
    buyer = row[pos["buyer"]].strip()
    retailer = row[pos["retailer"]].strip()
    tower = row[pos["retailer_tower"]].strip() or None if "retailer_tower" in pos else None
    if not buyer:
        return "missing buyer", None
    if not retailer:
        return "missing retailer", None
    try:
        ts = parse_timestamp(row[pos["timestamp"]].strip())
    except ValueError:
        return "bad timestamp", None
    try:
        amount = float(row[pos["amount"]].strip())
    except ValueError:
        return "bad amount", None
    if not math.isfinite(amount):
        return "non-finite amount", None
    if amount <= 0:
        return "non-positive amount", None
    if tower is not None and known_towers is not None and tower not in known_towers:
        return f"unknown tower {tower!r}", None
    return None, (ts, buyer, retailer, tower, amount)


def parse_topup_file(
    path: str,
    schema: dict[str, str] | None = None,
    known_towers: set[str] | None = None,
    reject_cap: float = DEFAULT_REJECT_CAP,
) -> tuple[TopUpTable, RejectReport]:
    """Read one top-up CSV into a TopUpTable sorted by time (stable in line order).

    The retailer_tower column is optional, and may be blank per row.
    """
    subs, retailers, towers = _Ids(), _Ids(), _Ids()

    def id_code(ids):
        return lambda text: ids.code(text.strip()) if text.strip() else REFUSED

    def tower_code(text):
        text = text.strip()
        if not text:
            return -1
        if known_towers is not None and text not in known_towers:
            return REFUSED
        return towers.code(text)

    buyers, retailer_codes = _Decoder(id_code(subs)), _Decoder(id_code(retailers))
    tower_codes = _Decoder(tower_code)

    def fast(col):
        buyer, retailer = buyers.codes(col["buyer"]), retailer_codes.codes(col["retailer"])
        ts, ok = _canonical_stamps(col["timestamp"])
        if "retailer_tower" in col:
            tower = tower_codes.codes(col["retailer_tower"])
        else:
            tower = np.full(len(ts), -1, dtype=np.int64)
        amount, parsed = _floats(col["amount"])
        ok &= parsed & np.isfinite(amount) & (amount > 0)
        ok &= (buyer != REFUSED) & (retailer != REFUSED) & (tower != REFUSED)
        return ok, (ts, buyer, retailer, tower, amount)

    def check_row(row, pos, width):
        reason, values = _topup_row(row, pos, width, known_towers)
        if reason is None:
            ts, buyer, retailer, tower, amount = values
            tower = -1 if tower is None else towers.code(tower)
            values = (ts, subs.code(buyer), retailers.code(retailer), tower, amount)
        return reason, values

    (line, ts, buyer, retailer, tower, amount), report = _parse_events(
        path, dict(schema or DEFAULT_TOPUP_SCHEMA), ("buyer", "retailer", "timestamp", "amount"),
        reject_cap, 5, fast, check_row)
    (buyer,), subscriber_ids = subs.finish(buyer)
    (retailer,), retailer_ids = retailers.finish(retailer)
    (tower,), tower_ids = towers.finish(tower)
    order = np.lexsort((line, ts))
    table = TopUpTable(ts[order].astype(np.int64), buyer[order], retailer[order], tower[order],
                       amount[order].astype(np.float64), subscriber_ids, retailer_ids, tower_ids)
    return table, report


def parse_tower_file(
    path: str,
    reject_cap: float = DEFAULT_REJECT_CAP,
) -> tuple[dict[str, Tower], RejectReport]:
    """CSV of id,lon,lat.  Duplicate ids are fatal; bad coordinates reject."""
    towers: dict[str, Tower] = {}
    rejects: list[tuple[int, str]] = []
    total = 0
    with open_text(path) as fh:
        rows = numbered_rows(fh)
        first = next(rows, None)
        if first is None:
            return {}, RejectReport(str(path), [], 0)
        pos = _header_positions(first[1], {"id": "id", "lon": "lon", "lat": "lat"}, ("id", "lon", "lat"), str(path))
        width = max(pos.values())
        for line_no, row in rows:
            total += 1
            if width >= len(row):
                rejects.append((line_no, "wrong field count"))
                continue
            tid = row[pos["id"]].strip()
            if not tid:
                rejects.append((line_no, "missing id"))
                continue
            if tid in towers:
                raise IngestError(f"{path}: duplicate tower id {tid!r} at line {line_no}")
            try:
                lon = float(row[pos["lon"]])
                lat = float(row[pos["lat"]])
            except ValueError:
                rejects.append((line_no, "bad coordinate"))
                continue
            if not -180.0 <= lon <= 180.0:
                rejects.append((line_no, "lon out of range"))
                continue
            if not -90.0 <= lat <= 90.0:
                rejects.append((line_no, "lat out of range"))
                continue
            towers[tid] = Tower(tid, lon, lat)
    report = RejectReport(str(path), rejects, total)
    _check_cap(report, reject_cap)
    return towers, report


def parse_labels_file(
    path: str,
    reject_cap: float = DEFAULT_REJECT_CAP,
) -> tuple[dict[str, str], RejectReport]:
    """CSV of subscriber,label.  A later row for a subscriber wins."""
    labels: dict[str, str] = {}
    rejects: list[tuple[int, str]] = []
    total = 0
    with open_text(path) as fh:
        rows = numbered_rows(fh)
        first = next(rows, None)
        if first is None:
            return {}, RejectReport(str(path), [], 0)
        pos = _header_positions(first[1], {"subscriber": "subscriber", "label": "label"}, ("subscriber", "label"), str(path))
        width = max(pos.values())
        for line_no, row in rows:
            total += 1
            if width >= len(row):
                rejects.append((line_no, "wrong field count"))
                continue
            subscriber = row[pos["subscriber"]].strip()
            if not subscriber:
                rejects.append((line_no, "missing subscriber"))
                continue
            labels[subscriber] = row[pos["label"]].strip()
    report = RejectReport(str(path), rejects, total)
    _check_cap(report, reject_cap)
    return labels, report


def load_dataset(
    cdr_path: str,
    topup_path: str | None,
    towers_path: str,
    labels_path: str | None = None,
    cdr_schema: dict[str, str] | None = None,
    topup_schema: dict[str, str] | None = None,
    reject_cap: float = DEFAULT_REJECT_CAP,
) -> tuple[Dataset, dict[str, RejectReport]]:
    """Parse all inputs and assemble a validated Dataset.

    Events referencing unknown towers are rejected during parsing.  The
    window is derived as [min ts, max ts + 1).  The reports are keyed
    "towers", "cdr", and "topup" / "labels" when those files are given.
    """
    towers, tower_report = parse_tower_file(towers_path, reject_cap)
    known = set(towers)
    cdrs, cdr_report = parse_cdr_file(cdr_path, cdr_schema, known_towers=known, reject_cap=reject_cap)
    reports = {"towers": tower_report, "cdr": cdr_report}
    topups = TopUpTable.from_records()
    if topup_path is not None:
        topups, reports["topup"] = parse_topup_file(
            topup_path, topup_schema, known_towers=known, reject_cap=reject_cap
        )
    firsts = [int(t.ts[0]) for t in (cdrs, topups) if len(t)]
    lasts = [int(t.ts[-1]) for t in (cdrs, topups) if len(t)]
    window = (min(firsts), max(lasts) + 1) if firsts else (0, 1)
    labels = None
    if labels_path:
        labels, reports["labels"] = parse_labels_file(labels_path, reject_cap)
    ds = Dataset(cdrs=cdrs, topups=topups, towers=towers, window=window, labels=labels)
    return ds, reports


def _format_number(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def write_cdr_csv(cdrs: CdrTable, path: str, header_comment: str | None = None) -> None:
    people = list(cdrs.subscriber_ids) + [""]  # code -1, no callee, is an empty cell
    rows = zip(
        map(people.__getitem__, cdrs.caller.tolist()),
        map(people.__getitem__, cdrs.callee.tolist()),
        map(cdrs.tower_ids.__getitem__, cdrs.tower.tolist()),
        map(format_timestamp, cdrs.ts.tolist()),
        map(EVENT_KINDS.__getitem__, cdrs.kind.tolist()),
        map(_format_number, cdrs.magnitude.tolist()),
    )
    write_csv(path, CDR_FIELDS, rows, header_comment)


def write_topup_csv(topups: TopUpTable, path: str, header_comment: str | None = None) -> None:
    towers = list(topups.tower_ids) + [""]  # code -1, no retailer tower, is an empty cell
    rows = zip(
        map(topups.subscriber_ids.__getitem__, topups.buyer.tolist()),
        map(topups.retailer_ids.__getitem__, topups.retailer.tolist()),
        map(towers.__getitem__, topups.tower.tolist()),
        map(format_timestamp, topups.ts.tolist()),
        map(_format_number, topups.amount.tolist()),
    )
    write_csv(path, TOPUP_FIELDS, rows, header_comment)


def write_towers_csv(towers: dict[str, Tower], path: str, header_comment: str | None = None) -> None:
    ordered = (towers[tid] for tid in sorted(towers))
    rows = ([t.id, repr(float(t.lon)), repr(float(t.lat))] for t in ordered)
    write_csv(path, ["id", "lon", "lat"], rows, header_comment)


def write_labels_csv(labels: dict[str, str], path: str, header_comment: str | None = None) -> None:
    write_csv(path, ["subscriber", "label"], ([sub, labels[sub]] for sub in sorted(labels)), header_comment)
