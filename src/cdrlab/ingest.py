"""Parse, validate, and serialize CDR, top-up, tower, and label files.

All parsers are line-oriented: well-formed lines become records, malformed
lines land in a reject report carrying the physical line number and a
reason.  Crossing the reject-fraction cap aborts with a summary, since a
dirty file is more likely a schema mismatch than real data.

Every file is comma-separated.  Files are streamed one physical line at a
time by ``numbered_rows``, the one reader for inputs and side files alike.  A
line without a double quote is split on commas; a line with one goes through
``csv.reader`` on its own, so quoted fields may hold commas or doubled quotes
but never a line break.  An unbalanced quote therefore damages only its own
line, which usually ends as a "wrong field count" reject, and never swallows
the lines after it.  ``write_csv`` is the one writer of output tables.
"""

from __future__ import annotations

import csv
import gzip
import io
import logging
import math
from dataclasses import dataclass

from .records import (
    COMM_KINDS,
    EVENT_KINDS,
    CdrRecord,
    Dataset,
    TopUpRecord,
    Tower,
    format_timestamp,
    parse_timestamp,
)

log = logging.getLogger("cdrlab.ingest")

CDR_FIELDS = ("caller", "callee", "tower", "timestamp", "kind", "magnitude")
TOPUP_FIELDS = ("buyer", "retailer", "retailer_tower", "timestamp", "amount")

DEFAULT_CDR_SCHEMA = {name: name for name in CDR_FIELDS}
DEFAULT_TOPUP_SCHEMA = {name: name for name in TOPUP_FIELDS}

DEFAULT_REJECT_CAP = 0.01


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


def numbered_rows(fh):
    """Yield (physical line number, fields) per data line of fh.

    Blank, whitespace-only and '#' comment lines are skipped.  A line is
    split on its own (see the module docstring), so line numbers stay exact
    and one stray quote cannot pull later lines into a field.
    """
    for physical, raw in enumerate(fh, start=1):
        stripped = raw.strip()
        if not stripped or stripped[0] == "#":
            continue
        if '"' in raw:
            yield physical, next(csv.reader((raw,)))
        else:
            yield physical, raw.rstrip("\r\n").split(",")


def write_csv(path: str, columns, rows, header_comment: str | None = None) -> None:
    """Write an output table: the optional comment line, the header, the rows.

    Rows end in CRLF, the csv module's default; the comment line ends in LF.
    """
    with open_text(path, "wt") as fh:
        if header_comment:
            fh.write(header_comment.rstrip("\n") + "\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


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


def parse_cdr_file(
    path: str,
    schema: dict[str, str] | None = None,
    known_towers: set[str] | None = None,
    window: tuple[int, int] | None = None,
    reject_cap: float = DEFAULT_REJECT_CAP,
) -> tuple[list[CdrRecord], RejectReport]:
    """Read one CDR CSV.  Schema maps logical field -> header column.

    Schema keys beyond the six standard fields name pass-through attribute
    columns (IMSI, IMEI, ...) kept on the record but never analyzed.
    """
    schema = dict(schema or DEFAULT_CDR_SCHEMA)
    # Required in the header; callee/magnitude may still be blank per row.
    required = ("caller", "callee", "tower", "timestamp", "kind", "magnitude")
    records: list[CdrRecord] = []
    rejects: list[tuple[int, str]] = []
    unknown: list[int] = []
    total = 0
    with open_text(path) as fh:
        rows = numbered_rows(fh)
        first = next(rows, None)
        if first is None:
            return [], RejectReport(str(path), [], 0)
        pos = _header_positions(first[1], schema, required, str(path))
        attr_pos = [(f, pos[f]) for f in sorted(k for k in pos if k not in CDR_FIELDS)]
        width = max(pos.values())
        i_caller, i_callee, i_tower = pos["caller"], pos["callee"], pos["tower"]
        i_ts, i_kind, i_mag = pos["timestamp"], pos["kind"], pos["magnitude"]
        for line_no, row in rows:
            total += 1
            reason = None
            if width >= len(row):
                rejects.append((line_no, "wrong field count"))
                continue
            caller = row[i_caller].strip()
            callee = row[i_callee].strip() or None
            tower = row[i_tower].strip()
            kind = row[i_kind].strip().lower()
            raw_ts = row[i_ts].strip()
            raw_mag = row[i_mag].strip()
            if not caller:
                reason = "missing caller"
            elif not tower:
                reason = "missing tower"
            elif kind not in EVENT_KINDS:
                reason = f"unknown kind {kind!r}"
            elif kind == "voice" and callee is None:
                reason = "voice missing callee"
            if reason is None:
                try:
                    ts = parse_timestamp(raw_ts)
                except ValueError:
                    reason = "bad timestamp"
            if reason is None and window is not None and not (window[0] <= ts < window[1]):
                reason = "timestamp outside window"
            if reason is None:
                if raw_mag == "":
                    if kind in ("sms", "mms"):
                        magnitude = 1.0
                    elif kind == "data":
                        magnitude = 0.0
                    else:
                        reason = "missing magnitude"
                else:
                    try:
                        magnitude = float(raw_mag)
                    except ValueError:
                        reason = "bad magnitude"
                    else:
                        if not math.isfinite(magnitude):
                            reason = "non-finite magnitude"
                        elif magnitude < 0:
                            reason = "negative magnitude"
            if reason is None and known_towers is not None and tower not in known_towers:
                unknown.append(line_no)
                reason = f"unknown tower {tower!r}"
            if reason is not None:
                rejects.append((line_no, reason))
                continue
            attrs = tuple((f, row[j].strip()) for f, j in attr_pos) if attr_pos else ()
            records.append(CdrRecord(caller, callee, tower, ts, kind, magnitude, attrs))
    _warn_unknown_towers(path, unknown)
    report = RejectReport(str(path), rejects, total)
    _check_cap(report, reject_cap)
    return records, report


def parse_topup_file(
    path: str,
    schema: dict[str, str] | None = None,
    known_towers: set[str] | None = None,
    window: tuple[int, int] | None = None,
    reject_cap: float = DEFAULT_REJECT_CAP,
) -> tuple[list[TopUpRecord], RejectReport]:
    schema = dict(schema or DEFAULT_TOPUP_SCHEMA)
    required = ("buyer", "retailer", "timestamp", "amount")
    records: list[TopUpRecord] = []
    rejects: list[tuple[int, str]] = []
    unknown: list[int] = []
    total = 0
    with open_text(path) as fh:
        rows = numbered_rows(fh)
        first = next(rows, None)
        if first is None:
            return [], RejectReport(str(path), [], 0)
        pos = _header_positions(first[1], schema, required, str(path))
        width = max(pos.values())
        i_buyer, i_retailer, i_ts, i_amount = pos["buyer"], pos["retailer"], pos["timestamp"], pos["amount"]
        i_tower = pos.get("retailer_tower")
        for line_no, row in rows:
            total += 1
            reason = None
            if width >= len(row):
                rejects.append((line_no, "wrong field count"))
                continue
            buyer = row[i_buyer].strip()
            retailer = row[i_retailer].strip()
            tower = row[i_tower].strip() or None if i_tower is not None else None
            if not buyer:
                reason = "missing buyer"
            elif not retailer:
                reason = "missing retailer"
            if reason is None:
                try:
                    ts = parse_timestamp(row[i_ts].strip())
                except ValueError:
                    reason = "bad timestamp"
            if reason is None and window is not None and not (window[0] <= ts < window[1]):
                reason = "timestamp outside window"
            if reason is None:
                try:
                    amount = float(row[i_amount].strip())
                except ValueError:
                    reason = "bad amount"
                else:
                    if not math.isfinite(amount):
                        reason = "non-finite amount"
                    elif amount <= 0:
                        reason = "non-positive amount"
            if reason is None and tower is not None and known_towers is not None and tower not in known_towers:
                unknown.append(line_no)
                reason = f"unknown tower {tower!r}"
            if reason is not None:
                rejects.append((line_no, reason))
                continue
            records.append(TopUpRecord(buyer, retailer, tower, ts, amount))
    _warn_unknown_towers(path, unknown)
    report = RejectReport(str(path), rejects, total)
    _check_cap(report, reject_cap)
    return records, report


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
            labels[row[pos["subscriber"]].strip()] = row[pos["label"]].strip()
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
    window: tuple[int, int] | None = None,
    reject_cap: float = DEFAULT_REJECT_CAP,
) -> tuple[Dataset, dict[str, RejectReport]]:
    """Parse all inputs and assemble a validated Dataset.

    Events referencing unknown towers are rejected during parsing.  When no
    window is given it is derived as [min ts, max ts + 1).  The reports are
    keyed "towers", "cdr", and "topup" / "labels" when those files are given.
    """
    towers, tower_report = parse_tower_file(towers_path, reject_cap)
    known = set(towers)
    cdrs, cdr_report = parse_cdr_file(
        cdr_path, cdr_schema, known_towers=known, window=window, reject_cap=reject_cap
    )
    reports = {"towers": tower_report, "cdr": cdr_report}
    topups: list[TopUpRecord] = []
    if topup_path is not None:
        topups, topup_report = parse_topup_file(
            topup_path, topup_schema, known_towers=known, window=window, reject_cap=reject_cap
        )
        reports["topup"] = topup_report
    if window is None:
        stamps = [r.timestamp for r in cdrs] + [r.timestamp for r in topups]
        window = (min(stamps), max(stamps) + 1) if stamps else (0, 1)
    labels = None
    if labels_path:
        labels, reports["labels"] = parse_labels_file(labels_path, reject_cap)
    ds = Dataset(cdrs=tuple(cdrs), topups=tuple(topups), towers=towers, window=window, labels=labels)
    return ds, reports


def _format_number(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def write_cdr_csv(records, path: str, header_comment: str | None = None) -> None:
    attr_fields: list[str] = sorted({k for rec in records for k, _ in rec.attrs})

    def row(rec) -> list:
        bag = dict(rec.attrs)
        return [
            rec.caller,
            rec.callee or "",
            rec.tower,
            format_timestamp(rec.timestamp),
            rec.kind,
            _format_number(rec.magnitude),
        ] + [bag.get(f, "") for f in attr_fields]

    write_csv(path, list(CDR_FIELDS) + attr_fields, map(row, records), header_comment)


def write_topup_csv(records, path: str, header_comment: str | None = None) -> None:
    rows = (
        [
            rec.buyer,
            rec.retailer,
            rec.retailer_tower or "",
            format_timestamp(rec.timestamp),
            _format_number(rec.amount),
        ]
        for rec in records
    )
    write_csv(path, TOPUP_FIELDS, rows, header_comment)


def write_towers_csv(towers: dict[str, Tower], path: str, header_comment: str | None = None) -> None:
    ordered = (towers[tid] for tid in sorted(towers))
    rows = ([t.id, repr(float(t.lon)), repr(float(t.lat))] for t in ordered)
    write_csv(path, ["id", "lon", "lat"], rows, header_comment)


def write_labels_csv(labels: dict[str, str], path: str, header_comment: str | None = None) -> None:
    write_csv(path, ["subscriber", "label"], ([sub, labels[sub]] for sub in sorted(labels)), header_comment)
