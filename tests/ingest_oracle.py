"""The former per-row CDR and top-up parsers and writers, kept as the oracle of the columnar ones.

The parsers read a file one row at a time into the tests' CdrRecord / TopUpRecord
lists; the columnar parsers in ``cdrlab.ingest`` must give the same events (as a
Dataset), the same (line, reason) rejects and the same row count.  The writers
format one row at a time, one ``datetime`` per timestamp; the columnar writers
must write the same bytes.
"""

from __future__ import annotations

import math
from datetime import datetime, timezone

from cdrlab.ingest import (
    CDR_FIELDS,
    DEFAULT_REJECT_CAP,
    TOPUP_FIELDS,
    IngestError,
    RejectReport,
    _format_number,
    _warn_unknown_towers,
    numbered_rows,
    open_text,
    write_csv,
)
from cdrlab.records import EVENT_KINDS, parse_timestamp

from conftest import CdrRecord, TopUpRecord


def header_positions(header, fields, required, source):
    """The column of each of fields in header; a missing required one is fatal."""
    positions = {}
    for name in fields:
        if name in header:
            positions[name] = header.index(name)
    missing = [f for f in required if f not in positions]
    if missing:
        raise IngestError(f"{source}: schema columns not found in header: {', '.join(missing)}")
    return positions


def check_cap(report, cap):
    """Abort when more than cap of the rows were rejected."""
    if report.total_rows and len(report.rejects) / report.total_rows > cap:
        raise IngestError(f"{report.source}: {len(report.rejects)} of {report.total_rows} lines rejected")


def parse_cdr_file(
    path: str,
    known_towers: set[str] | None = None,
    reject_cap: float = DEFAULT_REJECT_CAP,
) -> tuple[list[CdrRecord], RejectReport]:
    """Read one CDR CSV, one row at a time, into records in file order."""
    # Required in the header; callee/magnitude may still be blank per row.
    fields = required = ("caller", "callee", "tower", "timestamp", "kind", "magnitude")
    records: list[CdrRecord] = []
    rejects: list[tuple[int, str]] = []
    unknown: list[int] = []
    total = 0
    with open_text(path) as fh:
        rows = numbered_rows(fh)
        first = next(rows, None)
        if first is None:
            return [], RejectReport(str(path), [], 0)
        pos = header_positions(first[1], fields, required, str(path))
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
            records.append(CdrRecord(caller, callee, tower, ts, kind, magnitude))
    _warn_unknown_towers(path, unknown)
    report = RejectReport(str(path), rejects, total)
    check_cap(report, reject_cap)
    return records, report


def parse_topup_file(
    path: str,
    known_towers: set[str] | None = None,
    reject_cap: float = DEFAULT_REJECT_CAP,
) -> tuple[list[TopUpRecord], RejectReport]:
    """Read one top-up CSV, one row at a time, into records in file order."""
    fields = ("buyer", "retailer", "retailer_tower", "timestamp", "amount")
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
        pos = header_positions(first[1], fields, required, str(path))
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
    check_cap(report, reject_cap)
    return records, report


def format_timestamp(ts: int) -> str:
    return datetime.fromtimestamp(int(ts), tz=timezone.utc).isoformat().replace("+00:00", "Z")


def write_cdr_csv(cdrs, path: str, header_comment: str | None = None) -> None:
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


def write_topup_csv(topups, path: str, header_comment: str | None = None) -> None:
    towers = list(topups.tower_ids) + [""]  # code -1, no retailer tower, is an empty cell
    rows = zip(
        map(topups.subscriber_ids.__getitem__, topups.buyer.tolist()),
        map(topups.retailer_ids.__getitem__, topups.retailer.tolist()),
        map(towers.__getitem__, topups.tower.tolist()),
        map(format_timestamp, topups.ts.tolist()),
        map(_format_number, topups.amount.tolist()),
    )
    write_csv(path, TOPUP_FIELDS, rows, header_comment)
