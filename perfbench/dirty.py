"""Seeded dirty copy of a clean CDR file, and the check of its rejects.

The copy keeps every physical line number of the clean file.  It replaces
about 0.5% of the data rows with lines that each fail one reason
``cdrlab.ingest.parse_cdr_file`` defines, rewrites about 5% of the rows with a
``+HH:MM`` offset timestamp for the same instant (the non-canonical timestamp
path), and gives a few rows a non-finite magnitude.  The parser accepts
non-finite magnitudes today, so the check does not assert on them; it counts
how many were accepted, which keeps that defect visible.
"""

from __future__ import annotations

import csv
import functools
import io
import json
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone

import numpy as np

BAD_SHARE = 0.005
OFFSET_SHARE = 0.05
NONFINITE_EVERY = 5000
OFFSETS = ("+01:00", "+03:00", "+05:30", "+06:00")
NONFINITE = ("nan", "inf", "NaN", "Infinity")
UNKNOWN_KIND = "fax"
UNKNOWN_TOWER = "TX99"

# Field order of the CDR files cdrlab writes.
CALLER, CALLEE, TOWER, TS, KIND, MAG = range(6)


def _wrong_field_count(f):
    return f[:4], "wrong field count"


def _missing_caller(f):
    f[CALLER] = ""
    return f, "missing caller"


def _missing_tower(f):
    f[TOWER] = ""
    return f, "missing tower"


def _unknown_kind(f):
    f[KIND] = UNKNOWN_KIND
    return f, f"unknown kind {UNKNOWN_KIND!r}"


def _voice_missing_callee(f):
    f[KIND], f[CALLEE] = "voice", ""
    return f, "voice missing callee"


def _bad_timestamp(f):
    f[TS] = "2016-13-45T99:00:00Z"
    return f, "bad timestamp"


def _missing_magnitude(f):
    f[KIND], f[CALLEE], f[MAG] = "voice", f[CALLEE] or f[CALLER], ""
    return f, "missing magnitude"


def _bad_magnitude(f):
    f[MAG] = "12x5"
    return f, "bad magnitude"


def _negative_magnitude(f):
    f[MAG] = "-5"
    return f, "negative magnitude"


def _unknown_tower(f):
    f[TOWER] = UNKNOWN_TOWER
    return f, f"unknown tower {UNKNOWN_TOWER!r}"


# One builder per reject reason parse_cdr_file defines (a window is never
# passed by the CLI, so "timestamp outside window" cannot occur).
BREAKERS = (
    _wrong_field_count, _missing_caller, _missing_tower, _unknown_kind, _voice_missing_callee,
    _bad_timestamp, _missing_magnitude, _bad_magnitude, _negative_magnitude, _unknown_tower,
)


@dataclass
class Expected:
    """What the dirty copy should do to ingest."""

    rows: int
    rejects: dict[int, str] = field(default_factory=dict)  # line -> reason
    nonfinite: list[int] = field(default_factory=list)
    offsets: int = 0

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"rows": self.rows, "rejects": {str(k): v for k, v in self.rejects.items()},
                       "nonfinite": self.nonfinite, "offsets": self.offsets}, fh, sort_keys=True)


def _with_offset(stamp: str, offset: str) -> str:
    utc = datetime.strptime(stamp, "%Y-%m-%dT%H:%M:%SZ").replace(tzinfo=timezone.utc)
    sign = 1 if offset[0] == "+" else -1
    delta = timedelta(hours=int(offset[1:3]), minutes=int(offset[4:6])) * sign
    return (utc + delta).strftime("%Y-%m-%dT%H:%M:%S") + offset


def _offset(offset, f):
    f[TS] = _with_offset(f[TS], offset)
    return f, None


def _magnitude(value, f):
    f[MAG] = value
    return f, None


def _rewrite(line: str, edit) -> tuple[str, object]:
    """Apply edit to the line's fields; keep the line's own terminator."""
    body = line.rstrip("\r\n")
    fields, note = edit(next(csv.reader([body])))
    buf = io.StringIO()
    csv.writer(buf, lineterminator=line[len(body):]).writerow(fields)
    return buf.getvalue(), note


def make_dirty(clean_path, dirty_path, seed: int) -> Expected:
    """Write the dirty copy of clean_path; return the expected ingest result."""
    with open(clean_path, encoding="utf-8", newline="") as fh:
        lines = fh.readlines()
    data = [i for i, text in enumerate(lines)
            if text.strip() and not text.lstrip().startswith("#")][1:]  # skip the header row
    n = len(data)
    n_bad = max(len(BREAKERS), round(BAD_SHARE * n))
    n_off = round(OFFSET_SHARE * n)
    n_nonfinite = max(len(NONFINITE), n // NONFINITE_EVERY)
    order = np.random.default_rng([seed, 0x5CA9]).permutation(n)
    picks = [data[j] for j in order[: n_bad + n_off + n_nonfinite].tolist()]
    bad, off, nonfinite = picks[:n_bad], picks[n_bad:n_bad + n_off], picks[n_bad + n_off:]

    expected = Expected(rows=n, offsets=n_off)
    for k, i in enumerate(bad):
        lines[i], expected.rejects[i + 1] = _rewrite(lines[i], BREAKERS[k % len(BREAKERS)])
    for k, i in enumerate(off):
        lines[i], _ = _rewrite(lines[i], functools.partial(_offset, OFFSETS[k % len(OFFSETS)]))
    for k, i in enumerate(nonfinite):
        lines[i], _ = _rewrite(lines[i], functools.partial(_magnitude, NONFINITE[k % len(NONFINITE)]))
        expected.nonfinite.append(i + 1)
    expected.nonfinite.sort()
    with open(dirty_path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(lines)
    return expected


def read_rejects(path) -> dict[int, str]:
    """rejects_<source>.csv -> {physical line: reason}."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return {int(line): reason for line, reason in rows[1:]}


def check(expected: Expected, rejects: dict[int, str], rows: int) -> tuple[list[str], int]:
    """Problems with an ingest result, and the number of non-finite rows accepted.

    Every injected line must be rejected at its physical line number with its
    reason, and every other line except the non-finite ones must be accepted.
    """
    problems = []
    if rows != expected.rows:
        problems.append(f"parsed {rows} rows, expected {expected.rows}")
    for line, reason in sorted(expected.rejects.items()):
        got = rejects.get(line)
        if got != reason:
            problems.append(f"line {line}: expected reject {reason!r}, got {got!r}")
    nonfinite = set(expected.nonfinite)
    extra = sorted(set(rejects) - set(expected.rejects) - nonfinite)
    if extra:
        problems.append(f"{len(extra)} untouched rows rejected, first: line {extra[0]} "
                        f"{rejects[extra[0]]!r}")
    return problems, len(nonfinite - set(rejects))
