"""Core domain types shared by every module: events, towers, datasets."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from datetime import datetime, timezone

EVENT_KINDS = ("voice", "sms", "data", "video", "mms")
# Kinds that carry a counterpart and count as communication between two
# subscribers.  Data sessions have no callee.
COMM_KINDS = ("voice", "sms", "video", "mms")

SECONDS_PER_DAY = 86400


def parse_timestamp(text: str) -> int:
    """ISO-8601 UTC text to integer epoch seconds.

    Accepts a trailing 'Z' or an explicit offset; a naive timestamp is taken
    as UTC.  Fractional seconds are rejected: files carry whole seconds.  So
    is an instant whose UTC year leaves 1..9999, which no file could carry.
    """
    raw = text.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    dt = datetime.fromisoformat(raw)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    if dt.microsecond != 0:
        raise ValueError(f"fractional seconds not supported: {text!r}")
    ts = int(dt.timestamp())
    if not -62135596800 <= ts <= 253402300799:  # 0001-01-01 .. 9999-12-31T23:59:59Z
        raise ValueError(f"UTC year out of range: {text!r}")
    return ts


def format_timestamp(ts: int) -> str:
    return datetime.fromtimestamp(int(ts), tz=timezone.utc).isoformat().replace("+00:00", "Z")


def day_start(ts: int) -> int:
    """Start of the UTC day containing ts."""
    return int(ts) - int(ts) % SECONDS_PER_DAY


@dataclass(frozen=True, slots=True)
class CdrRecord:
    caller: str
    callee: str | None
    tower: str
    timestamp: int
    kind: str
    magnitude: float
    # Pass-through columns such as IMSI/IMEI; parsed when mapped, never used
    # by any analysis here.
    attrs: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True, slots=True)
class TopUpRecord:
    buyer: str
    retailer: str
    retailer_tower: str | None
    timestamp: int
    amount: float


@dataclass(frozen=True, slots=True)
class Tower:
    id: str
    lon: float
    lat: float


@dataclass(frozen=True)
class Dataset:
    """Immutable bundle of events, towers, and optional labels.

    Sequences are kept sorted by timestamp (stable, so equal-timestamp rows
    keep their input order).  The window is half-open [start, end) in epoch
    seconds, and every event lies inside it: analysing a sub-window means
    building a Dataset for that window.
    """

    cdrs: tuple[CdrRecord, ...]
    topups: tuple[TopUpRecord, ...]
    towers: dict[str, Tower]
    window: tuple[int, int]
    labels: dict[str, str] | None = None
    _caller_index: dict | None = field(default=None, repr=False, compare=False)
    _callee_index: dict | None = field(default=None, repr=False, compare=False)
    _buyer_index: dict | None = field(default=None, repr=False, compare=False)
    _subscriber_cache: list | None = field(default=None, repr=False, compare=False)
    _cdr_times: list | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "cdrs", tuple(sorted(self.cdrs, key=lambda r: r.timestamp))
        )
        object.__setattr__(
            self, "topups", tuple(sorted(self.topups, key=lambda r: r.timestamp))
        )
        start, end = self.window
        for name, events in (("cdr", self.cdrs), ("top-up", self.topups)):
            if events and not (start <= events[0].timestamp and events[-1].timestamp < end):
                raise ValueError(f"{name} timestamps outside window [{start}, {end})")

    def with_events(
        self,
        cdrs=None,
        topups=None,
    ) -> "Dataset":
        return Dataset(
            cdrs=tuple(cdrs) if cdrs is not None else self.cdrs,
            topups=tuple(topups) if topups is not None else self.topups,
            towers=self.towers,
            window=self.window,
            labels=self.labels,
        )

    def cdrs_between(self, lo: int, hi: int) -> tuple[CdrRecord, ...]:
        """The CDRs with lo <= timestamp < hi, in dataset order."""
        if self._cdr_times is None:
            object.__setattr__(self, "_cdr_times", [rec.timestamp for rec in self.cdrs])
        return self.cdrs[bisect_left(self._cdr_times, lo):bisect_left(self._cdr_times, hi)]

    def cdrs_by_caller(self) -> dict[str, list[CdrRecord]]:
        if self._caller_index is None:
            index: dict[str, list[CdrRecord]] = {}
            for rec in self.cdrs:
                index.setdefault(rec.caller, []).append(rec)
            object.__setattr__(self, "_caller_index", index)
        return self._caller_index

    def cdrs_by_callee(self) -> dict[str, list[CdrRecord]]:
        if self._callee_index is None:
            index: dict[str, list[CdrRecord]] = {}
            for rec in self.cdrs:
                if rec.callee is not None:
                    index.setdefault(rec.callee, []).append(rec)
            object.__setattr__(self, "_callee_index", index)
        return self._callee_index

    def topups_by_buyer(self) -> dict[str, list[TopUpRecord]]:
        if self._buyer_index is None:
            index: dict[str, list[TopUpRecord]] = {}
            for rec in self.topups:
                index.setdefault(rec.buyer, []).append(rec)
            object.__setattr__(self, "_buyer_index", index)
        return self._buyer_index

    def subscribers(self) -> list[str]:
        """Every id seen as caller, callee, or buyer, sorted (cached)."""
        if self._subscriber_cache is None:
            seen = set()
            for rec in self.cdrs:
                seen.add(rec.caller)
                if rec.callee is not None:
                    seen.add(rec.callee)
            for rec in self.topups:
                seen.add(rec.buyer)
            object.__setattr__(self, "_subscriber_cache", sorted(seen))
        return self._subscriber_cache


__all__ = [
    "EVENT_KINDS",
    "COMM_KINDS",
    "SECONDS_PER_DAY",
    "CdrRecord",
    "TopUpRecord",
    "Tower",
    "Dataset",
    "parse_timestamp",
    "format_timestamp",
    "day_start",
]
