"""Core domain types shared by every module: event tables, towers, datasets.

Events are held as columns, one numpy array per field, never as one object
per event.  Subscriber, retailer and tower ids are int32 codes into id
tables, and -1 codes "absent" (a data session's callee, a top-up without a
retailer tower).  A parser's tables keep line order and first-sight id
tables; a `Dataset` alone puts tables in canonical form: codes into sorted id
tables, so comparing codes compares ids, and rows in time order.  It groups
the rows by subscriber with CSR offsets and finds a time range with a binary
search on its sorted timestamps.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from functools import cached_property
from typing import NamedTuple

import numpy as np

EVENT_KINDS = ("voice", "sms", "data", "video", "mms")
# Kinds that carry a counterpart and count as communication between two
# subscribers.  Data sessions have no callee.
COMM_KINDS = ("voice", "sms", "video", "mms")
VOICE, SMS, DATA, VIDEO, MMS = range(len(EVENT_KINDS))  # codes of the `kind` column

SECONDS_PER_DAY = 86400
# The epoch seconds of 0001-01-01T00:00:00Z and 9999-12-31T23:59:59Z: the
# instants whose UTC year has the four digits of a file's timestamps.
FIRST_TS, LAST_TS = -62135596800, 253402300799
NOCTURNAL_START_HOUR = 22
NOCTURNAL_END_HOUR = 6


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
    if not FIRST_TS <= ts <= LAST_TS:
        raise ValueError(f"UTC year out of range: {text!r}")
    return ts


def day_start(ts: int) -> int:
    """Start of the UTC day containing ts."""
    return int(ts) - int(ts) % SECONDS_PER_DAY


def days_from_civil(year, month, day):
    """Days since 1970-01-01 of proleptic Gregorian dates (integer arrays, year >= 0)."""
    y = year - (month <= 2)
    era = y // 400
    yoe = y - era * 400
    doy = (153 * (month + np.where(month > 2, -3, 9)) + 2) // 5 + day - 1
    return era * 146097 + yoe * 365 + yoe // 4 - yoe // 100 + doy - 719468


def civil_from_days(days):
    """(year, month, day) of days since 1970-01-01 (integer arrays), the inverse of days_from_civil."""
    z = days + 719468
    era = z // 146097
    doe = z - era * 146097
    yoe = (doe - doe // 1460 + doe // 36524 - doe // 146096) // 365
    doy = doe - (365 * yoe + yoe // 4 - yoe // 100)
    mp = (5 * doy + 2) // 153
    month = mp + np.where(mp < 10, 3, -9)
    return yoe + era * 400 + (month <= 2), month, doy - (153 * mp + 2) // 5 + 1


def is_nocturnal(ts):
    """Whether epoch seconds fall in 22:00-06:00 UTC (an int or an array)."""
    hour = (ts % SECONDS_PER_DAY) // 3600
    return (hour >= NOCTURNAL_START_HOUR) | (hour < NOCTURNAL_END_HOUR)


@dataclass(frozen=True, slots=True)
class Tower:
    id: str
    lon: float
    lat: float


def distinct(values: np.ndarray) -> np.ndarray:
    """np.unique(values) through a sort: numpy 2.4's bare np.unique imports numpy.ma at start-up cost."""
    values = np.sort(values)
    keep = np.ones(len(values), dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def recode(codes: np.ndarray, old_ids, new_ids) -> np.ndarray:
    """codes into old_ids as codes into new_ids (which hold every id used); -1 stays."""
    index = dict(zip(new_ids, range(len(new_ids))))
    lut = np.array([index.get(s, -1) for s in old_ids] + [-1], dtype=np.int32)
    return lut[codes]


def _used_ids(codes: np.ndarray, ids) -> set[str]:
    """The ids that codes use."""
    return {ids[i] for i in np.flatnonzero(np.bincount(codes[codes >= 0], minlength=len(ids))).tolist()}


class _Table:
    COLUMNS: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.ts)

    def take(self, rows):
        """The rows selected by an index array, mask or slice, same id tables."""
        return replace(self, **{c: getattr(self, c)[rows] for c in self.COLUMNS})


@dataclass(frozen=True, eq=False)
class CdrTable(_Table):
    """CDR columns: epoch seconds, caller/callee/tower codes, kind code, magnitude."""

    ts: np.ndarray  # int64
    caller: np.ndarray  # int32 into subscriber_ids
    callee: np.ndarray  # int32 into subscriber_ids, -1 for no callee
    tower: np.ndarray  # int32 into tower_ids
    kind: np.ndarray  # int8 into EVENT_KINDS
    magnitude: np.ndarray  # float64
    subscriber_ids: tuple[str, ...]
    tower_ids: tuple[str, ...]

    COLUMNS = ("ts", "caller", "callee", "tower", "kind", "magnitude")


@dataclass(frozen=True, eq=False)
class TopUpTable(_Table):
    """Top-up columns: epoch seconds, buyer/retailer/retailer-tower codes, amount."""

    ts: np.ndarray  # int64
    buyer: np.ndarray  # int32 into subscriber_ids
    retailer: np.ndarray  # int32 into retailer_ids
    tower: np.ndarray  # int32 into tower_ids, -1 for no retailer tower
    amount: np.ndarray  # float64
    subscriber_ids: tuple[str, ...]
    retailer_ids: tuple[str, ...]
    tower_ids: tuple[str, ...]

    COLUMNS = ("ts", "buyer", "retailer", "tower", "amount")


class Groups(NamedTuple):
    """Row numbers grouped by a code: rows[offsets[c]:offsets[c + 1]] are the
    rows of code c, in dataset order."""

    rows: np.ndarray
    offsets: np.ndarray


def _group_rows(codes: np.ndarray, n: int) -> Groups:
    """CSR grouping of codes 0..n-1; rows coded -1 belong to no group."""
    rows = np.argsort(codes, kind="stable")
    counts = np.bincount(codes[codes >= 0], minlength=n)
    rows = rows[len(codes) - int(counts.sum()):]
    return Groups(rows, np.concatenate(([0], np.cumsum(counts))))


def _grouped_argmax(group: np.ndarray, item: np.ndarray, n_groups: int, n_items: int) -> np.ndarray:
    """Per group, its most frequent item (the smallest code on ties); -1 for an empty group."""
    key = group.astype(np.int64) * n_items + item
    keys, counts = np.unique(key, return_counts=True)
    groups, items = keys // n_items, keys % n_items
    order = np.lexsort((items, -counts, groups))
    groups, items = groups[order], items[order]
    first = np.ones(len(groups), dtype=bool)
    first[1:] = groups[1:] != groups[:-1]
    out = np.full(n_groups, -1, dtype=np.int64)
    out[groups[first]] = items[first]
    return out


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable bundle of event tables and towers.

    Building one puts any tables in canonical form.  Both share one sorted
    subscriber id table (every id seen as caller, callee or buyer) and one
    tower id table (the sorted `towers` ids; every event tower must be one of
    them); the top-ups' retailers are the sorted ids they use.  Rows are
    sorted by timestamp (stable, so equal-timestamp rows keep their input
    order).  The window is half-open [start, end) in epoch seconds, and every
    event lies inside it: analysing a sub-window means building a Dataset for
    that window.
    """

    cdrs: CdrTable
    topups: TopUpTable
    towers: dict[str, Tower]
    window: tuple[int, int]
    _caller_index: Groups | None = field(default=None, repr=False)
    _callee_index: Groups | None = field(default=None, repr=False)
    _buyer_index: Groups | None = field(default=None, repr=False)
    _subscriber_cache: list | None = field(default=None, repr=False)
    _home_cache: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        cdrs, topups = self.cdrs, self.topups
        tower_ids = tuple(sorted(self.towers))
        for name, table in (("cdr", cdrs), ("top-up", topups)):
            unknown = sorted(_used_ids(table.tower, table.tower_ids) - set(tower_ids))
            if unknown:
                raise ValueError(f"{name} tower {unknown[0]!r} not in towers")
        subs = tuple(sorted(_used_ids(cdrs.caller, cdrs.subscriber_ids)
                            | _used_ids(cdrs.callee, cdrs.subscriber_ids)
                            | _used_ids(topups.buyer, topups.subscriber_ids)))
        retailers = tuple(sorted(_used_ids(topups.retailer, topups.retailer_ids)))
        cdrs = replace(cdrs, subscriber_ids=subs, tower_ids=tower_ids,
                       caller=recode(cdrs.caller, cdrs.subscriber_ids, subs),
                       callee=recode(cdrs.callee, cdrs.subscriber_ids, subs),
                       tower=recode(cdrs.tower, cdrs.tower_ids, tower_ids))
        topups = replace(topups, subscriber_ids=subs, retailer_ids=retailers, tower_ids=tower_ids,
                         buyer=recode(topups.buyer, topups.subscriber_ids, subs),
                         retailer=recode(topups.retailer, topups.retailer_ids, retailers),
                         tower=recode(topups.tower, topups.tower_ids, tower_ids))
        start, end = self.window
        for attr, name, table in (("cdrs", "cdr", cdrs), ("topups", "top-up", topups)):
            if len(table) and np.any(table.ts[1:] < table.ts[:-1]):
                table = table.take(np.argsort(table.ts, kind="stable"))
            if len(table) and not (start <= table.ts[0] and table.ts[-1] < end):
                raise ValueError(f"{name} timestamps outside window [{start}, {end})")
            object.__setattr__(self, attr, table)

    def with_events(self, cdrs: CdrTable | None = None, topups: TopUpTable | None = None) -> "Dataset":
        return Dataset(
            cdrs=cdrs if cdrs is not None else self.cdrs,
            topups=topups if topups is not None else self.topups,
            towers=self.towers,
            window=self.window,
        )

    def cdrs_between(self, lo: int, hi: int) -> slice:
        """The rows of the CDRs with lo <= timestamp < hi."""
        ts = self.cdrs.ts
        return slice(int(np.searchsorted(ts, lo)), int(np.searchsorted(ts, hi)))

    def cdrs_by_caller(self) -> Groups:
        if self._caller_index is None:
            object.__setattr__(self, "_caller_index",
                               _group_rows(self.cdrs.caller, len(self.cdrs.subscriber_ids)))
        return self._caller_index

    def cdrs_by_callee(self) -> Groups:
        if self._callee_index is None:
            object.__setattr__(self, "_callee_index",
                               _group_rows(self.cdrs.callee, len(self.cdrs.subscriber_ids)))
        return self._callee_index

    def topups_by_buyer(self) -> Groups:
        if self._buyer_index is None:
            object.__setattr__(self, "_buyer_index",
                               _group_rows(self.topups.buyer, len(self.topups.subscriber_ids)))
        return self._buyer_index

    def subscribers(self) -> list[str]:
        """Every id seen as caller, callee, or buyer, sorted (cached)."""
        if self._subscriber_cache is None:
            object.__setattr__(self, "_subscriber_cache", list(self.cdrs.subscriber_ids))
        return self._subscriber_cache

    def home_towers(self) -> np.ndarray:
        """Per subscriber code, the tower code of its home; -1 when it has none (cached).

        The home is the most frequent tower over the subscriber's outgoing
        22:00-06:00 events, or over all its outgoing events when it has no
        nocturnal one.  Ties resolve to the lexicographically smallest id.
        """
        if self._home_cache is None:
            c = self.cdrs
            n_subs, n_towers = len(c.subscriber_ids), len(c.tower_ids)
            night = is_nocturnal(c.ts)
            home = _grouped_argmax(c.caller[night], c.tower[night], n_subs, n_towers)
            fallback = _grouped_argmax(c.caller, c.tower, n_subs, n_towers)
            object.__setattr__(self, "_home_cache", np.where(home >= 0, home, fallback))
        return self._home_cache

    @cached_property
    def tower_coords(self) -> np.ndarray:
        """(lon, lat) rows in tower-code order."""
        return np.array([(self.towers[t].lon, self.towers[t].lat) for t in self.cdrs.tower_ids],
                        dtype=np.float64).reshape(-1, 2)

