"""Shared builders for the test suite.

Events are written here as one record per row: `CdrRecord` and `TopUpRecord`,
turned into the column tables of `cdrlab.records` by `cdr_table`,
`topup_table` and `dataset_from_records`.  `src/` itself holds events only
as columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from cdrlab.records import EVENT_KINDS, CdrTable, Dataset, TopUpTable, Tower
from cdrlab.socialgraph import SocialGraph

T0 = 1462060800  # 2016-05-01T00:00:00Z, a Sunday
DAY = 86400


@dataclass(frozen=True, slots=True)
class CdrRecord:
    """One CDR as a row, the input of `cdr_table`."""

    caller: str
    callee: str | None
    tower: str
    timestamp: int
    kind: str
    magnitude: float


@dataclass(frozen=True, slots=True)
class TopUpRecord:
    """One top-up as a row, the input of `topup_table`."""

    buyer: str
    retailer: str
    retailer_tower: str | None
    timestamp: int
    amount: float


def _code_ids(values) -> tuple[np.ndarray, tuple[str, ...]]:
    """(int32 codes of values, sorted id table); None codes -1."""
    ids = tuple(sorted(set(values) - {None}))
    index = dict(zip(ids, range(len(ids))))
    index[None] = -1
    return np.fromiter(map(index.__getitem__, values), np.int32, len(values)), ids


def cdr_table(records=()) -> CdrTable:
    recs = list(records)
    people, subscriber_ids = _code_ids([r.caller for r in recs] + [r.callee for r in recs])
    tower, tower_ids = _code_ids([r.tower for r in recs])
    return CdrTable(
        ts=np.array([r.timestamp for r in recs], dtype=np.int64),
        caller=people[:len(recs)],
        callee=people[len(recs):],
        tower=tower,
        kind=np.array([EVENT_KINDS.index(r.kind) for r in recs], dtype=np.int8),
        magnitude=np.array([r.magnitude for r in recs], dtype=np.float64),
        subscriber_ids=subscriber_ids,
        tower_ids=tower_ids,
    )


def topup_table(records=()) -> TopUpTable:
    recs = list(records)
    buyer, subscriber_ids = _code_ids([r.buyer for r in recs])
    retailer, retailer_ids = _code_ids([r.retailer for r in recs])
    tower, tower_ids = _code_ids([r.retailer_tower for r in recs])
    return TopUpTable(
        ts=np.array([r.timestamp for r in recs], dtype=np.int64),
        buyer=buyer,
        retailer=retailer,
        tower=tower,
        amount=np.array([r.amount for r in recs], dtype=np.float64),
        subscriber_ids=subscriber_ids,
        retailer_ids=retailer_ids,
        tower_ids=tower_ids,
    )


def dataset_from_records(cdrs, topups, towers, window) -> Dataset:
    """A Dataset from CdrRecord and TopUpRecord rows."""
    return Dataset(cdr_table(cdrs), topup_table(topups), dict(towers), window)


def tower(tid: str, lon: float = 90.0, lat: float = 23.0) -> Tower:
    return Tower(tid, lon, lat)


def voice(caller, callee, tower_id, ts, seconds=60.0):
    return CdrRecord(caller, callee, tower_id, ts, "voice", float(seconds))


def sms(caller, callee, tower_id, ts):
    return CdrRecord(caller, callee, tower_id, ts, "sms", 1.0)


def data(caller, tower_id, ts, volume=1.0):
    return CdrRecord(caller, None, tower_id, ts, "data", float(volume))


def topup(buyer, ts, amount, retailer="R1", retailer_tower=None):
    return TopUpRecord(buyer, retailer, retailer_tower, ts, float(amount))


def make_dataset(cdrs=(), topups=(), towers=None, window=None) -> Dataset:
    if towers is None:
        ids = {r.tower for r in cdrs} | {
            t.retailer_tower for t in topups if t.retailer_tower
        } or {"T1"}
        towers = {tid: tower(tid, 90.0 + 0.1 * i, 23.0) for i, tid in enumerate(sorted(ids))}
    if window is None:
        stamps = [r.timestamp for r in cdrs] + [t.timestamp for t in topups]
        window = (min(stamps), max(stamps) + 1) if stamps else (T0, T0 + DAY)
    return dataset_from_records(cdrs, topups, towers, window)


def cdr_rows(table) -> list[CdrRecord]:
    """A CdrTable's rows as records, in table order."""
    ids = list(table.subscriber_ids) + [None]
    return [CdrRecord(ids[a], ids[b], table.tower_ids[t], ts, EVENT_KINDS[k], m)
            for a, b, t, ts, k, m in zip(table.caller.tolist(), table.callee.tolist(), table.tower.tolist(),
                                         table.ts.tolist(), table.kind.tolist(), table.magnitude.tolist())]


def topup_rows(table) -> list[TopUpRecord]:
    """A TopUpTable's rows as records, in table order."""
    towers = list(table.tower_ids) + [None]
    return [TopUpRecord(table.subscriber_ids[b], table.retailer_ids[r], towers[t], ts, a)
            for b, r, t, ts, a in zip(table.buyer.tolist(), table.retailer.tolist(), table.tower.tolist(),
                                      table.ts.tolist(), table.amount.tolist())]


def graph_from(edges, nodes=()) -> SocialGraph:
    return SocialGraph.from_edges(edges, nodes=nodes)


def random_graph(rng: np.random.Generator, n: int, p: float) -> SocialGraph:
    names = [f"n{i}" for i in range(n)]
    edges = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return SocialGraph.from_edges(edges, nodes=names)


def random_connected_graph(rng: np.random.Generator, n: int, extra: float = 0.05,
                           weighted: bool = False) -> SocialGraph:
    """Random tree plus extra edges; always connected."""
    names = [f"n{i}" for i in range(n)]
    edges = []
    have = set()
    for i in range(1, n):
        j = int(rng.integers(0, i))
        edges.append((names[i], names[j], float(rng.uniform(0.5, 3.0)) if weighted else 1.0))
        have.add((j, i))
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in have and rng.random() < extra:
                edges.append((names[i], names[j], float(rng.uniform(0.5, 3.0)) if weighted else 1.0))
    return SocialGraph.from_edges(edges, nodes=names)


@pytest.fixture
def tiny_ds() -> Dataset:
    """Two subscribers, two towers, a few voice/sms/topup events on day 1."""
    cdrs = [
        voice("A", "B", "T1", T0 + 600, 120),
        voice("B", "A", "T2", T0 + 1200, 60),
        sms("A", "B", "T1", T0 + 1800),
        data("A", "T1", T0 + 2400, 5.0),
    ]
    tops = [topup("A", T0 + 3000, 50.0, retailer_tower="T2")]
    return make_dataset(cdrs, tops, window=(T0, T0 + DAY))
