"""The former per-caller contact ranking and per-pair and per-tower distance loops, kept as oracles in ``anomaly``.

``ranked_contacts`` counted one caller's contacts with three ``bincount``
arrays over every subscriber code; ``anomaly._top_contacts`` ranks every
caller's contacts in one pass and must give each caller the same codes in the
same order, cut at its ``max_rank``.

``area_centroids`` summed each area's tower coordinates in a loop,
``build_flow_network`` measured each origin-destination pair's centroids with
one scalar ``haversine_km`` call and ``distance_activation_matrix`` binned each
tower with one; the array forms in ``anomaly`` must give the same centroids,
flows and matrices, bit for bit.
"""

from __future__ import annotations

import numpy as np

from cdrlab.anomaly import FlowNetwork
from cdrlab.records import SECONDS_PER_DAY, VOICE, Dataset, day_start, distinct

from geo_oracle import haversine_km


def ranked_contacts(ds: Dataset, code: int, window: tuple[int, int]) -> np.ndarray:
    """The contact codes of a subscriber code, ordered by outgoing voice-call
    count in the window, descending.

    Ties break by the pair's total two-way communication count in the
    window, then by contact id.
    """
    start, end = window
    c = ds.cdrs
    n = len(c.subscriber_ids)
    out, inn = (rows[offsets[code]:offsets[code + 1]] for rows, offsets in (ds.cdrs_by_caller(), ds.cdrs_by_callee()))
    out = out[(c.ts[out] >= start) & (c.ts[out] < end) & (c.callee[out] >= 0)]
    inn = inn[(c.ts[inn] >= start) & (c.ts[inn] < end)]
    calls = np.bincount(c.callee[out[c.kind[out] == VOICE]], minlength=n)
    two_way = np.bincount(c.callee[out], minlength=n) + np.bincount(c.caller[inn], minlength=n)
    contacts = np.flatnonzero(calls)
    return contacts[np.lexsort((contacts, -two_way[contacts], -calls[contacts]))]


def area_centroids(towers, area_map: dict[str, str]) -> dict[str, tuple[float, float]]:
    """Mean member-tower coordinates per area."""
    sums: dict[str, list[float]] = {}
    for tid, area in area_map.items():
        if tid not in towers:
            continue
        t = towers[tid]
        acc = sums.setdefault(area, [0.0, 0.0, 0])
        acc[0] += t.lon
        acc[1] += t.lat
        acc[2] += 1
    return {a: (x / c, y / c) for a, (x, y, c) in sums.items() if c}


def build_flow_network(ds: Dataset, day: int, area_map: dict[str, str], min_count: int = 10,
                       min_distance_km: float = 10.0, mode: str = "first_last") -> FlowNetwork:
    """Inter-area movements for one UTC day, each pair's distance filter one scalar call."""
    day = day_start(day)
    c = ds.cdrs
    rows = ds.cdrs_between(day, day + SECONDS_PER_DAY)
    areas = sorted(set(area_map.values()))
    index = {a: i for i, a in enumerate(areas)}
    area_of = np.array([index.get(area_map.get(tid), -1) for tid in c.tower_ids], dtype=np.int64)
    area = area_of[c.tower[rows]]
    caller = c.caller[rows]
    order = np.argsort(caller, kind="stable")
    caller, area = caller[order], area[order]
    same = caller[1:] == caller[:-1]
    if mode == "first_last":
        first = np.ones(len(caller), dtype=bool)
        first[1:] = ~same
        last = np.ones(len(caller), dtype=bool)
        last[:-1] = ~same
        origin, dest = area[first], area[last]
    else:
        origin, dest = area[:-1][same], area[1:][same]
    moved = origin != dest
    pairs, counts = np.unique(origin[moved] * len(areas) + dest[moved], return_counts=True)
    centroids = area_centroids(ds.towers, area_map)
    od = {}
    for pair, count in zip(pairs.tolist(), counts.tolist()):
        a, b = areas[pair // len(areas)], areas[pair % len(areas)]
        if count < min_count:
            continue
        ca, cb = centroids.get(a), centroids.get(b)
        if ca is None or cb is None:
            continue
        if haversine_km(ca[0], ca[1], cb[0], cb[1]) < min_distance_km:
            continue
        od[(a, b)] = int(count)
    return FlowNetwork(day=day, od=od)


def distance_activation_matrix(ds: Dataset, epicenter: tuple[float, float], event_day: int,
                               hour_window: tuple[int, int], distance_bins: list[float],
                               comparison_days: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """(ratio, count) of activated ties by home distance from the epicenter, each tower binned by one scalar call."""
    c = ds.cdrs
    n = len(c.subscriber_ids)
    edges = np.asarray(distance_bins, dtype=float)
    n_bins = len(edges) + 1
    tower_bin = [int(np.searchsorted(edges, haversine_km(t.lon, t.lat, epicenter[0], epicenter[1]), side="right"))
                 for t in map(ds.towers.__getitem__, c.tower_ids)]
    dist_bin = np.array(tower_bin + [-1], dtype=np.int64)[ds.home_towers()]

    def day_matrix(day: int) -> np.ndarray:
        day = day_start(day)
        rows = ds.cdrs_between(day + hour_window[0], day + hour_window[1])
        caller, callee = c.caller[rows], c.callee[rows]
        has = callee >= 0
        ties = distinct(caller[has].astype(np.int64) * n + callee[has])
        bx, by = dist_bin[ties // n], dist_bin[ties % n]
        both = (bx >= 0) & (by >= 0)
        counts = np.bincount(bx[both] * n_bins + by[both], minlength=n_bins * n_bins)
        return counts.reshape(n_bins, n_bins).astype(float)

    event = day_matrix(event_day)
    comp = np.mean([day_matrix(d) for d in comparison_days], axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(comp > 0, event / comp, np.nan)
    return ratio, event
