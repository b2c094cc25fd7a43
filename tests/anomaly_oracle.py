"""The former per-caller contact ranking and per-pair and per-tower distance loops, kept as oracles in ``anomaly``.

``ranked_contacts`` counted one caller's contacts with three ``bincount``
arrays over every subscriber code; ``anomaly._top_contacts`` ranks every
caller's contacts in one pass and must give each caller the same codes in the
same order, cut at its ``max_rank``.

``area_centroids`` summed each area's tower coordinates in a loop,
``build_flow_network`` built one day's flows at a time as a dict keyed by
(origin, dest) names and measured each pair's centroids with one scalar
``haversine_km`` call, and ``distance_activation_matrix`` binned each tower
with one; the array forms in ``anomaly`` must give the same centroids, flows
and matrices, bit for bit.

``flow_symmetry`` and ``detect_flow_anomalies`` read those per-day dicts, a
list of (day start, {(origin, dest): count}), and tested one pair at a time;
``detect_anomalies`` tested one series at a time and keyed each bin's baseline
cell one bin at a time, and both built one ``AnomalyFlag`` per flagged bin
through ``_flag``.  ``anomaly`` reads the flows of the whole window from one
``FlowCounts``, flags every row of a (series x bins) matrix at once into one
``AnomalyReport`` of array columns, and must give the same flags in the same
order, every float to the bit, and the same errors.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from cdrlab.anomaly import BASELINES
from cdrlab.records import SECONDS_PER_DAY, VOICE, Dataset, day_start, distinct, pearson_r

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
        lon, lat = towers[tid]
        acc = sums.setdefault(area, [0.0, 0.0, 0])
        acc[0] += lon
        acc[1] += lat
        acc[2] += 1
    return {a: (x / c, y / c) for a, (x, y, c) in sums.items() if c}


def build_flow_network(ds: Dataset, day: int, area_map: dict[str, str], min_count: int = 10,
                       min_distance_km: float = 10.0, mode: str = "first_last") -> tuple[int, dict]:
    """(day start, {(origin, dest): count}) of one UTC day's inter-area movements, each pair's distance filter
    one scalar call."""
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
    return day, od


def flow_symmetry(flows: list[tuple[int, dict]]) -> float:
    """Pearson correlation of day-averaged A->B vs B->A over unordered pairs."""
    if not flows:
        raise ValueError("no flow networks given")
    pairs = set()
    for _, od in flows:
        for a, b in od:
            pairs.add((min(a, b), max(a, b)))
    if len(pairs) < 2:
        raise ValueError("need at least two pairs with flow for a correlation")
    xs, ys = [], []
    n_days = len(flows)
    for a, b in sorted(pairs):
        xs.append(sum(od.get((a, b), 0) for _, od in flows) / n_days)
        ys.append(sum(od.get((b, a), 0) for _, od in flows) / n_days)
    return pearson_r(np.asarray(xs), np.asarray(ys), "degenerate flow variance; correlation undefined")


@dataclass
class TimeSeries:
    entity: tuple
    bin_width: int
    start: int
    values: np.ndarray


@dataclass
class AnomalyFlag:
    index: int
    start: int
    value: float
    baseline_mean: float
    baseline_std: float
    z: float | None  # None when the baseline cell is degenerate (zero variance)
    direction: str  # "increase" or "decrease"


@dataclass
class AnomalyReport:
    entity: tuple
    flags: list[AnomalyFlag]


def _flag(index: int, start: int, value: float, mean: float, sigma: float,
          threshold_sigma: float) -> AnomalyFlag | None:
    """The flag for one value against its baseline, or None when it is normal.

    A zero sigma is a degenerate baseline: any value off its mean flags,
    with no z-score.  Every number is stored as a plain Python float.
    """
    value, mean, sigma = float(value), float(mean), float(sigma)
    direction = "increase" if value > mean else "decrease"
    if sigma == 0.0:
        if value != mean:
            return AnomalyFlag(index, start, value, mean, sigma, None, direction)
    elif abs(value - mean) > threshold_sigma * sigma:
        return AnomalyFlag(index, start, value, mean, sigma, (value - mean) / sigma, direction)
    return None


def _weekday(ts: int) -> int:
    # Monday = 0; epoch day 0 (1970-01-01) was a Thursday.
    return (int(ts) // SECONDS_PER_DAY + 3) % 7


def detect_flow_anomalies(flows: list[tuple[int, dict]], threshold_sigma: float = 3.0,
                          baseline_days: set[int] | None = None) -> dict[tuple[str, str], AnomalyReport]:
    """Per-directed-pair weekday-baseline anomaly test over daily flows, baseline_days a set of day starts."""
    if not flows:
        raise ValueError("no flow networks given")
    days = [day for day, _ in flows]
    ods = [od for _, od in flows]
    if baseline_days is None:
        baseline = list(range(len(flows)))
    else:
        baseline = [i for i, d in enumerate(days) if d in baseline_days]
        if len(baseline) != len(baseline_days):
            raise ValueError("baseline_days not all present in flows")
    weekdays = [_weekday(d) for d in days]
    tested = sorted(pair for pair in {p for od in ods for p in od} if all(od.get(pair, 0) > 0 for od in ods))
    needed = {weekdays[i] for i in range(len(flows))}
    base_weekday_counts = Counter(weekdays[i] for i in baseline)
    for w in needed:
        if base_weekday_counts[w] < 2:
            raise ValueError(f"weekday {w} has {base_weekday_counts[w]} baseline day(s); need at least 2")
    cells = len(base_weekday_counts)
    dof = len(baseline) - cells
    if dof < 1:
        raise ValueError("not enough baseline days to estimate sigma")

    reports = {}
    for pair in tested:
        series = np.array([float(od[pair]) for od in ods])
        mu = {}
        for w in base_weekday_counts:
            members = [i for i in baseline if weekdays[i] == w]
            mu[w] = float(series[members].mean())
        resid_sq = sum((series[i] - mu[weekdays[i]]) ** 2 for i in baseline)
        sigma = math.sqrt(resid_sq / dof)
        flags = [_flag(i, days[i], series[i], mu[weekdays[i]], sigma, threshold_sigma)
                 for i in range(len(flows))]
        reports[pair] = AnomalyReport(("pair",) + pair, [f for f in flags if f is not None])
    return reports


def _baseline_cell_key(ts: TimeSeries, baseline: str, index: int):
    if baseline == "global_mean":
        return 0
    bin_ts = ts.start + index * ts.bin_width
    hour = (bin_ts % SECONDS_PER_DAY) // 3600
    if baseline == "hour_of_day":
        return int(hour)
    return (_weekday(bin_ts), int(hour))


def detect_anomalies(ts: TimeSeries, baseline: str = "hour_of_day", threshold_sigma: float = 3.0) -> AnomalyReport:
    """Flag bins of one series where |value - cell mean| exceeds threshold_sigma cell stddevs, each bin's cell keyed
    on its own."""
    if baseline not in BASELINES:
        raise ValueError(f"unknown baseline {baseline!r}")
    cells: dict = {}
    for i in range(len(ts.values)):
        cells.setdefault(_baseline_cell_key(ts, baseline, i), []).append(i)
    for key, members in cells.items():
        if len(members) < 2:
            raise ValueError(
                f"baseline cell {key!r} has {len(members)} sample(s); need at least 2"
            )
    stats = {}
    for key, members in cells.items():
        vals = ts.values[members]
        stats[key] = (float(vals.mean()), float(vals.std(ddof=1)))
    flags = [_flag(i, ts.start + i * ts.bin_width, v, *stats[_baseline_cell_key(ts, baseline, i)], threshold_sigma)
             for i, v in enumerate(ts.values)]
    return AnomalyReport(ts.entity, [f for f in flags if f is not None])


def distance_activation_matrix(ds: Dataset, epicenter: tuple[float, float], event_day: int,
                               hour_window: tuple[int, int], distance_bins: list[float],
                               comparison_days: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """(ratio, count) of activated ties by home distance from the epicenter, each tower binned by one scalar call."""
    c = ds.cdrs
    n = len(c.subscriber_ids)
    edges = np.asarray(distance_bins, dtype=float)
    n_bins = len(edges) + 1
    tower_bin = [int(np.searchsorted(edges, haversine_km(*ds.towers[t], *epicenter), side="right"))
                 for t in c.tower_ids]
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
