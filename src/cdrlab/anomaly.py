"""Event-series anomaly detection, OD flow networks, and activation analysis.

The sigma model flags bins whose value sits more than threshold_sigma
sample standard deviations from a baseline mean; baselines are the whole
series, per hour-of-day cells, or per (weekday, hour) cells.  Flow networks
count inter-area movements per day, with symmetry and per-weekday anomaly
tests.  Rank-activation curves measure who calls their closest contacts in
the minutes after an event.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .geo import haversine_km_to
from .ingest import write_csv
from .records import SECONDS_PER_DAY, VOICE, Dataset, day_start, distinct
from .spatial import pearson_r

DEFAULT_THRESHOLD_SIGMA = 3.0

BASELINES = ("global_mean", "hour_of_day", "weekday_hour")


@dataclass
class TimeSeries:
    entity: tuple
    bin_width: int
    start: int
    values: np.ndarray

    def bin_start(self, index: int) -> int:
        return self.start + index * self.bin_width


@dataclass
class AnomalyFlag:
    index: int
    start: int
    value: float
    baseline_mean: float
    baseline_std: float
    z: float | None  # None when the baseline cell is degenerate (zero variance)
    direction: str  # "increase" or "decrease"


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


@dataclass
class AnomalyReport:
    entity: tuple
    flags: list[AnomalyFlag]

    def flagged(self) -> set[int]:
        return {f.index for f in self.flags}


@dataclass
class FlowNetwork:
    day: int  # UTC day start, epoch seconds
    od: dict[tuple[str, str], int]


def _weekday(ts: int) -> int:
    # Monday = 0; epoch day 0 (1970-01-01) was a Thursday.
    return (int(ts) // SECONDS_PER_DAY + 3) % 7


def bin_series(
    ds: Dataset,
    entities: list[tuple],
    bin_width: int,
    measure: str = "call_count",
    area_map: dict[str, str] | None = None,
) -> list[TimeSeries]:
    """Aggregate each entity's events into contiguous bins over the window.

    An entity is ("global",), ("tower", id), or ("district", id) with an
    area_map; call_count counts voice events, the recharge measures use
    top-ups located at the retailer tower.  One pass over the events fills
    every series; they come back in the order given.
    """
    if measure not in ("call_count", "recharge_amount", "recharge_count"):
        raise ValueError(f"unknown measure {measure!r}")
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    for entity in entities:
        kind = entity[0]
        if kind not in ("global", "tower", "district"):
            raise ValueError(f"unknown entity kind {kind!r}")
        if kind == "district" and area_map is None:
            raise ValueError("district entity needs an area_map")
        if kind == "tower" and entity[1] not in ds.towers:
            raise ValueError(f"unknown tower {entity[1]!r}")
        if kind == "district" and entity[1] not in area_map.values():
            raise ValueError(f"unknown district {entity[1]!r}")
    start, end = ds.window
    n_bins = max(1, math.ceil((end - start) / bin_width))
    if measure == "call_count":
        voice = ds.cdrs.kind == VOICE
        tower, ts, amount = ds.cdrs.tower[voice], ds.cdrs.ts[voice], np.ones(int(voice.sum()))
    else:
        t = ds.topups
        tower, ts = t.tower, t.ts
        amount = t.amount if measure == "recharge_amount" else np.ones(len(t))
    tower_ids = ds.cdrs.tower_ids
    bins = (ts - start) // bin_width
    # Each cell adds its events in dataset order, so the sums are stable.
    series = {("global",): np.bincount(bins, weights=amount, minlength=n_bins)}
    located = tower >= 0
    if any(entity[0] == "tower" for entity in entities):
        cells = np.bincount(tower[located].astype(np.int64) * n_bins + bins[located],
                            weights=amount[located], minlength=len(tower_ids) * n_bins)
        series.update((("tower", tid), row) for tid, row in zip(tower_ids, cells.reshape(-1, n_bins)))
    if any(entity[0] == "district" for entity in entities):
        districts = sorted(set(area_map.values()))
        index = {d: i for i, d in enumerate(districts)}
        area_of = np.array([index.get(area_map.get(tid), -1) for tid in tower_ids] + [-1])
        missing = np.flatnonzero(located & (area_of[tower] < 0))
        if len(missing):
            raise ValueError(f"tower {tower_ids[tower[missing[0]]]!r} missing from area_map")
        cells = np.bincount(area_of[tower[located]] * n_bins + bins[located],
                            weights=amount[located], minlength=len(districts) * n_bins)
        series.update((("district", d), row) for d, row in zip(districts, cells.reshape(-1, n_bins)))
    return [TimeSeries(tuple(e), bin_width, start, series[tuple(e)]) for e in entities]


def _baseline_cell_key(ts: TimeSeries, baseline: str, index: int):
    if baseline == "global_mean":
        return 0
    bin_ts = ts.bin_start(index)
    hour = (bin_ts % SECONDS_PER_DAY) // 3600
    if baseline == "hour_of_day":
        return int(hour)
    return (_weekday(bin_ts), int(hour))


def detect_anomalies(
    ts: TimeSeries,
    baseline: str = "hour_of_day",
    threshold_sigma: float = DEFAULT_THRESHOLD_SIGMA,
) -> AnomalyReport:
    """Flag bins where |value - cell mean| exceeds threshold_sigma cell stddevs.

    Cell statistics include the bin under test (the baseline is the whole
    period).  A zero-variance cell is degenerate: any value different from
    its mean flags, with no finite z-score.
    """
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
    flags = [_flag(i, ts.bin_start(i), v, *stats[_baseline_cell_key(ts, baseline, i)], threshold_sigma)
             for i, v in enumerate(ts.values)]
    return AnomalyReport(ts.entity, [f for f in flags if f is not None])


def area_centroids(towers, area_map: dict[str, str]) -> dict[str, tuple[float, float]]:
    """Mean coordinates of each area's member towers that towers holds, summed in area_map's order."""
    members = [(area, towers[tid]) for tid, area in area_map.items() if tid in towers]
    index: dict[str, int] = {}
    code = np.array([index.setdefault(area, len(index)) for area, _ in members], dtype=np.int64)
    lonlat = np.array([(t.lon, t.lat) for _, t in members], dtype=np.float64).reshape(-1, 2)
    count = np.bincount(code, minlength=len(index))
    lon, lat = (np.bincount(code, lonlat[:, k], len(index)) / count for k in (0, 1))
    return dict(zip(index, zip(lon.tolist(), lat.tolist())))


def build_flow_network(
    ds: Dataset,
    day: int,
    area_map: dict[str, str],
    min_count: int = 10,
    min_distance_km: float = 10.0,
    mode: str = "first_last",
) -> FlowNetwork:
    """Inter-area movements for one UTC day.

    first_last: one movement per SIM, from its first to its last observed
    area that day; SIMs whose first and last areas coincide contribute
    nothing.  per_transition: every consecutive area change contributes.
    Flows below min_count or between centroids closer than min_distance_km
    are dropped.
    """
    if mode not in ("first_last", "per_transition"):
        raise ValueError(f"unknown mode {mode!r}")
    day = day_start(day)
    c = ds.cdrs
    rows = ds.cdrs_between(day, day + SECONDS_PER_DAY)
    areas = sorted(set(area_map.values()))
    index = {a: i for i, a in enumerate(areas)}
    area_of = np.array([index.get(area_map.get(tid), -1) for tid in c.tower_ids], dtype=np.int64)
    area = area_of[c.tower[rows]]
    if np.any(area < 0):
        raise ValueError(f"tower {c.tower_ids[c.tower[rows][np.argmax(area < 0)]]!r} missing from area_map")
    # Each SIM's areas in time order, SIM after SIM.
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
    # Every area that a row's tower maps to has a centroid; NaN stands for the others.
    centroids = area_centroids(ds.towers, area_map)
    at = np.array([centroids.get(x, (np.nan, np.nan)) for x in areas]).reshape(-1, 2)
    pairs, counts = pairs[counts >= min_count], counts[counts >= min_count]
    a, b = np.divmod(pairs, len(areas))
    far = ~(haversine_km_to(at[a, 0], at[a, 1], at[b, 0], at[b, 1]) < min_distance_km)
    od = {(areas[i], areas[j]): n for i, j, n in zip(a[far].tolist(), b[far].tolist(), counts[far].tolist())}
    return FlowNetwork(day=day, od=od)


def flow_symmetry(flows: list[FlowNetwork]) -> float:
    """Pearson correlation of day-averaged A->B vs B->A over unordered pairs."""
    if not flows:
        raise ValueError("no flow networks given")
    pairs = set()
    for fn in flows:
        for a, b in fn.od:
            pairs.add((min(a, b), max(a, b)))
    if len(pairs) < 2:
        raise ValueError("need at least two pairs with flow for a correlation")
    xs, ys = [], []
    n_days = len(flows)
    for a, b in sorted(pairs):
        xs.append(sum(fn.od.get((a, b), 0) for fn in flows) / n_days)
        ys.append(sum(fn.od.get((b, a), 0) for fn in flows) / n_days)
    return pearson_r(np.asarray(xs), np.asarray(ys), "degenerate flow variance; correlation undefined")


def detect_flow_anomalies(
    flows: list[FlowNetwork],
    threshold_sigma: float = DEFAULT_THRESHOLD_SIGMA,
    baseline_days: set[int] | None = None,
) -> dict[tuple[str, str], AnomalyReport]:
    """Per-directed-pair weekday-baseline anomaly test over daily flows.

    Only pairs with strictly positive flow on every day are tested.  The
    baseline mean is per weekday over baseline_days (default: all days);
    sigma pools the residuals about those weekday means across the pair's
    baseline days, because a per-weekday sigma from a handful of samples
    cannot exceed its own 3-sigma band even for a huge surge.
    """
    if not flows:
        raise ValueError("no flow networks given")
    days = [fn.day for fn in flows]
    if baseline_days is None:
        baseline = list(range(len(flows)))
    else:
        baseline = [i for i, d in enumerate(days) if d in baseline_days]
        if len(baseline) != len(baseline_days):
            raise ValueError("baseline_days not all present in flows")
    weekdays = [_weekday(d) for d in days]
    tested = sorted(
        pair
        for pair in {p for fn in flows for p in fn.od}
        if all(fn.od.get(pair, 0) > 0 for fn in flows)
    )
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
        series = np.array([float(fn.od[pair]) for fn in flows])
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


def _top_contacts(ds: Dataset, window: tuple[int, int], max_rank: int) -> tuple[np.ndarray, np.ndarray]:
    """Every caller's contacts of rank 1..max_rank in the window: the sorted
    caller * n + contact codes, and their ranks.

    A caller ranks the contacts of its outgoing voice calls in the window by
    that call count, descending.  Ties break by the pair's total two-way
    communication count in the window, then by contact id.
    """
    c = ds.cdrs
    n = len(c.subscriber_ids)
    rows = ds.cdrs_between(*window)
    callee = c.callee[rows]
    linked = callee >= 0
    key = c.caller[rows].astype(np.int64) * n + callee
    keys, calls = np.unique(key[linked & (c.kind[rows] == VOICE)], return_counts=True)
    linked_keys = np.sort(key[linked])
    callers, contacts = np.divmod(keys, n)
    two_way = sum(np.searchsorted(linked_keys, k, side="right") - np.searchsorted(linked_keys, k)
                  for k in (keys, contacts * n + callers))
    order = np.lexsort((contacts, -two_way, -calls, callers))
    grouped = callers[order]
    ranks = np.empty(len(keys), dtype=np.int64)
    ranks[order] = np.arange(1, len(keys) + 1) - np.searchsorted(grouped, grouped)
    keep = ranks <= max_rank
    return keys[keep], ranks[keep]


@dataclass
class RankCurves:
    event_day: int
    bin_width: int
    offsets: list[int]
    # rank -> per-bin event-day fraction, comparison mean, and their ratio
    # (None where the comparison mean is 0)
    event_fraction: dict[int, list[float]]
    comparison_mean: dict[int, list[float]]
    ratio: dict[int, list[float | None]]


def _day_fraction_curves(
    ds: Dataset,
    day: int,
    rank_keys: np.ndarray,
    rank_values: np.ndarray,
    ranks: tuple[int, ...],
    bin_width: int,
) -> dict[int, np.ndarray]:
    """Per rank: fraction of that day's active subscribers calling their
    rank-k contact in each bin.  rank_keys (sorted) are caller * n + contact
    codes, rank_values their ranks."""
    n_bins = SECONDS_PER_DAY // bin_width
    c = ds.cdrs
    n = len(c.subscriber_ids)
    rows = ds.cdrs_between(day, day + SECONDS_PER_DAY)
    caller = c.caller[rows]
    denom = max(1, int(np.count_nonzero(np.bincount(caller, minlength=n))))
    voice = (c.kind[rows] == VOICE) & (c.callee[rows] >= 0)
    caller, bins = caller[voice], (c.ts[rows][voice] - day) // bin_width
    key = caller.astype(np.int64) * n + c.callee[rows][voice]
    at = np.minimum(np.searchsorted(rank_keys, key), max(len(rank_keys) - 1, 0))
    hit = rank_keys[at] == key if len(rank_keys) else np.zeros(len(key), dtype=bool)
    # a caller counts once per (rank, bin)
    hits = distinct((rank_values[at[hit]] * n_bins + bins[hit]) * n + caller[hit])
    counts = np.bincount(hits // n, minlength=(max(ranks) + 1) * n_bins).reshape(-1, n_bins)
    return {k: counts[k] / denom for k in ranks}


def rank_activation_curves(
    ds: Dataset,
    event_time: int,
    ranks: tuple[int, ...] = (1, 2, 3, 4, 5),
    bin_width: int = 300,
    comparison_days: list[int] = (),
    rank_window: tuple[int, int] | None = None,
) -> RankCurves:
    """Double-normalized calling curves toward each subscriber's top contacts.

    Contact ranks come from rank_window (default: everything before the
    event day).  Per day and bin, the statistic is the fraction of that
    day's active subscribers placing a voice call to their rank-k contact;
    the event-day curve is divided bin-wise by the comparison-day mean.
    The bins tile each day exactly, so bin_width must divide a day.
    """
    if bin_width <= 0 or SECONDS_PER_DAY % bin_width:
        raise ValueError(f"bin_width must be a positive divisor of {SECONDS_PER_DAY} seconds, got {bin_width}")
    if not ranks:
        raise ValueError("need at least one rank")
    if not comparison_days:
        raise ValueError("need at least one comparison day")
    event_day = day_start(event_time)
    if rank_window is None:
        rank_window = (ds.window[0], event_day)
    if rank_window[0] >= rank_window[1]:
        raise ValueError("empty rank window")
    rank_keys, rank_values = _top_contacts(ds, rank_window, max(ranks))

    event_curves = _day_fraction_curves(ds, event_day, rank_keys, rank_values, tuple(ranks), bin_width)
    comp_curves = [
        _day_fraction_curves(ds, day_start(d), rank_keys, rank_values, tuple(ranks), bin_width)
        for d in comparison_days
    ]
    n_bins = SECONDS_PER_DAY // bin_width
    offsets = [i * bin_width for i in range(n_bins)]
    event_fraction = {}
    comparison_mean = {}
    ratio: dict[int, list[float | None]] = {}
    for k in ranks:
        ev = event_curves[k]
        cm = np.mean([c[k] for c in comp_curves], axis=0)
        event_fraction[k] = ev.tolist()
        comparison_mean[k] = cm.tolist()
        ratio[k] = [float(e / m) if m > 0 else None for e, m in zip(ev, cm)]
    return RankCurves(event_day, bin_width, offsets, event_fraction, comparison_mean, ratio)


def distance_activation_matrix(
    ds: Dataset,
    epicenter: tuple[float, float],
    event_day: int,
    hour_window: tuple[int, int],
    distance_bins: list[float],
    comparison_days: list[int],
) -> tuple[np.ndarray, np.ndarray]:
    """Activated-tie counts binned by caller/callee distance from the epicenter.

    hour_window is (start, end) seconds relative to the day start.  A tie is
    a distinct (caller, callee) pair with a communication event in the
    window; each subscriber sits at its home tower.  Returns (ratio, count)
    matrices of shape (bins, bins) where ratio is count over the
    comparison-day average (NaN where that average is 0).
    """
    if not comparison_days:
        raise ValueError("need at least one comparison day")
    if not distance_bins or distance_bins[0] <= 0 or any(a >= b for a, b in zip(distance_bins, distance_bins[1:])):
        raise ValueError("distance_bins must be strictly ascending edges above 0")
    c = ds.cdrs
    n = len(c.subscriber_ids)
    edges = np.asarray(distance_bins, dtype=float)
    n_bins = len(edges) + 1
    lonlat = ds.tower_coords
    tower_bin = np.searchsorted(edges, haversine_km_to(lonlat[:, 0], lonlat[:, 1], *epicenter), side="right")
    # by subscriber code; the home code -1 (no home) picks the trailing -1
    dist_bin = np.append(tower_bin, -1)[ds.home_towers()]

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


def write_anomalies_csv(reports, path: str, header_comment: str | None = None) -> None:
    """reports: iterable of AnomalyReport."""
    rows = (
        [":".join(str(p) for p in report.entity), f.start, repr(f.value), repr(f.baseline_mean),
         repr(f.baseline_std), "" if f.z is None else repr(f.z), f.direction]
        for report in reports
        for f in report.flags
    )
    write_csv(path, ["entity", "bin_start", "value", "baseline_mean", "baseline_std", "z", "direction"],
              rows, header_comment)


def write_flows_csv(fn: FlowNetwork, path: str, header_comment: str | None = None) -> None:
    write_csv(path, ["origin", "dest", "count"], ([a, b, fn.od[(a, b)]] for a, b in sorted(fn.od)),
              header_comment)


def write_rank_curves_csv(curves: RankCurves, path: str, header_comment: str | None = None) -> None:
    rows = (
        [k, off, repr(curves.event_fraction[k][i]), repr(curves.comparison_mean[k][i]),
         "" if curves.ratio[k][i] is None else repr(curves.ratio[k][i])]
        for k in sorted(curves.ratio)
        for i, off in enumerate(curves.offsets)
    )
    write_csv(path, ["rank", "offset_seconds", "event_fraction", "comparison_mean", "ratio"],
              rows, header_comment)


def write_distance_matrix_csv(ratio: np.ndarray, path: str, header_comment: str | None = None) -> None:
    n = ratio.shape[0]
    rows = (
        [i, j, "" if np.isnan(ratio[i, j]) else repr(float(ratio[i, j]))]
        for i in range(n)
        for j in range(n)
    )
    write_csv(path, ["caller_bin", "callee_bin", "ratio"], rows, header_comment)
