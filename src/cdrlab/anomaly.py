"""Event-series anomaly detection, OD flow networks, and activation analysis.

The sigma model flags bins whose value sits more than threshold_sigma
sample standard deviations from a baseline mean; baselines are the whole
series, per hour-of-day cells, or per (weekday, hour) cells, each bin's
cell taken from one array expression.  Flow networks count inter-area
movements per day of the window, all days in one grouped pass that gives
one ``FlowCounts`` table, with symmetry and per-weekday anomaly tests read
from its arrays.  Rank-activation curves measure who calls their closest
contacts in the minutes after an event.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geo import haversine_km_to
from .ingest import write_csv
from .records import SECONDS_PER_DAY, VOICE, Dataset, day_start, distinct, pearson_r

DEFAULT_THRESHOLD_SIGMA = 3.0

BASELINES = ("global_mean", "hour_of_day", "weekday_hour")
MEASURES = ("call_count", "recharge_amount", "recharge_count")
FLOW_MODES = ("first_last", "per_transition")


@dataclass
class TimeSeries:
    entities: list[tuple]
    bin_width: int
    start: int
    values: np.ndarray  # one row of bins per entity


@dataclass
class AnomalyReport:
    """The flags of a matrix of series, row after row, each row's in bin order."""

    entities: list[tuple]  # per row of the matrix
    starts: np.ndarray  # per bin, its start, epoch seconds
    row: np.ndarray  # per flag, its row
    index: np.ndarray  # per flag, its bin
    value: np.ndarray
    baseline_mean: np.ndarray
    baseline_std: np.ndarray
    z: np.ndarray  # nan where the baseline sigma is 0


def _sigma_flags(entities: list[tuple], starts: np.ndarray, values: np.ndarray, mean: np.ndarray,
                 sigma: np.ndarray, threshold_sigma: float) -> AnomalyReport:
    """The report of the values (rows x bins) further than threshold_sigma sigmas from their means.

    mean and sigma give each value's baseline; a zero sigma flags any value off its mean.
    """
    sigma = np.broadcast_to(sigma, values.shape)
    hit = np.where(sigma == 0.0, values != mean, np.abs(values - mean) > threshold_sigma * sigma)
    row, index = np.nonzero(hit)
    value, m, s = values[row, index], mean[row, index], sigma[row, index]
    return AnomalyReport(entities, starts, row, index, value, m, s, (value - m) / np.where(s == 0.0, np.nan, s))


@dataclass
class FlowCounts:
    """The flows of every UTC day of a window that pass the filters, sorted by (day, pair)."""

    days: np.ndarray  # the window's UTC day starts, epoch seconds
    areas: list[str]  # sorted
    day: np.ndarray  # per flow, its position in days
    pair: np.ndarray  # per flow, origin * len(areas) + dest
    count: np.ndarray  # per flow, its movements (> 0)


def _weekdays(ts: np.ndarray) -> np.ndarray:
    # Monday = 0; epoch day 0 (1970-01-01) was a Thursday.
    return (ts // SECONDS_PER_DAY + 3) % 7


def bin_series(
    ds: Dataset,
    entities: list[tuple],
    bin_width: int,
    measure: str = "call_count",
    area_map: dict[str, str] | None = None,
) -> TimeSeries:
    """Aggregate each entity's events into contiguous bins over the window.

    An entity is ("global",), ("tower", id), or ("district", id) with an
    area_map; call_count counts voice events, the recharge measures use
    top-ups located at the retailer tower.  One pass over the events fills
    every series; their rows come in the order given.
    """
    if measure not in MEASURES:
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
        districts, area = _area_codes(tower_ids, area_map, tower)
        cells = np.bincount(area[located].astype(np.int64) * n_bins + bins[located],
                            weights=amount[located], minlength=len(districts) * n_bins)
        series.update((("district", d), row) for d, row in zip(districts, cells.reshape(-1, n_bins)))
    entities = [tuple(e) for e in entities]
    return TimeSeries(entities, bin_width, start, np.array([series[e] for e in entities]).reshape(-1, n_bins))


def _area_codes(tower_ids: tuple[str, ...], area_map: dict[str, str],
                tower: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The sorted areas, and the area code of each tower code in tower (-1, no tower, stays -1).

    A tower that area_map leaves out is a ValueError.
    """
    areas = sorted(set(area_map.values()))
    index = {a: i for i, a in enumerate(areas)}
    area = np.array([index.get(area_map.get(tid), -1) for tid in tower_ids] + [-1], dtype=np.int32)[tower]
    missing = np.flatnonzero((area < 0) & (tower >= 0))
    if len(missing):
        raise ValueError(f"tower {tower_ids[tower[missing[0]]]!r} missing from area_map")
    return areas, area


def detect_anomalies(
    ts: TimeSeries,
    baseline: str = "hour_of_day",
    threshold_sigma: float = DEFAULT_THRESHOLD_SIGMA,
) -> AnomalyReport:
    """Flag bins where |value - cell mean| exceeds threshold_sigma cell stddevs, every series at once.

    Cell statistics include the bin under test (the baseline is the whole
    period).  A zero-variance cell is degenerate: any value different from
    its mean flags, with no finite z-score.
    """
    if baseline not in BASELINES:
        raise ValueError(f"unknown baseline {baseline!r}")
    starts = ts.start + ts.bin_width * np.arange(ts.values.shape[1], dtype=np.int64)
    hour = starts % SECONDS_PER_DAY // 3600
    cell = {"global_mean": np.zeros_like(hour), "hour_of_day": hour, "weekday_hour": _weekdays(starts) * 24 + hour}[baseline]
    counts = np.bincount(cell)
    small = np.flatnonzero(counts[cell] < 2)
    if len(small):
        c = int(cell[small[0]])
        key = divmod(c, 24) if baseline == "weekday_hour" else c
        raise ValueError(f"baseline cell {key!r} has {counts[c]} sample(s); need at least 2")
    # Each cell's columns in bin order, gathered C-contiguous, so that a row's
    # mean and std sum in the order they do for that row alone.  A cell no bin
    # falls in is empty and has no stats.
    mean, sigma = np.zeros((2, len(ts.values), len(counts)))
    for c, at in enumerate(np.split(np.argsort(cell, kind="stable"), np.cumsum(counts)[:-1])):
        if len(at):
            block = ts.values.take(at, axis=1)
            mean[:, c], sigma[:, c] = block.mean(axis=1), block.std(axis=1, ddof=1)
    return _sigma_flags(ts.entities, starts, ts.values, mean[:, cell], sigma[:, cell], threshold_sigma)


def area_centroids(towers, area_map: dict[str, str]) -> dict[str, tuple[float, float]]:
    """Mean coordinates of each area's member towers that towers holds, summed in area_map's order."""
    members = [(area, towers[tid]) for tid, area in area_map.items() if tid in towers]
    index: dict[str, int] = {}
    code = np.array([index.setdefault(area, len(index)) for area, _ in members], dtype=np.int64)
    lonlat = np.array([point for _, point in members], dtype=np.float64).reshape(-1, 2)
    count = np.bincount(code, minlength=len(index))
    lon, lat = (np.bincount(code, lonlat[:, k], len(index)) / count for k in (0, 1))
    return dict(zip(index, zip(lon.tolist(), lat.tolist())))


def build_flow_network(
    ds: Dataset,
    area_map: dict[str, str],
    min_count: int = 10,
    min_distance_km: float = 10.0,
    mode: str = "first_last",
) -> FlowCounts:
    """Inter-area movements on each UTC day of the window.

    first_last: one movement per SIM and day, from its first to its last
    observed area that day; SIMs whose first and last areas coincide
    contribute nothing.  per_transition: every consecutive area change
    within a day contributes.  Flows below min_count or between centroids
    closer than min_distance_km are dropped.
    """
    if mode not in FLOW_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    first = day_start(ds.window[0])
    days = np.arange(first, ds.window[1], SECONDS_PER_DAY, dtype=np.int64)
    c = ds.cdrs
    rows = ds.cdrs_between(first, first + len(days) * SECONDS_PER_DAY)
    # Each SIM's areas in time order, per day: the rows are in time order, so a
    # stable sort by caller alone groups them by (caller, day).  Codes of 16 bits
    # or fewer sort by radix.  Every array is as long as the window's rows, so
    # the days come before the order exists, and the gathers go one at a time.
    day = ((c.ts[rows] - first) // SECONDS_PER_DAY).astype(np.min_scalar_type(len(days)))
    areas, area = _area_codes(c.tower_ids, area_map, c.tower[rows])
    caller = c.caller[rows].astype(np.min_scalar_type(max(len(c.subscriber_ids) - 1, 0)))
    order = np.argsort(caller, kind="stable")
    caller = caller[order]
    day = day[order]
    area = area[order]
    del order
    same = (caller[1:] == caller[:-1]) & (day[1:] == day[:-1])
    if mode == "first_last":
        head = np.ones(len(day), dtype=bool)
        head[1:] = ~same
        tail = np.ones(len(day), dtype=bool)
        tail[:-1] = ~same
        day, origin, dest = day[head], area[head], area[tail]
    else:
        day, origin, dest = day[1:][same], area[:-1][same], area[1:][same]
    moved = origin != dest
    n = len(areas)
    flows, counts = np.unique((day[moved].astype(np.int64) * n + origin[moved]) * n + dest[moved], return_counts=True)
    flows, counts = flows[counts >= min_count], counts[counts >= min_count]
    day, pair = np.divmod(flows, n * n)
    # Every area that a row's tower maps to has a centroid; NaN stands for the others.
    centroids = area_centroids(ds.towers, area_map)
    at = np.array([centroids.get(x, (np.nan, np.nan)) for x in areas]).reshape(-1, 2)
    a, b = np.divmod(pair, n)
    far = ~(haversine_km_to(at[a, 0], at[a, 1], at[b, 0], at[b, 1]) < min_distance_km)
    return FlowCounts(days, areas, day[far], pair[far], counts[far])


def flow_symmetry(flows: FlowCounts) -> float:
    """Pearson correlation of day-averaged A->B vs B->A over unordered pairs."""
    if not len(flows.days):
        raise ValueError("no flow networks given")
    a, b = np.divmod(flows.pair, len(flows.areas))
    pairs, at = np.unique(np.minimum(a, b) * len(flows.areas) + np.maximum(a, b), return_inverse=True)
    if len(pairs) < 2:
        raise ValueError("need at least two pairs with flow for a correlation")
    xs, ys = (np.bincount(at[way], flows.count[way], len(pairs)) / len(flows.days) for way in (a < b, a > b))
    return pearson_r(xs, ys, "degenerate flow variance; correlation undefined")


def detect_flow_anomalies(
    flows: FlowCounts,
    threshold_sigma: float = DEFAULT_THRESHOLD_SIGMA,
    baseline_days: int = 0,
) -> AnomalyReport:
    """Per-directed-pair weekday-baseline anomaly test over daily flows, one row per tested pair.

    Only pairs with flow on every day are tested, in (origin, dest) order, each
    row's entity ("pair", origin, dest).  The baseline is the first
    baseline_days days (0: all days); its mean is per weekday, and sigma pools
    the residuals about those weekday means across the pair's baseline days,
    because a per-weekday sigma from a handful of samples cannot exceed its own
    3-sigma band even for a huge surge.
    """
    n_days = len(flows.days)
    if not n_days:
        raise ValueError("no flow networks given")
    if baseline_days < 0:
        raise ValueError(f"baseline_days must be >= 0, got {baseline_days}")
    weekday = _weekdays(flows.days)
    base = weekday[:baseline_days or n_days]
    base_counts = np.bincount(base, minlength=7)
    for w in distinct(weekday).tolist():
        if base_counts[w] < 2:
            raise ValueError(f"weekday {w} has {base_counts[w]} baseline day(s); need at least 2")
    # each weekday the window holds has 2 or more baseline days, so dof >= 1
    dof = len(base) - np.count_nonzero(base_counts)
    pairs, at, days_with_flow = np.unique(flows.pair, return_inverse=True, return_counts=True)
    series = np.zeros((len(pairs), n_days))
    series[at, flows.day] = flows.count
    tested = np.flatnonzero(days_with_flow == n_days)
    series = series[tested]
    # each weekday's baseline columns gathered C-contiguous, as for detect_anomalies
    mu = np.zeros((len(series), 7))
    for w in distinct(base).tolist():
        mu[:, w] = series.take(np.flatnonzero(base == w), axis=1).mean(axis=1)
    # each residual squared by itself, as pow() rounds it, not numpy's array
    # square, and the squares summed left to right
    resid = series[:, :len(base)] - mu[:, base]
    squares = np.array([r ** 2 for r in resid.ravel()]).reshape(resid.shape)
    sigma = np.sqrt(np.cumsum(squares, axis=1)[:, -1] / dof)
    origin, dest = np.divmod(pairs[tested], len(flows.areas))
    entities = [("pair", flows.areas[a], flows.areas[b]) for a, b in zip(origin.tolist(), dest.tolist())]
    return _sigma_flags(entities, flows.days, series, mu[:, weekday], sigma[:, None], threshold_sigma)


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
    """Row k - 1 of each matrix is rank k, column i the bin at offset i * bin_width into the day."""

    event_day: int
    bin_width: int
    event_fraction: np.ndarray  # (max_rank, bins)
    comparison_mean: np.ndarray  # (max_rank, bins)
    ratio: np.ndarray  # event_fraction / comparison_mean, nan where the mean is 0


def _day_fraction_curves(
    ds: Dataset,
    day: int,
    rank_keys: np.ndarray,
    rank_values: np.ndarray,
    max_rank: int,
    bin_width: int,
) -> np.ndarray:
    """Per rank 1..max_rank (rows) and bin: the fraction of that day's active
    subscribers calling their rank-k contact.  rank_keys (sorted) are
    caller * n + contact codes, rank_values their ranks."""
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
    counts = np.bincount(hits // n, minlength=(max_rank + 1) * n_bins).reshape(-1, n_bins)
    return counts[1:] / denom


def check_bin_width(bin_width: int) -> None:
    """The rank curves' bins tile each day exactly, so bin_width must divide a day."""
    if bin_width <= 0 or SECONDS_PER_DAY % bin_width:
        raise ValueError(f"bin_width must be a positive divisor of {SECONDS_PER_DAY} seconds, got {bin_width}")


def rank_activation_curves(
    ds: Dataset,
    event_time: int,
    max_rank: int = 5,
    bin_width: int = 300,
    comparison_days: list[int] = (),
) -> RankCurves:
    """Double-normalized calling curves toward each subscriber's top max_rank contacts.

    Contact ranks come from everything before the event day.  Per day and
    bin, the statistic is the fraction of that day's active subscribers
    placing a voice call to their rank-k contact; the event-day curve is
    divided bin-wise by the comparison-day mean.  The bins tile each day
    exactly, so bin_width must divide a day.
    """
    check_bin_width(bin_width)
    if max_rank < 1:
        raise ValueError(f"need at least one rank: max_rank must be >= 1, got {max_rank}")
    if not comparison_days:
        raise ValueError("need at least one comparison day")
    event_day = day_start(event_time)
    if ds.window[0] >= event_day:
        raise ValueError("empty rank window")
    rank_keys, rank_values = _top_contacts(ds, (ds.window[0], event_day), max_rank)

    def day_curves(day: int) -> np.ndarray:
        return _day_fraction_curves(ds, day_start(day), rank_keys, rank_values, max_rank, bin_width)

    event = day_curves(event_day)
    # Each rank's days x bins block is averaged over its days, as for one rank alone:
    # numpy sums one bin's days pairwise, but several bins' days in day order.
    mean = np.mean(np.stack([day_curves(d) for d in comparison_days], axis=1), axis=1)
    ratio = np.divide(event, mean, out=np.full(mean.shape, np.nan), where=mean > 0)
    return RankCurves(event_day, bin_width, event, mean, ratio)


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


def write_anomalies_csv(report: AnomalyReport | None, path: str, header_comment: str | None = None) -> None:
    """One row per flag; None, where no series was tested, writes the header alone."""
    rows = []
    if report is not None:
        names = [":".join(str(p) for p in entity) for entity in report.entities]
        direction = np.where(report.value > report.baseline_mean, "increase", "decrease")
        rows = zip([names[r] for r in report.row.tolist()], report.starts[report.index].tolist(),
                   report.value.tolist(), report.baseline_mean.tolist(), report.baseline_std.tolist(),
                   report.z.tolist(), direction.tolist())
    write_csv(path, ["entity", "bin_start", "value", "baseline_mean", "baseline_std", "z", "direction"],
              rows, header_comment)


def write_flows_csv(flows: FlowCounts, day_position: int, path: str, header_comment: str | None = None) -> None:
    """The flows of the day at day_position in flows.days."""
    lo, hi = np.searchsorted(flows.day, [day_position, day_position + 1]).tolist()
    a, b = np.divmod(flows.pair[lo:hi], len(flows.areas))
    rows = ([flows.areas[i], flows.areas[j], n] for i, j, n in zip(a.tolist(), b.tolist(), flows.count[lo:hi].tolist()))
    write_csv(path, ["origin", "dest", "count"], rows, header_comment)


def write_rank_curves_csv(curves: RankCurves, path: str, header_comment: str | None = None) -> None:
    """One row per rank and bin, rank after rank; a nan ratio is an empty cell."""
    rank, offset = np.indices(curves.ratio.shape)
    rows = zip((rank + 1).ravel().tolist(), (offset * curves.bin_width).ravel().tolist(),
               *(m.ravel().tolist() for m in (curves.event_fraction, curves.comparison_mean, curves.ratio)))
    write_csv(path, ["rank", "offset_seconds", "event_fraction", "comparison_mean", "ratio"],
              rows, header_comment)


def write_distance_matrix_csv(ratio: np.ndarray, path: str, header_comment: str | None = None) -> None:
    rows = ([i, j, r] for i, row in enumerate(ratio.tolist()) for j, r in enumerate(row))
    write_csv(path, ["caller_bin", "callee_bin", "ratio"], rows, header_comment)
