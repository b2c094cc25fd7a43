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

from .features import home_tower
from .geo import haversine_km
from .ingest import write_csv
from .records import SECONDS_PER_DAY, Dataset, day_start

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
    degenerate: bool


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
            return AnomalyFlag(index, start, value, mean, sigma, None, direction, True)
    elif abs(value - mean) > threshold_sigma * sigma:
        return AnomalyFlag(index, start, value, mean, sigma, (value - mean) / sigma, direction, False)
    return None


@dataclass
class AnomalyReport:
    entity: tuple
    baseline: str
    threshold_sigma: float
    flags: list[AnomalyFlag]
    degenerate_cells: list

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
    districts = any(entity[0] == "district" for entity in entities)

    start, end = ds.window
    n_bins = max(1, math.ceil((end - start) / bin_width))
    if measure == "call_count":
        events = ((rec.tower, rec.timestamp, 1.0) for rec in ds.cdrs if rec.kind == "voice")
    else:
        events = ((rec.retailer_tower, rec.timestamp, rec.amount if measure == "recharge_amount" else 1.0)
                  for rec in ds.topups)
    # Each event bumps every entity it feeds; adding in dataset order keeps the sums stable.
    sums: dict[tuple, list[float]] = {}
    for tower, ts, amount in events:
        keys = [("global",)]
        if tower is not None:
            keys.append(("tower", tower))
            if districts:
                if tower not in area_map:
                    raise ValueError(f"tower {tower!r} missing from area_map")
                keys.append(("district", area_map[tower]))
        i = (ts - start) // bin_width
        for key in keys:
            row = sums.get(key)
            if row is None:
                row = sums[key] = [0.0] * n_bins
            row[i] += amount
    return [TimeSeries(tuple(e), bin_width, start, np.array(sums.get(tuple(e), [0.0] * n_bins)))
            for e in entities]


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
    degenerate_cells = []
    for key, members in cells.items():
        vals = ts.values[members]
        mu = float(vals.mean())
        sigma = float(vals.std(ddof=1))
        stats[key] = (mu, sigma)
        if sigma == 0.0:
            degenerate_cells.append(key)
    flags = [_flag(i, ts.bin_start(i), v, *stats[_baseline_cell_key(ts, baseline, i)], threshold_sigma)
             for i, v in enumerate(ts.values)]
    return AnomalyReport(ts.entity, baseline, threshold_sigma, [f for f in flags if f is not None],
                         sorted(degenerate_cells, key=str))


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
    sequences: dict[str, list[str]] = {}
    for rec in ds.cdrs_between(day, day + SECONDS_PER_DAY):
        if rec.tower not in area_map:
            raise ValueError(f"tower {rec.tower!r} missing from area_map")
        sequences.setdefault(rec.caller, []).append(area_map[rec.tower])
    counts: Counter = Counter()
    for areas in sequences.values():
        if mode == "first_last":
            if areas[0] != areas[-1]:
                counts[(areas[0], areas[-1])] += 1
        else:
            for a, b in zip(areas, areas[1:]):
                if a != b:
                    counts[(a, b)] += 1
    centroids = area_centroids(ds.towers, area_map)
    od = {}
    for (a, b), c in counts.items():
        if c < min_count:
            continue
        ca, cb = centroids.get(a), centroids.get(b)
        if ca is None or cb is None:
            continue
        if haversine_km(ca[0], ca[1], cb[0], cb[1]) < min_distance_km:
            continue
        od[(a, b)] = int(c)
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
    x = np.asarray(xs)
    y = np.asarray(ys)
    sx, sy = x.std(), y.std()
    if sx == 0 or sy == 0:
        raise ValueError("degenerate flow variance; correlation undefined")
    return float(((x - x.mean()) * (y - y.mean())).mean() / (sx * sy))


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
        reports[pair] = AnomalyReport(
            entity=("pair",) + pair,
            baseline="weekday",
            threshold_sigma=threshold_sigma,
            flags=[f for f in flags if f is not None],
            degenerate_cells=(["all"] if sigma == 0.0 else []),
        )
    return reports


def rank_contacts(ds: Dataset, subscriber: str, window: tuple[int, int]) -> list[str]:
    """Contacts ordered by outgoing voice-call count, descending.

    Ties break by the pair's total two-way communication count in the
    window, then by lexicographic contact id.
    """
    start, end = window
    out_calls: Counter = Counter()
    two_way: Counter = Counter()
    for rec in ds.cdrs_by_caller().get(subscriber, ()):
        if start <= rec.timestamp < end and rec.callee is not None:
            if rec.kind == "voice":
                out_calls[rec.callee] += 1
            two_way[rec.callee] += 1
    for rec in ds.cdrs_by_callee().get(subscriber, ()):
        if start <= rec.timestamp < end:
            two_way[rec.caller] += 1
    return sorted(out_calls, key=lambda c: (-out_calls[c], -two_way[c], c))


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
    rank_of: dict[str, dict[str, int]],
    ranks: tuple[int, ...],
    bin_width: int,
) -> dict[int, np.ndarray]:
    """Per rank: fraction of that day's active subscribers calling their
    rank-k contact in each bin."""
    n_bins = SECONDS_PER_DAY // bin_width
    active: set[str] = set()
    hits = {k: [set() for _ in range(n_bins)] for k in ranks}
    for rec in ds.cdrs_between(day, day + SECONDS_PER_DAY):
        active.add(rec.caller)
        if rec.kind != "voice" or rec.callee is None:
            continue
        k = rank_of.get(rec.caller, {}).get(rec.callee)
        if k in hits:
            hits[k][(rec.timestamp - day) // bin_width].add(rec.caller)
    denom = max(1, len(active))
    return {k: np.array([len(s) / denom for s in sets]) for k, sets in hits.items()}


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
    """
    if not comparison_days:
        raise ValueError("need at least one comparison day")
    event_day = day_start(event_time)
    if rank_window is None:
        rank_window = (ds.window[0], event_day)
    if rank_window[0] >= rank_window[1]:
        raise ValueError("empty rank window")
    rank_of: dict[str, dict[str, int]] = {}
    max_rank = max(ranks)
    for sub in {rec.caller for rec in ds.cdrs}:
        ordered = rank_contacts(ds, sub, rank_window)
        if ordered:
            rank_of[sub] = {c: i + 1 for i, c in enumerate(ordered[:max_rank])}

    event_curves = _day_fraction_curves(ds, event_day, rank_of, tuple(ranks), bin_width)
    comp_curves = [
        _day_fraction_curves(ds, day_start(d), rank_of, tuple(ranks), bin_width)
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
    homes: dict[str, str] | None = None,
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
    if sorted(distance_bins) != list(distance_bins) or not distance_bins:
        raise ValueError("distance_bins must be ascending edges")
    if homes is None:
        homes = {}
        for sub in ds.subscribers():
            h = home_tower(ds, sub)
            if h is not None:
                homes[sub] = h
    edges = np.asarray(distance_bins, dtype=float)
    n_bins = len(edges) + 1
    dist_bin: dict[str, int] = {}
    for sub, tid in homes.items():
        t = ds.towers.get(tid)
        if t is None:
            continue
        d = haversine_km(t.lon, t.lat, epicenter[0], epicenter[1])
        dist_bin[sub] = int(np.searchsorted(edges, d, side="right"))

    def day_matrix(day: int) -> np.ndarray:
        day = day_start(day)
        window = ds.cdrs_between(day + hour_window[0], day + hour_window[1])
        ties = {(rec.caller, rec.callee) for rec in window if rec.callee is not None}
        counts = np.zeros((n_bins, n_bins))
        for caller, callee in ties:
            bx = dist_bin.get(caller)
            by = dist_bin.get(callee)
            if bx is not None and by is not None:
                counts[bx, by] += 1
        return counts

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
