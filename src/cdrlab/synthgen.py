"""Synthetic population, event-stream, and ground-truth generation.

Everything is a pure function of the config: random streams are derived per
(operation, entity) from the master seed, so per-subscriber generation can
be chunked or parallelized without changing a single draw, and identical
configs yield byte-identical datasets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .geo import haversine_km, haversine_km_to
from .records import (
    DATA,
    EVENT_KINDS,
    SECONDS_PER_DAY,
    SMS,
    VOICE,
    CdrTable,
    Dataset,
    TopUpTable,
    Tower,
)
from .rng import derive_rng
from .socialgraph import SocialGraph

DEFAULT_START = 1462060800  # 2016-05-01T00:00:00Z


@dataclass(frozen=True)
class SmallWorld:
    k: int
    rewire_p: float


@dataclass(frozen=True)
class ContagionAdoption:
    p0: float
    beta: float


@dataclass(frozen=True)
class SynthConfig:
    seed: int
    n_subscribers: int
    n_towers: int
    grid: tuple[float, float, float, float]  # lon_min, lat_min, lon_max, lat_max
    graph_model: SmallWorld
    days: int
    recharge_denominations: tuple[float, ...] = (10.0, 20.0, 50.0, 100.0, 300.0)
    event_rate: float = 3.0
    start: int = DEFAULT_START
    sms_fraction: float = 0.3
    data_rate: float = 0.0
    topup_gap_days: float = 3.0
    visit_concentration: float = 0.6
    label_low_fraction: float = 0.5
    # 0 keeps labels independent of behavior; larger values make low-label
    # subscribers call less, top up smaller amounts, and roam less.
    label_effect: float = 0.0

    def __post_init__(self):
        if self.n_subscribers < 2:
            raise ValueError("need at least two subscribers")
        if self.n_towers < 1:
            raise ValueError("need at least one tower")
        if self.days < 1:
            raise ValueError("days must be >= 1")
        if self.event_rate < 0 or self.data_rate < 0:
            raise ValueError("rates must be >= 0")
        if list(self.recharge_denominations) != sorted(set(self.recharge_denominations)):
            raise ValueError("denominations must be strictly increasing")
        if not self.recharge_denominations:
            raise ValueError("need at least one recharge denomination")
        if any(d <= 0 for d in self.recharge_denominations):
            raise ValueError("denominations must be positive")
        lon_min, lat_min, lon_max, lat_max = self.grid
        if not (lon_min < lon_max and lat_min < lat_max):
            raise ValueError("grid must be (lon_min, lat_min, lon_max, lat_max)")
        if not 0 < self.visit_concentration < 1:
            raise ValueError("visit_concentration must be in (0,1)")
        if not 0 <= self.label_low_fraction <= 1:
            raise ValueError("label_low_fraction must be in [0,1]")


@dataclass
class GroundTruth:
    adopters_by_day: dict[int, frozenset[str]] = field(default_factory=dict)
    shock_intervals: list[tuple] = field(default_factory=list)
    home_tower: dict[str, str] = field(default_factory=dict)
    label: dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The ground_truth.json document."""
        return {
            "adopters_by_day": {str(d): sorted(s) for d, s in sorted(self.adopters_by_day.items())},
            "shock_intervals": [
                {"entity": list(entity), "interval": list(interval), "multiplier": multiplier}
                for entity, interval, multiplier in self.shock_intervals
            ],
            "home_tower": dict(sorted(self.home_tower.items())),
            "label": dict(sorted(self.label.items())),
        }


def subscriber_ids(n: int) -> list[str]:
    width = max(4, len(str(n - 1)))
    return [f"S{i:0{width}d}" for i in range(n)]


def tower_ids(n: int) -> list[str]:
    width = max(3, len(str(n - 1)))
    return [f"T{i:0{width}d}" for i in range(n)]


def towers_for(cfg: SynthConfig) -> dict[str, Tower]:
    """Tower layout for a config; same placement in every operation."""
    rng = derive_rng(cfg.seed, "towers")
    lon_min, lat_min, lon_max, lat_max = cfg.grid
    lons = rng.uniform(lon_min, lon_max, cfg.n_towers)
    lats = rng.uniform(lat_min, lat_max, cfg.n_towers)
    ids = tower_ids(cfg.n_towers)
    return {tid: Tower(tid, float(lon), float(lat)) for tid, lon, lat in zip(ids, lons, lats)}


def _small_world_edges(n: int, k: int, rewire_p: float, rng) -> set[tuple[int, int]]:
    if k % 2 != 0:
        raise ValueError("small_world k must be even")
    if k >= n:
        raise ValueError("small_world k must be smaller than n")
    edges: set[tuple[int, int]] = set()
    for i in range(n):
        for j in range(1, k // 2 + 1):
            v = (i + j) % n
            edges.add((min(i, v), max(i, v)))
    if rewire_p <= 0:
        return edges
    # Watts-Strogatz rewiring: each lattice edge's far endpoint moves to a
    # uniform random node with probability rewire_p, skipping moves that
    # would create self-loops or duplicates.
    for i in range(n):
        for j in range(1, k // 2 + 1):
            v = (i + j) % n
            edge = (min(i, v), max(i, v))
            if rng.random() >= rewire_p or edge not in edges:
                continue
            w = int(rng.integers(0, n))
            candidate = (min(i, w), max(i, w))
            if w == i or candidate in edges:
                continue
            edges.remove(edge)
            edges.add(candidate)
    return edges


def generate_population(cfg: SynthConfig) -> tuple[SocialGraph, GroundTruth]:
    """Build the social graph skeleton, home towers, and planted labels.

    Homes follow each node's ring position around an ellipse inside the
    grid, so lattice neighbors live near each other; labels follow a planted
    west-to-east gradient over home-tower longitude (west poorer).
    """
    subs = subscriber_ids(cfg.n_subscribers)
    rng = derive_rng(cfg.seed, "graph")
    edges = _small_world_edges(cfg.n_subscribers, cfg.graph_model.k, cfg.graph_model.rewire_p, rng)

    pairs = np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)
    g = SocialGraph(subs, pairs[:, 0], pairs[:, 1], np.ones(len(pairs)))

    towers = towers_for(cfg)
    order = sorted(towers)
    tower_lon = np.array([towers[t].lon for t in order])
    tower_lat = np.array([towers[t].lat for t in order])
    lon_min, lat_min, lon_max, lat_max = cfg.grid
    cx, cy = (lon_min + lon_max) / 2, (lat_min + lat_max) / 2
    rx, ry = 0.35 * (lon_max - lon_min), 0.35 * (lat_max - lat_min)
    homes: dict[str, str] = {}
    for i, s in enumerate(subs):
        theta = 2 * math.pi * i / cfg.n_subscribers
        lon = cx + rx * math.cos(theta)
        lat = cy + ry * math.sin(theta)
        # argmin keeps the first of equal distances: the smallest tower id.
        homes[s] = order[int(np.argmin(haversine_km_to(tower_lon, tower_lat, lon, lat)))]

    label_rng = derive_rng(cfg.seed, "labels")
    u = label_rng.random(cfg.n_subscribers)
    labels: dict[str, str] = {}
    for i, s in enumerate(subs):
        t = towers[homes[s]]
        frac_east = (t.lon - lon_min) / (lon_max - lon_min)
        # Centered so the mean low fraction tracks label_low_fraction.
        p_low = min(0.95, max(0.05, cfg.label_low_fraction + 0.45 * (0.5 - frac_east) * 2))
        labels[s] = "low" if u[i] < p_low else "high"
    return g, GroundTruth(home_tower=homes, label=labels)


def _visit_cdf(cfg: SynthConfig, towers: dict[str, Tower], home: str, concentration: float) -> np.ndarray:
    order = sorted(towers)
    h = towers[home]
    dists = np.array([haversine_km(h.lon, h.lat, towers[t].lon, towers[t].lat) for t in order])
    ranks = np.argsort(np.argsort(dists, kind="stable"), kind="stable")
    weights = (1.0 - concentration) ** ranks
    cdf = np.cumsum(weights / weights.sum())
    return cdf


def generate_events(cfg: SynthConfig, graph: SocialGraph, gt: GroundTruth) -> Dataset:
    """Sample voice/sms traffic along edges plus top-ups, uniform over days and hours."""
    towers = towers_for(cfg)
    tower_order = sorted(towers)
    subs = subscriber_ids(cfg.n_subscribers)
    window = (cfg.start, cfg.start + cfg.days * SECONDS_PER_DAY)

    day_cdf = np.cumsum(np.ones(cfg.days) / cfg.days)
    hour_cdf = np.cumsum(np.ones(24) / 24)

    denoms = np.asarray(cfg.recharge_denominations, dtype=float)
    drawn_retailers = [f"R{i:03d}" for i in range(max(5, cfg.n_towers // 2))]
    retailers = tuple(sorted(drawn_retailers))

    if graph.ids != tuple(subs):
        raise ValueError("graph nodes must be the config's subscribers")
    visit_cache: dict[tuple[str, float], np.ndarray] = {}
    callers, cdr_cols, top_rows = [], [], []
    for code, s in enumerate(subs):
        is_low = gt.label.get(s) == "low" and cfg.label_effect > 0
        rate_mult = 1.0 - 0.5 * cfg.label_effect if is_low else 1.0
        concentration = (
            min(0.95, cfg.visit_concentration + 0.3 * cfg.label_effect)
            if is_low
            else cfg.visit_concentration
        )
        key = (gt.home_tower[s], concentration)
        if key not in visit_cache:
            visit_cache[key] = _visit_cdf(cfg, towers, gt.home_tower[s], concentration)
        cdf = visit_cache[key]

        rng = derive_rng(cfg.seed, "events", s)
        # Graph index and subscriber code coincide, so the codes ascend.
        neighbors = graph.nbrs[graph.offsets[code]:graph.offsets[code + 1]]
        n_comm = int(rng.poisson(cfg.event_rate * cfg.days * rate_mult)) if len(neighbors) else 0
        if n_comm:
            days = np.searchsorted(day_cdf, rng.random(n_comm))
            hours = np.searchsorted(hour_cdf, rng.random(n_comm))
            secs = rng.integers(0, 3600, n_comm)
            stamps = cfg.start + days * SECONDS_PER_DAY + hours * 3600 + secs
            kinds = np.where(rng.random(n_comm) < cfg.sms_fraction, SMS, VOICE)
            callees = neighbors[rng.integers(0, len(neighbors), n_comm)]
            tower_idx = np.searchsorted(cdf, rng.random(n_comm))
            durations = np.maximum(1, np.rint(rng.lognormal(math.log(120.0), 0.7, n_comm)))
            callers.append(np.full(n_comm, code))
            cdr_cols.append((stamps, callees, tower_idx, kinds, np.where(kinds == VOICE, durations, 1.0)))
        n_data = int(rng.poisson(cfg.data_rate * cfg.days * rate_mult)) if cfg.data_rate > 0 else 0
        if n_data:
            days = np.searchsorted(day_cdf, rng.random(n_data))
            hours = np.searchsorted(hour_cdf, rng.random(n_data))
            secs = rng.integers(0, 3600, n_data)
            stamps = cfg.start + days * SECONDS_PER_DAY + hours * 3600 + secs
            tower_idx = np.searchsorted(cdf, rng.random(n_data))
            volumes = np.rint(rng.lognormal(math.log(5e6), 1.0, n_data))
            callers.append(np.full(n_data, code))
            cdr_cols.append((stamps, np.full(n_data, -1), tower_idx, np.full(n_data, DATA), volumes))

        trng = derive_rng(cfg.seed, "topups", s)
        gap_days = float(trng.lognormal(math.log(cfg.topup_gap_days), 0.5))
        denom_base = 0.6 - (0.25 * cfg.label_effect if is_low else 0.0)
        denom_weights = denom_base ** np.arange(len(denoms))
        denom_cdf = np.cumsum(denom_weights / denom_weights.sum())
        t = float(cfg.start)
        while True:
            t += trng.exponential(gap_days) * SECONDS_PER_DAY
            if t >= window[1]:
                break
            amount = float(denoms[int(np.searchsorted(denom_cdf, trng.random()))])
            retailer = retailers.index(drawn_retailers[int(trng.integers(0, len(retailers)))])
            retailer_tower = int(np.searchsorted(cdf, trng.random()))
            top_rows.append((int(t), code, retailer, retailer_tower, amount))

    caller = np.concatenate(callers) if callers else np.zeros(0, dtype=np.int64)
    ts, callee, tower, kind, magnitude = (
        [np.concatenate(col) for col in zip(*cdr_cols)] if cdr_cols else [np.zeros(0, dtype=np.int64)] * 5
    )
    # Order by (timestamp, caller, kind, callee or "", tower): codes sort like
    # ids, kinds by their names, and -1 (no callee) before every id.
    kind_rank = np.argsort(np.argsort(EVENT_KINDS))[kind]
    order = np.lexsort((tower, callee, kind_rank, caller, ts))
    cdrs = CdrTable(ts[order].astype(np.int64), caller[order].astype(np.int32),
                    callee[order].astype(np.int32), tower[order].astype(np.int32), kind[order].astype(np.int8),
                    magnitude[order].astype(np.float64), tuple(subs), tuple(tower_order))
    top = np.array(top_rows, dtype=np.float64).reshape(-1, 5)
    ts, buyer, retailer, tower = (top[:, j].astype(np.int64) for j in range(4))
    order = np.lexsort((top[:, 4], buyer, ts))
    topups = TopUpTable(ts[order], buyer[order].astype(np.int32), retailer[order].astype(np.int32),
                        tower[order].astype(np.int32), top[order, 4],
                        tuple(subs), retailers, tuple(tower_order))
    return Dataset(cdrs=cdrs, topups=topups, towers=towers, window=window)


def inject_shock(
    ds: Dataset,
    gt: GroundTruth,
    entity: tuple,
    interval: tuple[int, int],
    multiplier: float,
    seed: int = 0,
    stream: str = "calls",
) -> tuple[Dataset, GroundTruth]:
    """Scale event counts inside the interval by thinning or duplication.

    entity is ("tower", id) or ("global",).  Events outside the
    entity/interval are untouched.  Each hit event draws once, in dataset
    order (calls before recharges), and keeps int(multiplier) copies plus
    one more when the draw falls below the fractional part.
    """
    if multiplier < 0:
        raise ValueError("multiplier must be >= 0")
    if stream not in ("calls", "recharges", "both"):
        raise ValueError(f"unknown stream {stream!r}")
    kind = entity[0]
    if kind == "tower":
        members = {entity[1]}
    elif kind == "global":
        members = None
    else:
        raise ValueError(f"unknown entity kind {kind!r}")

    rng = derive_rng(seed, "shock", entity, interval, multiplier, stream)
    lo, hi = interval

    def rescale(table):
        hit = (table.ts >= lo) & (table.ts < hi)
        if members is not None:
            hit &= np.isin(table.tower, [i for i, t in enumerate(table.tower_ids) if t in members])
        copies = np.ones(len(table), dtype=np.int64)
        draws = rng.random(int(hit.sum()))
        copies[hit] = int(multiplier) + (draws < multiplier - int(multiplier))
        return table.take(np.repeat(np.arange(len(table)), copies))

    new_cdrs = rescale(ds.cdrs) if stream in ("calls", "both") else ds.cdrs
    new_topups = rescale(ds.topups) if stream in ("recharges", "both") else ds.topups
    new_gt = replace(gt, shock_intervals=gt.shock_intervals + [(entity, tuple(interval), multiplier)])
    return ds.with_events(cdrs=new_cdrs, topups=new_topups), new_gt


def simulate_adoption(
    graph: SocialGraph,
    mechanism: ContagionAdoption,
    days: int,
    seed: int = 0,
) -> GroundTruth:
    """Daily synchronous adoption; cumulative adopter sets per day.

    A node's daily hazard is p0 * (1 + beta)^(adopting neighbors), capped
    at 1, evaluated against the adopter set at the start of the day; beta = 0
    is independent adoption with probability p0.
    """
    p0, beta = mechanism.p0, mechanism.beta
    if not 0 <= p0 <= 1:
        raise ValueError("adoption probability must be in [0,1]")
    if beta < 0:
        raise ValueError("uplift beta must be >= 0")
    if days < 1:
        raise ValueError("days must be >= 1")

    ui, vi = graph.u, graph.v
    n = graph.node_count()
    adopted = np.zeros(n, dtype=bool)
    rng = derive_rng(seed, "adoption")
    by_day: dict[int, frozenset[str]] = {}
    for day in range(days):
        k = np.bincount(ui[adopted[vi]], minlength=n) + np.bincount(vi[adopted[ui]], minlength=n)
        hazard = np.minimum(1.0, p0 * (1.0 + beta) ** k)
        draws = rng.random(n)
        adopted |= (~adopted) & (draws < hazard)
        by_day[day] = frozenset(graph.ids[i] for i in np.flatnonzero(adopted).tolist())
    return GroundTruth(adopters_by_day=by_day)
