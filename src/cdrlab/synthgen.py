"""Synthetic population, event-stream, and ground-truth generation.

Everything is a pure function of the config: random streams are derived per
(operation, entity) from the master seed, so per-subscriber generation can
be chunked or parallelized without changing a single draw, and identical
configs yield byte-identical datasets.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field, replace

import numpy as np

from .config import default_config
from .geo import haversine_km_to
from .records import (
    DATA,
    EVENT_KINDS,
    SECONDS_PER_DAY,
    SMS,
    VOICE,
    CdrTable,
    Dataset,
    TopUpTable,
    distinct,
    parse_timestamp,
)
from .rng import derive_rng, derive_streams
from .socialgraph import SocialGraph

# Subscribers per grouped pass of generate_events: it bounds the draws held at once.
BLOCK = 256


@dataclass(frozen=True)
class SynthConfig:
    """The [synth] section under its key names, plus the run's seed.

    start is in epoch seconds, and graph_model is left out: the small world is
    the only model.  config.SCHEMA holds every default.
    """

    seed: int
    subscribers: int
    towers: int
    days: int
    event_rate: float
    sw_k: int  # the small-world lattice degree and rewiring probability
    sw_rewire: float
    start: int
    grid: tuple[float, ...]  # lon_min, lat_min, lon_max, lat_max
    denominations: tuple[float, ...]
    sms_fraction: float
    data_rate: float
    topup_gap_days: float
    visit_concentration: float
    label_low_fraction: float
    # 0 keeps labels independent of behavior; larger values make low-label
    # subscribers call less, top up smaller amounts, and roam less.
    label_effect: float

    def __post_init__(self):
        def check(key, ok, rule):
            if not ok:
                raise ValueError(f"[synth] {key} = {getattr(self, key)!r}: {rule}")

        check("subscribers", self.subscribers >= 2, "must be >= 2")
        check("towers", self.towers >= 1, "must be >= 1")
        check("days", self.days >= 1, "must be >= 1")
        check("event_rate", self.event_rate >= 0, "must be >= 0")
        check("data_rate", self.data_rate >= 0, "must be >= 0")
        check("sms_fraction", 0 <= self.sms_fraction <= 1, "must be in [0, 1]")
        check("sw_k", self.sw_k % 2 == 0, "must be even")
        check("sw_k", 0 <= self.sw_k < self.subscribers, "must be >= 0 and smaller than subscribers")
        check("sw_rewire", 0 <= self.sw_rewire <= 1, "must be in [0, 1]")
        d, g = self.denominations, self.grid
        check("denominations", d and d[0] > 0 and all(a < b for a, b in zip(d, d[1:])),
              "must be one or more positive numbers, strictly increasing")
        check("grid", len(g) == 4 and g[0] < g[2] and g[1] < g[3],
              "must be lon_min, lat_min, lon_max, lat_max, each min below its max")
        check("topup_gap_days", self.topup_gap_days > 0, "must be > 0")
        check("visit_concentration", 0 < self.visit_concentration < 1, "must be in (0, 1)")
        check("label_low_fraction", 0 <= self.label_low_fraction <= 1, "must be in [0, 1]")
        check("label_effect", 0 <= self.label_effect <= 2, "must be in [0, 2]")


@dataclass(frozen=True)
class SmallWorld:
    """SynthConfig's older graph_model argument: the lattice degree and rewiring probability."""

    k: int
    rewire_p: float


def _with_older_names(init):
    """SynthConfig.__init__ that also takes the older spelling perfbench/selftest.py uses (ROADMAP item 1).

    SynthConfig(seed=, n_subscribers=, n_towers=, grid=, graph_model=SmallWorld(k, rewire_p), days=,
    event_rate=) takes config.SCHEMA's defaults for the keys it leaves out.
    """

    def __init__(self, *, n_subscribers=None, n_towers=None, graph_model=None, **kw):
        if graph_model is not None:
            s = {k: v for k, v in default_config()["synth"].items() if k != "graph_model"}
            kw = {**s, "start": parse_timestamp(s["start"]), "subscribers": n_subscribers, "towers": n_towers,
                  "sw_k": graph_model.k, "sw_rewire": graph_model.rewire_p, **kw}
        init(self, **kw)

    return __init__


SynthConfig.__init__ = _with_older_names(SynthConfig.__init__)


@dataclass
class GroundTruth:
    shock_intervals: list[tuple] = field(default_factory=list)
    home_tower: dict[str, str] = field(default_factory=dict)
    label: dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The ground_truth.json document."""
        return {
            "adopters_by_day": {},  # synth simulates no adoption; the key keeps the document's form
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


def towers_for(cfg: SynthConfig) -> dict[str, tuple[float, float]]:
    """Tower layout for a config, id -> (lon, lat); same placement in every operation."""
    rng = derive_rng(cfg.seed, "towers")
    lon_min, lat_min, lon_max, lat_max = cfg.grid
    lons = rng.uniform(lon_min, lon_max, cfg.towers)
    lats = rng.uniform(lat_min, lat_max, cfg.towers)
    return dict(zip(tower_ids(cfg.towers), zip(lons.tolist(), lats.tolist())))


def _small_world_edges(n: int, k: int, rewire_p: float, rng) -> set[tuple[int, int]]:
    """Watts-Strogatz edges over n nodes of even lattice degree 0 <= k < n, as (low, high) pairs."""
    lattice = [(i, (i + j) % n) for i in range(n) for j in range(1, k // 2 + 1)]
    edges = {(min(e), max(e)) for e in lattice}
    if rewire_p <= 0:
        return edges
    # Watts-Strogatz rewiring: each lattice edge's far endpoint moves to a
    # uniform random node with probability rewire_p, skipping moves that
    # would create self-loops or duplicates.
    for i, v in lattice:
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
    n = cfg.subscribers
    subs = subscriber_ids(n)
    edges = _small_world_edges(n, cfg.sw_k, cfg.sw_rewire, derive_rng(cfg.seed, "graph"))
    pairs = np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)
    g = SocialGraph(subs, pairs[:, 0], pairs[:, 1], np.ones(len(pairs)))

    towers = towers_for(cfg)
    order = sorted(towers)
    tower_lon, tower_lat = np.array([towers[t] for t in order]).T
    lon_min, lat_min, lon_max, lat_max = cfg.grid
    cx, cy = (lon_min + lon_max) / 2, (lat_min + lat_max) / 2
    rx, ry = 0.35 * (lon_max - lon_min), 0.35 * (lat_max - lat_min)
    # math's cos and sin, from which numpy's can differ in the last bit; one row of
    # distances per subscriber, whose argmin keeps the first of equal ones: the smallest tower id.
    lon = np.repeat([cx + rx * math.cos(2 * math.pi * i / n) for i in range(n)], len(order))
    lat = np.repeat([cy + ry * math.sin(2 * math.pi * i / n) for i in range(n)], len(order))
    dists = haversine_km_to(np.tile(tower_lon, n), np.tile(tower_lat, n), lon, lat)
    home = dists.reshape(n, len(order)).argmin(axis=1)

    u = derive_rng(cfg.seed, "labels").random(n)
    frac_east = (tower_lon[home] - lon_min) / (lon_max - lon_min)
    # Centered so the mean low fraction tracks label_low_fraction.
    p_low = np.minimum(0.95, np.maximum(0.05, cfg.label_low_fraction + 0.45 * (0.5 - frac_east) * 2))
    homes = dict(zip(subs, (order[h] for h in home.tolist())))
    labels = dict(zip(subs, np.where(u < p_low, "low", "high").tolist()))
    return g, GroundTruth(home_tower=homes, label=labels)


def _visit_cdf(towers: dict[str, tuple[float, float]], home: str, concentration: float) -> list[float]:
    lonlat = np.array([towers[t] for t in sorted(towers)])
    dists = haversine_km_to(*towers[home], lonlat[:, 0], lonlat[:, 1])
    ranks = np.argsort(np.argsort(dists, kind="stable"), kind="stable")
    weights = (1.0 - concentration) ** ranks
    return np.cumsum(weights / weights.sum()).tolist()


def generate_events(cfg: SynthConfig, graph: SocialGraph, gt: GroundTruth) -> Dataset:
    """Sample voice/sms traffic along edges plus top-ups, uniform over days and hours.

    Each subscriber draws from its own "events" and "topups" streams, in a
    fixed order.  The loop over subscribers only draws (top-ups become rows
    as they are drawn), and one grouped pass per block of BLOCK subscribers
    turns the block's event draws into rows.
    """
    towers = towers_for(cfg)
    tower_order = sorted(towers)
    subs = subscriber_ids(cfg.subscribers)
    window = (cfg.start, cfg.start + cfg.days * SECONDS_PER_DAY)
    if graph.ids != tuple(subs):
        raise ValueError("graph nodes must be the config's subscribers")

    day_cdf = np.cumsum(np.ones(cfg.days) / cfg.days)
    hour_cdf = np.cumsum(np.ones(24) / 24)
    drawn_retailers = [f"R{i:03d}" for i in range(max(5, cfg.towers // 2))]
    retailers = tuple(sorted(drawn_retailers))
    retailer_code = [retailers.index(r) for r in drawn_retailers]

    # Rates, visit concentrations and denomination CDFs: index 1 for a low-label
    # subscriber when label_effect > 0, else 0.  One visit CDF per (home, concentration).
    low = [int(gt.label.get(s) == "low" and cfg.label_effect > 0) for s in subs]
    rates = [(cfg.event_rate * cfg.days * m, cfg.data_rate * cfg.days * m) for m in (1.0, 1.0 - 0.5 * cfg.label_effect)]
    concentration = (cfg.visit_concentration, min(0.95, cfg.visit_concentration + 0.3 * cfg.label_effect))
    weights = [b ** np.arange(len(cfg.denominations)) for b in (0.6, 0.6 - 0.25 * cfg.label_effect)]
    denom_cdfs = [np.cumsum(w / w.sum()).tolist() for w in weights]
    cdf_index: dict[tuple[str, float], int] = {}
    visit = [cdf_index.setdefault((gt.home_tower[s], concentration[k]), len(cdf_index)) for s, k in zip(subs, low)]
    cdfs = [_visit_cdf(towers, home, c) for home, c in cdf_index]
    # Each subscriber's neighbours, ascending, in one array: callee j of code c is nbrs[start[c] + j].
    ends, other = np.concatenate((graph.u, graph.v)), np.concatenate((graph.v, graph.u))
    nbrs = other[np.lexsort((other, ends))]
    counts = graph.degrees()
    start = np.cumsum(counts) - counts
    degree = counts.tolist()

    events = derive_streams(cfg.seed, "events", subs)
    topups = derive_streams(cfg.seed, "topups", subs)
    blocks = [tuple(np.zeros(0, dtype) for dtype in (np.int64, np.int32, np.int32, np.int32, np.int8, np.float64))]
    top_rows = []
    for lo in range(0, len(subs), BLOCK):
        # (code, day, hour, second, tower, ...) draws; zip takes the range first,
        # so it stops without advancing a stream past the block.
        comm, data = [], []
        for code, rng, trng in zip(range(lo, min(lo + BLOCK, len(subs))), events, topups):
            n = int(rng.poisson(rates[low[code]][0])) if degree[code] else 0
            if n:
                day, hour, sec, kind, callee, tower, duration = (
                    rng.random(n), rng.random(n), rng.integers(0, 3600, n), rng.random(n),
                    rng.integers(0, degree[code], n), rng.random(n), rng.lognormal(math.log(120.0), 0.7, n))
                comm.append((code, day, hour, sec, tower, kind, callee, duration))
            n = int(rng.poisson(rates[low[code]][1])) if cfg.data_rate > 0 else 0
            if n:
                data.append((code, rng.random(n), rng.random(n), rng.integers(0, 3600, n), rng.random(n),
                             rng.lognormal(math.log(5e6), 1.0, n)))

            gap_days = float(trng.lognormal(math.log(cfg.topup_gap_days), 0.5))
            t = cfg.start + trng.exponential(gap_days) * SECONDS_PER_DAY
            while t < window[1]:
                amount = float(cfg.denominations[bisect_left(denom_cdfs[low[code]], trng.random())])
                retailer = retailer_code[int(trng.integers(0, len(retailers)))]
                top_rows.append((int(t), code, retailer, bisect_left(cdfs[visit[code]], trng.random()), amount))
                t += trng.exponential(gap_days) * SECONDS_PER_DAY

        # Comm rows first, then data rows: no two of them tie in the final
        # sort, which keeps each subscriber's rows of one kind in draw order.
        parts = comm + data
        if not parts:
            continue
        caller = np.repeat([p[0] for p in parts], [len(p[1]) for p in parts])
        day, hour, sec, tower_u = (np.concatenate(col) for col in list(zip(*parts))[1:5])
        ts = cfg.start + np.searchsorted(day_cdf, day) * SECONDS_PER_DAY + np.searchsorted(hour_cdf, hour) * 3600 + sec
        row = np.take(visit, caller)
        tower = np.empty(len(row), dtype=np.int32)
        for r in distinct(row).tolist():
            hit = row == r
            tower[hit] = np.searchsorted(cdfs[r], tower_u[hit])
        # Durations and volumes round alike; a comm row then gets its kind and callee.
        magnitude = np.rint(np.concatenate([p[-1] for p in parts]))
        kind = np.full(len(row), DATA, dtype=np.int8)
        callee = np.full(len(row), -1, dtype=np.int32)
        if comm:
            n = sum(len(p[1]) for p in comm)
            kind_u, callee_j = (np.concatenate(col) for col in list(zip(*comm))[5:7])
            kind[:n] = np.where(kind_u < cfg.sms_fraction, SMS, VOICE)
            callee[:n] = nbrs[start[caller[:n]] + callee_j]
            magnitude[:n] = np.where(kind[:n] == VOICE, np.maximum(1, magnitude[:n]), 1.0)
        blocks.append((ts, caller.astype(np.int32), callee, tower, kind, magnitude))

    ts, caller, callee, tower, kind, magnitude = (np.concatenate(col) for col in zip(*blocks))
    # Order by (timestamp, caller, kind, callee or "", tower): codes sort like
    # ids, kinds by their names, and -1 (no callee) before every id.
    kind_rank = np.argsort(np.argsort(EVENT_KINDS))[kind]
    order = np.lexsort((tower, callee, kind_rank, caller, ts))
    cdrs = CdrTable(ts[order], caller[order], callee[order], tower[order], kind[order], magnitude[order],
                    tuple(subs), tuple(tower_order))
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
    if entity[0] not in ("tower", "global"):
        raise ValueError(f"unknown entity kind {entity[0]!r}")

    rng = derive_rng(seed, "shock", entity, interval, multiplier, stream)
    lo, hi = interval

    def rescale(table):
        hit = (table.ts >= lo) & (table.ts < hi)
        if entity[0] == "tower":
            hit &= np.isin(table.tower, [i for i, t in enumerate(table.tower_ids) if t == entity[1]])
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
    p0: float,
    beta: float,
    days: int,
    seed: int = 0,
) -> np.ndarray:
    """Daily synchronous adoption; each node's first adoption day, -1 for never.

    p0, in [0, 1], is a node's daily adoption probability with no adopting
    neighbor, and beta >= 0 the uplift each adopting neighbor multiplies in:
    the daily hazard is p0 * (1 + beta)^(adopting neighbors), capped at 1,
    evaluated against the adopter set at the start of the day.  beta = 0 is
    independent adoption with probability p0.
    """
    if not 0 <= p0 <= 1:
        raise ValueError("adoption probability must be in [0,1]")
    if beta < 0:
        raise ValueError("uplift beta must be >= 0")
    if days < 1:
        raise ValueError("days must be >= 1")

    ui, vi = graph.u, graph.v
    n = graph.node_count()
    first = np.full(n, -1)
    rng = derive_rng(seed, "adoption")
    for day in range(days):
        adopted = first >= 0
        k = np.bincount(ui[adopted[vi]], minlength=n) + np.bincount(vi[adopted[ui]], minlength=n)
        hazard = np.minimum(1.0, p0 * (1.0 + beta) ** k)
        draws = rng.random(n)
        first[~adopted & (draws < hazard)] = day
    return first
