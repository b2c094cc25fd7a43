"""The former per-subscriber synthesis, kept as the oracle of the grouped one.

``generate_population`` placed and labelled one subscriber at a time, and
``generate_events`` built each subscriber's rows from its two streams
(``derive_rng(seed, "events", s)`` and ``derive_rng(seed, "topups", s)``)
before moving on to the next one.  ``cdrlab.synthgen`` must return equal
tables, dtypes and bytes included, and equal ground truth.

``adopters_by_day`` is the former ``simulate_adoption``, which returned each
day's cumulative set of adopter ids; the first adoption days that
``cdrlab.synthgen.simulate_adoption`` returns must give the same sets.
"""

from __future__ import annotations

import math

import numpy as np

from cdrlab.geo import haversine_km, haversine_km_to
from cdrlab.records import DATA, EVENT_KINDS, SECONDS_PER_DAY, SMS, VOICE, CdrTable, Dataset, TopUpTable
from cdrlab.rng import derive_rng
from cdrlab.socialgraph import SocialGraph
from cdrlab.synthgen import GroundTruth, _small_world_edges, subscriber_ids, towers_for


def generate_population(cfg):
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
        homes[s] = order[int(np.argmin(haversine_km_to(tower_lon, tower_lat, lon, lat)))]

    label_rng = derive_rng(cfg.seed, "labels")
    u = label_rng.random(cfg.n_subscribers)
    labels: dict[str, str] = {}
    for i, s in enumerate(subs):
        t = towers[homes[s]]
        frac_east = (t.lon - lon_min) / (lon_max - lon_min)
        p_low = min(0.95, max(0.05, cfg.label_low_fraction + 0.45 * (0.5 - frac_east) * 2))
        labels[s] = "low" if u[i] < p_low else "high"
    return g, GroundTruth(home_tower=homes, label=labels)


def _visit_cdf(cfg, towers, home, concentration):
    order = sorted(towers)
    h = towers[home]
    dists = np.array([haversine_km(h.lon, h.lat, towers[t].lon, towers[t].lat) for t in order])
    ranks = np.argsort(np.argsort(dists, kind="stable"), kind="stable")
    weights = (1.0 - concentration) ** ranks
    cdf = np.cumsum(weights / weights.sum())
    return cdf


def generate_events(cfg, graph, gt):
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
    visit_cache = {}
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


def adopters_by_day(graph, mechanism, days, seed=0) -> dict[int, frozenset[str]]:
    ui, vi = graph.u, graph.v
    n = graph.node_count()
    adopted = np.zeros(n, dtype=bool)
    rng = derive_rng(seed, "adoption")
    by_day = {}
    for day in range(days):
        k = np.bincount(ui[adopted[vi]], minlength=n) + np.bincount(vi[adopted[ui]], minlength=n)
        hazard = np.minimum(1.0, mechanism.p0 * (1.0 + mechanism.beta) ** k)
        draws = rng.random(n)
        adopted |= (~adopted) & (draws < hazard)
        by_day[day] = frozenset(graph.ids[i] for i in np.flatnonzero(adopted).tolist())
    return by_day
