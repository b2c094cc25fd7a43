"""The former set-based kernels, kept as oracles of the array-based ones.

``subgraph_clustering`` counted the triangles of every clustering-kappa
replicate with Python sets; ``socialgraph.triangle_counts`` must give the same
(closed, adjacent) integers.  ``nearest_tower`` picked each synthetic home
with one scalar distance per tower; ``synthgen.generate_population`` must pick
the same tower.  ``component_evolution`` bucketed each adoption network from
its components as sets of ids, found by ``union_find_groups``;
``adoption.component_evolution`` must give the same rows from component sizes.
``month_index`` gave ``build_graph`` each event's calendar month by civil-date
arithmetic; ``socialgraph._month_positions`` must place each stamp at the same
month, counted from the window's first.
"""

from __future__ import annotations

import numpy as np

from cdrlab.adoption import MONSTER_THRESHOLD
from cdrlab.geo import haversine_km
from cdrlab.records import SECONDS_PER_DAY
from cdrlab.socialgraph import SocialGraph


def subgraph_clustering(pairs: list[tuple[int, int]]) -> tuple[int, int]:
    """(3 x triangles, adjacent edge pairs) of the subgraph given by index pairs."""
    adj: dict[int, set[int]] = {}
    for a, b in pairs:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    adjacent = sum(len(s) * (len(s) - 1) for s in adj.values()) // 2
    if adjacent == 0:
        return 0, 0
    closed = 0
    for a, b in pairs:
        na, nb = adj[a], adj[b]
        if len(na) > len(nb):
            na, nb = nb, na
        closed += sum(1 for x in na if x in nb)
    return closed, adjacent


def nearest_tower(lon: float, lat: float, towers) -> str:
    """Id of the tower closest to (lon, lat); the smaller id wins a tie."""
    return min(sorted(towers), key=lambda tid: (haversine_km(lon, lat, towers[tid].lon, towers[tid].lat), tid))


def union_find_groups(g) -> list[set[str]]:
    """Every component of g as a set of ids, isolated nodes included."""
    parent = {n: n for n in g.ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v, _ in g.edges():
        parent[find(u)] = find(v)
    groups: dict[str, set[str]] = {}
    for n in g.ids:
        groups.setdefault(find(n), set()).add(n)
    return list(groups.values())


def component_evolution(g, adopter_sets) -> list[dict]:
    """Per adopter set: fraction of adopters in isolate / pair / mid / monster buckets."""
    rows = []
    for i, adopters in enumerate(adopter_sets):
        adopters = frozenset(adopters)
        induced = [(u, v) for u, v, _ in g.edges() if u in adopters and v in adopters]
        isolates = adopters - {x for pair in induced for x in pair}
        groups = union_find_groups(SocialGraph.from_edges(induced, nodes=adopters))
        components = sorted((c for c in groups if len(c) > 1), key=len, reverse=True)
        total = len(adopters)
        pair = mid = monster = 0
        sizes = [len(c) for c in components]
        monster_size = 0
        if sizes and sizes[0] > MONSTER_THRESHOLD:
            monster_size = sizes[0]
        for rank, size in enumerate(sizes):
            if rank == 0 and monster_size:
                monster += size
            elif size == 2:
                pair += size
            elif size >= 3:
                mid += size

        def frac(x):
            return x / total if total else 0.0
        rows.append({"snapshot": i, "adopters": total, "frac_isolates": frac(len(isolates)),
                     "frac_pairs": frac(pair), "frac_mid": frac(mid), "frac_monster": frac(monster)})
    return rows


def month_index(ts):
    """year * 12 + (month - 1) of UTC epoch seconds (integer arrays)."""
    # civil_from_days' first half, repeated: through civil_from_days, the day
    # column nobody reads here raised the peak RSS of `graph` and `pk` by
    # 7-12 MB on the 839k-row Baseline table.
    z = np.asarray(ts, dtype=np.int64) // SECONDS_PER_DAY + 719468
    era = z // 146097
    doe = z - era * 146097
    yoe = (doe - doe // 1460 + doe // 36524 - doe // 146096) // 365
    doy = doe - (365 * yoe + yoe // 4 - yoe // 100)
    mp = (5 * doy + 2) // 153
    month = mp + np.where(mp < 10, 3, -9)
    year = yoe + era * 400 + (month <= 2)
    return year * 12 + month - 1
