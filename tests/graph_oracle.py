"""The former set-based kernels, kept as oracles of the array-based ones.

``subgraph_clustering`` counted the triangles of every clustering-kappa
replicate with Python sets; ``socialgraph.triangle_counts`` must give the same
(closed, adjacent) integers.  ``nearest_tower`` picked each synthetic home
with one scalar distance per tower; ``synthgen.generate_population`` must pick
the same tower.
"""

from __future__ import annotations

from cdrlab.geo import haversine_km


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
