"""Adoption networks and the social-spreading test battery.

The kappa statistics compare an empirical adoption pattern against a Monte
Carlo null of the same cardinality (random adopter placement, or random
link activation), reported as kappa = empirical / random_mean with a
normal-approximation 95% CI.  The CI uses the replicate spread as the
null's scale, inflated by sqrt(1 + 1/replicates) for the mean's own Monte
Carlo error, so under the null it covers 1 at roughly the nominal rate.

Every test works on the graph's arrays: adopters become a boolean node
mask, active links become positions in the canonical edge arrays, and a
replicate is one draw of node or edge positions.  Replicates are drawn
(`rng.derive_choices`) and counted a block at a time, a block's rows
standing as disjoint copies of the graph.  Clustering counts triangles and
adjacent pairs exactly with `socialgraph.triangle_counts`, so a coefficient
is a ratio of two integers and keeps its bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ingest import write_csv
from .rng import derive_choices
from .socialgraph import (
    ComponentReport,
    SocialGraph,
    connected_components,
    global_clustering_coefficient,
    triangle_counts,
)

Z95 = 1.959963984540054

MONSTER_THRESHOLD = 1000

# Null replicates are drawn and counted in blocks of about this many cells
# (rows x max(nodes, edges)): enough rows to amortize each numpy call, few
# enough that peak memory does not grow with the replicate count.
BLOCK_CELLS = 1 << 17


@dataclass
class AdoptionNetwork:
    """The graph restricted to the adopters, each adopter a node of it."""
    graph: SocialGraph
    adopters: frozenset[str]
    induced_edges: tuple[tuple[str, str], ...]
    isolates: frozenset[str]


@dataclass
class KappaResult:
    kappa: float
    empirical_count: float
    random_mean: float
    random_std: float
    replicates: int
    ci95: tuple[float, float]
    excluded_replicates: int = 0


@dataclass
class PkPoint:
    k: int
    n_k: int
    a_k: int
    p_k: float | None
    reliable: bool


@dataclass
class PkCurve:
    points: list[PkPoint]
    min_support: int
    uplift: dict[int, float]


def _adopter_mask(g: SocialGraph, adopters: frozenset) -> np.ndarray:
    """Boolean node mask of the adopters; every adopter must be a node."""
    pos = g.index(adopters)
    if (pos < 0).any():
        missing = {a for a, p in zip(adopters, pos.tolist()) if p < 0}
        raise ValueError(f"adopters not in graph: {sorted(missing)[:5]}")
    mask = np.zeros(g.node_count(), dtype=bool)
    mask[pos] = True
    return mask


def adoption_network(g: SocialGraph, adopters) -> AdoptionNetwork:
    """Induce the network of adopters: g restricted to the adopter set."""
    adopters = frozenset(adopters)
    sub = g.induced(_adopter_mask(g, adopters))
    induced = tuple((u, v) for u, v, _ in sub.edges())
    isolates = frozenset(sub.ids[i] for i in np.flatnonzero(sub.degrees() == 0).tolist())
    return AdoptionNetwork(sub, adopters, induced, isolates)


def component_report(net: AdoptionNetwork) -> ComponentReport:
    return connected_components(net.graph)


def component_evolution(snapshots) -> list[dict]:
    """Per snapshot: fraction of adopters in isolate / pair / mid / monster buckets.

    mid means components of 3..1000 nodes; the monster bucket is the largest
    component only when it exceeds 1000 nodes.
    """
    rows = []
    for i, net in enumerate(snapshots):
        report = component_report(net)
        total = len(net.adopters)
        iso = len(net.isolates)
        pair = mid = monster = 0
        sizes = [len(c) for c in report.components]
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
        rows.append(
            {
                "snapshot": i,
                "adopters": total,
                "frac_isolates": frac(iso),
                "frac_pairs": frac(pair),
                "frac_mid": frac(mid),
                "frac_monster": frac(monster),
            }
        )
    return rows


def _ci(empirical: float, mean: float, std: float, replicates: int) -> tuple[float, float]:
    s_eff = std * np.sqrt(1.0 + 1.0 / replicates)
    lo = max(0.0, (empirical - Z95 * s_eff) / mean)
    hi = (empirical + Z95 * s_eff) / mean
    return (float(lo), float(hi))


def _kappa_result(empirical: float, values) -> KappaResult:
    """Kappa of an empirical statistic against its null replicates.

    A nan replicate (a random subgraph with no adjacent pairs, in the
    clustering test) carries no value: it is left out of the mean and
    counted as excluded.
    """
    values = np.asarray(values, dtype=float)
    valid = values[~np.isnan(values)]
    if len(valid) == 0:
        what = "no replicate produced adjacent pairs" if len(values) else "no replicates"
        raise ValueError(f"reference degenerate: {what}")
    random_mean = float(valid.mean())
    if random_mean == 0.0:
        raise ValueError("reference degenerate: random_mean is zero across all replicates")
    random_std = float(valid.std(ddof=1)) if len(valid) > 1 else 0.0
    return KappaResult(
        kappa=empirical / random_mean,
        empirical_count=empirical,
        random_mean=random_mean,
        random_std=random_std,
        replicates=len(valid),
        ci95=_ci(empirical, random_mean, random_std, len(valid)),
        excluded_replicates=len(values) - len(valid),
    )


def _check_replicates(replicates: int) -> None:
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")


def _null_values(g: SocialGraph, seed: int, name: str, replicates: int, population: int, m: int,
                 count) -> np.ndarray:
    """count(picks) for every replicate, one block of rows of picks at a time.

    Row r of `picks` is derive_rng(seed, name, r).choice(population, m)
    without replacement; `count` returns one value per row.
    """
    rows = max(1, BLOCK_CELLS // max(g.node_count(), g.edge_count()))
    return np.concatenate([count(derive_choices(seed, name, lo, min(lo + rows, replicates), population, m))
                           for lo in range(0, replicates, rows)])


def _edge_copies(g: SocialGraph, picks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row of edge positions as one copy of a disjoint union: row r's nodes offset by r * n."""
    offset = np.arange(len(picks))[:, None] * g.node_count()
    return (g.u[picks] + offset).ravel(), (g.v[picks] + offset).ravel()


def node_kappa(g: SocialGraph, adopters, replicates: int = 200, seed: int = 0) -> KappaResult:
    """B-link count of the adopter set vs uniform random placement.

    A B-link is an edge whose two endpoints both adopted.  Full adoption is
    exact: every placement yields every edge, so kappa is 1 with a
    degenerate CI and no sampling.
    """
    _check_replicates(replicates)
    adopters = frozenset(adopters)
    emp_mask = _adopter_mask(g, adopters)
    n = g.node_count()
    m = len(adopters)
    if m == 0:
        raise ValueError(
            "kappa undefined for an empty adopter set: "
            "random_mean equals empirical by construction only at full adoption"
        )
    empirical = int(np.count_nonzero(emp_mask[g.u] & emp_mask[g.v]))
    if m == n:
        if empirical == 0:
            raise ValueError("reference degenerate: graph has no edges")
        return KappaResult(1.0, empirical, float(empirical), 0.0, 0, (1.0, 1.0))

    def b_links(picks: np.ndarray) -> np.ndarray:
        mask = np.zeros((len(picks), n), dtype=bool)
        mask[np.arange(len(picks))[:, None], picks] = True
        return np.count_nonzero(mask[:, g.u] & mask[:, g.v], axis=1)

    return _kappa_result(empirical, _null_values(g, seed, "node_kappa", replicates, n, m, b_links))


def _active_edges(g: SocialGraph, active_links) -> np.ndarray:
    """Sorted positions in g's edge arrays of the distinct active links."""
    links = [tuple(link) for link in active_links]
    ends = g.index([x for link in links for x in link]).reshape(-1, 2)
    n = g.node_count()
    lo = ends.min(axis=1)
    key = lo * n + ends.max(axis=1)
    keys = g.u * n + g.v
    found = (lo >= 0) & np.isin(key, keys)
    if not found.all():
        raise ValueError(f"active link {links[int(np.argmin(found))]!r} not in graph")
    return np.unique(np.searchsorted(keys, key))


def link_kappa(g: SocialGraph, active_links, replicates: int = 200, seed: int = 0) -> KappaResult:
    """Adjacent-pair count of the active-link set vs random link activation.

    The null draws the same number of edges uniformly without replacement
    from the graph's edge set; adjacent pairs are counted from the degree
    sequence of the activated subgraph (sum of C(k,2))."""
    _check_replicates(replicates)
    active = _active_edges(g, active_links)
    n = g.node_count()
    m = len(active)
    if m == 0:
        raise ValueError("kappa undefined for an empty active-link set")

    def adjacent(u: np.ndarray, v: np.ndarray, copies: int = 1) -> np.ndarray:
        deg = np.bincount(np.concatenate((u, v)), minlength=copies * n).reshape(copies, n)
        return (deg * (deg - 1)).sum(axis=1) // 2

    empirical = int(adjacent(g.u[active], g.v[active])[0])
    if m == g.edge_count():
        if empirical == 0:
            raise ValueError("reference degenerate: full activation has no adjacent pairs")
        return KappaResult(1.0, empirical, float(empirical), 0.0, 0, (1.0, 1.0))

    def pairs(picks: np.ndarray) -> np.ndarray:
        return adjacent(*_edge_copies(g, picks), len(picks))

    return _kappa_result(empirical, _null_values(g, seed, "link_kappa", replicates, g.edge_count(), m, pairs))


def clustering_kappa(g: SocialGraph, active_links, replicates: int = 200, seed: int = 0) -> KappaResult:
    """Global clustering of the active subgraph vs random link activation.

    Replicates whose activated subgraph has no adjacent pairs carry no
    coefficient; they are excluded from the mean and counted."""
    _check_replicates(replicates)
    active = _active_edges(g, active_links)
    n = g.node_count()
    m = len(active)
    if m == 0:
        raise ValueError("kappa undefined for an empty active-link set")
    closed, adjacent = triangle_counts(g.u[active], g.v[active], n)
    c_emp = int(closed[0]) / int(adjacent[0]) if adjacent[0] else 0.0
    if m == g.edge_count():
        if global_clustering_coefficient(g) == 0.0:
            raise ValueError("reference degenerate: graph has no adjacent pairs")
        return KappaResult(1.0, c_emp, c_emp, 0.0, 0, (1.0, 1.0))

    def coefficients(picks: np.ndarray) -> np.ndarray:
        closed, adjacent = triangle_counts(*_edge_copies(g, picks), n, len(picks))
        return np.divide(closed, adjacent, out=np.full(len(picks), np.nan), where=adjacent > 0)

    return _kappa_result(c_emp, _null_values(g, seed, "clustering_kappa", replicates, g.edge_count(), m,
                                             coefficients))


def adoption_probability_curve(
    g: SocialGraph,
    adopters,
    k_max: int = 5,
    min_support: int = 30,
) -> PkCurve:
    """p_k = P(adopted | exactly k adopting friends), over all graph nodes."""
    mask = _adopter_mask(g, frozenset(adopters))
    n = g.node_count()
    k = np.bincount(g.u[mask[g.v]], minlength=n) + np.bincount(g.v[mask[g.u]], minlength=n)
    points = []
    p0 = None
    for kk in range(k_max + 1):
        sel = k == kk
        n_k = int(sel.sum())
        a_k = int((sel & mask).sum())
        p_k = (a_k / n_k) if n_k else None
        if kk == 0:
            p0 = p_k
        points.append(PkPoint(kk, n_k, a_k, p_k, n_k >= min_support))
    uplift = {}
    if p0:
        for pt in points:
            if pt.p_k is not None:
                uplift[pt.k] = pt.p_k / p0
    return PkCurve(points, min_support, uplift)


def write_kappa_csv(results: dict[str, KappaResult], path: str, header_comment: str | None = None) -> None:
    rows = (
        [name, repr(r.kappa), repr(r.ci95[0]), repr(r.ci95[1]), repr(float(r.empirical_count)),
         repr(r.random_mean), r.replicates]
        for name, r in sorted(results.items())
    )
    write_csv(path, ["test", "kappa", "ci_lo", "ci_hi", "empirical", "random_mean", "replicates"],
              rows, header_comment)


def write_pk_csv(curve: PkCurve, path: str, header_comment: str | None = None) -> None:
    rows = (
        [
            pt.k,
            pt.n_k,
            pt.a_k,
            "" if pt.p_k is None else repr(pt.p_k),
            "" if pt.k not in curve.uplift else repr(curve.uplift[pt.k]),
            int(pt.reliable),
        ]
        for pt in curve.points
    )
    write_csv(path, ["k", "n_k", "a_k", "p_k", "uplift", "reliable"], rows, header_comment)


def write_component_evolution_csv(rows: list[dict], path: str, header_comment: str | None = None) -> None:
    columns = ["snapshot", "adopters", "frac_isolates", "frac_pairs", "frac_mid", "frac_monster"]
    cells = ([row["snapshot"], row["adopters"]] + [repr(row[c]) for c in columns[2:]] for row in rows)
    write_csv(path, columns, cells, header_comment)
