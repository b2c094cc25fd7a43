"""Adoption networks and the social-spreading test battery.

The kappa statistics compare an empirical adoption pattern against a Monte
Carlo null of the same cardinality (random adopter placement, or random
link activation), reported as kappa = empirical / random_mean with a
normal-approximation 95% CI.  The CI uses the replicate spread as the
null's scale, inflated by sqrt(1 + 1/replicates) for the mean's own Monte
Carlo error, so under the null it covers 1 at roughly the nominal rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ingest import write_csv
from .parallel import parallel_map
from .rng import derive_rng
from .socialgraph import (
    ComponentReport,
    SocialGraph,
    connected_components,
    global_clustering_coefficient,
)

Z95 = 1.959963984540054

MONSTER_THRESHOLD = 1000


@dataclass
class AdoptionNetwork:
    base: SocialGraph
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


def adoption_network(g: SocialGraph, adopters) -> AdoptionNetwork:
    """Induce the network of adopters: g restricted to the adopter set."""
    adopters = frozenset(adopters)
    missing = adopters - g.nodes
    if missing:
        raise ValueError(f"adopters not in graph: {sorted(missing)[:5]}")
    induced = tuple((u, v) for u, v, _ in g.edges() if u in adopters and v in adopters)
    touched = {x for e in induced for x in e}
    isolates = frozenset(adopters - touched)
    return AdoptionNetwork(g, adopters, induced, isolates)


def component_report(net: AdoptionNetwork) -> ComponentReport:
    sub = SocialGraph.from_edges([(u, v, 1.0) for u, v in net.induced_edges], nodes=net.adopters)
    return connected_components(sub, universe=set(net.adopters))


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


def node_kappa(
    g: SocialGraph,
    adopters,
    replicates: int = 200,
    seed: int = 0,
    threads: int = 1,
) -> KappaResult:
    """B-link count of the adopter set vs uniform random placement.

    A B-link is an edge whose two endpoints both adopted.  Full adoption is
    exact: every placement yields every edge, so kappa is 1 with a
    degenerate CI and no sampling.
    """
    adopters = frozenset(adopters)
    missing = adopters - g.nodes
    if missing:
        raise ValueError(f"adopters not in graph: {sorted(missing)[:5]}")
    nodes, ui, vi, _ = g.index_arrays()
    n = len(nodes)
    m = len(adopters)
    if m == 0:
        raise ValueError(
            "kappa undefined for an empty adopter set: "
            "random_mean equals empirical by construction only at full adoption"
        )
    emp_mask = np.zeros(n, dtype=bool)
    index = {node: i for i, node in enumerate(nodes)}
    emp_mask[[index[a] for a in adopters]] = True
    empirical = int(np.count_nonzero(emp_mask[ui] & emp_mask[vi])) if len(ui) else 0
    if m == n:
        if empirical == 0:
            raise ValueError("reference degenerate: graph has no edges")
        return KappaResult(1.0, empirical, float(empirical), 0.0, 0, (1.0, 1.0))

    def one(r: int) -> int:
        rng = derive_rng(seed, "node_kappa", r)
        mask = np.zeros(n, dtype=bool)
        mask[rng.choice(n, size=m, replace=False)] = True
        return int(np.count_nonzero(mask[ui] & mask[vi])) if len(ui) else 0

    return _kappa_result(empirical, parallel_map(one, range(replicates), threads))


def _adjacent_pairs_from_degrees(deg: np.ndarray) -> int:
    return int((deg * (deg - 1)).sum() // 2)


def _canonical_links(g: SocialGraph, active_links) -> list[tuple[str, str]]:
    canon = set()
    for u, v in active_links:
        if not g.has_edge(u, v):
            raise ValueError(f"active link {(u, v)!r} not in graph")
        canon.add((min(u, v), max(u, v)))
    return sorted(canon)


def link_kappa(
    g: SocialGraph,
    active_links,
    replicates: int = 200,
    seed: int = 0,
    threads: int = 1,
) -> KappaResult:
    """Adjacent-pair count of the active-link set vs random link activation.

    The null draws the same number of edges uniformly without replacement
    from the graph's edge set; adjacent pairs are counted from the degree
    sequence of the activated subgraph (sum of C(k,2))."""
    links = _canonical_links(g, active_links)
    nodes, ui, vi, _ = g.index_arrays()
    n = len(nodes)
    edge_count = len(ui)
    m = len(links)
    if m == 0:
        raise ValueError("kappa undefined for an empty active-link set")
    index = {node: i for i, node in enumerate(nodes)}
    deg = np.zeros(n, dtype=np.int64)
    for u, v in links:
        deg[index[u]] += 1
        deg[index[v]] += 1
    empirical = _adjacent_pairs_from_degrees(deg)
    if m == edge_count:
        if empirical == 0:
            raise ValueError("reference degenerate: full activation has no adjacent pairs")
        return KappaResult(1.0, empirical, float(empirical), 0.0, 0, (1.0, 1.0))

    def one(r: int) -> int:
        rng = derive_rng(seed, "link_kappa", r)
        pick = rng.choice(edge_count, size=m, replace=False)
        d = np.bincount(ui[pick], minlength=n) + np.bincount(vi[pick], minlength=n)
        return _adjacent_pairs_from_degrees(d)

    return _kappa_result(empirical, parallel_map(one, range(replicates), threads))


def _subgraph_clustering(pairs: list[tuple[int, int]]) -> tuple[float, int]:
    """(coefficient, adjacent_pairs) of the subgraph given by index pairs."""
    adj: dict[int, set[int]] = {}
    for a, b in pairs:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    adjacent = sum(len(s) * (len(s) - 1) for s in adj.values()) // 2
    if adjacent == 0:
        return 0.0, 0
    closed = 0
    for a, b in pairs:
        na, nb = adj[a], adj[b]
        if len(na) > len(nb):
            na, nb = nb, na
        closed += sum(1 for x in na if x in nb)
    return closed / adjacent, adjacent


def clustering_kappa(
    g: SocialGraph,
    active_links,
    replicates: int = 200,
    seed: int = 0,
    threads: int = 1,
) -> KappaResult:
    """Global clustering of the active subgraph vs random link activation.

    Replicates whose activated subgraph has no adjacent pairs carry no
    coefficient; they are excluded from the mean and counted."""
    links = _canonical_links(g, active_links)
    nodes, ui, vi, _ = g.index_arrays()
    edge_count = len(ui)
    m = len(links)
    if m == 0:
        raise ValueError("kappa undefined for an empty active-link set")
    index = {node: i for i, node in enumerate(nodes)}
    emp_pairs = [(index[u], index[v]) for u, v in links]
    c_emp, _ = _subgraph_clustering(emp_pairs)
    if m == edge_count:
        c_full = global_clustering_coefficient(g)
        if c_full == 0.0:
            raise ValueError("reference degenerate: graph has no adjacent pairs")
        return KappaResult(1.0, c_emp, c_emp, 0.0, 0, (1.0, 1.0))

    def one(r: int) -> float:
        rng = derive_rng(seed, "clustering_kappa", r)
        pick = rng.choice(edge_count, size=m, replace=False)
        coeff, adjacent = _subgraph_clustering(list(zip(ui[pick].tolist(), vi[pick].tolist())))
        return coeff if adjacent else np.nan

    return _kappa_result(c_emp, parallel_map(one, range(replicates), threads))


def adoption_probability_curve(
    g: SocialGraph,
    adopters,
    k_max: int = 5,
    min_support: int = 30,
) -> PkCurve:
    """p_k = P(adopted | exactly k adopting friends), over all graph nodes."""
    adopters = frozenset(adopters)
    missing = adopters - g.nodes
    if missing:
        raise ValueError(f"adopters not in graph: {sorted(missing)[:5]}")
    nodes, ui, vi, _ = g.index_arrays()
    n = len(nodes)
    index = {node: i for i, node in enumerate(nodes)}
    mask = np.zeros(n, dtype=bool)
    mask[[index[a] for a in adopters]] = True
    if len(ui):
        k = np.bincount(ui[mask[vi]], minlength=n) + np.bincount(vi[mask[ui]], minlength=n)
    else:
        k = np.zeros(n, dtype=int)
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
