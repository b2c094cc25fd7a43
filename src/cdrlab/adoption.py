"""Adoption networks and the social-spreading test battery.

The kappa statistics compare an empirical adoption pattern against a Monte
Carlo null of the same cardinality (random adopter placement, or random
link activation), reported as kappa = empirical / random_mean with a
normal-approximation 95% CI.  The CI uses the replicate spread as the
null's scale, inflated by sqrt(1 + 1/replicates) for the mean's own Monte
Carlo error, so under the null it covers 1 at roughly the nominal rate.

Every function takes the graph's arrays, never subscriber ids: adopters
are a boolean node mask, active links are sorted positions in the
canonical edge arrays, and a replicate is one draw of node or edge
positions.  Each test computes only its empirical statistic and its count
over a block of draws; one function, `_null_test`, holds the rules the
three share: the replicate check, the empty-set error, the exact result of
a full draw, and the null replicates, drawn (`rng.derive_choices`) and
counted a block at a time, a block's rows standing as disjoint copies of
the graph.  Clustering counts triangles and adjacent pairs exactly with
`socialgraph.triangle_counts`, so a coefficient is a ratio of two integers
and keeps its bits.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .ingest import write_csv
from .rng import derive_choices
from .socialgraph import SocialGraph, _component_labels, triangle_counts

Z95 = 1.959963984540054

MONSTER_THRESHOLD = 1000

# Null replicates are drawn and counted in blocks of about this many cells
# (rows x max(nodes, edges)): enough rows to amortize each numpy call, few
# enough that peak memory does not grow with the replicate count.
BLOCK_CELLS = 1 << 17


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
class PkCurve:
    """Per k in 0..k_max, indexed by k; nan where a ratio is undefined."""

    n_k: np.ndarray  # nodes with exactly k adopting friends
    a_k: np.ndarray  # adopters among them
    p_k: np.ndarray  # a_k / n_k
    uplift: np.ndarray  # p_k / p_0, undefined for every k when p_0 is undefined or 0
    reliable: np.ndarray  # n_k >= min_support


def component_evolution(g: SocialGraph, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of the (snapshots x nodes) adopter mask, its adopters and the fractions of them in
    isolate / pair / mid / monster buckets.

    A snapshot's adoption network is its adopters and the edges of g between
    two of them.  One row of four fractions per snapshot, all 0 for a
    snapshot without adopters.  mid means components of 3..1000 nodes; the
    monster bucket is the largest component only when it exceeds 1000 nodes.
    """
    n = g.node_count()
    adopters = np.count_nonzero(masks, axis=1).astype(np.int64)
    counts = np.zeros((len(masks), 4), dtype=np.int64)
    for row, keep, total in zip(counts, masks, adopters.tolist()):
        sel = keep[g.u] & keep[g.v]
        sizes = np.bincount(_component_labels(n, g.u[sel], g.v[sel]))
        sizes = sizes[sizes > 1]  # a node on none of the kept edges is a component of one
        largest = int(sizes.max(initial=0))
        monster = largest if largest > MONSTER_THRESHOLD else 0
        row[:] = total - sizes.sum(), 2 * np.count_nonzero(sizes == 2), sizes[sizes > 2].sum() - monster, monster
    return adopters, np.divide(counts, adopters[:, None], out=np.zeros(counts.shape), where=adopters[:, None] > 0)


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


def _null_test(g: SocialGraph, name: str, empirical, population: int, m: int, count, replicates: int,
               seed: int, empty: str, degenerate: str) -> KappaResult:
    """Kappa of `empirical` against `replicates` draws of m of the `population` node or edge positions.

    Row r of a block of picks is derive_rng(seed, name, r).choice(population, m)
    without replacement, and `count` returns one value per row.  An empty
    draw (m == 0) raises `empty`; a full draw is exact, kappa 1 with no
    sampling, unless the empirical value is 0 (`degenerate`).
    """
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    if m == 0:
        raise ValueError(empty)
    if m == population:
        if empirical == 0:
            raise ValueError("reference degenerate: " + degenerate)
        return KappaResult(1.0, empirical, float(empirical), 0.0, 0, (1.0, 1.0))
    rows = max(1, BLOCK_CELLS // max(g.node_count(), g.edge_count()))
    return _kappa_result(empirical, np.concatenate([
        count(derive_choices(seed, name, lo, min(lo + rows, replicates), population, m))
        for lo in range(0, replicates, rows)]))


def _edge_copies(g: SocialGraph, picks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row of edge positions as one copy of a disjoint union: row r's nodes offset by r * n."""
    offset = np.arange(len(picks))[:, None] * g.node_count()
    return (g.u[picks] + offset).ravel(), (g.v[picks] + offset).ravel()


def node_kappa(g: SocialGraph, adopted: np.ndarray, replicates: int = 200, seed: int = 0) -> KappaResult:
    """B-link count of the adopters (a boolean node mask) vs uniform random placement.

    A B-link is an edge whose two endpoints both adopted.  Full adoption is
    exact: every placement yields every edge.
    """
    n = g.node_count()

    def b_links(picks: np.ndarray) -> np.ndarray:
        mask = np.zeros((len(picks), n), dtype=bool)
        mask[np.arange(len(picks))[:, None], picks] = True
        return np.count_nonzero(mask[:, g.u] & mask[:, g.v], axis=1)

    empirical = int(np.count_nonzero(adopted[g.u] & adopted[g.v]))
    return _null_test(g, "node_kappa", empirical, n, int(np.count_nonzero(adopted)), b_links, replicates, seed,
                      "kappa undefined for an empty adopter set: "
                      "random_mean equals empirical by construction only at full adoption",
                      "graph has no edges")


def link_kappa(g: SocialGraph, active: np.ndarray, replicates: int = 200, seed: int = 0) -> KappaResult:
    """Adjacent-pair count of the active links (sorted edge positions) vs random link activation.

    The null draws the same number of edges uniformly without replacement
    from the graph's edge set; adjacent pairs are counted from the degree
    sequence of the activated subgraph (sum of C(k,2))."""
    n = g.node_count()

    def adjacent(u: np.ndarray, v: np.ndarray, copies: int = 1) -> np.ndarray:
        deg = np.bincount(np.concatenate((u, v)), minlength=copies * n).reshape(copies, n)
        return (deg * (deg - 1)).sum(axis=1) // 2

    def pairs(picks: np.ndarray) -> np.ndarray:
        return adjacent(*_edge_copies(g, picks), len(picks))

    empirical = int(adjacent(g.u[active], g.v[active])[0])
    return _null_test(g, "link_kappa", empirical, g.edge_count(), len(active), pairs, replicates, seed,
                      "kappa undefined for an empty active-link set", "full activation has no adjacent pairs")


def clustering_kappa(g: SocialGraph, active: np.ndarray, replicates: int = 200, seed: int = 0) -> KappaResult:
    """Global clustering of the active links (sorted edge positions) vs random link activation.

    Replicates whose activated subgraph has no adjacent pairs carry no
    coefficient; they are excluded from the mean and counted."""
    n = g.node_count()

    def coefficients(picks: np.ndarray) -> np.ndarray:
        closed, adjacent = triangle_counts(*_edge_copies(g, picks), n, len(picks))
        return np.divide(closed, adjacent, out=np.full(len(picks), np.nan), where=adjacent > 0)

    closed, adjacent = triangle_counts(g.u[active], g.v[active], n)
    empirical = int(closed[0]) / int(adjacent[0]) if adjacent[0] else 0.0
    return _null_test(g, "clustering_kappa", empirical, g.edge_count(), len(active), coefficients, replicates, seed,
                      "kappa undefined for an empty active-link set",
                      "full activation closes no adjacent pairs into a triangle")


def adoption_probability_curve(
    g: SocialGraph,
    adopted: np.ndarray,
    k_max: int = 5,
    min_support: int = 30,
) -> PkCurve:
    """p_k = P(adopted | exactly k adopting friends), over all graph nodes; adopted is a boolean node mask."""
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    n = g.node_count()
    k = np.bincount(g.u[adopted[g.v]], minlength=n) + np.bincount(g.v[adopted[g.u]], minlength=n)
    n_k, a_k = (np.bincount(x, minlength=k_max + 1)[:k_max + 1] for x in (k, k[adopted]))
    p_k = np.divide(a_k, n_k, out=np.full(k_max + 1, np.nan), where=n_k > 0)
    uplift = p_k / p_k[0] if p_k[0] > 0 else np.full(k_max + 1, np.nan)
    return PkCurve(n_k, a_k, p_k, uplift, n_k >= min_support)


def write_kappa_csv(results: dict[str, KappaResult | None], path: str, header_comment: str | None = None) -> None:
    """One row per test; an undefined test (None) is a row of empty cells."""
    rows = (
        [name] + [None] * 6 if r is None else
        [name, r.kappa, *r.ci95, float(r.empirical_count), r.random_mean, r.replicates]
        for name, r in sorted(results.items())
    )
    write_csv(path, ["test", "kappa", "ci_lo", "ci_hi", "empirical", "random_mean", "replicates"],
              rows, header_comment)


def write_pk_csv(curve: PkCurve, path: str, header_comment: str | None = None,
                 k_max: int = 0, min_support: int = 30) -> None:
    """One row per k of curve, then k,0,0,,,int(0 >= min_support) per k past them up to k_max, streamed."""
    n = len(curve.n_k)
    rows = zip(range(n), curve.n_k.tolist(), curve.a_k.tolist(), curve.p_k.tolist(), curve.uplift.tolist(),
               curve.reliable.astype(int).tolist())
    empty = ([k, 0, 0, None, None, int(0 >= min_support)] for k in range(n, k_max + 1))
    write_csv(path, ["k", "n_k", "a_k", "p_k", "uplift", "reliable"], itertools.chain(rows, empty), header_comment)


def write_component_evolution_csv(snapshots, adopters: np.ndarray, fractions: np.ndarray, path: str,
                                  header_comment: str | None = None) -> None:
    """One row per snapshot label in snapshots: its adopters and its row of fractions."""
    rows = ([snapshot, count, *row] for snapshot, count, row in zip(snapshots, adopters.tolist(), fractions.tolist()))
    write_csv(path, ["snapshot", "adopters", "frac_isolates", "frac_pairs", "frac_mid", "frac_monster"],
              rows, header_comment)
