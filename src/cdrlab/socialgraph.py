"""Weighted interaction graph and structural metrics.

The graph is undirected: direction is discarded at build time.  Voice and
sms events define both the edges and the weights; the default weight counts
voice per second of duration and one text as 60 (one text, one minute).

A `SocialGraph` is one immutable set of arrays over its sorted node ids:
every edge once as an index pair u < v, lexsorted, with its weight, plus a
CSR adjacency over both directions.  Components, centrality and clustering
all read these arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ingest import write_csv
from .records import SMS, VOICE, Dataset, month_index

# Components up to this many nodes fall back to a dense eigensolver when
# power iteration stalls; the dense matrix then takes at most 32 MB.
DENSE_EVC_MAX_NODES = 2000


class SocialGraph:
    """Undirected weighted graph over sorted subscriber ids.

    `ids` are the sorted node ids.  Edge i joins nodes `u[i] < v[i]` with
    weight `w[i]`; the edges are lexsorted by (u, v).  The neighbours of
    node k are `nbrs[offsets[k]:offsets[k + 1]]`, ascending.
    """

    def __init__(self, ids, u, v, w):
        self.ids = tuple(ids)
        self.u = np.asarray(u, dtype=np.int64)
        self.v = np.asarray(v, dtype=np.int64)
        self.w = np.asarray(w, dtype=np.float64)
        ends = np.concatenate((self.u, self.v))
        other = np.concatenate((self.v, self.u))
        self.nbrs = other[np.lexsort((other, ends))]
        self.offsets = np.zeros(len(self.ids) + 1, dtype=np.int64)
        np.cumsum(np.bincount(ends, minlength=len(self.ids)), out=self.offsets[1:])

    @classmethod
    def from_edges(cls, edges, nodes=()) -> "SocialGraph":
        """Graph from (u, v) or (u, v, w) id tuples; a repeated pair keeps its last weight."""
        weights: dict[tuple[str, str], float] = {}
        for item in edges:
            u, v, w = item if len(item) == 3 else (*item, 1.0)
            if u == v:
                raise ValueError(f"self-loop on {u!r}")
            if w <= 0:
                raise ValueError("edge weight must be positive")
            weights[(u, v) if u < v else (v, u)] = float(w)
        ids = sorted({x for pair in weights for x in pair}.union(nodes))
        pos = {x: i for i, x in enumerate(ids)}
        pairs = sorted(weights)
        return cls(ids, [pos[a] for a, _ in pairs], [pos[b] for _, b in pairs],
                   [weights[p] for p in pairs])

    # -- queries -----------------------------------------------------------
    @property
    def nodes(self) -> frozenset[str]:
        return frozenset(self.ids)

    def node_count(self) -> int:
        return len(self.ids)

    def edge_count(self) -> int:
        return len(self.u)

    def degrees(self) -> np.ndarray:
        return np.diff(self.offsets)

    def edges(self):
        """Canonical (u, v, w) triples with u < v, sorted."""
        ids = self.ids
        for a, b, x in zip(self.u.tolist(), self.v.tolist(), self.w.tolist()):
            yield (ids[a], ids[b], x)

    def sorted_nodes(self) -> list[str]:
        return list(self.ids)

    @cached_property
    def _position(self) -> dict[str, int]:
        return {x: i for i, x in enumerate(self.ids)}

    def index(self, names) -> np.ndarray:
        """Position of each name in `ids`, -1 for a name that is not a node."""
        pos = self._position
        return np.array([pos.get(x, -1) for x in names], dtype=np.int64)

    def induced(self, keep: np.ndarray) -> "SocialGraph":
        """The subgraph on the nodes where the boolean mask `keep` is set."""
        sel = keep[self.u] & keep[self.v]
        new = np.cumsum(keep) - 1
        return SocialGraph([self.ids[i] for i in np.flatnonzero(keep).tolist()],
                           new[self.u[sel]], new[self.v[sel]], self.w[sel])


@dataclass
class ComponentReport:
    components: list[set[str]]
    isolate_count: int


def build_graph(
    ds: Dataset,
    sms_weight: float = 60.0,
    min_monthly_interactions: int = 3,
) -> SocialGraph:
    """Aggregate voice/sms events into an undirected weighted graph.

    Voice weighs its seconds, a text `sms_weight`.  An edge survives only
    when the pair's combined two-direction interaction count is strictly
    greater than `min_monthly_interactions` in every calendar month
    `ds.window` touches.  Threshold 0 disables the monthly test entirely:
    any communicating pair becomes an edge.  A pair's weight adds its events
    in dataset order.  Every subscriber who called or texted is a node.
    """
    c = ds.cdrs
    n_ids = len(c.subscriber_ids)
    rows = ((c.kind == VOICE) | (c.kind == SMS)) & (c.callee >= 0) & (c.caller != c.callee)
    caller, callee, kind = c.caller[rows], c.callee[rows], c.kind[rows]
    # Codes sort like ids, so (low code, high code) is the pair in id order.
    key = np.minimum(caller, callee).astype(np.int64) * n_ids + np.maximum(caller, callee)
    pairs, pair = np.unique(key, return_inverse=True)
    weights = np.bincount(pair, weights=np.where(kind == VOICE, c.magnitude[rows], float(sms_weight)),
                          minlength=len(pairs))
    first_month, last_month = month_index(np.array(ds.window) - (0, 1)).tolist()
    months = last_month - first_month + 1
    per_month = np.bincount(pair * months + (month_index(c.ts[rows]) - first_month),
                            minlength=len(pairs) * months).reshape(len(pairs), months)
    threshold = int(min_monthly_interactions)
    keep = (weights > 0) & ((per_month > threshold).all(axis=1) if threshold > 0 else True)

    active = np.bincount(np.concatenate((caller, callee)), minlength=n_ids) > 0
    node = np.cumsum(active) - 1
    return SocialGraph([c.subscriber_ids[i] for i in np.flatnonzero(active).tolist()],
                       node[pairs[keep] // n_ids], node[pairs[keep] % n_ids], weights[keep])


def _component_labels(g: SocialGraph) -> np.ndarray:
    """Per node, the smallest node index in its component.

    Min-label propagation along the edges, with pointer jumping so that a
    long path settles in a logarithmic number of rounds.
    """
    label = np.arange(g.node_count())
    while True:
        nxt = label.copy()
        np.minimum.at(nxt, g.u, label[g.v])
        np.minimum.at(nxt, g.v, label[g.u])
        nxt = nxt[nxt]
        if np.array_equal(nxt, label):
            return label
        label = nxt


def connected_components(g: SocialGraph) -> ComponentReport:
    """Exact components of two or more nodes; isolates are nodes with no edge."""
    label = _component_labels(g)
    linked = g.degrees() > 0
    roots, members = np.unique(label[linked], return_counts=True)
    # A component's label is its smallest index, hence its smallest id.
    order = np.lexsort((roots, -members))
    by_label = np.argsort(label, kind="stable")
    starts = np.searchsorted(label[by_label], roots[order])
    components = [{g.ids[i] for i in by_label[s:s + k].tolist()}
                  for s, k in zip(starts.tolist(), members[order].tolist())]
    return ComponentReport(components, int(np.count_nonzero(~linked)))


def eigenvector_centrality(g: SocialGraph, tol: float = 1e-10, max_iter: int = 10_000) -> dict[str, float]:
    """Principal eigenvector of the weighted adjacency, per component.

    Each component's score block has unit Euclidean norm and non-negative
    entries.  Power iteration runs on A/w_max + I: the shift guarantees
    convergence on bipartite components and the weight normalization makes
    the iterates, not just the limit, invariant to rescaling all weights.
    When the iteration stalls (a second eigenvalue close to the first), a
    component of at most DENSE_EVC_MAX_NODES nodes is solved densely
    instead; a connected component with non-negative weights has a simple
    top eigenvalue, so that vector is unique.  Isolated nodes score 1.0.
    """
    label = _component_labels(g)
    scores = np.ones(g.node_count())
    edge_label = label[g.u]
    for root in np.unique(edge_label).tolist():
        members = np.flatnonzero(label == root)
        sel = edge_label == root
        ui = np.searchsorted(members, g.u[sel])
        vi = np.searchsorted(members, g.v[sel])
        wv = g.w[sel] / g.w[sel].max()
        n = len(members)
        x = np.full(n, 1.0 / np.sqrt(n))
        residual = np.inf
        for _ in range(max_iter):
            y = x + np.bincount(ui, weights=wv * x[vi], minlength=n) + np.bincount(
                vi, weights=wv * x[ui], minlength=n
            )
            y /= np.linalg.norm(y)
            residual = float(np.max(np.abs(y - x)))
            x = y
            if residual < tol:
                break
        else:
            if n > DENSE_EVC_MAX_NODES:
                raise RuntimeError(
                    f"eigenvector centrality did not converge in {max_iter} iterations "
                    f"(component size {n}, last residual {residual:.3e})"
                )
            a = np.zeros((n, n))
            a[ui, vi] = wv
            a[vi, ui] = wv
            x = np.abs(np.linalg.eigh(a)[1][:, -1])
            x /= np.linalg.norm(x)
        scores[members] = x
    return dict(zip(g.ids, scores.tolist()))


def triangle_counts(u: np.ndarray, v: np.ndarray, n: int, copies: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Per copy, (3 x triangles, adjacent edge pairs) of a disjoint union of simple graphs.

    Copy c has the nodes c*n .. (c+1)*n - 1, and each edge (u[i], v[i])
    lies within one copy; `u` and `v` are int64 and each edge appears once,
    in either orientation.  Both results are int64 arrays of length
    `copies`.  This is the "forward" count (Schank and Wagner 2005; Latapy
    2008): orient every edge from the lower to the higher (degree, index)
    end, pair the out-edges of each node into wedges, and look up each
    wedge's closing edge.  Every triangle is found once, at its
    lowest-ranked corner, which lies in the triangle's copy.
    """
    size = n * copies
    deg = np.bincount(np.concatenate((u, v)), minlength=size)
    adjacent = (deg * (deg - 1)).reshape(copies, n).sum(axis=1) // 2
    rank = deg * size + np.arange(size)
    forward = rank[u] < rank[v]
    tail, head = np.where(forward, u, v), np.where(forward, v, u)
    order = np.argsort(tail)
    tail, head = tail[order], head[order]
    # Out-edge i pairs with each later out-edge of the same tail.
    later = np.searchsorted(tail, tail, side="right") - np.arange(len(tail)) - 1
    first = np.repeat(np.arange(len(tail)), later)
    second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(later) - later, later)
    a, b = head[first], head[second]
    wedge = np.minimum(a, b) * size + np.maximum(a, b)
    keys = np.sort(np.minimum(u, v) * size + np.maximum(u, v))
    hit = np.minimum(np.searchsorted(keys, wedge), len(keys) - 1)
    closed = np.bincount(tail[first][keys[hit] == wedge] // n, minlength=copies)
    return 3 * closed, adjacent


def global_clustering_coefficient(g: SocialGraph) -> float:
    """3 x closed triangles over adjacent link pairs; 0 when no pairs exist."""
    closed, pairs = triangle_counts(g.u, g.v, g.node_count())
    return int(closed[0]) / int(pairs[0]) if pairs[0] else 0.0


def adjacent_link_count(g: SocialGraph) -> int:
    """Number of unordered pairs of edges sharing an endpoint: sum C(k_i, 2)."""
    return int(triangle_counts(g.u, g.v, g.node_count())[1][0])


def write_edges_csv(g: SocialGraph, path: str, header_comment: str | None = None) -> None:
    write_csv(path, ["u", "v", "w"], ([u, v, repr(float(w))] for u, v, w in g.edges()), header_comment)


def write_components_csv(report: ComponentReport, path: str, header_comment: str | None = None) -> None:
    rows = ([rank, len(comp)] for rank, comp in enumerate(report.components, start=1))
    write_csv(path, ["component_rank", "size"], rows, header_comment)
