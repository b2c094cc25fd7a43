"""Weighted interaction graph and structural metrics.

The graph is undirected: direction is discarded at build time.  Voice and
sms events define both the edges and the weights; the default weight counts
voice per second of duration and one text as 60 (one text, one minute).

A `SocialGraph` is one immutable set of arrays over its sorted node ids:
every edge once as an index pair u < v, lexsorted, with its weight.
Components, centrality and clustering all read these edge arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ingest import write_csv
from .records import SECONDS_PER_DAY, SMS, VOICE, Dataset, civil_from_days, days_from_civil, distinct

# Lanczos stops once the top Ritz pair's residual |Ay - theta y| is at most
# EVC_TOL, and gives up after EVC_MAX_ITER steps, room for the 1,250 that a
# 2,500-node path takes.  Its basis doubles up to EVC_MAX_ITER vectors of
# component length: 240 MB for the 20,000 nodes of the 4x Baseline graph.
EVC_TOL = 1e-10
EVC_MAX_ITER = 1500


class SocialGraph:
    """Undirected weighted graph over sorted subscriber ids.

    `ids` are the sorted node ids.  Edge i joins nodes `u[i] < v[i]` with
    weight `w[i]`; the edges are lexsorted by (u, v).
    """

    def __init__(self, ids, u, v, w):
        self.ids = tuple(ids)
        self.u = np.asarray(u, dtype=np.int64)
        self.v = np.asarray(v, dtype=np.int64)
        self.w = np.asarray(w, dtype=np.float64)

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
    def node_count(self) -> int:
        return len(self.ids)

    def edge_count(self) -> int:
        return len(self.u)

    def degrees(self) -> np.ndarray:
        return np.bincount(np.concatenate((self.u, self.v)), minlength=len(self.ids))

    def edges(self):
        """Canonical (u, v, w) triples with u < v, sorted."""
        ids = self.ids
        for a, b, x in zip(self.u.tolist(), self.v.tolist(), self.w.tolist()):
            yield (ids[a], ids[b], x)

    @cached_property
    def _position(self) -> dict[str, int]:
        return {x: i for i, x in enumerate(self.ids)}

    def index(self, names) -> np.ndarray:
        """Position of each name in `ids`, -1 for a name that is not a node."""
        pos = self._position
        return np.array([pos.get(x, -1) for x in names], dtype=np.int64)


@dataclass
class ComponentReport:
    sizes: list[int]  # of the components of two or more nodes, largest first
    isolate_count: int


def _month_positions(window: tuple[int, int], ts: np.ndarray) -> tuple[int, np.ndarray]:
    """(the number of calendar months the window [start, end) touches, the
    position among them of the month of each epoch second in ts)."""
    year, month, _ = civil_from_days((np.array(window) - (0, 1)) // SECONDS_PER_DAY)
    first, last = (year * 12 + month - 1).tolist()
    later = np.arange(first + 1, last + 1)
    starts = days_from_civil(later // 12, later % 12 + 1, 1) * SECONDS_PER_DAY
    return last - first + 1, np.searchsorted(starts, ts, side="right")


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
    months, month = _month_positions(ds.window, c.ts[rows])
    per_month = np.bincount(pair * months + month, minlength=len(pairs) * months).reshape(len(pairs), months)
    threshold = int(min_monthly_interactions)
    keep = (weights > 0) & ((per_month > threshold).all(axis=1) if threshold > 0 else True)

    active = np.bincount(np.concatenate((caller, callee)), minlength=n_ids) > 0
    node = np.cumsum(active) - 1
    return SocialGraph([c.subscriber_ids[i] for i in np.flatnonzero(active).tolist()],
                       node[pairs[keep] // n_ids], node[pairs[keep] % n_ids], weights[keep])


def _component_labels(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per node 0..n-1, the smallest node index in its component along the edges (u[i], v[i]).

    Min-label propagation along the edges, with pointer jumping so that a
    long path settles in a logarithmic number of rounds.
    """
    label = np.arange(n)
    while True:
        nxt = label.copy()
        np.minimum.at(nxt, u, label[v])
        np.minimum.at(nxt, v, label[u])
        nxt = nxt[nxt]
        if np.array_equal(nxt, label):
            return label
        label = nxt


def connected_components(g: SocialGraph) -> ComponentReport:
    """Sizes of the exact components of two or more nodes; isolates are nodes with no edge."""
    linked = g.degrees() > 0
    sizes = np.unique(_component_labels(g.node_count(), g.u, g.v)[linked], return_counts=True)[1]
    return ComponentReport(sorted(sizes.tolist(), reverse=True), int(np.count_nonzero(~linked)))


def eigenvector_centrality(g: SocialGraph) -> np.ndarray:
    """Principal eigenvector of the weighted adjacency, per component, by node position.

    Each component's score block has unit Euclidean norm and non-negative
    entries; a connected component with non-negative weights has a simple
    top eigenvalue, so that vector is unique.  Isolated nodes score 1.0.
    Every other component runs the Lanczos method (Lanczos 1950; Paige 1972)
    with full reorthogonalisation, done twice, from the uniform vector and on
    its weights scaled to a maximum of 1, which makes every step invariant to
    rescaling all weights.  The small tridiagonal problem is solved each time
    the step count doubles.  Dot products over component-length vectors run
    in numpy's own einsum loops, never in BLAS, whose threaded reductions
    would make the scores depend on the thread count.
    """
    label = _component_labels(g.node_count(), g.u, g.v)
    scores = np.ones(g.node_count())
    edge_label = label[g.u]
    for root in distinct(edge_label).tolist():
        members = np.flatnonzero(label == root)
        sel = edge_label == root
        ui = np.searchsorted(members, g.u[sel])
        vi = np.searchsorted(members, g.v[sel])
        wv = g.w[sel] / g.w[sel].max()
        n = len(members)
        q = np.full(n, 1.0 / np.sqrt(n))
        basis, alpha, beta = np.empty((1, n)), [], []
        while True:
            k = len(alpha) + 1  # step k takes basis row k - 1
            basis[k - 1] = q
            r = np.bincount(ui, weights=wv * q[vi], minlength=n) + np.bincount(vi, weights=wv * q[ui], minlength=n)
            coef = 0.0
            for _ in range(2):  # Gram-Schmidt against the whole basis, twice
                c = np.einsum("ij,j->i", basis[:k], r)
                r -= np.einsum("ij,i->j", basis[:k], c)
                coef += c[-1]
            alpha.append(coef)
            beta.append(np.sqrt(np.einsum("i,i->", r, r)))
            if k == len(basis) or beta[-1] <= EVC_TOL:  # a full basis, or an invariant subspace
                s = np.linalg.eigh(np.diag(alpha) + np.diag(beta[:-1], -1))[1][:, -1]
                residual = beta[-1] * abs(s[-1])
                if residual <= EVC_TOL:
                    break
                if k == EVC_MAX_ITER:
                    raise RuntimeError(
                        f"eigenvector centrality did not converge in {EVC_MAX_ITER} Lanczos steps "
                        f"(component size {n}, last Ritz residual {residual:.3e})"
                    )
                basis = np.vstack((basis, np.empty((min(k, EVC_MAX_ITER - k), n))))
            q = r / beta[-1]
        x = np.abs(np.einsum("ij,i->j", basis[:k], s))
        scores[members] = x / np.sqrt(np.einsum("i,i->", x, x))
    return scores


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


def write_edges_csv(g: SocialGraph, path: str, header_comment: str | None = None) -> None:
    write_csv(path, ["u", "v", "w"], g.edges(), header_comment)


def write_components_csv(report: ComponentReport, path: str, header_comment: str | None = None) -> None:
    rows = ([rank, size] for rank, size in enumerate(report.sizes, start=1))
    write_csv(path, ["component_rank", "size"], rows, header_comment)
