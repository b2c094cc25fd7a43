"""Weighted interaction graph and structural metrics.

The graph is undirected: direction is discarded at build time.  Voice and
sms events define both the edges and the weights; the default weight counts
voice per second of duration and one text as 60 (one text, one minute).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ingest import write_csv
from .records import SMS, VOICE, Dataset, month_index

DEFAULT_WEIGHT_SPEC = {"voice_unit": "per-second", "sms_weight": 60.0}


class SocialGraph:
    """Undirected weighted graph over subscriber ids, frozen after build."""

    def __init__(self):
        self._adj: dict[str, dict[str, float]] = {}
        self._frozen = False
        self._arrays = None

    # -- construction ------------------------------------------------------
    def add_node(self, u: str) -> None:
        if self._frozen:
            raise RuntimeError("graph is frozen")
        self._adj.setdefault(u, {})

    def add_edge(self, u: str, v: str, weight: float = 1.0) -> None:
        if self._frozen:
            raise RuntimeError("graph is frozen")
        if u == v:
            raise ValueError(f"self-loop on {u!r}")
        if weight <= 0:
            raise ValueError("edge weight must be positive")
        self._adj.setdefault(u, {})[v] = float(weight)
        self._adj.setdefault(v, {})[u] = float(weight)

    def freeze(self) -> "SocialGraph":
        self._frozen = True
        return self

    @classmethod
    def from_edges(cls, edges, nodes=()) -> "SocialGraph":
        g = cls()
        for item in edges:
            if len(item) == 2:
                u, v = item
                g.add_edge(u, v, 1.0)
            else:
                u, v, w = item
                g.add_edge(u, v, w)
        for n in nodes:
            g.add_node(n)
        return g.freeze()

    # -- queries -----------------------------------------------------------
    @property
    def nodes(self) -> set[str]:
        return set(self._adj)

    def node_count(self) -> int:
        return len(self._adj)

    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def has_node(self, u: str) -> bool:
        return u in self._adj

    def has_edge(self, u: str, v: str) -> bool:
        return v in self._adj.get(u, ())

    def weight(self, u: str, v: str) -> float:
        return self._adj[u][v]

    def neighbors(self, u: str) -> dict[str, float]:
        return self._adj[u]

    def degree(self, u: str) -> int:
        return len(self._adj[u])

    def edges(self):
        """Canonical (u, v, w) triples with u < v, sorted."""
        for u in sorted(self._adj):
            for v in sorted(self._adj[u]):
                if u < v:
                    yield (u, v, self._adj[u][v])

    def sorted_nodes(self) -> list[str]:
        return sorted(self._adj)

    def index_arrays(self):
        """(nodes, u_idx, v_idx, w) with one row per canonical edge.

        Cached after freeze; the vectorized kappa machinery runs on these.
        """
        if self._arrays is None:
            nodes = self.sorted_nodes()
            index = {n: i for i, n in enumerate(nodes)}
            us, vs, ws = [], [], []
            for u, v, w in self.edges():
                us.append(index[u])
                vs.append(index[v])
                ws.append(w)
            arrays = (
                nodes,
                np.asarray(us, dtype=np.int64),
                np.asarray(vs, dtype=np.int64),
                np.asarray(ws, dtype=np.float64),
            )
            if self._frozen:
                self._arrays = arrays
            return arrays
        return self._arrays


@dataclass
class ComponentReport:
    components: list[set[str]]
    isolate_count: int
    universe_size: int


def build_graph(
    ds: Dataset,
    weight_spec: dict | None = None,
    min_monthly_interactions: int = 3,
) -> SocialGraph:
    """Aggregate voice/sms events into an undirected weighted graph.

    An edge survives only when the pair's combined two-direction interaction
    count is strictly greater than `min_monthly_interactions` in every
    calendar month `ds.window` touches.  Threshold 0 disables the monthly
    test entirely: any communicating pair becomes an edge.  A pair's weight
    adds its events in dataset order.
    """
    spec = dict(DEFAULT_WEIGHT_SPEC)
    if weight_spec:
        spec.update(weight_spec)
    if spec["voice_unit"] not in ("per-call", "per-second"):
        raise ValueError(f"unknown voice_unit {spec['voice_unit']!r}")
    c = ds.cdrs
    ids = c.subscriber_ids
    rows = ((c.kind == VOICE) | (c.kind == SMS)) & (c.callee >= 0) & (c.caller != c.callee)
    caller, callee, kind = c.caller[rows], c.callee[rows], c.kind[rows]
    # Codes sort like ids, so (low code, high code) is the pair in id order.
    key = np.minimum(caller, callee).astype(np.int64) * len(ids) + np.maximum(caller, callee)
    pairs, pair = np.unique(key, return_inverse=True)
    voice_w = c.magnitude[rows] if spec["voice_unit"] == "per-second" else 1.0
    weights = np.bincount(pair, weights=np.where(kind == VOICE, voice_w, float(spec["sms_weight"])),
                          minlength=len(pairs))
    first_month, last_month = month_index(np.array(ds.window) - (0, 1)).tolist()
    months = last_month - first_month + 1
    per_month = np.bincount(pair * months + (month_index(c.ts[rows]) - first_month),
                            minlength=len(pairs) * months).reshape(len(pairs), months)
    threshold = int(min_monthly_interactions)
    keep = (weights > 0) & ((per_month > threshold).all(axis=1) if threshold > 0 else True)

    g = SocialGraph()
    for node in np.flatnonzero(np.bincount(np.concatenate((caller, callee)), minlength=len(ids))).tolist():
        g.add_node(ids[node])
    for k, w in zip(pairs[keep].tolist(), weights[keep].tolist()):
        g.add_edge(ids[k // len(ids)], ids[k % len(ids)], w)
    return g.freeze()


def connected_components(g: SocialGraph, universe: set[str] | None = None) -> ComponentReport:
    """Exact components; isolates are universe nodes with no incident edge."""
    if universe is None:
        universe = g.nodes
    isolates = sum(1 for n in universe if not g.has_node(n) or g.degree(n) == 0)
    seen: set[str] = set()
    components: list[set[str]] = []
    for root in sorted(universe):
        if root in seen or not g.has_node(root) or g.degree(root) == 0:
            continue
        comp = {root}
        frontier = [root]
        seen.add(root)
        while frontier:
            u = frontier.pop()
            for v in g.neighbors(u):
                if v not in seen:
                    seen.add(v)
                    comp.add(v)
                    frontier.append(v)
        components.append(comp)
    components.sort(key=lambda c: (-len(c), min(c)))
    return ComponentReport(components, isolates, len(universe))


def eigenvector_centrality(g: SocialGraph, tol: float = 1e-10, max_iter: int = 10_000) -> dict[str, float]:
    """Principal eigenvector of the weighted adjacency, per component.

    Each component's score block has unit Euclidean norm and non-negative
    entries.  Power iteration runs on A/w_max + I: the shift guarantees
    convergence on bipartite components and the weight normalization makes
    the iterates, not just the limit, invariant to rescaling all weights.
    Isolated nodes and singleton components score 1.0.
    """
    scores: dict[str, float] = {}
    report = connected_components(g)
    for n in g.nodes:
        if g.degree(n) == 0:
            scores[n] = 1.0
    for comp in report.components:
        order = sorted(comp)
        index = {n: i for i, n in enumerate(order)}
        us, vs, ws = [], [], []
        for u in order:
            for v, w in g.neighbors(u).items():
                if u < v:
                    us.append(index[u])
                    vs.append(index[v])
                    ws.append(w)
        ui = np.asarray(us, dtype=np.int64)
        vi = np.asarray(vs, dtype=np.int64)
        wv = np.asarray(ws, dtype=np.float64)
        wv = wv / wv.max()
        n = len(order)
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
            raise RuntimeError(
                f"eigenvector centrality did not converge in {max_iter} iterations "
                f"(component size {n}, last residual {residual:.3e})"
            )
        for node, value in zip(order, x):
            scores[node] = float(value)
    return scores


def global_clustering_coefficient(g: SocialGraph) -> float:
    """3 x closed triangles over adjacent link pairs; 0 when no pairs exist."""
    pairs = adjacent_link_count(g)
    if pairs == 0:
        return 0.0
    closed = 0
    for u, v, _ in g.edges():
        nu = g.neighbors(u)
        nv = g.neighbors(v)
        if len(nu) > len(nv):
            nu, nv = nv, nu
        closed += sum(1 for x in nu if x in nv)
    return closed / pairs


def adjacent_link_count(g: SocialGraph) -> int:
    """Number of unordered pairs of edges sharing an endpoint: sum C(k_i, 2)."""
    return sum(d * (d - 1) for d in (g.degree(n) for n in g._adj)) // 2


def write_edges_csv(g: SocialGraph, path: str, header_comment: str | None = None) -> None:
    write_csv(path, ["u", "v", "w"], ([u, v, repr(float(w))] for u, v, w in g.edges()), header_comment)


def write_components_csv(report: ComponentReport, path: str, header_comment: str | None = None) -> None:
    rows = ([rank, len(comp)] for rank, comp in enumerate(report.components, start=1))
    write_csv(path, ["component_rank", "size"], rows, header_comment)
