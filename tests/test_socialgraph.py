import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdrlab import socialgraph as sg

from conftest import (
    T0,
    DAY,
    data,
    graph_from,
    make_dataset,
    random_connected_graph,
    random_graph,
    sms,
    voice,
)
from graph_oracle import subgraph_clustering


# -- SocialGraph container ---------------------------------------------------

def test_graph_construction_rules():
    with pytest.raises(ValueError, match="self-loop"):
        sg.SocialGraph.from_edges([("a", "b", 2.0), ("a", "a")])
    with pytest.raises(ValueError, match="positive"):
        sg.SocialGraph.from_edges([("a", "b", 2.0), ("a", "c", 0.0)])


def test_edges_are_canonical_and_sorted():
    g = graph_from([("c", "b", 1.0), ("b", "a", 2.0), ("c", "a", 3.0)])
    assert list(g.edges()) == [("a", "b", 2.0), ("a", "c", 3.0), ("b", "c", 1.0)]
    assert g.edge_count() == 3 and g.node_count() == 3


def test_add_edge_overwrites_weight():
    g = sg.SocialGraph.from_edges([("a", "b", 1.0), ("b", "a", 5.0)])
    assert list(g.edges()) == [("a", "b", 5.0)]


def test_arrays_match_edges():
    g = graph_from([("c", "b", 4.0), ("a", "b", 2.0)], nodes=["z"])
    assert g.sorted_nodes() == ["a", "b", "c", "z"]
    rebuilt = [(g.ids[i], g.ids[j], x) for i, j, x in zip(g.u.tolist(), g.v.tolist(), g.w.tolist())]
    assert rebuilt == list(g.edges()) == [("a", "b", 2.0), ("b", "c", 4.0)]
    assert g.u.dtype == g.v.dtype == np.int64 and g.w.dtype == np.float64
    # CSR over both directions, neighbours ascending
    assert g.offsets.tolist() == [0, 1, 3, 4, 4]
    assert g.nbrs.tolist() == [1, 0, 2, 1]
    assert g.degrees().tolist() == [1, 2, 1, 0]
    assert g.index(["c", "zz", "a"]).tolist() == [2, -1, 0]
    sub = g.induced(np.array([False, True, True, True]))
    assert list(sub.edges()) == [("b", "c", 4.0)] and sub.sorted_nodes() == ["b", "c", "z"]


def edge_weights(g):
    return {(u, v): w for u, v, w in g.edges()}


# -- build_graph -------------------------------------------------------------

def month_calls(pair, month_start, n, tower="T1"):
    u, v = pair
    return [voice(u, v, tower, month_start + i * 3600, 30) for i in range(n)]


def test_build_graph_requires_strictly_more_than_threshold_every_month():
    june = T0 + 31 * DAY
    window = (T0, june + 30 * DAY)  # May + June 2016
    cdrs = (
        month_calls(("A", "B"), T0, 4)              # May only
        + month_calls(("C", "D"), T0, 4)
        + month_calls(("C", "D"), june, 4)          # both months
        + month_calls(("E", "F"), T0, 3)
        + month_calls(("E", "F"), june, 3)          # exactly threshold: excluded
    )
    ds = make_dataset(cdrs, window=window)
    g = sg.build_graph(ds, min_monthly_interactions=3)
    assert edge_weights(g).keys() == {("C", "D")}
    # nodes that communicated stay in the graph even without surviving edges
    assert g.nodes == {"A", "B", "C", "D", "E", "F"}

    g0 = sg.build_graph(ds, min_monthly_interactions=0)
    assert {(u, v) for u, v, _ in g0.edges()} == {("A", "B"), ("C", "D"), ("E", "F")}


def test_build_graph_combines_directions():
    cdrs = [
        voice("A", "B", "T1", T0 + 100, 30),
        voice("B", "A", "T1", T0 + 200, 30),
        voice("A", "B", "T1", T0 + 300, 30),
        voice("B", "A", "T1", T0 + 400, 30),
    ]
    ds = make_dataset(cdrs, window=(T0, T0 + DAY))
    g = sg.build_graph(ds, min_monthly_interactions=3)
    assert edge_weights(g) == {("A", "B"): 120.0}


def test_build_graph_weights_and_modes():
    cdrs = [
        voice("A", "B", "T1", T0 + 100, 120),
        voice("A", "B", "T1", T0 + 200, 60),
        sms("A", "B", "T1", T0 + 300),
        sms("A", "B", "T1", T0 + 400),
    ]
    ds = make_dataset(cdrs, window=(T0, T0 + DAY))
    g = sg.build_graph(ds, min_monthly_interactions=3)
    assert edge_weights(g) == {("A", "B"): 120 + 60 + 60 + 60}  # per-second voice, sms=60
    g2 = sg.build_graph(ds, sms_weight=1.0, min_monthly_interactions=3)
    assert edge_weights(g2) == {("A", "B"): 120 + 60 + 1 + 1}


def test_build_graph_ignores_data_and_selfcalls():
    cdrs = [
        voice("A", "A", "T1", T0 + 100, 30),     # self-call dropped
        data("A", "T1", T0 + 200),               # no counterpart: no edge
    ] + month_calls(("A", "B"), T0 + 1000, 4)
    ds = make_dataset(cdrs, window=(T0, T0 + DAY))
    g = sg.build_graph(ds, min_monthly_interactions=3)
    assert edge_weights(g) == {("A", "B"): 120.0}
    assert g.nodes == {"A", "B"}


def test_build_graph_is_order_independent():
    rng = np.random.default_rng(7)
    cdrs = []
    subs = [f"S{i}" for i in range(12)]
    for _ in range(300):
        a, b = rng.choice(len(subs), size=2, replace=False)
        cdrs.append(voice(subs[a], subs[b], "T1", T0 + int(rng.integers(0, DAY)), 30))
    ds1 = make_dataset(sorted(cdrs, key=lambda r: (r.caller, r.timestamp)), window=(T0, T0 + DAY))
    ds2 = make_dataset(cdrs[::-1], window=(T0, T0 + DAY))
    g1 = sg.build_graph(ds1, min_monthly_interactions=1)
    g2 = sg.build_graph(ds2, min_monthly_interactions=1)
    assert list(g1.edges()) == list(g2.edges())


# -- connected components ------------------------------------------------------

def union_find_groups(g):
    parent = {n: n for n in g.nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v, _ in g.edges():
        parent[find(u)] = find(v)
    groups: dict[str, set[str]] = {}
    for n in g.nodes:
        groups.setdefault(find(n), set()).add(n)
    return list(groups.values())


def test_components_hand_case():
    g = graph_from([("a", "b"), ("b", "c"), ("x", "y")], nodes=["lone", "ghost"])
    rep = sg.connected_components(g)
    assert rep.components == [{"a", "b", "c"}, {"x", "y"}]
    assert rep.isolate_count == 2  # lone and ghost


def test_components_sorted_by_size_then_min_label():
    g = graph_from([("b1", "b2"), ("a1", "a2")])
    rep = sg.connected_components(g)
    assert rep.components == [{"a1", "a2"}, {"b1", "b2"}]


def test_components_match_union_find_on_random_graphs():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, 40, 0.05)
        rep = sg.connected_components(g)
        oracle = [c for c in union_find_groups(g) if len(c) > 1]
        canon = lambda comps: sorted(tuple(sorted(c)) for c in comps)
        assert canon(rep.components) == canon(oracle)
        assert rep.isolate_count == sum(1 for c in union_find_groups(g) if len(c) == 1)


def test_components_of_a_shuffled_long_path():
    rng = np.random.default_rng(5)
    names = [f"p{i:04d}" for i in rng.permutation(600)]
    g = graph_from(list(zip(names, names[1:])) + [("x", "y")], nodes=["iso"])
    rep = sg.connected_components(g)
    assert rep.components == [set(names), {"x", "y"}] and rep.isolate_count == 1


# -- eigenvector centrality ----------------------------------------------------

def dense_evc(g):
    """Principal eigenvector per component from a dense symmetric eigensolver."""
    scores = {n: 1.0 for n in g.nodes}
    for comp in sg.connected_components(g).components:
        order = sorted(comp)
        idx = {n: i for i, n in enumerate(order)}
        A = np.zeros((len(order), len(order)))
        for u, v, w in g.edges():
            if u in idx:
                A[idx[u], idx[v]] = A[idx[v], idx[u]] = w
        vec = np.linalg.eigh(A)[1][:, -1]
        vec = np.abs(vec) / np.linalg.norm(vec)
        scores.update(zip(order, map(float, vec)))
    return scores


def test_evc_complete_graph_is_uniform():
    g = graph_from([(f"n{i}", f"n{j}") for i in range(4) for j in range(i + 1, 4)])
    scores = sg.eigenvector_centrality(g)
    for v in scores.values():
        assert v == pytest.approx(0.5, abs=1e-10)


def test_evc_star_and_single_edge():
    star = graph_from([("hub", f"leaf{i}") for i in range(4)])
    scores = sg.eigenvector_centrality(star)
    assert scores["hub"] == pytest.approx(1 / math.sqrt(2), abs=1e-9)
    for i in range(4):
        assert scores[f"leaf{i}"] == pytest.approx(1 / math.sqrt(8), abs=1e-9)
    # a single edge is bipartite; the shift keeps power iteration convergent
    pair = graph_from([("a", "b")])
    s = sg.eigenvector_centrality(pair)
    assert s["a"] == pytest.approx(1 / math.sqrt(2), abs=1e-10)


def test_evc_matches_dense_eigensolver():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, 30, extra=0.08, weighted=True)
        got = sg.eigenvector_centrality(g)
        want = dense_evc(g)
        assert got.keys() == want.keys()
        for n in want:
            assert got[n] == pytest.approx(want[n], abs=1e-8)


def test_evc_isolates_score_one_and_weight_scale_invariance():
    g = graph_from([("a", "b", 2.0), ("b", "c", 1.0)], nodes=["iso"])
    scores = sg.eigenvector_centrality(g)
    assert scores["iso"] == 1.0
    scaled = graph_from([("a", "b", 14.0), ("b", "c", 7.0)], nodes=["iso"])
    scores7 = sg.eigenvector_centrality(scaled)
    for n in scores:
        assert scores7[n] == pytest.approx(scores[n], abs=1e-12)


def test_evc_falls_back_to_dense_solver_when_iteration_stalls():
    for seed in range(6):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, 40, extra=0.08, weighted=seed % 2 == 1)
        got = sg.eigenvector_centrality(g, max_iter=5)
        want = dense_evc(g)
        for n in want:
            assert got[n] == pytest.approx(want[n], abs=1e-8)


def near_tie_graph():
    """Two five-cliques, one a hair lighter, joined by one light edge."""
    a = [(f"a{i}", f"a{j}", 1.0) for i in range(5) for j in range(i + 1, 5)]
    b = [(f"b{i}", f"b{j}", 1.0 - 1e-6) for i in range(5) for j in range(i + 1, 5)]
    return graph_from(a + b + [("a0", "b0", 1e-6)], nodes=["iso"])


def test_evc_near_tie_stalls_then_matches_dense_oracle(monkeypatch):
    g = near_tie_graph()
    scores = sg.eigenvector_centrality(g)
    want = dense_evc(g)
    assert scores.keys() == want.keys() and scores["iso"] == 1.0
    for n in want:
        assert scores[n] == pytest.approx(want[n], abs=1e-8)
    # above the dense cap the stall is still an error
    monkeypatch.setattr(sg, "DENSE_EVC_MAX_NODES", 9)
    with pytest.raises(RuntimeError, match="did not converge in 10000 iterations"):
        sg.eigenvector_centrality(g)


# -- clustering and adjacent pairs ----------------------------------------------

def brute_adjacent_pairs(g):
    E = [frozenset((u, v)) for u, v, _ in g.edges()]
    return sum(
        1
        for i in range(len(E))
        for j in range(i + 1, len(E))
        if E[i] & E[j]
    )


def test_clustering_hand_cases():
    triangle = graph_from([("a", "b"), ("b", "c"), ("a", "c")])
    assert sg.global_clustering_coefficient(triangle) == 1.0
    path = graph_from([("a", "b"), ("b", "c")])
    assert sg.global_clustering_coefficient(path) == 0.0
    paw = graph_from([("a", "b"), ("b", "c"), ("a", "c"), ("a", "d")])
    assert sg.global_clustering_coefficient(paw) == pytest.approx(3 / 5)
    empty = graph_from([], nodes=["a", "b"])
    assert sg.global_clustering_coefficient(empty) == 0.0


@st.composite
def simple_graphs(draw):
    """(n, edges): distinct non-loop index pairs in random order and orientation."""
    n = draw(st.integers(1, 14))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=60))
    edges = sorted({(min(a, b), max(a, b)) for a, b in pairs if a != b})
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    edges = [(b, a) if flip else (a, b) for (a, b), flip in zip(edges, flips)]
    return n, draw(st.permutations(edges))


def assert_kernel_matches_oracle(n, edges):
    u = np.array([a for a, _ in edges], dtype=np.int64)
    v = np.array([b for _, b in edges], dtype=np.int64)
    closed, adjacent = sg.triangle_counts(u, v, n)
    assert (closed.tolist(), adjacent.tolist()) == tuple([x] for x in subgraph_clustering(edges))


@settings(max_examples=300, deadline=None)
@given(simple_graphs())
def test_triangle_counts_match_set_oracle(graph):
    assert_kernel_matches_oracle(*graph)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 14), st.lists(simple_graphs(), min_size=1, max_size=5), st.randoms())
def test_triangle_counts_per_copy_of_disjoint_union(n, graphs, random):
    # each graph is one copy, its nodes offset by copy * n; edges come shuffled
    edges = [(a + c * n, b + c * n) for c, (_, es) in enumerate(graphs) for a, b in es if max(a, b) < n]
    random.shuffle(edges)
    u = np.array([a for a, _ in edges], dtype=np.int64)
    v = np.array([b for _, b in edges], dtype=np.int64)
    closed, adjacent = sg.triangle_counts(u, v, n, copies=len(graphs))
    expected = [subgraph_clustering([(a, b) for a, b in es if max(a, b) < n]) for _, es in graphs]
    assert list(zip(closed.tolist(), adjacent.tolist())) == expected


@pytest.mark.parametrize("n, edges", [
    (3, []),                                                            # empty
    (7, [(0, i) for i in range(1, 7)]),                                 # star
    (6, [(i, j) for i in range(6) for j in range(i + 1, 6)]),          # complete
    (9, [(0, 1), (1, 2), (2, 0), (3, 4), (5, 4), (3, 5), (6, 7), (8, 7), (8, 6)]),  # disjoint triangles
])
def test_triangle_counts_hand_graphs(n, edges):
    assert_kernel_matches_oracle(n, edges)


def test_adjacent_link_count_matches_brute_force():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, 25, 0.12)
        assert sg.adjacent_link_count(g) == brute_adjacent_pairs(g)


def test_writers(tmp_path):
    g = graph_from([("a", "b", 2.5), ("b", "c", 1.0)])
    edges_path = tmp_path / "edges.csv"
    sg.write_edges_csv(g, str(edges_path), header_comment="# hdr")
    lines = edges_path.read_text().splitlines()
    assert lines[0] == "# hdr" and lines[1] == "u,v,w"
    assert lines[2] == "a,b,2.5"
    comp_path = tmp_path / "comp.csv"
    sg.write_components_csv(sg.connected_components(g), str(comp_path))
    assert comp_path.read_text().splitlines()[1] == "1,3"
