import math

import numpy as np
import pytest

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


# -- SocialGraph container ---------------------------------------------------

def test_graph_construction_rules():
    g = sg.SocialGraph()
    g.add_edge("a", "b", 2.0)
    with pytest.raises(ValueError, match="self-loop"):
        g.add_edge("a", "a")
    with pytest.raises(ValueError, match="positive"):
        g.add_edge("a", "c", 0.0)
    g.freeze()
    with pytest.raises(RuntimeError, match="frozen"):
        g.add_node("z")
    with pytest.raises(RuntimeError, match="frozen"):
        g.add_edge("a", "c", 1.0)


def test_edges_are_canonical_and_sorted():
    g = graph_from([("c", "b", 1.0), ("b", "a", 2.0), ("c", "a", 3.0)])
    assert list(g.edges()) == [("a", "b", 2.0), ("a", "c", 3.0), ("b", "c", 1.0)]
    assert g.edge_count() == 3 and g.node_count() == 3
    assert g.weight("c", "a") == 3.0 and g.has_edge("a", "c")


def test_add_edge_overwrites_weight():
    g = sg.SocialGraph()
    g.add_edge("a", "b", 1.0)
    g.add_edge("b", "a", 5.0)
    assert g.weight("a", "b") == 5.0 and g.edge_count() == 1


def test_index_arrays_match_edges():
    g = graph_from([("a", "b", 2.0), ("b", "c", 4.0)], nodes=["z"])
    nodes, ui, vi, w = g.index_arrays()
    assert nodes == ["a", "b", "c", "z"]
    rebuilt = [(nodes[i], nodes[j], x) for i, j, x in zip(ui, vi, w)]
    assert rebuilt == list(g.edges())


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
    assert {(u, v) for u, v, _ in g.edges()} == {("C", "D")}
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
    assert g.has_edge("A", "B") and g.weight("A", "B") == 120.0


def test_build_graph_weights_and_modes():
    cdrs = [
        voice("A", "B", "T1", T0 + 100, 120),
        voice("A", "B", "T1", T0 + 200, 60),
        sms("A", "B", "T1", T0 + 300),
        sms("A", "B", "T1", T0 + 400),
    ]
    ds = make_dataset(cdrs, window=(T0, T0 + DAY))
    g = sg.build_graph(ds, min_monthly_interactions=3)
    assert g.weight("A", "B") == 120 + 60 + 60 + 60  # per-second voice, sms=60
    g2 = sg.build_graph(
        ds, weight_spec={"voice_unit": "per-call", "sms_weight": 1.0},
        min_monthly_interactions=3,
    )
    assert g2.weight("A", "B") == 1 + 1 + 1 + 1


def test_build_graph_ignores_data_and_selfcalls():
    cdrs = [
        voice("A", "A", "T1", T0 + 100, 30),     # self-call dropped
        data("A", "T1", T0 + 200),               # no counterpart: no edge
    ] + month_calls(("A", "B"), T0 + 1000, 4)
    ds = make_dataset(cdrs, window=(T0, T0 + DAY))
    g = sg.build_graph(ds, min_monthly_interactions=3)
    assert g.weight("A", "B") == 120.0
    assert not g.has_node("T1") and "A" in g.nodes


def test_build_graph_validates_inputs():
    ds = make_dataset([voice("A", "B", "T1", T0 + 100, 30)], window=(T0, T0 + DAY))
    with pytest.raises(ValueError, match="voice_unit"):
        sg.build_graph(ds, weight_spec={"voice_unit": "per-minute"})


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
    g = graph_from([("a", "b"), ("b", "c"), ("x", "y")], nodes=["lone"])
    rep = sg.connected_components(g, universe=g.nodes | {"ghost"})
    assert rep.components == [{"a", "b", "c"}, {"x", "y"}]
    assert rep.isolate_count == 2  # lone and ghost
    assert rep.universe_size == 7


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


# -- eigenvector centrality ----------------------------------------------------

def dense_evc(g):
    """Principal eigenvector per component from a dense symmetric eigensolver."""
    scores = {n: 1.0 for n in g.nodes if g.degree(n) == 0}
    for comp in sg.connected_components(g).components:
        order = sorted(comp)
        idx = {n: i for i, n in enumerate(order)}
        A = np.zeros((len(order), len(order)))
        for u in order:
            for v, w in g.neighbors(u).items():
                A[idx[u], idx[v]] = w
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
