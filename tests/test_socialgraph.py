import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdrlab import socialgraph as sg
from cdrlab.records import days_from_civil

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
from graph_oracle import month_index, subgraph_clustering, union_find_groups


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
    assert g.ids == ("a", "b", "c", "z")
    rebuilt = [(g.ids[i], g.ids[j], x) for i, j, x in zip(g.u.tolist(), g.v.tolist(), g.w.tolist())]
    assert rebuilt == list(g.edges()) == [("a", "b", 2.0), ("b", "c", 4.0)]
    assert g.u.dtype == g.v.dtype == np.int64 and g.w.dtype == np.float64
    assert g.degrees().tolist() == [1, 2, 1, 0]
    assert g.index(["c", "zz", "a"]).tolist() == [2, -1, 0]


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
    assert g.ids == ("A", "B", "C", "D", "E", "F")

    g0 = sg.build_graph(ds, min_monthly_interactions=0)
    assert {(u, v) for u, v, _ in g0.edges()} == {("A", "B"), ("C", "D"), ("E", "F")}


def month_start(month: int) -> int:
    """Epoch seconds of the first instant of a year * 12 + (month - 1) index."""
    return int(days_from_civil(month // 12, month % 12 + 1, 1)) * DAY


# Instants anywhere from 1811 to 2128, and within two days of a month start from
# 1600 to 2400, where year ends, leap Februaries and the 100/400-year rules sit.
INSTANTS = st.one_of(st.integers(-5 * 10**9, 5 * 10**9),
                     st.builds(lambda m, off: month_start(m) + off, st.integers(1600 * 12, 2400 * 12),
                               st.integers(-2 * DAY, 2 * DAY)))


@settings(max_examples=300, deadline=None)
@given(start=INSTANTS, width=st.one_of(st.integers(1, 3 * DAY), st.integers(1, 400 * DAY),
                                       st.integers(1, 40 * 366 * DAY)),
       on_month_start=st.booleans(), data=st.data())
@example(start=T0 - 1, width=1, on_month_start=False, data=None)  # one second, the last of April 2016
@example(start=T0, width=92 * DAY, on_month_start=False, data=None)  # May, June and July 2016 exactly
def test_month_positions_match_month_index(start, width, on_month_start, data):
    end = start + width
    if on_month_start:  # the window ends exactly where a month starts
        end = month_start(int(month_index(end)) + 1)
    ts = [start, end - 1] + (data.draw(st.lists(st.integers(start, end - 1), max_size=40)) if data else [])
    months, got = sg._month_positions((start, end), np.array(ts, dtype=np.int64))
    first, last = month_index(np.array([start, end - 1])).tolist()
    assert months == last - first + 1
    assert got.tolist() == (month_index(np.array(ts)) - first).tolist()


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
    assert g.ids == ("A", "B")


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

def label_partition(g):
    """The components that `_component_labels` gives, as a set of frozensets of ids."""
    groups: dict[int, set[str]] = {}
    for name, label in zip(g.ids, sg._component_labels(g.node_count(), g.u, g.v).tolist()):
        groups.setdefault(label, set()).add(name)
    return {frozenset(c) for c in groups.values()}


def assert_components_match_union_find(g):
    oracle = union_find_groups(g)
    rep = sg.connected_components(g)
    assert rep.sizes == sorted((len(c) for c in oracle if len(c) > 1), reverse=True)
    assert rep.isolate_count == sum(1 for c in oracle if len(c) == 1)
    assert label_partition(g) == {frozenset(c) for c in oracle}
    return rep


def test_components_hand_case():
    g = graph_from([("a", "b"), ("b", "c"), ("x", "y")], nodes=["lone", "ghost"])
    rep = assert_components_match_union_find(g)
    assert rep.sizes == [3, 2]
    assert rep.isolate_count == 2  # lone and ghost
    assert label_partition(g) == {frozenset("abc"), frozenset("xy"), frozenset({"lone"}), frozenset({"ghost"})}


def test_component_sizes_sorted_largest_first():
    # the component holding the smallest id is the smaller one
    g = graph_from([("b1", "b2"), ("b2", "b3"), ("a1", "a2"), ("c1", "c2")])
    assert sg.connected_components(g).sizes == [3, 2, 2]


def test_components_match_union_find_on_random_graphs():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        assert_components_match_union_find(random_graph(rng, 40, 0.05))


def test_components_of_a_shuffled_long_path():
    rng = np.random.default_rng(5)
    names = [f"p{i:04d}" for i in rng.permutation(600)]
    g = graph_from(list(zip(names, names[1:])) + [("x", "y")], nodes=["iso"])
    rep = assert_components_match_union_find(g)
    assert rep.sizes == [600, 2] and rep.isolate_count == 1
    assert frozenset(names) in label_partition(g)


# -- eigenvector centrality ----------------------------------------------------

def dense_evc(g):
    """Principal eigenvector per component from a dense symmetric eigensolver."""
    scores = {n: 1.0 for n in g.ids}
    for comp in (c for c in union_find_groups(g) if len(c) > 1):
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


def evc(g):
    """eigenvector_centrality's scores by node id."""
    scores = sg.eigenvector_centrality(g)
    assert scores.dtype == np.float64 and scores.shape == (g.node_count(),)
    return dict(zip(g.ids, scores.tolist()))


def test_evc_complete_graph_is_uniform():
    g = graph_from([(f"n{i}", f"n{j}") for i in range(4) for j in range(i + 1, 4)])
    scores = evc(g)
    for v in scores.values():
        assert v == pytest.approx(0.5, abs=1e-10)


def test_evc_star_and_single_edge():
    star = graph_from([("hub", f"leaf{i}") for i in range(4)])
    scores = evc(star)
    assert scores["hub"] == pytest.approx(1 / math.sqrt(2), abs=1e-9)
    for i in range(4):
        assert scores[f"leaf{i}"] == pytest.approx(1 / math.sqrt(8), abs=1e-9)
    # a single edge is bipartite: its eigenvalues are +1 and -1
    pair = graph_from([("a", "b")])
    s = evc(pair)
    assert s["a"] == pytest.approx(1 / math.sqrt(2), abs=1e-10)


def test_evc_matches_dense_eigensolver():
    graphs = [random_connected_graph(np.random.default_rng(seed), 30, extra=0.08, weighted=True) for seed in range(5)]
    graphs += [random_connected_graph(np.random.default_rng(seed), 40, extra=0.08, weighted=seed % 2 == 1)
               for seed in range(6)]
    for g in graphs:
        got = evc(g)
        want = dense_evc(g)
        assert got.keys() == want.keys()
        for n in want:
            assert got[n] == pytest.approx(want[n], abs=1e-8)


def test_evc_isolates_score_one_and_weight_scale_invariance():
    g = graph_from([("a", "b", 2.0), ("b", "c", 1.0)], nodes=["iso"])
    scores = evc(g)
    assert scores["iso"] == 1.0
    scaled = graph_from([("a", "b", 14.0), ("b", "c", 7.0)], nodes=["iso"])
    scores7 = evc(scaled)
    for n in scores:
        assert scores7[n] == pytest.approx(scores[n], abs=1e-12)


def near_tie_graph():
    """Two five-cliques, one a hair lighter, joined by one light edge."""
    a = [(f"a{i}", f"a{j}", 1.0) for i in range(5) for j in range(i + 1, 5)]
    b = [(f"b{i}", f"b{j}", 1.0 - 1e-6) for i in range(5) for j in range(i + 1, 5)]
    return graph_from(a + b + [("a0", "b0", 1e-6)], nodes=["iso"])


def test_evc_near_tie_stalls_then_matches_dense_oracle(monkeypatch):
    g = near_tie_graph()
    scores = evc(g)
    want = dense_evc(g)
    assert scores.keys() == want.keys() and scores["iso"] == 1.0
    for n in want:
        assert scores[n] == pytest.approx(want[n], abs=1e-8)
    # the 10-node component needs 4 Lanczos steps; a cap of 3 is an error naming its size and last residual
    monkeypatch.setattr(sg, "EVC_MAX_ITER", 3)
    with pytest.raises(RuntimeError, match=r"did not converge in 3 Lanczos steps \(component size 10, "
                                           r"last Ritz residual \d\.\d{3}e[-+]\d+\)") as err:
        sg.eigenvector_centrality(g)
    assert float(str(err.value).rsplit(" ", 1)[1].rstrip(")")) > sg.EVC_TOL


def test_evc_converges_on_a_long_path_above_the_dense_cap():
    # The spectral gap of a path shrinks like 1/n^2; its top eigenvector is sin(pi i / (n + 1)), i = 1..n.
    # From the uniform start, Lanczos stays in the n / 2 dimensions symmetric about the middle.
    n = 2500
    g = sg.SocialGraph.from_edges((f"n{i:04d}", f"n{i + 1:04d}") for i in range(n - 1))
    scores = evc(g)
    want = np.sin(np.pi * np.arange(1, n + 1) / (n + 1))
    want /= np.linalg.norm(want)
    assert [scores[f"n{i:04d}"] for i in range(n)] == pytest.approx(want.tolist(), abs=1e-8)


def test_evc_on_a_long_path_with_uneven_weights_matches_dense_eigensolver():
    n = 3000
    w = np.random.default_rng(9).uniform(1, 600, n - 1)
    g = sg.SocialGraph([f"n{i:04d}" for i in range(n)], np.arange(n - 1), np.arange(1, n), w)
    a = np.diag(w, 1)
    want = np.abs(np.linalg.eigh(a + a.T)[1][:, -1])
    assert sg.eigenvector_centrality(g) == pytest.approx(want / np.linalg.norm(want), abs=1e-8)


# The sha256 of the scores' repr on a 12,000-node connected graph: a spanning path plus 3n random pairs, weights
# uniform in 1 to 600.
EVC_DIGEST = """import hashlib
import numpy as np
from cdrlab import socialgraph as sg
n = 12_000
rng = np.random.default_rng(36)
a = np.concatenate((np.arange(n - 1), rng.integers(0, n, 3 * n)))
b = np.concatenate((np.arange(1, n), rng.integers(0, n, 3 * n)))
pair = np.unique(np.minimum(a, b)[a != b] * n + np.maximum(a, b)[a != b])
g = sg.SocialGraph([f"n{i:05d}" for i in range(n)], pair // n, pair % n, rng.uniform(1, 600, len(pair)))
print(hashlib.sha256(repr(sg.eigenvector_centrality(g).tolist()).encode()).hexdigest())
"""


def test_evc_bytes_do_not_depend_on_the_blas_thread_count():
    # OpenBLAS splits a long dot product or norm across its threads, which changes how it rounds
    src = os.path.dirname(os.path.dirname(sg.__file__))
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        done = subprocess.run([sys.executable, "-c", EVC_DIGEST], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout)
    assert digests[0] == digests[1]


@st.composite
def component_unions(draw):
    """A weighted graph of 1 to 4 components of 2 to 9 nodes, some bipartite, and 0 to 2 isolates."""
    edges = []
    for c in range(draw(st.integers(1, 4))):
        n = draw(st.integers(2, 9))
        # a bipartite component joins odd to even nodes only
        ok = (lambda a, b: (a - b) % 2 == 1) if draw(st.booleans()) else (lambda a, b: True)
        pairs = {(draw(st.sampled_from([a for a in range(b) if ok(a, b)])), b) for b in range(1, n)}  # a tree
        pairs |= {(a, b) for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
                  if a < b and ok(a, b)}
        weight = st.sampled_from([1.0, 2.5]) if draw(st.booleans()) else st.floats(0.01, 600)
        edges += [(f"c{c}n{a}", f"c{c}n{b}", draw(weight)) for a, b in sorted(pairs)]
    return graph_from(edges, nodes=[f"iso{i}" for i in range(draw(st.integers(0, 2)))])


@settings(max_examples=150, deadline=None)
@given(component_unions())
def test_evc_matches_dense_eigensolver_on_several_components(g):
    got, want = evc(g), dense_evc(g)
    assert got.keys() == want.keys()
    for n in want:
        assert got[n] == pytest.approx(want[n], abs=1e-8)


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
    # (3 x closed triangles, adjacent link pairs), and their ratio, the graph's clustering coefficient
    for edges, nodes, counts, coefficient in [
        ([("a", "b"), ("b", "c"), ("a", "c")], (), (3, 3), 1.0),  # triangle
        ([("a", "b"), ("b", "c")], (), (0, 1), 0.0),  # path
        ([("a", "b"), ("b", "c"), ("a", "c"), ("a", "d")], (), (3, 5), 3 / 5),  # paw
        ([], ("a", "b"), (0, 0), None),  # no adjacent pairs: no coefficient
    ]:
        g = graph_from(edges, nodes=nodes)
        closed, adjacent = sg.triangle_counts(g.u, g.v, g.node_count())
        assert (int(closed[0]), int(adjacent[0])) == counts
        assert (int(closed[0]) / int(adjacent[0]) if adjacent[0] else None) == coefficient


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
        assert sg.triangle_counts(g.u, g.v, g.node_count())[1].tolist() == [brute_adjacent_pairs(g)]


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
