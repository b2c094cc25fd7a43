import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdrlab import adoption as ad
from cdrlab import socialgraph as sg

import curve_oracle
import graph_oracle
import stats_oracle
from conftest import graph_from, random_graph
from graph_oracle import subgraph_clustering
from stats_oracle import adopter_mask, edge_positions


def paw():
    return graph_from([("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")])


def evolution_rows(result):
    """component_evolution's adopters and fractions as the former list of dicts, one per snapshot."""
    adopters, fractions = result
    assert adopters.dtype == np.int64 and fractions.shape == (len(adopters), 4)
    names = ("frac_isolates", "frac_pairs", "frac_mid", "frac_monster")
    return [{"snapshot": i, "adopters": a, **dict(zip(names, row))}
            for i, (a, row) in enumerate(zip(adopters.tolist(), fractions.tolist()))]


def nan_as_none(values: np.ndarray) -> list:
    return [None if math.isnan(v) else v for v in values.tolist()]


# -- adoption networks ------------------------------------------------------------

def test_adoption_network_node_attribute():
    # the network of a, b and d is the edge a-b and the isolate d; c's edges leave it
    g = graph_from([("a", "b"), ("b", "c"), ("a", "c")], nodes=["d"])
    row, = evolution_rows(ad.component_evolution(g, adopter_mask(g, {"a", "b", "d"})[None]))
    assert row["adopters"] == 3
    assert (row["frac_isolates"], row["frac_pairs"], row["frac_mid"]) == (1 / 3, 2 / 3, 0.0)


def test_component_report_and_evolution_buckets():
    edges = [("a", "b"), ("b", "c"), ("d", "e")]
    g = graph_from(edges, nodes=["lone"])
    report = sg.connected_components(g)
    assert report.sizes == [3, 2]
    assert report.isolate_count == 1

    rows = evolution_rows(ad.component_evolution(g, adopter_mask(g, {"a", "b", "c", "d", "e", "lone"})[None]))
    row = rows[0]
    assert row["adopters"] == 6
    assert row["frac_isolates"] == pytest.approx(1 / 6)
    assert row["frac_pairs"] == pytest.approx(2 / 6)
    assert row["frac_mid"] == pytest.approx(3 / 6)
    assert row["frac_monster"] == 0.0
    # fractions partition the adopter set: isolates never leak into mid
    total = row["frac_isolates"] + row["frac_pairs"] + row["frac_mid"] + row["frac_monster"]
    assert total == pytest.approx(1.0)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), p=st.floats(0.0, 0.3),
       fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
@example(seed=0, n=12, p=0.2, fractions=[0.0])  # one mask, no adopters
@example(seed=1, n=12, p=0.2, fractions=[0.5])  # one mask, as --adopters without days gives
@example(seed=2, n=12, p=0.2, fractions=[0.0, 0.0, 1.0])
def test_component_evolution_matches_the_set_based_oracle(seed, n, p, fractions):
    # nested masks, as adoption days give: each snapshot's adopters include the former's
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n, p)
    masks = rng.random(n) < np.sort(fractions)[:, None]
    got = evolution_rows(ad.component_evolution(g, masks))
    assert got == graph_oracle.component_evolution(g, [{g.ids[i] for i in np.flatnonzero(m).tolist()} for m in masks])


def test_component_evolution_monster_bucket():
    chain = [(f"n{i:04d}", f"n{i + 1:04d}") for i in range(1001)]  # 1002-node path
    g = graph_from(chain + [("p1", "p2")])
    row = evolution_rows(ad.component_evolution(g, np.ones((1, g.node_count()), dtype=bool)))[0]
    assert [row] == graph_oracle.component_evolution(g, [g.ids])
    assert row["adopters"] == 1004
    assert row["frac_monster"] == pytest.approx(1002 / 1004)
    assert row["frac_pairs"] == pytest.approx(2 / 1004)
    assert row["frac_mid"] == 0.0


def test_component_evolution_mid_at_threshold_stays_mid():
    chain = [(f"n{i:04d}", f"n{i + 1:04d}") for i in range(999)]  # exactly 1000 nodes
    g = graph_from(chain)
    row = evolution_rows(ad.component_evolution(g, np.ones((1, g.node_count()), dtype=bool)))[0]
    assert row["frac_monster"] == 0.0 and row["frac_mid"] == 1.0


# -- node kappa ---------------------------------------------------------------------

def test_node_kappa_full_adoption_exact():
    g = graph_from([("a", "b"), ("b", "c"), ("a", "c")])
    res = ad.node_kappa(g, adopter_mask(g, {"a", "b", "c"}), replicates=50, seed=1)
    assert res == ad.KappaResult(1.0, 3, 3.0, 0.0, 0, (1.0, 1.0))


def test_node_kappa_error_cases():
    g = graph_from([("a", "b")], nodes=["c", "d", "e"])
    with pytest.raises(ValueError, match="empty adopter set"):
        ad.node_kappa(g, adopter_mask(g, set()))
    edgeless = graph_from([], nodes=["a", "b"])
    with pytest.raises(ValueError, match="no edges"):
        ad.node_kappa(edgeless, adopter_mask(edgeless, {"a", "b"}))
    # single adopter can never produce a B-link in any replicate
    with pytest.raises(ValueError, match="random_mean is zero"):
        ad.node_kappa(g, adopter_mask(g, {"a"}), replicates=20, seed=0)


def exhaustive_node_mean(g, m):
    totals = []
    for combo in itertools.combinations(g.ids, m):
        s = set(combo)
        totals.append(sum(1 for u, v, _ in g.edges() if u in s and v in s))
    return sum(totals) / len(totals), totals


def test_node_kappa_matches_exhaustive_null_on_path():
    g = graph_from([("n1", "n2"), ("n2", "n3"), ("n3", "n4"), ("n4", "n5")])
    mean, totals = exhaustive_node_mean(g, 3)
    assert mean == pytest.approx(1.2)  # hand-enumerated over C(5,3)=10 subsets
    res = ad.node_kappa(g, adopter_mask(g, {"n1", "n2", "n3"}), replicates=5000, seed=42)
    assert res.empirical_count == 2
    assert res.random_mean == pytest.approx(mean, abs=0.03)
    assert res.kappa == pytest.approx(2 / mean, rel=0.03)


def test_node_kappa_deterministic_per_seed():
    g = graph_from([(f"n{i}", f"n{(i + 1) % 12}") for i in range(12)])
    adopted = adopter_mask(g, {"n0", "n1", "n2", "n5"})
    a = ad.node_kappa(g, adopted, replicates=300, seed=7)
    b = ad.node_kappa(g, adopted, replicates=300, seed=7)
    assert a == b
    c = ad.node_kappa(g, adopted, replicates=300, seed=8)
    assert c != a


def test_kappa_ci_formula_is_frozen():
    g = graph_from([(f"n{i}", f"n{(i + 1) % 12}") for i in range(12)])
    r = ad.node_kappa(g, adopter_mask(g, {"n0", "n1", "n2", "n5"}), replicates=300, seed=7)
    s_eff = r.random_std * math.sqrt(1.0 + 1.0 / r.replicates)
    lo = max(0.0, (r.empirical_count - ad.Z95 * s_eff) / r.random_mean)
    hi = (r.empirical_count + ad.Z95 * s_eff) / r.random_mean
    assert r.ci95 == pytest.approx((lo, hi), abs=1e-12)
    assert r.ci95[0] >= 0.0


# -- link kappa ---------------------------------------------------------------------

def test_link_kappa_star_is_exactly_one():
    g = graph_from([("hub", f"l{i}") for i in range(4)])
    res = ad.link_kappa(g, edge_positions(g, [("hub", "l0"), ("hub", "l1")]), replicates=100, seed=3)
    # every 2-subset of star edges shares the hub: 1 adjacent pair always
    assert res.empirical_count == 1
    assert res.random_mean == 1.0
    assert res.kappa == 1.0 and res.random_std == 0.0
    assert res.ci95 == (1.0, 1.0)


def test_link_kappa_full_activation_exact():
    g = graph_from([("hub", f"l{i}") for i in range(4)])
    res = ad.link_kappa(g, np.arange(g.edge_count()), replicates=50)
    assert res == ad.KappaResult(1.0, 6, 6.0, 0.0, 0, (1.0, 1.0))
    matching = graph_from([("a", "b"), ("c", "d")])
    with pytest.raises(ValueError, match="no adjacent pairs"):
        ad.link_kappa(matching, np.arange(2))


def exhaustive_link_mean(g, m):
    edges = [(u, v) for u, v, _ in g.edges()]
    totals = []
    for combo in itertools.combinations(edges, m):
        deg = {}
        for u, v in combo:
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        totals.append(sum(d * (d - 1) for d in deg.values()) // 2)
    return sum(totals) / len(totals)


def test_link_kappa_matches_exhaustive_null():
    g = paw()
    mean = exhaustive_link_mean(g, 2)
    assert mean == pytest.approx(5 / 6)  # 5 of the 6 edge pairs touch
    res = ad.link_kappa(g, edge_positions(g, [("a", "b"), ("b", "c")]), replicates=5000, seed=11)
    assert res.empirical_count == 1
    assert res.random_mean == pytest.approx(mean, rel=0.02)


def test_link_kappa_validates_links():
    g = paw()
    with pytest.raises(ValueError, match="empty active-link set"):
        ad.link_kappa(g, edge_positions(g, []))


# -- clustering kappa ------------------------------------------------------------------

def test_clustering_kappa_full_activation():
    g = paw()
    res = ad.clustering_kappa(g, np.arange(g.edge_count()), replicates=50)
    assert res.kappa == 1.0 and res.empirical_count == pytest.approx(3 / 5)
    matching = graph_from([("a", "b"), ("c", "d")])
    with pytest.raises(ValueError, match="no adjacent pairs"):
        ad.clustering_kappa(matching, np.arange(2))


def test_clustering_kappa_excludes_pairless_replicates():
    # triangle plus two far-away matching edges: of the ten 3-edge draws,
    # three are fully disjoint (excluded), six are open paths (coeff 0), and
    # one is the triangle itself (coeff 1), so the valid-draw mean is 1/7
    g = graph_from([("a", "b"), ("b", "c"), ("a", "c"), ("p", "q"), ("x", "y")])
    active = edge_positions(g, [("a", "b"), ("b", "c"), ("p", "q")])
    res = ad.clustering_kappa(g, active, replicates=2000, seed=5)
    assert res.excluded_replicates > 0
    assert res.replicates == 2000 - res.excluded_replicates
    assert res.empirical_count == 0.0 and res.kappa == 0.0
    assert res.random_mean == pytest.approx(1 / 7, rel=0.15)

    # active triangle: clustering 1.0 vs null mean of defined replicates
    res2 = ad.clustering_kappa(g, edge_positions(g, [("a", "b"), ("b", "c"), ("a", "c")]), replicates=2000, seed=5)
    assert res2.empirical_count == 1.0
    assert res2.kappa == pytest.approx(1.0 / res2.random_mean)


def test_clustering_kappa_all_replicates_excluded():
    g = graph_from([("a", "b"), ("c", "d"), ("e", "f")])
    with pytest.raises(ValueError, match="no replicate produced adjacent pairs"):
        ad.clustering_kappa(g, edge_positions(g, [("a", "b"), ("c", "d")]), replicates=30, seed=2)


def exhaustive_clustering_mean(g, m):
    edges = list(zip(g.u.tolist(), g.v.tolist()))
    vals = []
    for combo in itertools.combinations(range(len(edges)), m):
        closed, adjacent = subgraph_clustering([edges[i] for i in combo])
        if adjacent:
            vals.append(closed / adjacent)
    return sum(vals) / len(vals)


def test_clustering_kappa_matches_exhaustive_null():
    g = graph_from([("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"), ("d", "e")])
    mean = exhaustive_clustering_mean(g, 3)
    res = ad.clustering_kappa(g, edge_positions(g, [("a", "b"), ("b", "c"), ("a", "c")]), replicates=6000, seed=13)
    assert res.random_mean == pytest.approx(mean, rel=0.05)
    assert res.empirical_count == 1.0


# -- block replicates against the per-replicate oracle ------------------------------

KAPPAS = (
    (ad.node_kappa, stats_oracle.node_kappa, "adopters"),
    (ad.link_kappa, stats_oracle.link_kappa, "links"),
    (ad.clustering_kappa, stats_oracle.clustering_kappa, "links"),
)


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return f"ValueError: {exc}"


@st.composite
def kappa_cases(draw):
    """(graph, adopters, active links, block rows, replicates, seed)."""
    n = draw(st.integers(2, 12))
    names = [f"n{i:02d}" for i in range(n)]
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), min_size=1, max_size=30))
    edges = sorted({(names[min(a, b)], names[max(a, b)]) for a, b in pairs if a != b})
    if not edges:
        edges = [(names[0], names[1])]
    g = graph_from(edges, nodes=names)
    adopters = draw(st.sets(st.sampled_from(names), min_size=1))
    links = draw(st.lists(st.sampled_from(edges), min_size=1, unique=True))
    rows = draw(st.integers(1, 4))
    replicates = draw(st.sampled_from([rows - 1, rows, rows + 1, 2 * rows + 1]).filter(lambda r: r >= 1))
    return g, adopters, links, rows, replicates, draw(st.integers(0, 2**130))


@settings(max_examples=150, deadline=None)
@given(kappa_cases())
def test_block_kappa_matches_per_replicate_oracle(case):
    g, adopters, links, rows, replicates, seed = case
    with pytest.MonkeyPatch.context() as mp:
        # blocks of `rows` replicates, so block edges fall inside the draw
        mp.setattr(ad, "BLOCK_CELLS", rows * max(g.node_count(), g.edge_count()))
        for fast, oracle, what in KAPPAS:
            arg = adopter_mask(g, adopters) if what == "adopters" else edge_positions(g, links)
            assert outcome(fast, g, arg, replicates=replicates, seed=seed) == \
                outcome(oracle, g, arg, replicates=replicates, seed=seed)


def test_block_clustering_kappa_matches_oracle_with_excluded_replicates():
    g = graph_from([("a", "b"), ("b", "c"), ("a", "c"), ("p", "q"), ("x", "y")])
    active = edge_positions(g, [("a", "b"), ("b", "c"), ("p", "q")])
    res = ad.clustering_kappa(g, active, replicates=300, seed=5)
    assert res.excluded_replicates > 0
    assert res == stats_oracle.clustering_kappa(g, active, replicates=300, seed=5)


@pytest.mark.parametrize("fn, arg", [
    (ad.node_kappa, {"a", "b"}),
    (ad.node_kappa, {"a", "b", "c", "d"}),  # full adoption draws nothing either
    (ad.link_kappa, [("a", "b")]),
    (ad.clustering_kappa, [("a", "b"), ("b", "c")]),
])
@pytest.mark.parametrize("replicates", [0, -3])
def test_kappa_rejects_replicates_below_one(monkeypatch, fn, arg, replicates):
    def no_draw(*args):
        raise AssertionError("drew replicates")
    monkeypatch.setattr(ad, "derive_choices", no_draw)
    g = paw()
    arg = adopter_mask(g, arg) if fn is ad.node_kappa else edge_positions(g, arg)
    with pytest.raises(ValueError, match=f"replicates must be >= 1, got {replicates}"):
        fn(g, arg, replicates=replicates, seed=1)


NODE_EMPTY = ("kappa undefined for an empty adopter set: "
              "random_mean equals empirical by construction only at full adoption")
LINK_EMPTY = "kappa undefined for an empty active-link set"


@pytest.mark.parametrize("fn, empty, message, full, empirical", [
    (ad.node_kappa, np.zeros(4, dtype=bool), NODE_EMPTY, np.ones(4, dtype=bool), 4),  # paw: 4 B-links
    (ad.link_kappa, np.arange(0), LINK_EMPTY, np.arange(4), 5),  # paw: 5 adjacent pairs
    (ad.clustering_kappa, np.arange(0), LINK_EMPTY, np.arange(4), 3 / 5),  # paw: 3 closed of 5 pairs
])
def test_kappa_empty_set_and_full_draw(monkeypatch, fn, empty, message, full, empirical):
    # each test's own empty-set message; a full draw is exact and draws nothing
    def no_draw(*args):
        raise AssertionError("drew replicates")
    monkeypatch.setattr(ad, "derive_choices", no_draw)
    g = paw()
    with pytest.raises(ValueError) as exc:
        fn(g, empty, replicates=50, seed=1)
    assert str(exc.value) == message
    assert fn(g, full, replicates=50, seed=1) == ad.KappaResult(1.0, empirical, float(empirical), 0.0, 0, (1.0, 1.0))


def test_clustering_kappa_full_activation_of_a_path_closes_no_triangle():
    # a-b-c-d has two adjacent pairs, and neither closes into a triangle
    g = graph_from([("a", "b"), ("b", "c"), ("c", "d")])
    with pytest.raises(ValueError) as exc:
        ad.clustering_kappa(g, np.arange(g.edge_count()), replicates=50, seed=1)
    assert str(exc.value) == "reference degenerate: full activation closes no adjacent pairs into a triangle"


# -- adoption probability curve ------------------------------------------------------

def test_pk_curve_hand_case():
    g = graph_from([("a", "b"), ("b", "c"), ("c", "d")])
    curve = ad.adoption_probability_curve(g, adopter_mask(g, {"a"}), k_max=2, min_support=1)
    assert (curve.n_k[0], curve.a_k[0]) == (3, 1)  # a, c, d have no adopting friends
    assert curve.p_k[0] == pytest.approx(1 / 3)
    assert (curve.n_k[1], curve.a_k[1]) == (1, 0)  # b neighbors the adopter
    assert curve.p_k[1] == 0.0
    assert curve.n_k[2] == 0 and math.isnan(curve.p_k[2])
    assert nan_as_none(curve.uplift) == [pytest.approx(1.0), 0.0, None]


def test_pk_curve_support_flag_and_zero_p0():
    g = graph_from([("a", "b"), ("b", "c"), ("a", "c")], nodes=["d"])
    curve = ad.adoption_probability_curve(g, adopter_mask(g, {"a", "b"}), k_max=2, min_support=2)
    assert curve.n_k[0] == 1 and curve.p_k[0] == 0.0 and not curve.reliable[0]
    assert curve.n_k[1] == 2 and curve.p_k[1] == 1.0 and curve.reliable[1]
    assert curve.n_k[2] == 1 and curve.p_k[2] == 0.0  # c saw both adopters, stayed out
    assert np.isnan(curve.uplift).all()  # p0 is zero: uplift undefined


def test_pk_counts_partition_all_nodes():
    rng = np.random.default_rng(3)
    g = random_graph(rng, 30, 0.1)
    adopted = np.arange(g.node_count()) < 9
    curve = ad.adoption_probability_curve(g, adopted, k_max=29, min_support=5)
    assert curve.n_k.sum() == 30
    assert curve.a_k.sum() == 9


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30), p=st.floats(0.0, 0.5),
       fraction=st.floats(0.0, 1.0), k_max=st.integers(0, 40), min_support=st.integers(0, 5))
def test_pk_points_match_a_per_node_count(seed, n, p, fraction, k_max, min_support):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n, p)
    adopters = {x for x in g.ids if rng.random() < fraction}
    friends = {x: set() for x in g.ids}
    for u, v, _ in g.edges():
        friends[u].add(v)
        friends[v].add(u)
    k = {x: len(friends[x] & adopters) for x in g.ids}
    curve = ad.adoption_probability_curve(g, adopter_mask(g, adopters), k_max=k_max, min_support=min_support)
    assert all(len(column) == k_max + 1 for column in (curve.n_k, curve.a_k, curve.p_k, curve.uplift, curve.reliable))
    for kk, (n_k, a_k, p_k, reliable) in enumerate(zip(curve.n_k.tolist(), curve.a_k.tolist(),
                                                       nan_as_none(curve.p_k), curve.reliable.tolist())):
        assert n_k == sum(1 for x in g.ids if k[x] == kk)
        assert a_k == sum(1 for x in adopters if k[x] == kk)
        assert p_k == (a_k / n_k if n_k else None)
        assert reliable == (n_k >= min_support)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30), p=st.floats(0.0, 0.5), fraction=st.floats(0.0, 1.0),
       k_max=st.integers(0, 12), min_support=st.integers(0, 5), past=st.integers(0, 3))
def test_pk_columns_match_the_former_points(tmp_path_factory, seed, n, p, fraction, k_max, min_support, past):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n, p)
    adopted = rng.random(g.node_count()) < fraction
    got = ad.adoption_probability_curve(g, adopted, k_max=k_max, min_support=min_support)
    want = curve_oracle.adoption_probability_curve(g, adopted, k_max=k_max, min_support=min_support)
    assert got.n_k.tolist() == [pt.n_k for pt in want.points]
    assert got.a_k.tolist() == [pt.a_k for pt in want.points]
    assert nan_as_none(got.p_k) == [pt.p_k for pt in want.points]
    assert got.reliable.tolist() == [pt.reliable for pt in want.points]
    # an uplift is nan exactly where the former dict had no entry
    assert {k: u for k, u in enumerate(got.uplift.tolist()) if not math.isnan(u)} == want.uplift
    out = tmp_path_factory.mktemp("pk")
    ad.write_pk_csv(got, str(out / "got.csv"), "# h", k_max=k_max + past, min_support=min_support)
    curve_oracle.write_pk_csv(want, str(out / "want.csv"), "# h", k_max=k_max + past, min_support=min_support)
    assert (out / "got.csv").read_bytes() == (out / "want.csv").read_bytes()


def test_pk_rejects_a_negative_k_max():
    with pytest.raises(ValueError, match="k_max must be >= 0, got -1"):
        ad.adoption_probability_curve(paw(), np.ones(4, dtype=bool), k_max=-1)


# -- writers ------------------------------------------------------------------------

def test_writers(tmp_path):
    g = paw()
    res = ad.node_kappa(g, np.ones(g.node_count(), dtype=bool), replicates=10)
    kp = tmp_path / "kappa.csv"
    ad.write_kappa_csv({"node": res}, str(kp), header_comment="# k")
    lines = kp.read_text().splitlines()
    assert lines[0] == "# k"
    assert lines[1] == "test,kappa,ci_lo,ci_hi,empirical,random_mean,replicates"
    assert lines[2].startswith("node,1.0,")

    curve = ad.adoption_probability_curve(g, adopter_mask(g, {"a"}), k_max=1, min_support=1)
    pk = tmp_path / "pk.csv"
    ad.write_pk_csv(curve, str(pk))
    assert pk.read_text().splitlines()[0] == "k,n_k,a_k,p_k,uplift,reliable"

    ep = tmp_path / "evo.csv"
    ad.write_component_evolution_csv([0], *ad.component_evolution(g, adopter_mask(g, {"a", "b"})[None]), str(ep))
    assert ep.read_text().splitlines()[1].startswith("0,2,")
