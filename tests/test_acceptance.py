"""Acceptance suite: one test per release criterion.

Each test is self-contained, seeds its own fixtures through derive_rng,
and prints a single summary line on success.  Statistical criteria run
on pinned seeds so the counts below are reproducible bit for bit.
"""

import itertools
import math
import time

import numpy as np

from cdrlab import cli
from cdrlab.adoption import adoption_probability_curve, link_kappa, node_kappa
from cdrlab.anomaly import (
    FlowNetwork,
    TimeSeries,
    detect_anomalies,
    detect_flow_anomalies,
    flow_symmetry,
    rank_activation_curves,
)
from cdrlab.mlkit import campaign as mk_campaign
from cdrlab.mlkit import metrics as mk_metrics
from cdrlab.mlkit import models as mk_models
from cdrlab.mlkit import selection as mk_selection
from cdrlab.mlkit.data import LabeledTable, split_train_test
from cdrlab.rng import derive_rng
from cdrlab.socialgraph import SocialGraph, adjacent_link_count, eigenvector_centrality
from cdrlab.spatial import idw_interpolate
from cdrlab.synthgen import ContagionAdoption, _small_world_edges, simulate_adoption

from conftest import DAY, T0, graph_from, make_dataset, random_connected_graph, random_graph, voice
from stats_oracle import adopter_mask


# -- 1: adjacent-pair count identity ------------------------------------------------

def _brute_adjacent_pairs(g: SocialGraph) -> int:
    """Count unordered pairs of distinct edges sharing an endpoint."""
    E = [(u, v) for u, v, _ in g.edges()]
    if not E:
        return 0
    ua = np.array([e[0] for e in E])
    va = np.array([e[1] for e in E])
    shared = (
        (ua[:, None] == ua[None, :]) | (ua[:, None] == va[None, :])
        | (va[:, None] == ua[None, :]) | (va[:, None] == va[None, :])
    )
    return int(np.triu(shared, 1).sum())


def test_c01_adjacent_pair_count_identity():
    fixed = [
        graph_from([], nodes=["a", "b"]),
        graph_from([("h", f"l{i}") for i in range(6)]),                      # star
        graph_from([(f"p{i}", f"p{i+1}") for i in range(9)]),                # path
        graph_from([(f"k{i}", f"k{j}") for i in range(5) for j in range(i + 1, 5)]),
    ]
    checked = 0
    for g in fixed:
        assert adjacent_link_count(g) == _brute_adjacent_pairs(g)
        checked += 1
    for i in range(1000 - len(fixed)):
        rng = derive_rng(1, "c1", i)
        n = int(rng.integers(2, 51))
        g = random_graph(rng, n, float(rng.uniform(0.02, 0.3)))
        assert adjacent_link_count(g) == _brute_adjacent_pairs(g)
        checked += 1
    print(f"criterion 01 (adjacent-pair identity): PASS {checked}/1000 graphs exact")


# -- 2: kappa null calibration -------------------------------------------------------

def _small_world(seed: int, n: int = 2000, k: int = 6, rewire: float = 0.1) -> SocialGraph:
    edges = _small_world_edges(n, k, rewire, derive_rng(seed, "sw-graph"))
    return SocialGraph.from_edges((f"n{u}", f"n{v}", 1.0) for u, v in edges)


def test_c02_node_kappa_null_calibration():
    t0 = time.monotonic()
    g = _small_world(424242)
    n = g.node_count()

    contains = 0
    for trial in range(100):
        rng = derive_rng(424242, "c2-uniform", trial)
        adopters = np.zeros(n, dtype=bool)
        adopters[rng.choice(n, size=200, replace=False)] = True
        res = node_kappa(g, adopters, replicates=200, seed=trial)
        if res.ci95[0] <= 1.0 <= res.ci95[1]:
            contains += 1

    excludes = 0
    for trial in range(100):
        adopters = simulate_adoption(g, ContagionAdoption(0.01, 1.0), days=10, seed=trial) >= 0
        assert 0 < adopters.sum() < n
        res = node_kappa(g, adopters, replicates=200, seed=1000 + trial)
        if not (res.ci95[0] <= 1.0 <= res.ci95[1]):
            excludes += 1

    elapsed = time.monotonic() - t0
    assert contains >= 93, f"uniform adoption: CI covered 1 in only {contains}/100 trials"
    assert excludes >= 95, f"contagion adoption: CI excluded 1 in only {excludes}/100 trials"
    assert elapsed <= 60.0, f"calibration took {elapsed:.1f}s"
    print(f"criterion 02 (kappa null calibration): PASS uniform {contains}/100 cover 1, "
          f"contagion {excludes}/100 exclude 1, {elapsed:.1f}s")


# -- 3: link-kappa null mean vs exhaustive enumeration --------------------------------

def test_c03_link_kappa_matches_exhaustive_null():
    cases = {
        "path5": [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")],
        "star_plus": [("h", "l1"), ("h", "l2"), ("h", "l3"), ("h", "l4"), ("l1", "l2")],
        "eight_edges": [("a", "b"), ("a", "c"), ("b", "c"), ("c", "d"),
                        ("d", "e"), ("e", "f"), ("f", "g"), ("c", "f")],
    }
    worst = 0.0
    for name, edges in cases.items():
        g = graph_from(edges)
        E = [(u, v) for u, v, _ in g.edges()]
        m = min(4, len(E) - 1)
        total = count = 0
        for subset in itertools.combinations(range(len(E)), m):
            deg: dict[str, int] = {}
            for i in subset:
                u, v = E[i]
                deg[u] = deg.get(u, 0) + 1
                deg[v] = deg.get(v, 0) + 1
            total += sum(d * (d - 1) // 2 for d in deg.values())
            count += 1
        exact = total / count
        res = link_kappa(g, np.arange(m), replicates=20_000, seed=5)
        rel = abs(res.random_mean - exact) / exact
        worst = max(worst, rel)
        assert rel <= 0.02, f"{name}: MC mean {res.random_mean} vs exhaustive {exact}"
    print(f"criterion 03 (link-kappa exhaustive oracle): PASS worst rel error {worst:.4%}")


# -- 4: adoption-probability curve ----------------------------------------------------

def test_c04_pk_curve_flat_under_iid_and_uplift_under_contagion():
    # (a) independent adoption: p_k flat within 99% binomial bands
    rng = derive_rng(4, "c4a")
    n = 3000
    iu, ju = np.triu_indices(n, 1)
    pick = rng.random(len(iu)) < 8.0 / n
    g = SocialGraph.from_edges(
        (f"n{a}", f"n{b}", 1.0) for a, b in zip(iu[pick], ju[pick]))
    p_adopt = 0.3
    mask = derive_rng(4, "c4a-adopt").random(g.node_count()) < p_adopt
    curve = adoption_probability_curve(g, mask, k_max=6)
    supported = [pt for pt in curve.points if pt.reliable]
    assert len(supported) >= 5
    for pt in supported:
        band = 2.5758 * math.sqrt(p_adopt * (1 - p_adopt) / pt.n_k)
        assert abs(pt.p_k - p_adopt) <= band, f"k={pt.k}: |{pt.p_k}-{p_adopt}| > {band}"

    # (b) one contagion round on a perfect matching; the pair model is exact,
    # so the planted uplift target has a closed form to calibrate beta against
    s, p0, target = 0.15, 0.08, 2.5

    def pair_model_ratio(beta: float) -> float:
        prob = {(a, b): (s if a else 1 - s) * (s if b else 1 - s)
                for a in (0, 1) for b in (0, 1)}
        adopt = lambda own, partner: 1.0 if own else min(1.0, p0 * (1 + beta) ** partner)
        both = sum(p * adopt(a, b) * adopt(b, a) for (a, b), p in prob.items())
        partner_adopted = sum(p * adopt(b, a) for (a, b), p in prob.items())
        alone = sum(p * adopt(a, b) * (1 - adopt(b, a)) for (a, b), p in prob.items())
        return (both / partner_adopted) / (alone / (1 - partner_adopted))

    lo, hi = 0.0, 80.0
    for _ in range(200):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if pair_model_ratio(mid) < target else (lo, mid)
    beta = (lo + hi) / 2
    assert abs(pair_model_ratio(beta) - target) < 1e-9

    n_pairs = 15_000
    g2 = SocialGraph.from_edges((f"u{i}", f"v{i}", 1.0) for i in range(n_pairs))
    names = np.array([x for i in range(n_pairs) for x in (f"u{i}", f"v{i}")])
    rng = derive_rng(4, "c4b")
    seeded = rng.random(2 * n_pairs) < s
    partner_seeded = seeded[np.arange(2 * n_pairs) ^ 1]
    hazard = np.minimum(1.0, p0 * (1 + beta) ** partner_seeded.astype(int))
    adopted = seeded | ((~seeded) & (rng.random(2 * n_pairs) < hazard))
    curve2 = adoption_probability_curve(g2, adopter_mask(g2, names[adopted]), k_max=1)
    pts = {pt.k: pt for pt in curve2.points}
    assert pts[0].reliable and pts[1].reliable
    measured = pts[1].p_k / pts[0].p_k
    assert measured >= 2.0, f"p1/p0 = {measured}"
    assert abs(measured - target) <= 0.2 * target, f"p1/p0 = {measured} vs planted {target}"
    print(f"criterion 04 (p_k curve): PASS flat within bands over {len(supported)} k, "
          f"planted uplift {target} measured {measured:.3f}")


# -- 5: eigenvector centrality vs dense eigensolver ------------------------------------

def test_c05_eigenvector_centrality_matches_dense_oracle():
    worst = 0.0
    for i in range(100):
        rng = derive_rng(77, "c5", i)
        n = int(rng.integers(4, 61))
        g = random_connected_graph(rng, n, extra=0.08, weighted=(i % 2 == 1))
        nodes = g.sorted_nodes()
        ix = {u: j for j, u in enumerate(nodes)}
        W = np.zeros((n, n))
        for u, v, w in g.edges():
            W[ix[u], ix[v]] = w
            W[ix[v], ix[u]] = w
        _, vecs = np.linalg.eigh(W)
        oracle = np.abs(vecs[:, -1])  # principal vector, positive representative
        scores = eigenvector_centrality(g)
        err = max(abs(scores[u] - oracle[ix[u]]) for u in nodes)
        worst = max(worst, err)
        assert err <= 1e-8, f"graph {i} (n={n}): max entry error {err}"

    k4 = graph_from([(f"k{i}", f"k{j}") for i in range(4) for j in range(i + 1, 4)])
    for score in eigenvector_centrality(k4).values():
        assert score == 0.5
    print(f"criterion 05 (eigenvector centrality oracle): PASS worst entry error {worst:.2e}")


# -- 6: deviation flagging on planted shocks -------------------------------------------

def test_c06_sigma_flagging_noise_free_and_poisson():
    # (a) noise-free: integer-valued daily pattern, five bumps, exact detection
    days = 14
    pattern = np.array([30.0 + 5.0 * (h % 12) for h in range(24)])
    vals = np.tile(pattern, days)
    planted = [d * 24 + h for d, h in zip((1, 4, 6, 9, 12), (2, 7, 11, 16, 21))]
    vals[planted] *= 3.0
    report = detect_anomalies(TimeSeries(("g",), 3600, T0, vals), "hour_of_day")
    assert report.flagged() == set(planted)

    # (b) Poisson baseline, multiplier 3, 100 seeds: pooled precision/recall
    tp = fp = fn = 0
    for s in range(100):
        rng = derive_rng(6, "c6b", s)
        n_days, lam = 28, 60
        series = rng.poisson(lam, n_days * 24).astype(float)
        hours = rng.choice(24, 20, replace=False)   # one bump max per hour cell
        bump_days = rng.integers(0, n_days, 20)
        idx = bump_days * 24 + hours
        series[idx] *= 3.0
        rep = detect_anomalies(TimeSeries(("g",), 3600, T0, series), "hour_of_day")
        got = rep.flagged()
        want = set(int(i) for i in idx)
        tp += len(got & want)
        fp += len(got - want)
        fn += len(want - got)
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    assert precision >= 0.9, f"pooled precision {precision:.3f}"
    assert recall >= 0.9, f"pooled recall {recall:.3f}"
    print(f"criterion 06 (planted shock flagging): PASS noise-free exact, "
          f"poisson precision {precision:.3f} recall {recall:.3f}")


# -- 7: flow symmetry and planted evacuation -------------------------------------------

def test_c07_flow_symmetry_and_evacuation_day():
    rng = derive_rng(0, "c7")
    areas = [f"a{i}" for i in range(6)]
    pairs = [(areas[i], areas[j]) for i in range(6) for j in range(i + 1, 6)]
    means = {p: float(np.exp(rng.uniform(np.log(10), np.log(1000)))) for p in pairs}
    nets = []
    for d in range(29):
        od = {}
        for (a, b), m in means.items():
            od[(a, b)] = int(rng.poisson(m))
            od[(b, a)] = int(rng.poisson(m))
        if d == 28:
            od[("a0", "a1")] *= 8   # one-day one-way surge
        nets.append(FlowNetwork(day=T0 + d * DAY, od=od))

    r = flow_symmetry(nets[:28])
    assert r >= 0.99, f"baseline symmetry r = {r}"

    reports = detect_flow_anomalies(nets)
    assert ("a0", "a1") in reports
    flags = [(pair, f.index, f.direction)
             for pair, rep in sorted(reports.items()) for f in rep.flags]
    assert flags == [(("a0", "a1"), 28, "increase")], f"flags: {flags}"
    print(f"criterion 07 (flow symmetry + evacuation): PASS r={r:.5f}, "
          f"only the planted pair/day flagged")


# -- 8: top-contact activation timing ---------------------------------------------------

def _rank_fixture(surge: bool):
    cdrs = []
    callers = 40
    for i in range(callers):           # day 0 plants the contact ranking
        for r in range(1, 6):
            for j in range(6 - r):
                cdrs.append(voice(f"A{i}", f"c{i}_{r}", "T1",
                                  T0 + 3600 + r * 1200 + j * 60 + i))
    for d in (1, 2):                   # identical background on both days
        base = T0 + d * DAY
        for i in range(callers):
            cdrs.append(voice(f"A{i}", f"c{i}_2", "T1", base + 12 * 3600 + i))
        for i in range(4):
            for off in (9 * 3600, 10 * 3600 + 1500, 14 * 3600):
                cdrs.append(voice(f"A{i}", f"c{i}_1", "T1", base + off + i))
            for r in (3, 4, 5):
                for off in (9 * 3600, 10 * 3600 + 2700, 14 * 3600):
                    cdrs.append(voice(f"A{i}", f"c{i}_{r}", "T1", base + off + 10 * r + i))
        if surge and d == 2:           # 24 extra callers hit rank 1 at +25min, 3..5 at +45min
            for i in range(4, 28):
                cdrs.append(voice(f"A{i}", f"c{i}_1", "T1", base + 10 * 3600 + 1500 + i))
                for r in (3, 4, 5):
                    cdrs.append(voice(f"A{i}", f"c{i}_{r}", "T1",
                                      base + 10 * 3600 + 2700 + 10 * r + i))
    return make_dataset(cdrs, window=(T0, T0 + 3 * DAY))


def test_c08_rank_activation_peak_ordering():
    event_time = T0 + 2 * DAY + 10 * 3600
    rc = rank_activation_curves(_rank_fixture(True), event_time,
                                comparison_days=[T0 + DAY],
                                rank_window=(T0, T0 + DAY))

    def peak_offset(k: int) -> int:
        defined = [(v, off) for v, off in zip(rc.ratio[k], rc.offsets) if v is not None]
        assert defined
        best = max(defined)
        assert best[0] > 1.0
        return best[1]

    p1 = peak_offset(1)
    assert p1 == 10 * 3600 + 1500
    for k in (3, 4, 5):
        pk = peak_offset(k)
        assert pk == 10 * 3600 + 2700
        assert p1 < pk

    flat = rank_activation_curves(_rank_fixture(False), event_time,
                                  comparison_days=[T0 + DAY],
                                  rank_window=(T0, T0 + DAY))
    defined = [v for k in (1, 2, 3, 4, 5) for v in flat.ratio[k] if v is not None]
    assert defined and all(v == 1.0 for v in defined)
    print(f"criterion 08 (rank-activation curves): PASS rank-1 peak at +25min, "
          f"ranks 3-5 at +45min, {len(defined)} flat ratios exactly 1")


# -- 9: inverse-distance interpolation ----------------------------------------------------

def test_c09_idw_exactness_two_point_and_range():
    # (a) samples placed at cell centers are reproduced exactly
    rng = derive_rng(9, "c9a")
    nr, nc, cs, xll, yll = 20, 30, 0.02, 88.0, 22.0
    cells = rng.choice(nr * nc, 12, replace=False)
    samples = {}
    for cell in cells:
        row, col = divmod(int(cell), nc)
        lon = xll + (col + 0.5) * cs
        lat = yll + (nr - row - 0.5) * cs
        samples[(lon, lat)] = float(rng.uniform(-5, 5))
    grid = idw_interpolate(samples, nr, nc, xll, yll, cs)
    for cell in cells:
        row, col = divmod(int(cell), nc)
        lon = xll + (col + 0.5) * cs
        lat = yll + (nr - row - 0.5) * cs
        assert grid.values[row, col] == samples[(lon, lat)]

    # (b) two samples on the equator, power 2, query at 1/3 of the gap
    g2 = idw_interpolate({(0.005, 0.0): 0.0, (0.035, 0.0): 1.0},
                         nrows=1, ncols=4, xllcorner=0.0, yllcorner=-0.005, cellsize=0.01)
    assert abs(g2.values[0, 1] - 0.2) <= 1e-12

    # (c) interpolated values never leave the sample range
    rng = derive_rng(9, "c9c")
    pts = {(float(rng.uniform(88, 90)), float(rng.uniform(22, 24))): float(rng.uniform(-5, 5))
           for _ in range(15)}
    big = idw_interpolate(pts, 100, 100, 88.0, 22.0, 0.02)
    lo, hi = min(pts.values()), max(pts.values())
    assert big.values.size == 10_000
    assert np.all(big.values >= lo - 1e-12) and np.all(big.values <= hi + 1e-12)
    print("criterion 09 (idw): PASS exact at samples, two-point 0.2 within 1e-12, "
          "range preserved on 10000 cells")


# -- 10: ranking metrics -------------------------------------------------------------------

def test_c10_auc_and_decile_lift():
    auc4 = mk_metrics.auc_score([0, 0, 1, 1], [0.1, 0.4, 0.35, 0.8])
    assert auc4 == 0.75

    rng = derive_rng(10, "c10b")
    y = (rng.random(10_000) < 0.5).astype(float)
    scores = rng.normal(size=10_000)
    auc = mk_metrics.auc_score(y, scores)
    assert abs(auc - 0.5) <= 0.02, f"shuffled AUC {auc}"

    rng = derive_rng(10, "c10c")
    y2 = (rng.random(5_000) < 0.3).astype(float)
    s2 = rng.normal(size=5_000)
    rows = mk_metrics.decile_lift(y2, s2)
    weighted = sum(lift * size for _, size, _, lift in rows) / sum(r[1] for r in rows)
    assert abs(weighted - 1.0) <= 1e-9
    print(f"criterion 10 (auc/lift): PASS 4-point AUC exact, shuffled {auc:.4f}, "
          f"lift weighted mean off by {abs(weighted - 1.0):.1e}")


# -- 11: neural net building blocks -----------------------------------------------------------

def test_c11_mlp_softplus_gradients_and_separable_auc():
    assert abs(mk_models._softplus(0.0) - math.log(2.0)) <= 1e-12

    worst = 0.0
    for net in range(10):
        rng = derive_rng(11, "c11b", net)
        k, hidden, n = 4, 6, 12
        model = mk_models.MlpModel(
            columns=[f"f{j}" for j in range(k)],
            mean=np.zeros(k), scale=np.ones(k),
            W1=rng.normal(0, 0.6, size=(k, hidden)),
            b1=rng.normal(0, 0.2, size=hidden),
            W2=rng.normal(0, 0.6, size=hidden),
            b2=float(rng.normal(0, 0.2)),
            seed=0,
        )
        Xs = rng.normal(size=(n, k))
        y = (rng.random(n) < 0.5).astype(float)
        w = np.ones(n)
        _, (gW1, gb1, gW2, gb2) = model.loss_and_grad(Xs, y, w)
        flat = np.concatenate([gW1.ravel(), gb1, gW2, [gb2]])
        arrays = [model.W1, model.b1, model.W2]
        sizes = [a.size for a in arrays] + [1]
        eligible = np.flatnonzero(np.abs(flat) > 1e-4 * np.abs(flat).max())
        coords = rng.choice(eligible, size=5, replace=False)
        h = 1e-6
        for c in coords:
            c = int(c)
            param, offset = None, c
            for a, size in zip(arrays, sizes):
                if offset < size:
                    param = a
                    break
                offset -= size

            def loss_at(delta: float) -> float:
                if param is None:
                    model.b2 += delta
                else:
                    param.flat[offset] += delta
                try:
                    return model.loss_and_grad(Xs, y, w)[0]
                finally:
                    if param is None:
                        model.b2 -= delta
                    else:
                        param.flat[offset] -= delta

            fd = (loss_at(h) - loss_at(-h)) / (2 * h)
            rel = abs(fd - flat[c]) / max(abs(fd), abs(flat[c]), 1e-8)
            worst = max(worst, rel)
            assert rel < 1e-4, f"net {net} coord {c}: fd {fd} vs analytic {flat[c]}"

    rng = derive_rng(11, "c11c")
    m = 400
    X = np.vstack([rng.normal(0, 1, (m // 2, 2)) + [-2.5, 0.0],
                   rng.normal(0, 1, (m // 2, 2)) + [2.5, 0.0]])
    y = np.array([0.0] * (m // 2) + [1.0] * (m // 2))
    table = LabeledTable(ids=[f"r{i}" for i in range(m)], X=X, y=y, columns=["f1", "f2"])
    train_tab, test_tab = split_train_test(table, 0.75, seed=3, stratify=True)
    model = mk_models.train(train_tab, family="mlp", seed=3)
    report = mk_metrics.evaluate(model, test_tab)
    assert report.auc >= 0.95, f"separable-table AUC {report.auc}"
    print(f"criterion 11 (mlp): PASS softplus ln2, worst gradient rel err {worst:.1e}, "
          f"separable AUC {report.auc:.3f}")


# -- 12: sparse covariate recovery --------------------------------------------------------------

def test_c12_planted_sparse_model_recovery():
    beta = {"x0": 3.0, "x1": -2.0, "x2": 1.5}
    noise_sd = math.sqrt(sum(b * b for b in beta.values()) / 10.0)  # SNR 10
    exact = dup_pruned = 0
    for s in range(100):
        rng = derive_rng(55, "c12", s)
        n = 500
        planted = {c: rng.normal(size=n) for c in beta}
        cols = list(beta)
        data = [planted[c] for c in cols]
        for i, parent in enumerate(["x0", "x1", "x2", "x0", "x1", "x2"]):
            cols.append(f"d{i}")
            data.append(0.9 * planted[parent] + math.sqrt(1 - 0.81) * rng.normal(size=n))
        cols.append("x0_copy")
        data.append(planted["x0"].copy())
        X = np.column_stack(data)
        y = sum(b * planted[c] for c, b in beta.items()) + noise_sd * rng.normal(size=n)
        res = mk_selection.select_covariates(X, y, cols)
        if set(res.selected) == set(beta):
            exact += 1
        if any(d == "x0_copy" and p == "x0" for d, p, _ in res.dropped_by_pruning):
            dup_pruned += 1
    assert exact >= 95, f"exact recovery in only {exact}/100 seeds"
    assert dup_pruned == 100, f"duplicate pruned in only {dup_pruned}/100 seeds"
    print(f"criterion 12 (covariate selection): PASS exact {exact}/100, "
          f"duplicate pruned {dup_pruned}/100")


# -- 13: campaign machinery ----------------------------------------------------------------------

class _FirstColumnScore:
    def predict_proba(self, X):
        return np.asarray(X)[:, 0]


def test_c13_campaign_uplift_and_null_calibration():
    rng = derive_rng(42, "c13a")
    n = 4000
    ids = [f"s{i:04d}" for i in range(n)]
    X = rng.random((n, 1))
    table = LabeledTable(ids=ids, X=X, y=np.array([0, 1] * (n // 2)), columns=["score"])
    control = sorted(ids[i] for i in rng.choice(n, 800, replace=False))
    in_control = set(control)
    ranked = sorted((i for i in range(n) if ids[i] not in in_control),
                    key=lambda i: (-X[i, 0], ids[i]))
    treated = {ids[i] for i in ranked[:800]}
    outcomes = {sid: {"converted": bool(rng.random() < (0.30 if sid in treated else 0.03)),
                      "renewed": False} for sid in ids}
    out = mk_campaign.run_campaign(table, _FirstColumnScore(), 800, control, outcomes)
    assert out.treatment_ids == [ids[i] for i in ranked[:800]]
    ratio = out.treatment_rate / out.control_rate
    se = math.sqrt((1 - out.treatment_rate) / out.treatment_conversions
                   + (1 - out.control_rate) / out.control_conversions)
    lo, hi = ratio * math.exp(-1.96 * se), ratio * math.exp(1.96 * se)
    assert lo <= 10.0 <= hi, f"planted 10x outside CI ({lo:.2f}, {hi:.2f})"
    assert out.p_value < 0.01

    calm = 0
    for s in range(100):
        rng = derive_rng(42, "c13b", s)
        x1 = int(rng.binomial(400, 0.10))
        x2 = int(rng.binomial(400, 0.10))
        _, p = mk_campaign.two_proportion_z(x1, 400, x2, 400)
        if p > 0.05:
            calm += 1
    assert calm >= 94, f"equal-rate plant: p>0.05 in only {calm}/100 seeds"
    print(f"criterion 13 (campaign): PASS 10x plant ratio {ratio:.2f} "
          f"CI ({lo:.2f},{hi:.2f}), null p>0.05 in {calm}/100")


# -- 14: byte-level determinism of the command line ----------------------------------------------

_C14_INI = """
[synth]
subscribers = 60
towers = 12
days = 7
event_rate = 2.0
"""


def _tree_bytes(d) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir()) if p.is_file()}


def test_c14_cli_determinism_across_reruns_and_threads(tmp_path, monkeypatch):
    monkeypatch.delenv("CDRLAB_CONFIG", raising=False)
    cfg = tmp_path / "run.ini"
    cfg.write_text(_C14_INI)

    def run(args):
        assert cli.main(args) == 0

    synth = {}
    for tag, extra in {"a": ["--threads", "1"], "b": ["--threads", "1"],
                       "c": ["--threads", "8"]}.items():
        out = tmp_path / f"synth_{tag}"
        run(["synth", "--config", str(cfg), "--outdir", str(out), "--seed", "21", *extra])
        synth[tag] = _tree_bytes(out)
    assert synth["a"] == synth["b"], "synth rerun differs"
    assert synth["a"] == synth["c"], "synth differs across thread counts"

    src = tmp_path / "synth_a"
    ds_args = ["--cdr", str(src / "cdr.csv"), "--topups", str(src / "topups.csv"),
               "--towers", str(src / "towers.csv"), "--labels", str(src / "labels.csv")]

    feats = {}
    for tag, thr in {"a": "1", "b": "8"}.items():
        out = tmp_path / f"feat_{tag}"
        run(["features", *ds_args, "--outdir", str(out), "--threads", thr])
        feats[tag] = _tree_bytes(out)
    assert feats["a"] == feats["b"], "features differ across thread counts"

    with open(src / "cdr.csv") as fh:
        subs = sorted({line.split(",")[0] for line in fh if line and not line.startswith("#")
                       and not line.startswith("caller")})[:12]
    adopters = tmp_path / "adopters.csv"
    adopters.write_text("subscriber,day\n" + "".join(f"{s},\n" for s in subs))
    kappas = {}
    for tag, thr in {"a": "1", "b": "8", "c": "1"}.items():
        out = tmp_path / f"kappa_{tag}"
        run(["kappa", *ds_args, "--adopters", str(adopters), "--mode", "node",
             "--replicates", "60", "--seed", "3", "--threads", thr, "--outdir", str(out)])
        kappas[tag] = _tree_bytes(out)
    assert kappas["a"] == kappas["b"], "kappa differs across thread counts"
    assert kappas["a"] == kappas["c"], "kappa rerun differs"

    trains = {}
    for tag in ("a", "b"):
        out = tmp_path / f"train_{tag}"
        run(["train", "--features", str(tmp_path / "feat_a" / "features.csv"),
             "--labels", str(src / "labels.csv"), "--family", "logistic",
             "--seed", "2", "--outdir", str(out)])
        trains[tag] = _tree_bytes(out)
    assert trains["a"] == trains["b"], "train rerun differs"

    samples = tmp_path / "samples.csv"
    with open(src / "towers.csv") as fh:
        tower_rows = [line.split(",")[0] for line in fh if line and not line.startswith("#")
                      and not line.startswith("id")]
    samples.write_text(f"area,value\n{tower_rows[0]},1.0\n{tower_rows[1]},5.0\n")
    idws = {}
    for tag, thr in {"a": "1", "b": "8"}.items():
        out = tmp_path / f"idw_{tag}"
        run(["idw", "--towers", str(src / "towers.csv"), "--samples", str(samples),
             "--threads", thr, "--outdir", str(out)])
        idws[tag] = _tree_bytes(out)
    assert idws["a"] == idws["b"], "idw differs across thread counts"
    print("criterion 14 (determinism): PASS synth/features/kappa/train/idw byte-identical "
          "across reruns and threads 1 vs 8")
