"""Tests for the model-evaluation stack: labeled tables, the three
classifier families, ranking metrics, covariate selection, and campaign
reporting.

Oracles: scipy BFGS for the logistic optimum, a brute-force split search
for stumps, central finite differences for network gradients, and the
normal survival function for the two-proportion test.
"""

import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.stats import norm

from cdrlab.mlkit import campaign as cg
from cdrlab.mlkit import metrics as mt
from cdrlab.mlkit import models as md
from cdrlab.mlkit import selection as sel
from cdrlab.mlkit.data import (
    LabeledTable,
    _largest_remainder,
    split_train_test,
    upsample_minority,
)


def blob_table(n=100, k=2, sep=3.0, seed=0):
    """Two Gaussian blobs, class 1 shifted by sep in every coordinate."""
    rng = np.random.default_rng(seed)
    half = n // 2
    X = np.vstack([
        rng.normal(0.0, 1.0, size=(half, k)),
        rng.normal(sep, 1.0, size=(n - half, k)),
    ])
    y = np.array([0.0] * half + [1.0] * (n - half))
    ids = [f"s{i:03d}" for i in range(n)]
    return LabeledTable(ids, [f"f{j}" for j in range(k)], X, y)


class _ScoreColumn:
    """Stands in for a trained model; the score is one feature column."""

    def __init__(self, col=0):
        self.col = col

    def predict_proba(self, X):
        return np.asarray(X, dtype=float)[:, self.col]


# ---------------------------------------------------------------- data


def test_labeled_table_validation():
    with pytest.raises(ValueError, match="2-D"):
        LabeledTable(["a"], ["x"], np.array([1.0]), np.array([0.0]))
    with pytest.raises(ValueError, match="lengths disagree"):
        LabeledTable(["a"], ["x"], np.zeros((2, 1)), np.zeros(2))
    with pytest.raises(ValueError, match="column names"):
        LabeledTable(["a", "b"], ["x", "y"], np.zeros((2, 1)), np.zeros(2))
    with pytest.raises(ValueError, match="duplicate ids"):
        LabeledTable(["a", "a"], ["x"], np.zeros((2, 1)), np.zeros(2))
    with pytest.raises(ValueError, match="non-finite"):
        LabeledTable(["a", "b"], ["x"], np.array([[1.0], [np.nan]]), np.zeros(2))


def test_take_id_suffix_numbers_repeats():
    tab = LabeledTable(["a", "b"], ["x"], [[1.0], [2.0]], [0.0, 1.0])
    out = tab.take([0, 0, 1], id_suffix="#r")
    assert out.ids == ["a", "a#r1", "b"]
    assert out.X.tolist() == [[1.0], [1.0], [2.0]]


def test_from_records_na_policies():
    ids = ["r1", "r2", "r3", "r4"]
    rows = [[1.0, 2.0], [None, 4.0], [3.0, None], [5.0, 6.0]]
    labels = [0.0, 1.0, 0.0, 1.0]

    dropped = LabeledTable.from_records(ids, ["u", "v"], rows, labels, na_policy="drop")
    assert dropped.ids == ["r1", "r4"]
    assert dropped.X.tolist() == [[1.0, 2.0], [5.0, 6.0]]
    assert dropped.y.tolist() == [0.0, 1.0]

    imputed = LabeledTable.from_records(ids, ["u", "v"], rows, labels, na_policy="impute_mean")
    # column means over present values: u -> (1+3+5)/3, v -> (2+4+6)/3
    assert imputed.X.tolist() == [[1.0, 2.0], [3.0, 4.0], [3.0, 4.0], [5.0, 6.0]]

    with pytest.raises(ValueError, match=r"2 row\(s\) with absent values"):
        LabeledTable.from_records(ids, ["u", "v"], rows, labels, na_policy="error")
    with pytest.raises(ValueError, match="absent labels"):
        LabeledTable.from_records(ids, ["u", "v"], rows, [0.0, None, 0.0, 1.0],
                                  na_policy="impute_mean")
    with pytest.raises(ValueError, match="no present values"):
        LabeledTable.from_records(["a", "b"], ["u"], [[None], [None]], [0.0, 1.0],
                                  na_policy="impute_mean")
    with pytest.raises(ValueError, match="unknown na_policy"):
        LabeledTable.from_records(ids, ["u", "v"], rows, labels, na_policy="zap")


def test_largest_remainder_allocation():
    # exact shares 2.25 / 0.75: the bigger remainder gets the leftover row
    assert _largest_remainder([3, 1], 0.75, 3) == [2, 1]
    assert _largest_remainder([10, 10], 0.5, 10) == [5, 5]
    # allocation never exceeds a group's population
    assert _largest_remainder([1, 9], 0.9, 9) == [1, 8]


def test_split_is_disjoint_exhaustive_and_sized():
    tab = blob_table(n=40, seed=1)
    train, test = split_train_test(tab, fraction=0.75, seed=0)
    assert len(train) == round(0.75 * 40)
    assert sorted(train.ids + test.ids) == sorted(tab.ids)
    assert set(train.ids).isdisjoint(test.ids)


def test_split_stratified_preserves_class_counts():
    X = np.arange(80, dtype=float).reshape(40, 2)
    y = np.array([0.0] * 30 + [1.0] * 10)
    tab = LabeledTable([f"s{i}" for i in range(40)], ["a", "b"], X, y)
    train, test = split_train_test(tab, fraction=0.75, seed=3)
    # largest remainder on (30, 10) at 0.75 of 40: takes are 23 and 7
    assert int((train.y == 0).sum()) == 23
    assert int((train.y == 1).sum()) == 7
    assert int((test.y == 1).sum()) == 3


def test_split_four_rows_three_one():
    tab = LabeledTable(["a", "b", "c", "d"], ["x"],
                       [[1.0], [2.0], [3.0], [4.0]], [0.0, 0.0, 0.0, 1.0])
    train, test = split_train_test(tab, fraction=0.75, seed=0)
    # the lone positive has the larger remainder, so it lands in train
    assert len(train) == 3
    assert int((train.y == 1).sum()) == 1
    assert test.y.tolist() == [0.0]


def test_split_deterministic_and_seed_sensitive():
    tab = blob_table(n=40, seed=2)
    a1, _ = split_train_test(tab, seed=5)
    a2, _ = split_train_test(tab, seed=5)
    b, _ = split_train_test(tab, seed=6)
    assert a1.ids == a2.ids
    assert a1.ids != b.ids


def test_split_unstratified_and_fraction_validation():
    tab = blob_table(n=20, seed=4)
    train, test = split_train_test(tab, fraction=0.6, stratify=False, seed=0)
    assert len(train) == 12
    assert sorted(train.ids + test.ids) == sorted(tab.ids)
    for bad in (0.0, 1.0, -0.2):
        with pytest.raises(ValueError, match="fraction"):
            split_train_test(tab, fraction=bad)


def test_upsample_minority_balances_with_suffixed_copies():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(100, 3))
    y = np.array([0.0] * 90 + [1.0] * 10)
    tab = LabeledTable([f"s{i}" for i in range(100)], ["a", "b", "c"], X, y)
    up = upsample_minority(tab, seed=3)
    assert len(up) == 180
    assert int((up.y == 0).sum()) == 90 and int((up.y == 1).sum()) == 90
    assert len(set(up.ids)) == 180
    minority_rows = {tuple(row) for row in X[y == 1.0]}
    for i in range(100, 180):
        assert "#r" in up.ids[i]
        assert up.y[i] == 1.0
        assert tuple(up.X[i]) in minority_rows


def test_upsample_balanced_table_is_unchanged():
    tab = blob_table(n=20, seed=5)
    assert upsample_minority(tab) is tab
    three = LabeledTable(["a", "b", "c"], ["x"], [[1.0], [2.0], [3.0]], [0.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="exactly 2 classes"):
        upsample_minority(three)


# -------------------------------------------------------------- models


def test_sample_weights_balanced_and_dict():
    y = np.array([0.0] * 90 + [1.0] * 10)
    w = md._sample_weights(y, "balanced")
    assert np.allclose(w[y == 0], 100 / (2 * 90))
    assert np.allclose(w[y == 1], 100 / (2 * 10))
    # total weight per class is equal
    assert np.isclose(w[y == 0].sum(), w[y == 1].sum())
    for other in ({0: 1.0, 1: 4.0}, "5", "12", "x"):
        with pytest.raises(ValueError, match=r"\[model\] class_weight must be empty or 'balanced'"):
            md._sample_weights(y, other)
    assert md._sample_weights(y, None).tolist() == [1.0] * 100


def test_logistic_separates_blobs():
    tab = blob_table(n=120, sep=4.0, seed=6)
    model = md.train_logistic(tab)
    assert np.array_equal(model.predict_proba(tab.X) >= 0.5, tab.y == 1.0)
    assert mt.auc_score(tab.y, model.predict_proba(tab.X)) == 1.0


def test_logistic_matches_bfgs_optimum():
    # overlapping classes keep the optimum finite; compare achieved loss
    tab = blob_table(n=80, sep=1.0, seed=7)
    model = md.train_logistic(tab)
    mean, scale = tab.X.mean(axis=0), tab.X.std(axis=0)
    Xs = (tab.X - mean) / scale

    def ref_loss(theta):
        z = Xs @ theta[:-1] + theta[-1]
        return float(np.mean(np.logaddexp(0.0, z) - tab.y * z))

    res = minimize(ref_loss, np.zeros(3), method="BFGS")
    ours = ref_loss(np.concatenate([model.coef, [model.bias]]))
    assert abs(ours - res.fun) < 1e-4


def test_logistic_label_validation():
    X = np.arange(12, dtype=float).reshape(6, 2)
    ones = LabeledTable([f"s{i}" for i in range(6)], ["a", "b"], X, np.ones(6))
    with pytest.raises(ValueError, match="single class"):
        md.train_logistic(ones)
    weird = LabeledTable([f"s{i}" for i in range(6)], ["a", "b"], X,
                         [0.0, 2.0, 0.0, 2.0, 0.0, 2.0])
    with pytest.raises(ValueError, match="0/1"):
        md.train_logistic(weird)


def brute_force_stump(X, y, w):
    """Exhaustive split search with the same (impurity, feature, left-edge)
    tie-break as the implementation."""
    W = w.sum()
    best = None
    for j in range(X.shape[1]):
        xs = np.unique(X[:, j])
        for a, b in zip(xs[:-1], xs[1:]):
            left = X[:, j] <= a
            wl, wr = w[left].sum(), w[~left].sum()
            pl = (w[left] * y[left]).sum() / wl
            pr = (w[~left] * y[~left]).sum() / wr
            imp = wl * 2 * pl * (1 - pl) + wr * 2 * pr * (1 - pr)
            key = (imp, j, a)
            if best is None or key < best[0]:
                best = (key, {"feature": j, "threshold": (a + b) / 2.0,
                              "p_left": pl, "p_right": pr})
    return best[1]


def test_fit_stump_matches_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(10):
        # small-integer features keep both cumulative and direct sums exact
        X = rng.integers(0, 10, size=(40, 3)).astype(float)
        y = rng.integers(0, 2, size=40).astype(float)
        if y.min() == y.max():
            continue
        w = np.ones(40)
        got = md._fit_stump(X, y, w, range(3))
        want = brute_force_stump(X, y, w)
        assert got["feature"] == want["feature"]
        assert got["threshold"] == want["threshold"]
        assert np.isclose(got["p_left"], want["p_left"])
        assert np.isclose(got["p_right"], want["p_right"])


def test_bagged_predictions_average_stumps():
    stumps = [
        {"feature": 0, "threshold": 0.5, "p_left": 0.2, "p_right": 0.8},
        {"feature": None, "threshold": 0.0, "p_left": 0.4, "p_right": 0.4},
    ]
    model = md.BaggedStumpsModel(columns=["x"], stumps=stumps, seed=0)
    probs = model.predict_proba(np.array([[0.0], [1.0]]))
    assert np.allclose(probs, [0.3, 0.6])


def test_bagging_deterministic_across_threads():
    tab = blob_table(n=50, seed=9)
    one = md.train_bagged_stumps(tab, rounds=8, seed=5, threads=1)
    four = md.train_bagged_stumps(tab, rounds=8, seed=5, threads=4)
    other = md.train_bagged_stumps(tab, rounds=8, seed=6, threads=1)
    assert one.stumps == four.stumps
    assert one.stumps != other.stumps
    with pytest.raises(ValueError, match="rounds"):
        md.train_bagged_stumps(tab, rounds=0)


def test_softplus_at_zero_is_ln2():
    assert abs(md._softplus(0.0) - math.log(2.0)) < 1e-12


def test_mlp_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    k, hidden, n = 3, 4, 6
    model = md.MlpModel(
        columns=["a", "b", "c"],
        mean=np.zeros(k),
        scale=np.ones(k),
        W1=rng.normal(0, 0.5, size=(k, hidden)),
        b1=rng.normal(0, 0.1, size=hidden),
        W2=rng.normal(0, 0.5, size=hidden),
        b2=0.2,
        seed=0,
    )
    Xs = rng.normal(size=(n, k))
    y = np.array([0.0, 1.0, 1.0, 0.0, 1.0, 0.0])
    w = np.ones(n)
    loss, (gW1, gb1, gW2, gb2) = model.loss_and_grad(Xs, y, w)

    # all-ones masks must reproduce the deterministic pass exactly
    masks = (np.ones((n, k)), np.ones((n, hidden)))
    loss_m, grads_m = model.loss_and_grad(Xs, y, w, masks)
    assert loss_m == loss
    assert np.array_equal(grads_m[0], gW1)

    h = 1e-6

    def loss_at():
        return model.loss_and_grad(Xs, y, w)[0]

    for arr, grad in ((model.W1, gW1), (model.b1, gb1), (model.W2, gW2)):
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = arr[ix]
            arr[ix] = orig + h
            up = loss_at()
            arr[ix] = orig - h
            dn = loss_at()
            arr[ix] = orig
            fd = (up - dn) / (2 * h)
            assert abs(fd - grad[ix]) < 1e-6 * max(1.0, abs(grad[ix]))
    orig = model.b2
    model.b2 = orig + h
    up = loss_at()
    model.b2 = orig - h
    dn = loss_at()
    model.b2 = orig
    assert abs((up - dn) / (2 * h) - gb2) < 1e-6


def test_mlp_learns_separable_blobs():
    tab = blob_table(n=200, sep=3.0, seed=10)
    model = md.train_mlp(tab, hidden=8, max_epochs=60, seed=1)
    assert mt.auc_score(tab.y, model.predict_proba(tab.X)) >= 0.95


def test_mlp_needs_rows_for_validation_split():
    tiny = LabeledTable(["a", "b"], ["x"], [[0.0], [1.0]], [0.0, 1.0])
    with pytest.raises(ValueError, match="too small"):
        md.train_mlp(tiny)


@pytest.mark.parametrize("hp, named", [({"hidden": 0}, "hidden=0, batch_size=32"),
                                       ({"batch_size": 0}, "hidden=64, batch_size=0")], ids=["hidden", "batch"])
def test_mlp_needs_hidden_and_batch_of_at_least_one(hp, named):
    with pytest.raises(ValueError, match=f"hidden and batch_size must be >= 1, got {named}"):
        md.train_mlp(blob_table(n=40, seed=12), **hp)


def test_train_dispatch_and_unknown_family():
    tab = blob_table(n=40, seed=12)
    assert isinstance(md.train(tab, "logistic"), md.LogisticModel)
    bag = md.train(tab, "bagged_stumps", {"rounds": 3})
    assert isinstance(bag, md.BaggedStumpsModel) and len(bag.stumps) == 3
    with pytest.raises(ValueError, match="unknown family"):
        md.train(tab, "boosted_ferns")


def test_model_save_load_round_trip(tmp_path):
    tab = blob_table(n=60, sep=2.0, seed=13)
    for family, hp in (("logistic", None),
                       ("bagged_stumps", {"rounds": 4}),
                       ("mlp", {"hidden": 4, "max_epochs": 5})):
        model = md.train(tab, family, hp, seed=2)
        path = str(tmp_path / f"{family}.json")
        md.save_model(model, path)
        back = md.load_model(path)
        assert back.family == family
        assert np.array_equal(back.predict_proba(tab.X), model.predict_proba(tab.X))


def test_load_model_rejects_bad_documents(tmp_path):
    bad_version = tmp_path / "v9.json"
    bad_version.write_text(json.dumps({"format_version": 9, "family": "logistic", "payload": {}}))
    with pytest.raises(ValueError, match="format_version"):
        md.load_model(str(bad_version))
    bad_family = tmp_path / "fam.json"
    bad_family.write_text(json.dumps({"format_version": 1, "family": "svm", "payload": {}}))
    with pytest.raises(ValueError, match="unknown model family"):
        md.load_model(str(bad_family))
    k, h = 2, 3
    mlp = {"columns": ["a", "b"], "mean": [0.0] * k, "scale": [1.0] * k, "W1": [[0.1] * h] * k,
           "b1": [0.0] * h, "W2": [0.5] * h, "b2": 0.0, "seed": 1}
    stumps = {"columns": ["a"], "stumps": [{"feature": 0, "threshold": 0.5, "p_left": 0.1, "p_right": 0.9}],
              "seed": 1}
    for family, payload, named in (
        ("mlp", mlp, None),
        ("mlp", {**mlp, "W1": [[0.1] * h]}, "W1 must be finite numbers of shape (2, 3)"),
        ("mlp", {**mlp, "W2": [0.5] * (h + 1)}, "W2 must be finite numbers of shape (3,)"),
        ("mlp", {**mlp, "b2": float("nan")}, "b2 must be finite numbers of shape ()"),
        ("bagged_stumps", stumps, None),
        ("bagged_stumps", {**stumps, "stumps": []}, "stumps must not be empty"),
        ("bagged_stumps", {**stumps, "stumps": [{**stumps["stumps"][0], "feature": 1}]}, "stump feature 1 is not"),
        ("bagged_stumps", {**stumps, "stumps": [{**stumps["stumps"][0], "feature": 0.0}]}, "stump feature 0.0 is not"),
        ("bagged_stumps", {**stumps, "stumps": [{"feature": None, "threshold": 0.0, "p_left": 0.5}]},
         "missing field 'p_right'"),
        ("bagged_stumps", {**stumps, "stumps": [{**stumps["stumps"][0], "p_left": "0.1"}]}, "p_left must be finite"),
    ):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"format_version": 1, "family": family, "payload": payload}))
        if named is None:
            assert md.load_model(str(path)).family == family
        else:
            with pytest.raises(ValueError, match="^" + re.escape(f"{path}: bad {family} model: {named}")):
                md.load_model(str(path))


# ------------------------------------------------------------- metrics


def test_auc_known_values():
    # 3 of 4 discordance-free pairs
    assert mt.auc_score([0, 0, 1, 1], [0.1, 0.4, 0.35, 0.8]) == 0.75
    assert mt.auc_score([0, 1], [0.2, 0.9]) == 1.0
    assert mt.auc_score([0, 1], [0.9, 0.2]) == 0.0
    # a tied pair contributes one half
    assert mt.auc_score([0, 1], [0.5, 0.5]) == 0.5
    assert mt.auc_score([0, 1, 1], [0.3, 0.3, 0.9]) == 0.75


def test_auc_is_rank_invariant_and_needs_both_classes():
    rng = np.random.default_rng(14)
    y = rng.integers(0, 2, size=50).astype(float)
    s = rng.normal(size=50)
    assert mt.auc_score(y, s) == mt.auc_score(y, np.exp(s))
    with pytest.raises(ValueError, match="both classes"):
        mt.auc_score([1, 1, 1], [0.1, 0.2, 0.3])


def test_decile_lift_weighted_mean_is_one():
    rng = np.random.default_rng(15)
    y = (rng.random(25) < 0.3).astype(float)
    y[0] = 1.0  # guarantee a positive
    s = rng.random(25)
    rows = mt.decile_lift(y, s)
    pops = [n for _, n, _, _ in rows]
    assert sum(pops) == 25
    assert max(pops) - min(pops) <= 1
    weighted = sum(n * lift for _, n, _, lift in rows) / 25
    assert abs(weighted - 1.0) < 1e-12
    with pytest.raises(ValueError, match="no positives"):
        mt.decile_lift([0.0, 0.0], [0.1, 0.2])


def test_decile_one_holds_the_top_scores():
    y = np.array([1.0] * 3 + [0.0] * 27)
    s = np.linspace(1.0, 0.0, 30)  # positives hold the top 3 scores
    rows = mt.decile_lift(y, s)
    assert rows[0][0] == 1 and rows[0][2] == 3
    assert rows[0][3] == (3 / 3) / 0.1
    assert all(r[2] == 0 for r in rows[1:])


def test_evaluate_confusion_counts():
    tab = LabeledTable(
        [f"s{i}" for i in range(6)], ["score"],
        [[0.9], [0.8], [0.6], [0.4], [0.3], [0.1]],
        [1.0, 1.0, 0.0, 1.0, 0.0, 0.0],
    )
    rep = mt.evaluate(_ScoreColumn(0), tab)
    assert (rep.tp, rep.fp, rep.tn, rep.fn) == (2, 1, 2, 1)
    assert rep.accuracy == 4 / 6
    assert rep.sensitivity == 2 / 3
    assert rep.specificity == 2 / 3
    assert rep.precision == 2 / 3
    assert rep.base_rate == 0.5
    assert np.isclose(rep.auc, 8 / 9)


def test_evaluate_no_predicted_positives_and_single_class():
    tab = LabeledTable(["a", "b"], ["score"], [[0.2], [0.4]], [0.0, 1.0])
    rep = mt.evaluate(_ScoreColumn(0), tab, threshold=0.9)
    assert rep.precision is None
    assert (rep.tp, rep.fp) == (0, 0)
    assert rep.specificity == 1.0
    ones = LabeledTable(["a", "b"], ["score"], [[0.2], [0.4]], [1.0, 1.0])
    with pytest.raises(ValueError, match="single class"):
        mt.evaluate(_ScoreColumn(0), ones)


def test_eval_and_lift_writers(tmp_path):
    tab = LabeledTable(
        [f"s{i}" for i in range(6)], ["score"],
        [[0.9], [0.8], [0.6], [0.4], [0.3], [0.1]],
        [1.0, 1.0, 0.0, 1.0, 0.0, 0.0],
    )
    rep = mt.evaluate(_ScoreColumn(0), tab)
    epath = tmp_path / "eval.csv"
    mt.write_eval_csv(rep, str(epath), header_comment="# cdrlab eval")
    lines = epath.read_text().splitlines()
    assert lines[0] == "# cdrlab eval"
    assert lines[1] == "metric,value"
    values = dict(line.split(",", 1) for line in lines[2:])
    assert float(values["accuracy"]) == rep.accuracy
    assert int(values["tp"]) == 2

    lpath = tmp_path / "lift.csv"
    mt.write_lift_csv(rep, str(lpath))
    llines = lpath.read_text().splitlines()
    assert llines[0] == "decile,population,positives,lift"
    assert len(llines) == 11


# ----------------------------------------------------------- selection


def test_aic_formula_and_perfect_fit():
    assert sel._aic(100, 50.0, 3) == 100 * math.log(0.5) + 2 * 4
    assert sel._aic(10, 0.0, 2) == -math.inf


def test_fit_ols_recovers_exact_line():
    x = np.arange(10, dtype=float)
    y = 2.0 * x + 1.0
    model = sel.fit_ols(x.reshape(-1, 1), y)
    assert np.isclose(model.coef[0], 2.0)
    assert np.isclose(model.intercept, 1.0)
    assert model.r2 > 1.0 - 1e-12
    assert model.aic < 10 * math.log(1e-21) + 2 * 2  # an RSS below 1e-20, or exactly 0 (-inf)
    assert np.allclose(x * model.coef[0] + model.intercept, y)
    with pytest.raises(ValueError, match="cannot fit"):
        sel.fit_ols(np.zeros((3, 3)), np.zeros(3))


def test_constant_response_is_refused():
    X = np.array([[1, 2], [2, 1], [3, 5], [4, 3], [5, 9]], dtype=float)
    with pytest.raises(ValueError, match="constant response"):
        sel.select_covariates(X, np.ones(5), ["x1", "x2"])
    # seven times 0.1 has a mean just off 0.1, so its ss_tot is 1.3e-33, not 0
    with pytest.raises(ValueError, match="constant response"):
        sel.fit_ols(np.arange(7.0).reshape(-1, 1), np.full(7, 0.1))


def test_prune_correlated_drops_duplicate():
    rng = np.random.default_rng(18)
    a = rng.normal(size=200)
    b = rng.normal(size=200)
    dup = a + 1e-6 * rng.normal(size=200)
    X = np.column_stack([a, b, dup])
    kept, dropped = sel.prune_correlated(X, ["a", "b", "dup"])
    assert kept == ["a", "b"]
    assert len(dropped) == 1
    name, partner, r = dropped[0]
    assert (name, partner) == ("dup", "a")
    assert abs(r) > 0.999


def test_prune_priority_controls_survivor():
    rng = np.random.default_rng(19)
    a = rng.normal(size=100)
    X = np.column_stack([a, a + 1e-6 * rng.normal(size=100)])
    kept, dropped = sel.prune_correlated(X, ["a", "dup"], priority=["dup", "a"])
    assert kept == ["dup"]
    assert dropped[0][0] == "a"
    with pytest.raises(ValueError, match="permutation"):
        sel.prune_correlated(X, ["a", "dup"], priority=["a"])


def test_prune_keeps_constant_columns_and_respects_cut():
    rng = np.random.default_rng(20)
    a = rng.normal(size=300)
    related = 0.9 * a + np.sqrt(1 - 0.81) * rng.normal(size=300)  # r near 0.9
    X = np.column_stack([a, related, np.ones(300)])
    kept_tight, _ = sel.prune_correlated(X, ["a", "rel", "const"], r_cut=0.99)
    assert kept_tight == ["a", "rel", "const"]
    kept_loose, dropped = sel.prune_correlated(X, ["a", "rel", "const"], r_cut=0.5)
    assert kept_loose == ["a", "const"]
    assert dropped[0][:2] == ("rel", "a")


def test_select_covariates_recovers_planted_terms():
    rng = np.random.default_rng(21)
    n = 200
    X = rng.normal(size=(n, 6))
    cols = ["a", "b", "c", "d", "e", "f"]
    y = 3.0 * X[:, 0] - 2.0 * X[:, 1] + 0.1 * rng.normal(size=n)
    result = sel.select_covariates(X, y, cols)
    assert result.selected[:2] == ["a", "b"]
    assert set(result.selected) <= {"a", "b", "c", "d", "e", "f"}
    assert result.model.r2 > 0.99
    # the fitted model is never worse than the intercept-only baseline
    empty_aic = sel._aic(n, float(((y - y.mean()) ** 2).sum()), 0)
    assert result.model.aic <= empty_aic


def test_select_covariates_prunes_duplicates_first():
    rng = np.random.default_rng(22)
    n = 150
    a = rng.normal(size=n)
    b = rng.normal(size=n)
    X = np.column_stack([a, b, a + 1e-6 * rng.normal(size=n)])
    y = 2.0 * a + b + 0.05 * rng.normal(size=n)
    result = sel.select_covariates(X, y, ["a", "b", "dup"])
    assert [d[0] for d in result.dropped_by_pruning] == ["dup"]
    assert "dup" not in result.selected
    assert set(result.selected) == {"a", "b"}


def test_exhaustive_matches_stepwise_on_clean_design():
    rng = np.random.default_rng(23)
    n = 120
    X = rng.normal(size=(n, 4))
    y = 2.5 * X[:, 1] + 0.1 * rng.normal(size=n)
    cols = ["p", "q", "r", "s"]
    step = sel.select_covariates(X, y, cols)
    full = sel.select_covariates(X, y, cols, exhaustive=True)
    assert set(step.selected) == set(full.selected) == {"q"}
    assert np.isclose(step.model.aic, full.model.aic)


def test_exhaustive_limit():
    rng = np.random.default_rng(24)
    X = rng.normal(size=(40, 16))
    y = rng.normal(size=40)
    with pytest.raises(ValueError, match="at most 15"):
        sel.select_covariates(X, y, [f"c{i}" for i in range(16)], exhaustive=True)


def test_constant_column_never_selected():
    rng = np.random.default_rng(25)
    n = 80
    x = rng.normal(size=n)
    X = np.column_stack([x, np.full(n, 7.0)])
    y = 1.5 * x + 0.1 * rng.normal(size=n)
    result = sel.select_covariates(X, y, ["x", "const"])
    assert "const" in result.kept_after_pruning
    assert result.selected == ["x"]


@pytest.mark.parametrize("where", ["X", "y"])
@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_select_covariates_rejects_non_finite_input(where, bad):
    # run in a child with a deadline: a nan AIC once made the stepwise loop
    # add and drop the same covariate forever
    code = (
        "import numpy as np\n"
        "from cdrlab.mlkit import selection as sel\n"
        "rng = np.random.default_rng(28)\n"
        "X = rng.normal(size=(30, 2))\n"
        "y = 2.0 * X[:, 0] + 0.1 * rng.normal(size=30)\n"
        f"{where}[3] = float({bad!r})\n"
        "try:\n"
        "    sel.select_covariates(X, y, ['x1', 'x2'])\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.dirname(os.path.dirname(os.path.dirname(sel.__file__))), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "non-finite value in X or y" in done.stdout


# ------------------------------------------------------------ campaign


def test_two_proportion_z_against_normal_tail():
    z, p = cg.two_proportion_z(30, 200, 15, 190)
    pooled = 45 / 390
    var = pooled * (1 - pooled) * (1 / 200 + 1 / 190)
    z_want = (30 / 200 - 15 / 190) / math.sqrt(var)
    assert abs(z - z_want) < 1e-12
    assert abs(p - 2 * norm.sf(abs(z_want))) < 1e-12


def test_two_proportion_z_edge_cases():
    z, p = cg.two_proportion_z(20, 100, 20, 100)
    assert z == 0.0 and p == 1.0
    assert cg.two_proportion_z(0, 50, 0, 60) == (0.0, 1.0)
    assert cg.two_proportion_z(50, 50, 60, 60) == (0.0, 1.0)
    with pytest.raises(ValueError, match="positive"):
        cg.two_proportion_z(1, 0, 1, 10)
    with pytest.raises(ValueError, match="exceed"):
        cg.two_proportion_z(11, 10, 1, 10)


def campaign_fixture():
    tab = LabeledTable(
        ["s1", "s2", "s3", "s4", "s5", "s6"], ["score"],
        [[0.9], [0.8], [0.8], [0.5], [0.3], [0.1]],
        [0.0, 1.0, 0.0, 1.0, 0.0, 1.0],
    )
    outcomes = {
        "s1": {"converted": True, "renewed": True},
        "s2": {"converted": True, "renewed": True},
        "s3": {"converted": True, "renewed": False},
        "s4": {"converted": False, "renewed": False},
        "s5": {"converted": False, "renewed": False},
        "s6": {"converted": False, "renewed": False},
    }
    return tab, outcomes


def test_run_campaign_ranks_and_tallies():
    tab, outcomes = campaign_fixture()
    out = cg.run_campaign(tab, _ScoreColumn(0), treatment_size=3,
                          control_ids=["s1", "s5"], outcomes=outcomes)
    # control is excluded before ranking; the 0.8 tie breaks by id
    assert out.treatment_ids == ["s2", "s3", "s4"]
    assert out.control_ids == ["s1", "s5"]
    assert out.treatment_conversions == 2 and out.control_conversions == 1
    assert out.treatment_renewals == 1 and out.control_renewals == 1
    assert out.treatment_rate == 2 / 3
    assert out.control_rate == 1 / 2
    assert out.treatment_renewal_rate == 1 / 2
    assert out.control_renewal_rate == 1.0
    z_want, p_want = cg.two_proportion_z(2, 3, 1, 2)
    assert (out.z, out.p_value) == (z_want, p_want)


def test_run_campaign_dedupes_control_and_validates():
    tab, outcomes = campaign_fixture()
    out = cg.run_campaign(tab, _ScoreColumn(0), treatment_size=2,
                          control_ids=["s1", "s5", "s1"], outcomes=outcomes)
    assert out.control_ids == ["s1", "s5"]
    with pytest.raises(ValueError, match="control ids not in table"):
        cg.run_campaign(tab, _ScoreColumn(0), 2, ["ghost"], outcomes)
    for bad_size in (0, 5):
        with pytest.raises(ValueError, match="treatment_size"):
            cg.run_campaign(tab, _ScoreColumn(0), bad_size, ["s1", "s5"], outcomes)
    partial = dict(outcomes)
    del partial["s4"]
    with pytest.raises(ValueError, match="no outcome recorded for 's4'"):
        cg.run_campaign(tab, _ScoreColumn(0), 3, ["s1", "s5"], partial)


def test_renewal_rate_none_without_conversions():
    tab, outcomes = campaign_fixture()
    cold = {k: {"converted": False, "renewed": False} for k in outcomes}
    out = cg.run_campaign(tab, _ScoreColumn(0), 2, ["s1"], cold)
    assert out.treatment_renewal_rate is None
    assert out.control_renewal_rate is None
    assert (out.z, out.p_value) == (0.0, 1.0)


def test_campaign_writer(tmp_path):
    tab, outcomes = campaign_fixture()
    out = cg.run_campaign(tab, _ScoreColumn(0), 3, ["s1", "s5"], outcomes)
    path = tmp_path / "campaign.csv"
    cg.write_campaign_csv(out, str(path), header_comment="# cdrlab campaign")
    lines = path.read_text().splitlines()
    assert lines[0] == "# cdrlab campaign"
    assert lines[1] == "metric,treatment,control"
    assert lines[2] == "size,3,2"
    assert lines[3] == "conversions,2,1"
