"""Evaluation protocols: threshold metrics, rank-statistic AUC, decile
lift, and stratified cross-validation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ingest import write_csv
from ..rng import derive_rng, derive_seed


def auc_score(y_true, scores) -> float:
    """Area under the ROC curve as the rank statistic; ties add one half.

    Invariant under any strictly monotone transform of the scores.
    """
    y = np.asarray(y_true, dtype=float)
    s = np.asarray(scores, dtype=float)
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both classes present")
    order = np.argsort(s, kind="stable")
    ranks = np.empty(len(s))
    sorted_s = s[order]
    i = 0
    while i < len(s):
        j = i
        while j + 1 < len(s) and sorted_s[j + 1] == sorted_s[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0  # midrank, 1-based
        i = j + 1
    return float((ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


@dataclass
class EvalReport:
    accuracy: float
    sensitivity: float
    specificity: float
    precision: float | None
    auc: float
    tp: int
    fp: int
    tn: int
    fn: int
    base_rate: float
    # (decile 1-based, population, positives, lift); decile 1 = highest scores
    lift: list[tuple[int, int, int, float]]


def decile_lift(y_true, scores) -> list[tuple[int, int, int, float]]:
    """Positive-rate lift per descending-score decile.

    Decile populations differ by at most one and sum to n; the
    population-weighted mean lift is 1 by construction.
    """
    y = np.asarray(y_true, dtype=float)
    s = np.asarray(scores, dtype=float)
    overall = y.mean()
    if overall == 0:
        raise ValueError("no positives; lift undefined")
    order = np.argsort(-s, kind="stable")
    rows = []
    for d, chunk in enumerate(np.array_split(order, 10), start=1):
        pos = int(y[chunk].sum())
        n = len(chunk)
        rate = pos / n if n else 0.0
        rows.append((d, n, pos, float(rate / overall)))
    return rows


def evaluate(model, test, threshold: float = 0.5) -> EvalReport:
    """Threshold and ranking metrics of a classifier on a labeled table.

    The test table must contain both classes.
    """
    y = test.y
    if len(np.unique(y)) < 2:
        raise ValueError("test set has a single class")
    scores = model.predict_proba(test.X)
    pred = (scores >= threshold).astype(float)
    tp = int(((pred == 1) & (y == 1)).sum())
    fp = int(((pred == 1) & (y == 0)).sum())
    tn = int(((pred == 0) & (y == 0)).sum())
    fn = int(((pred == 0) & (y == 1)).sum())
    predicted_pos = tp + fp
    return EvalReport(
        accuracy=(tp + tn) / len(y),
        sensitivity=tp / (tp + fn),
        specificity=tn / (tn + fp),
        precision=(tp / predicted_pos) if predicted_pos else None,
        auc=auc_score(y, scores),
        tp=tp,
        fp=fp,
        tn=tn,
        fn=fn,
        base_rate=float(y.mean()),
        lift=decile_lift(y, scores),
    )


def stratified_folds(y, folds: int, seed: int = 0) -> list[np.ndarray]:
    """Disjoint exhaustive fold index arrays; sizes differ by at most one.

    Members of each class are dealt round-robin across folds from a shared
    cursor, so folds are class-balanced as far as counts allow.
    """
    y = np.asarray(y, dtype=float)
    n = len(y)
    if not 2 <= folds <= n:
        raise ValueError(f"folds must be in [2, {n}]")
    assignment = np.empty(n, dtype=int)
    cursor = 0
    for c in sorted(set(y.tolist())):
        members = np.flatnonzero(y == c)
        order = derive_rng(seed, "folds", repr(c)).permutation(len(members))
        for i in members[order]:
            assignment[i] = cursor % folds
            cursor += 1
    return [np.flatnonzero(assignment == f) for f in range(folds)]


@dataclass
class CrossValReport:
    folds: int
    per_fold: list[dict[str, float]]
    mean: dict[str, float]
    std: dict[str, float]


def cross_validate(table, family: str, hyperparameters: dict | None = None,
                   folds: int = 10, seed: int = 0, threads: int = 1) -> CrossValReport:
    """Stratified k-fold evaluation; metrics undefined on a fold (for
    instance AUC on a single-class holdout) are skipped in the aggregate.
    """
    from .models import train
    from ..parallel import parallel_map

    fold_idx = stratified_folds(table.y, folds, seed=seed)
    all_idx = set(range(len(table)))

    def run_fold(f: int) -> dict[str, float]:
        test_idx = sorted(fold_idx[f].tolist())
        train_idx = sorted(all_idx - set(test_idx))
        model = train(table.take(train_idx), family, hyperparameters,
                      seed=derive_seed(seed, "cv", str(f)))
        test = table.take(test_idx)
        scores = model.predict_proba(test.X)
        pred = (scores >= 0.5).astype(float)
        out = {"accuracy": float((pred == test.y).mean())}
        if len(np.unique(test.y)) == 2:
            out["auc"] = auc_score(test.y, scores)
            out["sensitivity"] = float(((pred == 1) & (test.y == 1)).sum() / (test.y == 1).sum())
            out["specificity"] = float(((pred == 0) & (test.y == 0)).sum() / (test.y == 0).sum())
        return out

    per_fold = parallel_map(run_fold, range(folds), threads=threads)
    keys = sorted({k for d in per_fold for k in d})
    mean = {}
    std = {}
    for k in keys:
        vals = np.array([d[k] for d in per_fold if k in d])
        mean[k] = float(vals.mean())
        std[k] = float(vals.std(ddof=1)) if len(vals) > 1 else 0.0
    return CrossValReport(folds=folds, per_fold=per_fold, mean=mean, std=std)


def write_eval_csv(report: EvalReport, path: str, header_comment: str | None = None) -> None:
    rows = [
        ["accuracy", repr(report.accuracy)],
        ["sensitivity", repr(report.sensitivity)],
        ["specificity", repr(report.specificity)],
        ["precision", "" if report.precision is None else repr(report.precision)],
        ["auc", repr(report.auc)],
        ["base_rate", repr(report.base_rate)],
        ["tp", report.tp],
        ["fp", report.fp],
        ["tn", report.tn],
        ["fn", report.fn],
    ]
    write_csv(path, ["metric", "value"], rows, header_comment)


def write_lift_csv(report: EvalReport, path: str, header_comment: str | None = None) -> None:
    rows = ([d, n, pos, repr(lift)] for d, n, pos, lift in report.lift)
    write_csv(path, ["decile", "population", "positives", "lift"], rows, header_comment)
