"""Evaluation of a trained classifier: threshold metrics, rank-statistic
AUC, decile lift, and their CSV writers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ingest import write_csv


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
    _, group, counts = np.unique(s, return_inverse=True, return_counts=True)
    last = np.cumsum(counts) - 1  # 0-based sorted position of each run of ties' last score
    ranks = ((2 * last + 1 - counts) / 2.0 + 1.0)[group]  # (first + last) / 2 + 1: the 1-based midrank
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
    if not len(y) or y.min() == y.max():
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


def write_eval_csv(report: EvalReport, path: str, header_comment: str | None = None) -> None:
    names = ("accuracy", "sensitivity", "specificity", "precision", "auc", "base_rate", "tp", "fp", "tn", "fn")
    rows = ([name, getattr(report, name)] for name in names)
    write_csv(path, ["metric", "value"], rows, header_comment)


def write_lift_csv(report: EvalReport, path: str, header_comment: str | None = None) -> None:
    write_csv(path, ["decile", "population", "positives", "lift"], report.lift, header_comment)
