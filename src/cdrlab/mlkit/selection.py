"""Covariate selection: correlation pruning then stepwise least squares.

Phase 1 walks a priority order and drops any candidate whose absolute
Pearson correlation with an already-kept candidate exceeds the cut.
Phase 2 is forward-backward stepwise OLS minimizing
AIC = n ln(RSS / n) + 2k, with an exhaustive all-subsets mode for small
candidate sets.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

R_CUT_DEFAULT = 0.70
EXHAUSTIVE_LIMIT = 15


@dataclass
class LinearModel:
    intercept: float
    coef: np.ndarray
    r2: float
    aic: float


@dataclass
class SelectionResult:
    kept_after_pruning: list[str]
    dropped_by_pruning: list[tuple[str, str, float]]  # (dropped, kept partner, r)
    selected: list[str]
    model: LinearModel


def _aic(n: int, rss: float, k: int) -> float:
    # k counts the intercept; RSS of 0 (perfect fit) wins every comparison
    if rss <= 0:
        return -math.inf
    return n * math.log(rss / n) + 2 * (k + 1)


def fit_ols(X: np.ndarray, y: np.ndarray) -> LinearModel:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(y)
    k = X.shape[1] if X.ndim == 2 else 0
    if n <= k + 1:
        raise ValueError(f"n={n} rows cannot fit {k} covariates plus intercept")
    A = np.column_stack([np.ones(n), X]) if k else np.ones((n, 1))
    beta, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ beta
    rss = float(resid @ resid)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    if ss_tot == 0 or y.min() == y.max():
        raise ValueError("constant response: r2 and AIC are undefined")
    return LinearModel(intercept=float(beta[0]), coef=beta[1:], r2=1.0 - rss / ss_tot, aic=_aic(n, rss, k))


def _subset_rss(X: np.ndarray, y: np.ndarray, cols: tuple[int, ...]) -> float:
    n = len(y)
    A = np.column_stack([np.ones(n)] + [X[:, j] for j in cols])
    beta, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ beta
    return float(resid @ resid)


def prune_correlated(X: np.ndarray, columns: list[str], r_cut: float = R_CUT_DEFAULT,
                     priority: list[str] | None = None):
    """Keep the first-listed member of every over-correlated pair.

    priority defaults to the given column order.  Constant columns
    correlate with nothing and are kept (stepwise will ignore them).
    """
    order = list(columns) if priority is None else list(priority)
    if sorted(order) != sorted(columns):
        raise ValueError("priority must be a permutation of the columns")
    X = np.asarray(X, dtype=float)
    std = X.std(axis=0)
    centered = X - X.mean(axis=0)
    col_idx = {c: j for j, c in enumerate(columns)}
    kept: list[str] = []
    dropped: list[tuple[str, str, float]] = []
    for cand in order:
        j = col_idx[cand]
        clash = None
        for prev in kept:
            i = col_idx[prev]
            if std[i] == 0 or std[j] == 0:
                continue
            r = float((centered[:, i] * centered[:, j]).mean() / (std[i] * std[j]))
            if abs(r) > r_cut:
                clash = (prev, r)
                break
        if clash is None:
            kept.append(cand)
        else:
            dropped.append((cand, clash[0], clash[1]))
    return kept, dropped


def select_covariates(
    X: np.ndarray,
    y: np.ndarray,
    columns: list[str],
    r_cut: float = R_CUT_DEFAULT,
    priority: list[str] | None = None,
    exhaustive: bool = False,
) -> SelectionResult:
    """Two-phase covariate selection for a linear response.

    Returns the surviving candidates, the stepwise-selected subset in
    inclusion order, and the fitted least-squares model.  exhaustive=True
    scores every subset (only allowed for at most 15 survivors).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("non-finite value in X or y; the stepwise search needs finite data")
    n = len(y)
    kept, dropped = prune_correlated(X, columns, r_cut=r_cut, priority=priority)
    col_idx = {c: j for j, c in enumerate(columns)}
    candidates = [c for c in kept if X[:, col_idx[c]].std() > 0]

    if exhaustive:
        if len(candidates) > EXHAUSTIVE_LIMIT:
            raise ValueError(
                f"exhaustive mode allows at most {EXHAUSTIVE_LIMIT} candidates, got {len(candidates)}"
            )
        best: tuple[float, tuple[str, ...]] = (_aic(n, _subset_rss(X, y, ()), 0), ())
        for size in range(1, len(candidates) + 1):
            if n <= size + 1:
                break
            for combo in itertools.combinations(candidates, size):
                aic = _aic(n, _subset_rss(X, y, tuple(col_idx[c] for c in combo)), size)
                if aic < best[0]:
                    best = (aic, combo)
        selected = list(best[1])
    else:
        selected = []
        current_aic = _aic(n, _subset_rss(X, y, ()), 0)
        while True:
            moves: list[tuple[float, str, str]] = []
            if n > len(selected) + 2:
                for c in candidates:
                    if c in selected:
                        continue
                    trial = tuple(col_idx[f] for f in selected + [c])
                    moves.append((_aic(n, _subset_rss(X, y, trial), len(trial)), "add", c))
            for c in selected:
                trial = tuple(col_idx[f] for f in selected if f != c)
                moves.append((_aic(n, _subset_rss(X, y, trial), len(trial)), "drop", c))
            if not moves:
                break
            moves.sort(key=lambda m: (m[0], m[1], m[2]))
            best_aic, action, feat = moves[0]
            if best_aic >= current_aic:
                break
            current_aic = best_aic
            if action == "add":
                selected.append(feat)
            else:
                selected.remove(feat)

    model = fit_ols(X[:, [col_idx[c] for c in selected]] if selected else np.empty((n, 0)), y)
    return SelectionResult(kept_after_pruning=kept, dropped_by_pruning=dropped, selected=selected, model=model)
