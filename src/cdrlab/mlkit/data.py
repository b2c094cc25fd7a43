"""Labeled feature tables, stratified splitting, and minority upsampling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..rng import derive_rng


@dataclass
class LabeledTable:
    """Aligned subscriber rows: ids, feature matrix, and one label column.

    Labels are floats; classification code treats them as {0, 1}.  No NaN
    is allowed in X or y; build through from_records to impute or drop
    rows with absent values first.
    """

    ids: list[str]
    columns: list[str]
    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.X.ndim != 2:
            raise ValueError("X must be 2-D")
        n, k = self.X.shape
        if len(self.ids) != n or len(self.y) != n:
            raise ValueError("ids, X, and y lengths disagree")
        if len(self.columns) != k:
            raise ValueError("column names do not match X width")
        if len(set(self.ids)) != n:
            raise ValueError("duplicate ids")
        if not np.isfinite(self.X).all() or not np.isfinite(self.y).all():
            raise ValueError("non-finite values in table; impute or drop first")

    def __len__(self) -> int:
        return len(self.ids)

    def take(self, indices, id_suffix: str | None = None) -> "LabeledTable":
        indices = list(indices)
        ids = [self.ids[i] for i in indices]
        if id_suffix is not None:
            seen: dict[str, int] = {}
            out = []
            for i in ids:
                c = seen.get(i, 0)
                out.append(i if c == 0 else f"{i}{id_suffix}{c}")
                seen[i] = c + 1
            ids = out
        return LabeledTable(ids, list(self.columns), self.X[indices], self.y[indices])

    @classmethod
    def from_records(
        cls,
        ids: list[str],
        columns: list[str],
        rows: list[list],
        labels: list[float],
        na_policy: str = "drop",
    ) -> "LabeledTable":
        """Build a table from rows that may contain None.

        na_policy: "drop" removes rows with any absent value, "impute_mean"
        fills absents with the column mean over present values, "error"
        refuses.
        """
        if na_policy not in ("drop", "impute_mean", "error"):
            raise ValueError(f"unknown na_policy {na_policy!r}")
        X = np.array(
            [[np.nan if v is None else float(v) for v in row] for row in rows],
            dtype=float,
        ).reshape(len(rows), len(columns))
        y = np.array([np.nan if v is None else float(v) for v in labels])
        bad = ~np.isfinite(X).all(axis=1) | ~np.isfinite(y)
        if bad.any():
            if na_policy == "error":
                raise ValueError(f"{int(bad.sum())} row(s) with absent values")
            if na_policy == "drop":
                keep = ~bad
                return cls([i for i, k in zip(ids, keep) if k], list(columns), X[keep], y[keep])
            if not np.isfinite(y).all():
                raise ValueError("absent labels cannot be imputed")
            for j in range(X.shape[1]):
                col = X[:, j]
                missing = ~np.isfinite(col)
                if missing.all():
                    raise ValueError(f"column {columns[j]!r} has no present values")
                col[missing] = col[~missing].mean()
        return cls(list(ids), list(columns), X, y)


def _largest_remainder(counts: list[int], fraction: float, total_take: int) -> list[int]:
    """Allocate total_take across groups proportionally to counts."""
    exact = [fraction * c for c in counts]
    take = [min(int(e), c) for e, c in zip(exact, counts)]
    remaining = total_take - sum(take)
    order = sorted(range(len(counts)), key=lambda i: (-(exact[i] - take[i]), i))
    while remaining > 0:
        for g in order:
            if remaining > 0 and take[g] < counts[g]:
                take[g] += 1
                remaining -= 1
        if all(t == c for t, c in zip(take, counts)):
            break
    return take


def split_train_test(
    table: LabeledTable,
    fraction: float = 0.75,
    seed: int = 0,
    stratify: bool = True,
) -> tuple[LabeledTable, LabeledTable]:
    """Disjoint, exhaustive train/test split, stratified by label by default.

    The train side gets round(fraction * n) rows overall, allocated across
    classes by largest remainder so class proportions are preserved within
    one row.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must be in (0, 1)")
    n = len(table)
    n_train = int(round(fraction * n))
    if not stratify:
        order = derive_rng(seed, "split").permutation(n)
        train_idx = sorted(order[:n_train].tolist())
        test_idx = sorted(order[n_train:].tolist())
        return table.take(train_idx), table.take(test_idx)
    classes = sorted(set(table.y.tolist()))
    members = {c: [i for i in range(n) if table.y[i] == c] for c in classes}
    takes = _largest_remainder([len(members[c]) for c in classes], fraction, n_train)
    train_idx: list[int] = []
    test_idx: list[int] = []
    for c, take in zip(classes, takes):
        idx = np.array(members[c])
        order = derive_rng(seed, "split", repr(c)).permutation(len(idx))
        train_idx.extend(idx[order[:take]].tolist())
        test_idx.extend(idx[order[take:]].tolist())
    return table.take(sorted(train_idx)), table.take(sorted(test_idx))


def upsample_minority(train: LabeledTable, seed: int = 0) -> LabeledTable:
    """Resample the minority class with replacement up to the majority size.

    The majority rows are untouched; appended duplicates get a "#r<i>" id
    suffix to keep ids unique.  A balanced table comes back unchanged.
    """
    classes, counts = np.unique(train.y, return_counts=True)
    if len(classes) != 2:
        raise ValueError(f"upsample_minority needs exactly 2 classes, got {len(classes)}")
    if counts[0] == counts[1]:
        return train
    minority = classes[int(np.argmin(counts))]
    deficit = int(abs(counts[0] - counts[1]))
    pool = np.flatnonzero(train.y == minority)
    extra = derive_rng(seed, "upsample").choice(pool, size=deficit, replace=True)
    return train.take(list(range(len(train))) + extra.tolist(), id_suffix="#r")
