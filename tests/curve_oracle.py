"""The former curve results, kept as oracles of the array columns in ``adoption`` and ``anomaly``.

``adoption_probability_curve`` gave one ``PkPoint`` per k, with ``None`` for a
p_k that no node supports, plus a dict of the defined uplifts (empty when p_0
was undefined or 0).  ``rank_activation_curves`` took a tuple of ranks and gave
rank -> list dicts, with ``None`` for a ratio whose comparison mean is 0, and a
list of bin offsets.  The array forms hold the same numbers as numpy columns,
with nan for each ``None`` and each missing uplift, and must give every other
number to the bit and the same CSV bytes through their own writers.

The list-of-dicts component evolution is ``graph_oracle.component_evolution``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from cdrlab.anomaly import _top_contacts
from cdrlab.ingest import write_csv
from cdrlab.records import SECONDS_PER_DAY, VOICE, Dataset, day_start, distinct


@dataclass
class PkPoint:
    k: int
    n_k: int
    a_k: int
    p_k: float | None
    reliable: bool


@dataclass
class PkCurve:
    points: list[PkPoint]
    uplift: dict[int, float]


def adoption_probability_curve(g, adopted: np.ndarray, k_max: int = 5, min_support: int = 30) -> PkCurve:
    """p_k = P(adopted | exactly k adopting friends), one point per k in 0..k_max."""
    n = g.node_count()
    k = np.bincount(g.u[adopted[g.v]], minlength=n) + np.bincount(g.v[adopted[g.u]], minlength=n)
    n_k, a_k = (np.bincount(x, minlength=k_max + 1)[:k_max + 1].tolist() for x in (k, k[adopted]))
    points = [PkPoint(kk, nk, ak, ak / nk if nk else None, nk >= min_support)
              for kk, (nk, ak) in enumerate(zip(n_k, a_k))]
    p0 = points[0].p_k
    return PkCurve(points, {pt.k: pt.p_k / p0 for pt in points if pt.p_k is not None} if p0 else {})


def write_pk_csv(curve: PkCurve, path: str, header_comment: str | None = None,
                 k_max: int = 0, min_support: int = 30) -> None:
    rows = ([pt.k, pt.n_k, pt.a_k, pt.p_k, curve.uplift.get(pt.k), int(pt.reliable)] for pt in curve.points)
    empty = ([k, 0, 0, None, None, int(0 >= min_support)] for k in range(len(curve.points), k_max + 1))
    write_csv(path, ["k", "n_k", "a_k", "p_k", "uplift", "reliable"], itertools.chain(rows, empty), header_comment)


@dataclass
class RankCurves:
    event_day: int
    bin_width: int
    offsets: list[int]
    # rank -> per-bin event-day fraction, comparison mean, and their ratio
    # (None where the comparison mean is 0)
    event_fraction: dict[int, list[float]]
    comparison_mean: dict[int, list[float]]
    ratio: dict[int, list[float | None]]


def _day_fraction_curves(ds: Dataset, day: int, rank_keys: np.ndarray, rank_values: np.ndarray,
                         ranks: tuple[int, ...], bin_width: int) -> dict[int, np.ndarray]:
    """Per rank: fraction of that day's active subscribers calling their rank-k contact in each bin."""
    n_bins = SECONDS_PER_DAY // bin_width
    c = ds.cdrs
    n = len(c.subscriber_ids)
    rows = ds.cdrs_between(day, day + SECONDS_PER_DAY)
    caller = c.caller[rows]
    denom = max(1, int(np.count_nonzero(np.bincount(caller, minlength=n))))
    voice = (c.kind[rows] == VOICE) & (c.callee[rows] >= 0)
    caller, bins = caller[voice], (c.ts[rows][voice] - day) // bin_width
    key = caller.astype(np.int64) * n + c.callee[rows][voice]
    at = np.minimum(np.searchsorted(rank_keys, key), max(len(rank_keys) - 1, 0))
    hit = rank_keys[at] == key if len(rank_keys) else np.zeros(len(key), dtype=bool)
    hits = distinct((rank_values[at[hit]] * n_bins + bins[hit]) * n + caller[hit])
    counts = np.bincount(hits // n, minlength=(max(ranks) + 1) * n_bins).reshape(-1, n_bins)
    return {k: counts[k] / denom for k in ranks}


def rank_activation_curves(ds: Dataset, event_time: int, ranks: tuple[int, ...] = (1, 2, 3, 4, 5),
                           bin_width: int = 300, comparison_days: list[int] = ()) -> RankCurves:
    """The event-day curve of each rank, divided bin-wise by the comparison-day mean."""
    event_day = day_start(event_time)
    rank_keys, rank_values = _top_contacts(ds, (ds.window[0], event_day), max(ranks))
    event_curves = _day_fraction_curves(ds, event_day, rank_keys, rank_values, tuple(ranks), bin_width)
    comp_curves = [_day_fraction_curves(ds, day_start(d), rank_keys, rank_values, tuple(ranks), bin_width)
                   for d in comparison_days]
    offsets = [i * bin_width for i in range(SECONDS_PER_DAY // bin_width)]
    event_fraction, comparison_mean, ratio = {}, {}, {}
    for k in ranks:
        ev = event_curves[k]
        cm = np.mean([c[k] for c in comp_curves], axis=0)
        event_fraction[k] = ev.tolist()
        comparison_mean[k] = cm.tolist()
        ratio[k] = [float(e / m) if m > 0 else None for e, m in zip(ev, cm)]
    return RankCurves(event_day, bin_width, offsets, event_fraction, comparison_mean, ratio)


def write_rank_curves_csv(curves: RankCurves, path: str, header_comment: str | None = None) -> None:
    rows = (
        [k, off, curves.event_fraction[k][i], curves.comparison_mean[k][i], curves.ratio[k][i]]
        for k in sorted(curves.ratio)
        for i, off in enumerate(curves.offsets)
    )
    write_csv(path, ["rank", "offset_seconds", "event_fraction", "comparison_mean", "ratio"],
              rows, header_comment)
