"""Per-subscriber behavioral features: financial, mobility, social, basic.

One grouped pass computes every column for all subscribers at once.
Missing information is an explicit absent (nan inside the pass, an empty
cell in features.csv), never zero: a subscriber with no recharges has no
spending speed, and conflating that with 0 currency/day would poison any
downstream model.  With finite inputs no feature is nan for another reason.

Every sum adds a subscriber's events left to right in dataset order, which
is the order `np.bincount` adds its weights in, so no column depends on how
the interpreter's `sum` rounds.
"""

from __future__ import annotations

import math

import numpy as np

from .geo import haversine_km_to
from .ingest import write_csv
from .records import COMM_KINDS, DATA, EVENT_KINDS, SECONDS_PER_DAY, SMS, VOICE, Dataset, is_nocturnal

_IS_COMM = np.array([kind in COMM_KINDS for kind in EVENT_KINDS])

FEATURE_FAMILY = {
    "out_voice_duration": "basic",
    "in_voice_duration": "basic",
    "sms_out_count": "basic",
    "sms_in_count": "basic",
    "internet_volume": "basic",
    "percent_nocturnal_calls": "basic",
    "degree": "social",
    "interactions_per_contact": "social",
    "entropy_of_contacts": "social",
    "number_of_places": "mobility",
    "entropy_of_places": "mobility",
    "radius_of_gyration": "mobility",
    "home_tower_lon": "mobility",
    "home_tower_lat": "mobility",
    "recharge_count": "financial",
    "recharge_total": "financial",
    "recharge_amount_mean": "financial",
    "recharge_amount_cv": "financial",
    "spending_speed": "financial",
    "fraction_lowest_denomination": "financial",
    "fraction_highest_denomination": "financial",
    "median_days_between_refills": "financial",
}
FEATURE_ORDER = list(FEATURE_FAMILY)


def _spread(owner: np.ndarray, first: np.ndarray, counts: np.ndarray, n: int):
    """Per owner code: (distinct items, total count, entropy of the counts).

    Each entry is one distinct (owner, item) pair: where the item first
    occurs for its owner (any sort key) and how often.  The entropy terms
    q log q are summed in first-seen order and subtracted from 0.0, so one
    item gives 0.0, never -0.0.
    """
    order = np.lexsort((first, owner))
    owner, counts = owner[order], counts[order]
    total = np.bincount(owner, weights=counts, minlength=n)
    q = counts / total[owner]
    terms = q * np.array([math.log(x) for x in q.tolist()])
    return np.bincount(owner, minlength=n), total, 0.0 - np.bincount(owner, weights=terms, minlength=n)


def home_tower(ds: Dataset) -> list[str]:
    """Per subscriber code, the id of its home tower; '' when it has none.

    See `Dataset.home_towers`: the most frequent tower of the outgoing
    22:00-06:00 events, all hours as the fallback, ties to the smallest id.
    """
    ids = ds.cdrs.tower_ids + ("",)
    return [ids[t] for t in ds.home_towers().tolist()]


def extract_features(ds: Dataset, denominations: tuple[float, ...] | None = None) -> dict[str, np.ndarray]:
    """Every feature column, one float64 value per subscriber code, nan = absent.

    `denominations` names the market's recharge amounts for the
    lowest/highest-denomination fractions; when omitted, the dataset-wide
    minimum and maximum top-up amounts stand in.
    """
    c, t = ds.cdrs, ds.topups
    n, n_towers = len(c.subscriber_ids), len(c.tower_ids)
    nan = np.nan

    def per(codes, mask, weights=None):
        """Per subscriber code: how many rows in mask carry it in codes, or the sum of their weights."""
        mask = mask & (codes >= 0)
        w = None if weights is None else weights[mask]
        return np.bincount(codes[mask], w, minlength=n).astype(np.float64)  # int when mask is empty

    col: dict[str, np.ndarray] = {}
    voice, sms, comm = c.kind == VOICE, c.kind == SMS, _IS_COMM[c.kind] & (c.callee >= 0)
    col["out_voice_duration"] = per(c.caller, voice, c.magnitude)
    col["in_voice_duration"] = per(c.callee, voice, c.magnitude)
    col["sms_out_count"] = per(c.caller, sms)
    col["sms_in_count"] = per(c.callee, sms)
    col["internet_volume"] = per(c.caller, c.kind == DATA, c.magnitude)
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 is an absent value
        col["percent_nocturnal_calls"] = per(c.caller, comm & is_nocturnal(c.ts)) / per(c.caller, comm)

        # Contacts: each directed (caller, callee) pair once, then seen from both
        # ends.  Outgoing events come first in first-seen order, and np.unique
        # keeps the first occurrence, so the outgoing end's key wins.
        pairs, first, counts = np.unique(c.caller[comm].astype(np.int64) * n + c.callee[comm],
                                         return_index=True, return_counts=True)
        a, b = pairs // n, pairs % n
        owner_contact, at, inverse = np.unique(np.concatenate((a * n + b, b * n + a)),
                                               return_index=True, return_inverse=True)
        degree, total, entropy = _spread(owner_contact // n, np.concatenate((first, first + len(c)))[at],
                                         np.bincount(inverse, np.concatenate((counts, counts))), n)
        col["degree"] = np.where(degree > 0, degree, nan)
        col["interactions_per_contact"] = total / degree
        col["entropy_of_contacts"] = np.where(degree > 0, entropy, nan)

        # Places: every outgoing event's tower.  The radius of gyration is the
        # root mean squared great-circle distance from the visit-weighted
        # (lon, lat) centroid, one distance per distinct (caller, tower) pair.
        visits = np.bincount(c.caller, minlength=n)
        pairs, first, row_pair, counts = np.unique(c.caller.astype(np.int64) * n_towers + c.tower,
                                                   return_index=True, return_inverse=True, return_counts=True)
        places, _, entropy = _spread(pairs // n_towers, first, counts, n)
        col["number_of_places"] = np.where(places > 0, places, nan)
        col["entropy_of_places"] = np.where(places > 0, entropy, nan)
        lonlat = ds.tower_coords
        lon0 = np.bincount(c.caller, lonlat[c.tower, 0], minlength=n) / visits
        lat0 = np.bincount(c.caller, lonlat[c.tower, 1], minlength=n) / visits
        owner, tower = pairs // n_towers, pairs % n_towers
        d = haversine_km_to(lonlat[tower, 0], lonlat[tower, 1], lon0[owner], lat0[owner])
        sq = np.array([x ** 2 for x in d.tolist()])  # pow(), as a scalar's ** 2
        col["radius_of_gyration"] = np.sqrt(np.bincount(c.caller, sq[row_pair], minlength=n) / visits)
        home = np.vstack((lonlat, (nan, nan)))[ds.home_towers()]
        col["home_tower_lon"], col["home_tower_lat"] = home[:, 0], home[:, 1]

        rows, offsets = ds.topups_by_buyer()
        count = np.diff(offsets)
        has = count > 0
        total = np.bincount(t.buyer, t.amount, minlength=n)
        mean = total / count
        bounds = denominations or ((t.amount.min(), t.amount.max()) if len(t) else (nan,))
        col["recharge_count"] = np.where(has, count, nan)
        col["recharge_total"] = np.where(has, total, nan)
        col["recharge_amount_mean"] = mean
        cv = np.full(n, nan)
        varied = np.flatnonzero((count >= 2) & (mean > 0))
        cv[varied] = _sample_stdevs(t.amount[rows], offsets, varied) / mean[varied]
        col["recharge_amount_cv"] = cv
        # Spending speed: the total over the inclusive span, (last - first)/86400 + 1 days.
        ts = t.ts[rows]
        span = np.zeros(n, dtype=np.int64)
        span[has] = ts[offsets[1:][has] - 1] - ts[offsets[:-1][has]]
        col["spending_speed"] = np.where(has, total / (span / SECONDS_PER_DAY + 1.0), nan)
        col["fraction_lowest_denomination"] = np.bincount(t.buyer[t.amount == min(bounds)], minlength=n) / count
        col["fraction_highest_denomination"] = np.bincount(t.buyer[t.amount == max(bounds)], minlength=n) / count
        # The median gap between refills: the gaps sorted within each buyer, then
        # (lo + hi) / 2 of the middle pair, which is the middle gap itself when
        # a buyer has an odd number of them.
        buyer = t.buyer[rows]
        same = buyer[1:] == buyer[:-1]
        gap_buyer, gap = buyer[1:][same], (np.diff(ts) / SECONDS_PER_DAY)[same]
        gap = gap[np.lexsort((gap, gap_buyer))]
        k = np.maximum(count - 1, 0)
        lo = np.cumsum(k) - k + (k - 1) // 2
        hi = np.cumsum(k) - k + k // 2
        median = np.full(n, nan)
        median[k > 0] = (gap[lo[k > 0]] + gap[hi[k > 0]]) / 2
        col["median_days_between_refills"] = median
    return {name: col[name] for name in FEATURE_ORDER}


def _sample_stdevs(x: np.ndarray, offsets: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """The sample standard deviation of x[offsets[g]:offsets[g + 1]] for each g in groups (2 or more values each),
    correctly rounded, as statistics.stdev rounds it from Python 3.11 on.

    A group's exact variance is the integer fraction (n * sum(a^2) - sum(a)^2) / (n (n - 1) d^2) of its values a / d,
    d the largest denominator of their float.as_integer_ratio, with the sums taken in Python ints.
    """
    lo, hi = offsets[groups], offsets[groups + 1]
    n = (hi - lo).tolist()
    sx, sxx, d = [], [], []
    for i, j in zip(lo.tolist(), hi.tolist()):
        ratios = [v.as_integer_ratio() for v in x[i:j].tolist()]
        d.append(max(b for _, b in ratios))
        a = [p * (d[-1] // b) for p, b in ratios]
        sx.append(sum(a))
        sxx.append(sum(v * v for v in a))
    return np.array([_sqrt_of_fraction(k * q - s * s, k * (k - 1) * e * e) for k, s, q, e in zip(n, sx, sxx, d)])


def _sqrt_of_fraction(n: int, m: int) -> float:
    """sqrt(n / m) correctly rounded, for ints n >= 0 and m > 0.

    The integer square root of n / m, scaled to 2 * 53 + 3 bits or more and
    rounded to odd, then one division, as CPython 3.11's statistics module
    takes it (_float_sqrt_of_frac).
    """
    q = (n.bit_length() - m.bit_length() - (2 * 53 + 3)) // 2
    num, den = n << max(-2 * q, 0), m << max(2 * q, 0)
    root = math.isqrt(num // den)
    root |= root * root * den != num  # round to odd
    return (root << max(q, 0)) / (1 << max(-q, 0))


def write_features_csv(ds: Dataset, columns: dict[str, np.ndarray], path: str,
                       header_comment: str | None = None) -> None:
    """One row per subscriber, fixed column order, absent (nan) values as empty cells."""
    cells = [columns[name].tolist() for name in FEATURE_ORDER]
    write_csv(path, ["subscriber", "home_tower"] + FEATURE_ORDER,
              zip(ds.subscribers(), home_tower(ds), *cells), header_comment)
