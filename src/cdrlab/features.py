"""Per-subscriber behavioral features: financial, mobility, social, basic.

Missing information is an explicit absent (None), never zero or NaN: a
subscriber with no recharges has no spending speed, and conflating that
with 0 currency/day would poison any downstream model.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Iterable

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


@dataclass
class FeatureVector:
    subscriber: str
    values: dict[str, float | None]
    home_tower: str | None


def _count_entropy(counts: list[int]) -> float:
    """Entropy of positive counts, summed in the order given; 0.0, never -0.0."""
    if not counts:
        raise ValueError("entropy of an empty distribution is undefined")
    total = float(sum(counts))
    return 0.0 - sum((c / total) * math.log(c / total) for c in counts)


def _first_seen_counts(codes: np.ndarray) -> list[int]:
    """How often each code occurs, in the order the codes first occur."""
    _, first, counts = np.unique(codes, return_index=True, return_counts=True)
    return counts[np.argsort(first)].tolist()


def radius_of_gyration(visits) -> float:
    """Root mean squared great-circle distance from the visit-weighted centroid.

    visits are (lon, lat) pairs, or an (n, 2) array.  The centroid is the
    arithmetic mean of (lon, lat) over the visit multiset, adequate at the
    tens-of-km scale this measures.  Sums run left to right over the visits.
    """
    pts = np.asarray(visits, dtype=np.float64).reshape(-1, 2)
    if not len(pts):
        raise ValueError("radius of gyration of an empty visit set is undefined")
    n = len(pts)
    lon0 = sum(pts[:, 0].tolist()) / n
    lat0 = sum(pts[:, 1].tolist()) / n
    distances = haversine_km_to(pts[:, 0], pts[:, 1], lon0, lat0).tolist()
    return math.sqrt(sum(d ** 2 for d in distances) / n)


def home_tower(ds: Dataset, subscriber: str) -> str | None:
    """Most frequent tower over 22:00-06:00 events; all-hours fallback.

    Ties resolve to the lexicographically smallest tower id; a subscriber
    with no located events has no home (None).  A lookup into
    `Dataset.home_towers`, which computes every home in one pass.
    """
    code = ds.subscriber_code(subscriber)
    home = -1 if code is None else int(ds.home_towers()[code])
    return None if home < 0 else ds.cdrs.tower_ids[home]


def spending_speed(amounts: list[float], stamps: list[int]) -> float | None:
    """Total recharge per day over the inclusive first-to-last span.

    amounts and stamps describe the top-ups in time order.  The span in
    days is (last - first)/86400 + 1, so a single recharge spends over one
    day and two recharges ten days apart spend over eleven.
    """
    if not amounts:
        return None
    span_days = (stamps[-1] - stamps[0]) / SECONDS_PER_DAY + 1.0
    return sum(amounts) / span_days


def dataset_denominations(ds: Dataset) -> tuple[float, float] | None:
    """Dataset-wide (min, max) top-up amounts; None when there are no top-ups.

    They stand in for the market's denominations when none are given.  A
    caller looping over subscribers computes them once and passes them on.
    """
    if not len(ds.topups):
        return None
    return float(ds.topups.amount.min()), float(ds.topups.amount.max())


def extract_features(
    ds: Dataset,
    subscriber: str,
    denominations: tuple[float, ...] | None = None,
) -> FeatureVector:
    """Full feature vector for one subscriber over the dataset's window.

    `denominations` names the market's recharge amounts for the
    lowest/highest-denomination fractions; when omitted, the dataset-wide
    minimum and maximum top-up amounts stand in (`dataset_denominations`).
    Every sum adds the subscriber's events left to right in dataset order.
    """
    code = ds.subscriber_code(subscriber)
    if code is None:
        raise ValueError(f"subscriber {subscriber!r} not present in dataset")
    c = ds.cdrs
    out = ds.cdrs_by_caller().of(code)
    inn = ds.cdrs_by_callee().of(code)
    tops = ds.topups_by_buyer().of(code)
    out_kind, in_kind = c.kind[out], c.kind[inn]
    out_comm = out[_IS_COMM[out_kind] & (c.callee[out] >= 0)]
    in_comm = inn[_IS_COMM[in_kind]]

    values: dict[str, float | None] = {}
    values["out_voice_duration"] = sum(c.magnitude[out[out_kind == VOICE]].tolist())
    values["in_voice_duration"] = sum(c.magnitude[inn[in_kind == VOICE]].tolist())
    values["sms_out_count"] = int(np.count_nonzero(out_kind == SMS))
    values["sms_in_count"] = int(np.count_nonzero(in_kind == SMS))
    values["internet_volume"] = sum(c.magnitude[out[out_kind == DATA]].tolist())
    if len(out_comm):
        nocturnal = int(np.count_nonzero(is_nocturnal(c.ts[out_comm])))
        values["percent_nocturnal_calls"] = nocturnal / len(out_comm)
    else:
        values["percent_nocturnal_calls"] = None

    contacts = _first_seen_counts(np.concatenate((c.callee[out_comm], c.caller[in_comm])))
    if contacts:
        values["degree"] = len(contacts)
        values["interactions_per_contact"] = sum(contacts) / len(contacts)
        values["entropy_of_contacts"] = _count_entropy(contacts)
    else:
        values["degree"] = None
        values["interactions_per_contact"] = None
        values["entropy_of_contacts"] = None

    if len(out):
        places = _first_seen_counts(c.tower[out])
        values["number_of_places"] = len(places)
        values["entropy_of_places"] = _count_entropy(places)
        values["radius_of_gyration"] = radius_of_gyration(ds.tower_coords[c.tower[out]])
    else:
        values["number_of_places"] = None
        values["entropy_of_places"] = None
        values["radius_of_gyration"] = None
    home = home_tower(ds, subscriber)
    if home is not None:
        values["home_tower_lon"] = ds.towers[home].lon
        values["home_tower_lat"] = ds.towers[home].lat
    else:
        values["home_tower_lon"] = None
        values["home_tower_lat"] = None

    if len(tops):
        amounts = ds.topups.amount[tops].tolist()
        stamps = ds.topups.ts[tops].tolist()
        n = len(amounts)
        mean = sum(amounts) / n
        values["recharge_count"] = n
        values["recharge_total"] = sum(amounts)
        values["recharge_amount_mean"] = mean
        if n >= 2 and mean > 0:
            values["recharge_amount_cv"] = statistics.stdev(amounts) / mean
        else:
            values["recharge_amount_cv"] = None
        values["spending_speed"] = spending_speed(amounts, stamps)
        bounds = denominations or dataset_denominations(ds)
        low, high = min(bounds), max(bounds)
        values["fraction_lowest_denomination"] = sum(1 for a in amounts if a == low) / n
        values["fraction_highest_denomination"] = sum(1 for a in amounts if a == high) / n
        if n >= 2:
            gaps = [(b - a) / SECONDS_PER_DAY for a, b in zip(stamps, stamps[1:])]
            values["median_days_between_refills"] = statistics.median(gaps)
        else:
            values["median_days_between_refills"] = None
    else:
        for name in (
            "recharge_count",
            "recharge_total",
            "recharge_amount_mean",
            "recharge_amount_cv",
            "spending_speed",
            "fraction_lowest_denomination",
            "fraction_highest_denomination",
            "median_days_between_refills",
        ):
            values[name] = None

    ordered = {name: values[name] for name in FEATURE_ORDER}
    return FeatureVector(subscriber, ordered, home)


def write_features_csv(vectors: Iterable[FeatureVector], path: str, header_comment: str | None = None) -> None:
    """One row per subscriber, fixed column order, absent values as empty cells."""
    def row(vec: FeatureVector) -> list[str]:
        values = (vec.values.get(name) for name in FEATURE_ORDER)
        return [vec.subscriber, vec.home_tower or ""] + ["" if v is None else repr(float(v)) for v in values]

    write_csv(path, ["subscriber", "home_tower"] + FEATURE_ORDER, map(row, vectors), header_comment)
