"""Per-subscriber behavioral features: financial, mobility, social, basic.

Missing information is an explicit absent (None), never zero or NaN: a
subscriber with no recharges has no spending speed, and conflating that
with 0 currency/day would poison any downstream model.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping

from .geo import haversine_km
from .ingest import write_csv
from .records import COMM_KINDS, SECONDS_PER_DAY, Dataset

NOCTURNAL_START_HOUR = 22
NOCTURNAL_END_HOUR = 6

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


def entropy(distribution) -> float:
    """Shannon entropy in nats of a multiset of categories (or count mapping)."""
    if isinstance(distribution, Mapping):
        counts = [c for c in distribution.values() if c > 0]
    else:
        counts = [c for c in Counter(distribution).values() if c > 0]
    if not counts:
        raise ValueError("entropy of an empty distribution is undefined")
    total = float(sum(counts))
    return -sum((c / total) * math.log(c / total) for c in counts)


def radius_of_gyration(visits: Iterable[tuple[float, float]]) -> float:
    """Root mean squared great-circle distance from the visit-weighted centroid.

    The centroid is the arithmetic mean of (lon, lat) over the visit
    multiset, adequate at the tens-of-km scale this measures.
    """
    pts = list(visits)
    if not pts:
        raise ValueError("radius of gyration of an empty visit set is undefined")
    lon0 = sum(p[0] for p in pts) / len(pts)
    lat0 = sum(p[1] for p in pts) / len(pts)
    mean_sq = sum(haversine_km(lon, lat, lon0, lat0) ** 2 for lon, lat in pts) / len(pts)
    return math.sqrt(mean_sq)


def _is_nocturnal(ts: int) -> bool:
    hour = (ts % SECONDS_PER_DAY) // 3600
    return hour >= NOCTURNAL_START_HOUR or hour < NOCTURNAL_END_HOUR


def home_tower(ds: Dataset, subscriber: str) -> str | None:
    """Most frequent tower over 22:00-06:00 events; all-hours fallback.

    Ties resolve to the lexicographically smallest tower id; a subscriber
    with no located events has no home (None).
    """
    nocturnal: Counter = Counter()
    allhours: Counter = Counter()
    for rec in ds.cdrs_by_caller().get(subscriber, ()):
        allhours[rec.tower] += 1
        if _is_nocturnal(rec.timestamp):
            nocturnal[rec.tower] += 1
    counts = nocturnal or allhours
    if not counts:
        return None
    top = max(counts.values())
    return min(t for t, c in counts.items() if c == top)


def spending_speed(topups) -> float | None:
    """Total recharge per day over the inclusive first-to-last span.

    The span in days is (last - first)/86400 + 1, so a single recharge
    spends over one day and two recharges ten days apart spend over eleven.
    """
    recs = sorted(topups, key=lambda r: r.timestamp)
    if not recs:
        return None
    total = sum(r.amount for r in recs)
    span_days = (recs[-1].timestamp - recs[0].timestamp) / SECONDS_PER_DAY + 1.0
    return total / span_days


def dataset_denominations(ds: Dataset) -> tuple[float, float] | None:
    """Dataset-wide (min, max) top-up amounts; None when there are no top-ups.

    They stand in for the market's denominations when none are given.  A
    caller looping over subscribers computes them once and passes them on.
    """
    if not ds.topups:
        return None
    amounts = [r.amount for r in ds.topups]
    return min(amounts), max(amounts)


def extract_features(
    ds: Dataset,
    subscriber: str,
    denominations: tuple[float, ...] | None = None,
) -> FeatureVector:
    """Full feature vector for one subscriber over the dataset's window.

    `denominations` names the market's recharge amounts for the
    lowest/highest-denomination fractions; when omitted, the dataset-wide
    minimum and maximum top-up amounts stand in (`dataset_denominations`).
    """
    out_events = ds.cdrs_by_caller().get(subscriber, ())
    in_events = ds.cdrs_by_callee().get(subscriber, ())
    tops = ds.topups_by_buyer().get(subscriber, ())
    if not out_events and not in_events and not tops:
        if subscriber not in ds.subscribers():
            raise ValueError(f"subscriber {subscriber!r} not present in dataset")
        values = {name: None for name in FEATURE_ORDER}
        return FeatureVector(subscriber, values, None)

    values: dict[str, float | None] = {}
    out_comm = [r for r in out_events if r.kind in COMM_KINDS and r.callee is not None]
    in_comm = [r for r in in_events if r.kind in COMM_KINDS]

    values["out_voice_duration"] = sum(r.magnitude for r in out_events if r.kind == "voice")
    values["in_voice_duration"] = sum(r.magnitude for r in in_events if r.kind == "voice")
    values["sms_out_count"] = sum(1 for r in out_events if r.kind == "sms")
    values["sms_in_count"] = sum(1 for r in in_events if r.kind == "sms")
    values["internet_volume"] = sum(r.magnitude for r in out_events if r.kind == "data")
    if out_comm:
        values["percent_nocturnal_calls"] = sum(1 for r in out_comm if _is_nocturnal(r.timestamp)) / len(out_comm)
    else:
        values["percent_nocturnal_calls"] = None

    contact_counts: Counter = Counter()
    for r in out_comm:
        contact_counts[r.callee] += 1
    for r in in_comm:
        contact_counts[r.caller] += 1
    if contact_counts:
        values["degree"] = len(contact_counts)
        values["interactions_per_contact"] = sum(contact_counts.values()) / len(contact_counts)
        values["entropy_of_contacts"] = entropy(contact_counts)
    else:
        values["degree"] = None
        values["interactions_per_contact"] = None
        values["entropy_of_contacts"] = None

    home = home_tower(ds, subscriber)
    if out_events:
        place_counts = Counter(r.tower for r in out_events)
        values["number_of_places"] = len(place_counts)
        values["entropy_of_places"] = entropy(place_counts)
        visits = [(ds.towers[r.tower].lon, ds.towers[r.tower].lat) for r in out_events]
        values["radius_of_gyration"] = radius_of_gyration(visits)
    else:
        values["number_of_places"] = None
        values["entropy_of_places"] = None
        values["radius_of_gyration"] = None
    if home is not None and home in ds.towers:
        values["home_tower_lon"] = ds.towers[home].lon
        values["home_tower_lat"] = ds.towers[home].lat
    else:
        values["home_tower_lon"] = None
        values["home_tower_lat"] = None

    if tops:
        amounts = [r.amount for r in tops]
        n = len(amounts)
        mean = sum(amounts) / n
        values["recharge_count"] = n
        values["recharge_total"] = sum(amounts)
        values["recharge_amount_mean"] = mean
        if n >= 2 and mean > 0:
            values["recharge_amount_cv"] = statistics.stdev(amounts) / mean
        else:
            values["recharge_amount_cv"] = None
        values["spending_speed"] = spending_speed(tops)
        bounds = denominations or dataset_denominations(ds)
        low, high = min(bounds), max(bounds)
        values["fraction_lowest_denomination"] = sum(1 for a in amounts if a == low) / n
        values["fraction_highest_denomination"] = sum(1 for a in amounts if a == high) / n
        if n >= 2:
            stamps = sorted(r.timestamp for r in tops)
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
