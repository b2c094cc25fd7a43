"""The former per-subscriber feature pass, kept as the oracle of the grouped one.

``extract_features(ds, subscriber)`` computed one subscriber's 22 features
from its CSR groups; ``cdrlab.features`` must write the same text for every
subscriber.  Sums run as explicit left-to-right loops, which is what the
builtin ``sum`` did before CPython 3.12 made it compensated, so the oracle
does not depend on the interpreter either.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

from cdrlab.features import _IS_COMM, FEATURE_ORDER
from cdrlab.geo import haversine_km_to
from cdrlab.records import DATA, SECONDS_PER_DAY, SMS, VOICE, is_nocturnal


def lsum(values):
    """values added left to right from int 0, as `sum` did before CPython 3.12."""
    total = 0
    for v in values:
        total += v
    return total


def count_entropy(counts: list[int]) -> float:
    """Entropy of positive counts, summed in the order given; 0.0, never -0.0."""
    total = float(lsum(counts))
    return 0.0 - lsum((c / total) * math.log(c / total) for c in counts)


def first_seen_counts(codes: np.ndarray) -> list[int]:
    """How often each code occurs, in the order the codes first occur."""
    _, first, counts = np.unique(codes, return_index=True, return_counts=True)
    return counts[np.argsort(first)].tolist()


def radius_of_gyration(visits) -> float:
    """Root mean squared great-circle distance from the visit-weighted (lon, lat) centroid."""
    pts = np.asarray(visits, dtype=np.float64).reshape(-1, 2)
    n = len(pts)
    lon0 = lsum(pts[:, 0].tolist()) / n
    lat0 = lsum(pts[:, 1].tolist()) / n
    distances = haversine_km_to(pts[:, 0], pts[:, 1], lon0, lat0).tolist()
    return math.sqrt(lsum(d ** 2 for d in distances) / n)


def extract_features(ds, subscriber: str, denominations=None) -> tuple[str | None, dict]:
    """(home tower id or None, feature name -> value or None) of one subscriber."""
    code = ds.cdrs.subscriber_ids.index(subscriber)
    c = ds.cdrs
    out, inn, tops = (rows[offsets[code]:offsets[code + 1]]
                      for rows, offsets in (ds.cdrs_by_caller(), ds.cdrs_by_callee(), ds.topups_by_buyer()))
    out_kind, in_kind = c.kind[out], c.kind[inn]
    out_comm = out[_IS_COMM[out_kind] & (c.callee[out] >= 0)]
    in_comm = inn[_IS_COMM[in_kind]]

    values: dict = dict.fromkeys(FEATURE_ORDER)
    values["out_voice_duration"] = lsum(c.magnitude[out[out_kind == VOICE]].tolist())
    values["in_voice_duration"] = lsum(c.magnitude[inn[in_kind == VOICE]].tolist())
    values["sms_out_count"] = int(np.count_nonzero(out_kind == SMS))
    values["sms_in_count"] = int(np.count_nonzero(in_kind == SMS))
    values["internet_volume"] = lsum(c.magnitude[out[out_kind == DATA]].tolist())
    if len(out_comm):
        values["percent_nocturnal_calls"] = int(np.count_nonzero(is_nocturnal(c.ts[out_comm]))) / len(out_comm)

    contacts = first_seen_counts(np.concatenate((c.callee[out_comm], c.caller[in_comm])))
    if contacts:
        values["degree"] = len(contacts)
        values["interactions_per_contact"] = lsum(contacts) / len(contacts)
        values["entropy_of_contacts"] = count_entropy(contacts)

    if len(out):
        places = first_seen_counts(c.tower[out])
        values["number_of_places"] = len(places)
        values["entropy_of_places"] = count_entropy(places)
        values["radius_of_gyration"] = radius_of_gyration(ds.tower_coords[c.tower[out]])
    home_code = int(ds.home_towers()[code])
    home = None if home_code < 0 else c.tower_ids[home_code]
    if home is not None:
        values["home_tower_lon"] = ds.towers[home].lon
        values["home_tower_lat"] = ds.towers[home].lat

    if len(tops):
        amounts = ds.topups.amount[tops].tolist()
        stamps = ds.topups.ts[tops].tolist()
        n = len(amounts)
        mean = lsum(amounts) / n
        values["recharge_count"] = n
        values["recharge_total"] = lsum(amounts)
        values["recharge_amount_mean"] = mean
        if n >= 2 and mean > 0:
            values["recharge_amount_cv"] = statistics.stdev(amounts) / mean
        span_days = (stamps[-1] - stamps[0]) / SECONDS_PER_DAY + 1.0
        values["spending_speed"] = lsum(amounts) / span_days
        bounds = denominations or (float(ds.topups.amount.min()), float(ds.topups.amount.max()))
        low, high = min(bounds), max(bounds)
        values["fraction_lowest_denomination"] = lsum(1 for a in amounts if a == low) / n
        values["fraction_highest_denomination"] = lsum(1 for a in amounts if a == high) / n
        if n >= 2:
            gaps = [(b - a) / SECONDS_PER_DAY for a, b in zip(stamps, stamps[1:])]
            values["median_days_between_refills"] = statistics.median(gaps)
    return home, values


def feature_rows(ds, denominations=None) -> list[list[str]]:
    """features.csv's data rows as text, one subscriber at a time."""
    rows = []
    for sub in ds.subscribers():
        home, values = extract_features(ds, sub, denominations)
        rows.append([sub, home or ""] + ["" if values[k] is None else repr(float(values[k]))
                                         for k in FEATURE_ORDER])
    return rows
