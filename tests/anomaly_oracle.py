"""The former per-caller contact ranking, kept as the oracle of the grouped one in ``anomaly``.

``ranked_contacts`` counted one caller's contacts with three ``bincount``
arrays over every subscriber code; ``anomaly._top_contacts`` ranks every
caller's contacts in one pass and must give each caller the same codes in the
same order, cut at its ``max_rank``.
"""

from __future__ import annotations

import numpy as np

from cdrlab.records import VOICE, Dataset


def ranked_contacts(ds: Dataset, code: int, window: tuple[int, int]) -> np.ndarray:
    """The contact codes of a subscriber code, ordered by outgoing voice-call
    count in the window, descending.

    Ties break by the pair's total two-way communication count in the
    window, then by contact id.
    """
    start, end = window
    c = ds.cdrs
    n = len(c.subscriber_ids)
    out, inn = (rows[offsets[code]:offsets[code + 1]] for rows, offsets in (ds.cdrs_by_caller(), ds.cdrs_by_callee()))
    out = out[(c.ts[out] >= start) & (c.ts[out] < end) & (c.callee[out] >= 0)]
    inn = inn[(c.ts[inn] >= start) & (c.ts[inn] < end)]
    calls = np.bincount(c.callee[out[c.kind[out] == VOICE]], minlength=n)
    two_way = np.bincount(c.callee[out], minlength=n) + np.bincount(c.caller[inn], minlength=n)
    contacts = np.flatnonzero(calls)
    return contacts[np.lexsort((contacts, -two_way[contacts], -calls[contacts]))]
