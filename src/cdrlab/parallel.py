"""Order-preserving parallel map.

Work items carry their own derived random streams, so results are identical
for any thread count; threads only change wall-clock time.
"""

from __future__ import annotations


def parallel_map(fn, items, threads: int = 1) -> list:
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor  # here: a one-thread run skips its import

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))
