"""Order-preserving map, one item after another.

Work items carry their own derived random streams, so a result does not
depend on when its item runs.  The map is a module of its own because
``perfbench/tracer.py`` wraps ``parallel_map`` by name.
"""

from __future__ import annotations


def parallel_map(fn, items) -> list:
    return [fn(item) for item in items]
