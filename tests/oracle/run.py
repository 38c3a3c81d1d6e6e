"""Reference for a run's partition read: one partition's sorted rows,
filtered by clustering bounds one key at a time.

A bound is ``(key, inclusive)`` or ``None``.  A bound shorter than the
clustering key compares on the shared prefix, as CQL's ``WHERE ts >= x``
does on a ``(ts, seq)`` clustering key.  Rows are anything with a
``clustering`` tuple.
"""

from __future__ import annotations

__all__ = ["read_partition", "slice_partition"]


def _admits(clustering: tuple, bound, lower: bool) -> bool:
    key, inclusive = bound
    prefix = clustering[:len(key)]
    if prefix == key:
        return inclusive
    return prefix > key if lower else prefix < key


def slice_partition(rows: list, lower=None, upper=None) -> tuple[list, int]:
    """(the rows inside the bounds, in order; how many fell outside)."""
    kept = [row for row in rows
            if (lower is None or _admits(row.clustering, lower, True))
            and (upper is None or _admits(row.clustering, upper, False))]
    return kept, len(rows) - len(kept)


def read_partition(rows: list, lower=None, upper=None, reverse: bool = False,
                   limit: int | None = None) -> list:
    """The in-bounds rows, descending when *reverse*, the first *limit*
    of them."""
    kept = slice_partition(rows, lower, upper)[0]
    if reverse:
        kept.reverse()
    return kept if limit is None else kept[:max(limit, 0)]
