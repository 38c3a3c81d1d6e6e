"""Row and cell model for the column-oriented store.

A *partition* (paper Fig 1) is a wide data row addressed by its
partition key — the tuple of its key columns' values, as written;
inside it live many CQL rows ordered by clustering key (for the event
tables, the event timestamp).  :func:`in_partition_order` is the one
order partitions are walked in.  Each row is a flexible
mapping of column name to value — flexible because, as §II-B notes,
"each application run may include columns unique to it".

Every cell carries a write timestamp so replicas can reconcile
divergent copies with last-write-wins, the same conflict-resolution
rule Cassandra uses; the cluster layer's read-repair relies on
:func:`merge_rows`.  A write stamps all of its cells alike, so the
timestamp is stored once on the :class:`Row`; only a row that merged
writes made at different times names the cells that differ
(``cell_ts``).  An ingested log row is therefore one object holding a
dict of scalars, which the cyclic collector does not track.

A range read names a lower and an upper :class:`ClusteringBound`;
:func:`slice_bounds_keys` applies them, one bisect per bound, to a
sorted clustering-key array (a run's: the range of it one partition
occupies), which is how every tier — memtable and run — cuts its slice.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any, Callable, Collection, Iterable, Iterator, Mapping

from .errors import InvalidQueryError

__all__ = ["UNSET", "Row", "ClusteringBound", "columns_of",
           "in_partition_order", "merge_rows", "slice_bounds_keys"]


#: A cell a write leaves unwritten, in the column lists a batch carries
#: (the role of the Cassandra driver's ``UNSET_VALUE``): the row has no
#: such cell, where ``None`` would be a stored value.
UNSET: Any = type("Unset", (), {"__repr__": lambda self: "UNSET"})()


def columns_of(rows: Iterable[Mapping[str, Any]]) -> dict[str, list]:
    """Row mappings as the columns a write batch takes: column name ->
    one value per row, :data:`UNSET` where a row lacks the column."""
    rows = list(rows)
    names = dict.fromkeys(name for row in rows for name in row)
    return {name: [row.get(name, UNSET) for row in rows] for name in names}


def in_partition_order(items: Iterable, key: Callable | None = None) -> list:
    """*items* — partition keys, or entries whose *key* is one — in the
    order every walk over partitions takes: the keys' natural order
    (hour 9 before hour 10).  A column holding both ``1`` and ``'1'``
    has none, so then each value is paired with its type's name: ints
    sort apart from strings, the same way on every run."""
    items = list(items)
    try:
        items.sort(key=key)
    except TypeError:
        get = key or (lambda item: item)
        items.sort(key=lambda item: [(type(v).__name__, v) for v in get(item)])
    return items


@dataclass(slots=True, eq=False)
class Row:
    """A CQL row: a clustering key plus named column values.

    ``clustering`` is a tuple so rows order naturally inside a partition;
    the event tables cluster on ``(timestamp, seq)`` giving the one-hour
    time series layout of Fig 1.

    ``write_ts`` is the write timestamp of every cell not named in
    ``cell_ts`` (``column -> write_ts``), which exists only on a row
    that merged writes made at different times.  Rows are immutable
    once built: merges and block reads share ``values`` dicts.
    """

    clustering: tuple
    values: dict[str, Any]
    write_ts: int = 0
    cell_ts: dict[str, int] | None = field(default=None, kw_only=True)

    @classmethod
    def from_values(
        cls, clustering: tuple, values: Mapping[str, Any], write_ts: int = 0
    ) -> "Row":
        return cls(tuple(clustering), dict(values), write_ts)

    @classmethod
    def from_stamps(
        cls, clustering: tuple, values: dict[str, Any],
        stamps: Collection[int],
    ) -> "Row":
        """A row from values and their write timestamps, aligned with
        ``values``' iteration order.  The one spelling of a
        mixed-timestamp row: the newest timestamp sits on the row,
        older cells are named in ``cell_ts``."""
        write_ts = max(stamps, default=0)
        cell_ts = None
        if stamps and min(stamps) != write_ts:
            cell_ts = {name: ts for name, ts in zip(values, stamps)
                       if ts != write_ts}
        return cls(clustering, values, write_ts, cell_ts=cell_ts)

    def value(self, column: str, default: Any = None) -> Any:
        return self.values.get(column, default)

    def as_dict(self) -> dict[str, Any]:
        """Plain ``column -> value`` view (no timestamps), for query results."""
        return dict(self.values)

    def columns(self) -> Iterator[str]:
        return iter(self.values)

    def timestamps(self) -> dict[str, int]:
        """``column -> write_ts`` for every cell of the row."""
        stamps = dict.fromkeys(self.values, self.write_ts)
        if self.cell_ts:
            stamps.update(self.cell_ts)
        return stamps

    def same_cells(self, other: "Row") -> bool:
        """Do both rows hold the same ``(value, write_ts)`` per column?
        (The representation — which timestamp sits on the row and which
        in ``cell_ts`` — is not compared.)"""
        if self.values != other.values:
            return False
        if self.cell_ts is None and other.cell_ts is None:
            return self.write_ts == other.write_ts or not self.values
        return self.timestamps() == other.timestamps()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Row:
            return NotImplemented
        return (self.clustering == other.clustering
                and self.same_cells(other))


def merge_rows(a: Row, b: Row) -> Row:
    """Reconcile two replica copies of the same row (same clustering key).

    Column-wise last-write-wins (equal timestamps break on the greater
    ``repr(value)``, Cassandra's lexically-greater-value rule, so either
    merge order agrees).
    """
    if a.clustering != b.clustering:
        raise ValueError("cannot merge rows with different clustering keys")
    values = dict(a.values)
    stamps = a.timestamps()
    theirs = b.timestamps()
    for name, val in b.values.items():
        ts = theirs[name]
        if name in values:
            mine = stamps[name]
            if ts < mine or (ts == mine
                             and not repr(val) > repr(values[name])):
                continue
        values[name] = val
        stamps[name] = ts
    return Row.from_stamps(a.clustering, values, stamps.values())


@dataclass(frozen=True, slots=True)
class ClusteringBound:
    """An inclusive/exclusive bound on clustering keys for range scans.

    Supports prefix bounds: a bound ``(ts,)`` against clustering keys
    ``(ts, seq)`` compares on the shared prefix only, which is how CQL's
    ``WHERE ts >= x`` behaves on a multi-column clustering key.
    """

    key: tuple
    inclusive: bool = True

    def admits_lower(self, clustering: tuple) -> bool:
        """True if *clustering* is >= (or >) this bound (as a lower bound).

        Exclusive prefix semantics match CQL: ``WHERE ts > 5`` rejects every
        row whose ts equals 5, whatever the remaining clustering columns.
        """
        prefix = clustering[: len(self.key)]
        if prefix != self.key:
            return prefix > self.key
        return self.inclusive

    def admits_upper(self, clustering: tuple) -> bool:
        """True if *clustering* is <= (or <) this bound (as an upper bound)."""
        prefix = clustering[: len(self.key)]
        if prefix != self.key:
            return prefix < self.key
        # Prefix matches the bound: inclusive admits it, exclusive rejects.
        return self.inclusive


def slice_bounds_keys(
    keys: list[tuple],
    lower: ClusteringBound | None = None,
    upper: ClusteringBound | None = None,
    *,
    start: int = 0,
    stop: int | None = None,
) -> tuple[int, int]:
    """The ``[lo, hi)`` index range of sorted clustering *keys* admitted
    by the bounds, within ``keys[start:stop]``; a bound that does not
    compare with them is an InvalidQueryError.

    Bisects the key array (a memtable partition's sorted key list, or a
    run's clustering array between one partition's offsets), then
    applies the (prefix-aware) bound predicates to the edge elements
    only — O(log n + edge) for the probe.
    """
    n = len(keys) if stop is None else stop
    lo, hi = start, n
    if lo >= n:
        return lo, lo
    try:
        if lower is not None:
            lo = bisect.bisect_left(keys, lower.key, start, n)
            while lo < n and not lower.admits_lower(keys[lo]):
                lo += 1
        if upper is not None:
            # Pad the bound so that every clustering tuple sharing the
            # prefix sorts below the sentinel, then walk back over
            # rejected edges.
            padded = upper.key + (_Greatest(),)
            hi = bisect.bisect_right(keys, padded, start, n)
            while hi > lo and not upper.admits_upper(keys[hi - 1]):
                hi -= 1
    except TypeError:
        raise InvalidQueryError("a clustering bound does not compare with "
                                f"the stored keys, e.g. {keys[start]!r}"
                                ) from None
    return lo, max(lo, hi)


class _Greatest:
    """Sentinel comparing greater than any value (for prefix upper bounds)."""

    def __lt__(self, other) -> bool:
        return False

    def __gt__(self, other) -> bool:
        return True

    def __eq__(self, other) -> bool:
        return isinstance(other, _Greatest)

    def __hash__(self) -> int:
        return hash("_Greatest")
