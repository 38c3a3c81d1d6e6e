"""Reference row model: one ``Cell(value, write_ts)`` per column.

The store's row model as it stood before a row carried its write
timestamp itself — ``Cell``, ``Row`` and ``merge_rows`` kept as they
were, less the row tombstone the store no longer has — so the store's
reconciliation can be compared cell for cell (value *and*
timestamp) with the definition it replaced.
"""

from dataclasses import dataclass, field
from typing import Any

__all__ = ["Cell", "Row", "merge_rows"]


@dataclass(frozen=True, slots=True)
class Cell:
    """A single column value plus its write timestamp (microseconds)."""

    value: Any
    write_ts: int = 0

    def reconcile(self, other: "Cell") -> "Cell":
        """Last-write-wins; value comparison tie-breaks equal timestamps."""
        if other.write_ts != self.write_ts:
            return other if other.write_ts > self.write_ts else self
        return other if repr(other.value) > repr(self.value) else self


@dataclass(slots=True)
class Row:
    """A CQL row: a clustering key plus named cells."""

    clustering: tuple
    cells: dict[str, Cell] = field(default_factory=dict)


def merge_rows(a: Row, b: Row) -> Row:
    """Reconcile two replica copies of the same row (same clustering key).

    Column-wise last-write-wins.
    """
    if a.clustering != b.clustering:
        raise ValueError("cannot merge rows with different clustering keys")
    merged: dict[str, Cell] = {}
    for name in a.cells.keys() | b.cells.keys():
        ca, cb = a.cells.get(name), b.cells.get(name)
        if ca is None:
            cell = cb
        elif cb is None:
            cell = ca
        else:
            cell = ca.reconcile(cb)
        assert cell is not None
        merged[name] = cell
    return Row(clustering=a.clustering, cells=merged)
