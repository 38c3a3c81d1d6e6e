"""Immutable sorted runs (SSTables), stored columnar.

An SSTable is a frozen snapshot of a memtable: every partition's rows in
clustering order ("data is retrieved by row key and range within a row,
which guarantees a fast and efficient search" — paper §II-A).

A run is physically one :class:`~repro.cassdb.vector.ColumnBlock` —
per-column value arrays, dictionary-encoded low-cardinality strings
(one dictionary per run) — holding every partition's
rows next to each other in partition order, plus
:attr:`SSTable.offsets`, the partition index ``partition key -> (start,
end)`` into it: Cassandra's ``Data.db`` and its ``-Index.db``.  The
offsets answer both questions a read asks of a run: does it hold the
partition (a dict lookup, exact), and which of its rows fall inside the
clustering bounds (one bisect over the partition's stretch of the
run's clustering array).  A partition read is a
:class:`~repro.cassdb.vector.BlockView` over that in-bounds offset
range, which the vectorized kernels filter/project/fold without
building ``Row`` objects, as they do a memtable's.  Dropping a key from
``offsets`` is the simulated loss of that partition.

A run is built by one block encode (:meth:`ColumnBlock.encoded`) in
partition order: a flush (:meth:`SSTable.from_memtable`) encodes every
memtable partition's resolved rows gathered off the memtable's column
lists, with no per-row object; compaction (:func:`merge_sstables`)
what :func:`~repro.cassdb.vector.merge_views` — the same merge a read
runs — emitted per partition.  Both hand the
constructor the block and its offsets, as a loader of on-disk runs
would.  A run and a memtable answer a read through one face,
``slice_partition_view(pk, lower, upper) -> (BlockView, pruned) |
None``.

SSTables here live in memory (the cluster is simulated in-process) but
preserve the two properties the rest of the system depends on:
immutability (compaction builds new tables, never edits) and sortedness
(range scans bisect instead of filtering).
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .memtable import Memtable
from .row import ClusteringBound, Row, in_partition_order, slice_bounds_keys
from .vector import BlockView, ColumnBlock, merge_views

__all__ = [
    "SSTable",
    "merge_sstables",
]


class SSTable:
    """One immutable sorted run of a table's data on one node."""

    def __init__(self, block: ColumnBlock,
                 offsets: dict[tuple, tuple[int, int]]):
        # Whoever builds a run hands it its block and partition index
        # (flush, compaction; a loader, once runs live on disk).
        self.block = block
        self.offsets = offsets
        self.row_count = block.n

    @classmethod
    def from_memtable(cls, memtable: Memtable) -> "SSTable":
        """Flush: every partition's resolved rows, in partition order,
        gathered off the memtable's log columns and encoded as one block
        — no per-row object, and no read face (the sealed memtable is
        discarded afterwards)."""
        order: list[int] = []
        offsets: dict[tuple, tuple[int, int]] = {}
        for pk in in_partition_order(memtable.partitions):
            positions = memtable.resolved(pk)
            offsets[pk] = (len(order), len(order) + len(positions))
            order += positions
        return cls(memtable.gather(order).encoded(), offsets)

    def slice_partition_view(
        self,
        partition_key: tuple,
        lower: ClusteringBound | None = None,
        upper: ClusteringBound | None = None,
    ) -> tuple[BlockView, int] | None:
        """The in-bounds slice of a partition plus the pruned-row count —
        the read face a memtable shares.

        One bisect over the partition's stretch of the run's clustering
        array; the result is a :class:`BlockView` over the in-bounds
        offset range, so no row is materialized.  ``None`` when the
        partition is absent from this run.
        """
        span = self.offsets.get(partition_key)
        if span is None:
            return None
        start, stop = span
        lo, hi = slice_bounds_keys(self.block.clustering, lower, upper,
                                   start=start, stop=stop)
        return (BlockView(self.block, range(lo, hi)),
                stop - start - (hi - lo))

    def partition_keys(self) -> Iterator[tuple]:
        return iter(self.offsets)

    def __len__(self) -> int:
        return self.row_count


def merge_sstables(tables: Iterable[SSTable]) -> SSTable:
    """Compaction: merge several runs into one, reconciling duplicates.

    Each partition is :func:`~repro.cassdb.vector.merge_views` over its
    stretch of every run's block; the merged partitions are encoded as
    one block.

    The output is built in partition order, so the merged
    run's partition iteration order (``partition_keys()``, full scans)
    is deterministic whatever order the inputs arrived in.
    """
    tables = list(tables)
    rows: list[Row] = []
    offsets: dict[tuple, tuple[int, int]] = {}
    for pk in in_partition_order({pk for t in tables for pk in t.offsets}):
        merged = merge_views([BlockView(t.block, range(*span)) for t in tables
                              if (span := t.offsets.get(pk)) is not None])
        offsets[pk] = (len(rows), len(rows) + len(merged))
        rows += merged
    return SSTable(ColumnBlock.transposed(rows).encoded(), offsets)
