"""Immutable sorted runs (SSTables), stored columnar.

An SSTable is a frozen snapshot of a memtable: every partition's rows in
clustering order ("data is retrieved by row key and range within a row,
which guarantees a fast and efficient search" — paper §II-A).

A run is physically one :class:`~repro.cassdb.vector.ColumnBlock` —
per-column value arrays, dictionary-encoded low-cardinality strings
(one dictionary per run), a liveness bitmap — holding every partition's
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

A run is built by one block encode: flush (:meth:`SSTable.from_memtable`)
encodes the memtable partitions' sorted rows, compaction
(:func:`merge_sstables`) what :func:`~repro.cassdb.vector.merge_views`
— the same merge a read runs — emitted per partition, each concatenated
in that order, and both hand the constructor the block and its
offsets, as a loader of on-disk runs would.  A run and a memtable answer
a read through one face, ``slice_partition_view(pk, lower, upper) ->
(BlockView, pruned) | None``.

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
        """Flush: the partitions' sorted rows, in partition order,
        encoded column-major as one block straight from the rows, not
        through a read face, so a sealed memtable keeps no face while
        its flush runs (the sealed memtable is discarded afterwards)."""
        parts = memtable.partitions
        return cls._build((pk, parts[pk].sorted_rows())
                          for pk in in_partition_order(parts))

    @classmethod
    def _build(cls, partitions: Iterable[tuple[tuple, list[Row]]]
               ) -> "SSTable":
        """One run from ``(partition key, sorted rows)`` in key order:
        the rows concatenated into one block, each partition's stretch
        of it recorded in ``offsets``.  An empty partition is left out."""
        rows: list[Row] = []
        offsets: dict[tuple, tuple[int, int]] = {}
        for pk, part in partitions:
            if part:
                offsets[pk] = (len(rows), len(rows) + len(part))
                rows += part
        return cls(ColumnBlock.from_rows(rows), offsets)

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
    stretch of every run's block, live rows only: a row whose latest
    state is a deletion is garbage-collected, its marker with it.  The
    merged partitions are encoded as one block.  That is safe
    against the runs — compaction covers *all* of the table's, so no
    older run is left for the tombstone to shadow — but not against a
    write still in a memtable, a hint buffer or another replica and
    stamped at or before the tombstone: delivered after this
    compaction, it resurrects the row (there is no ``gc_grace``).

    The output is built in partition order, so the merged
    run's partition iteration order (``partition_keys()``, full scans)
    is deterministic whatever order the inputs arrived in.
    """
    tables = list(tables)
    all_keys: set[tuple] = set()
    for t in tables:
        all_keys.update(t.offsets)
    return SSTable._build(
        ((pk, merge_views([BlockView(t.block, range(*span)) for t in tables
                           if (span := t.offsets.get(pk)) is not None]))
         for pk in in_partition_order(all_keys)))
