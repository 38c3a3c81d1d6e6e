"""In-memory write buffer: the first stop of Cassandra's write path.

"When data is written to Cassandra, each data record is sorted and
written sequentially to disk" (paper §II-A).  The memtable is where that
sort happens: rows accumulate per partition in clustering-key order, and
when the memtable grows past a threshold the storage engine flushes it
into an immutable :class:`~repro.cassdb.sstable.SSTable`.

Rows within a partition are kept as a dict keyed by clustering tuple plus
a lazily-sorted key list — upserts are O(1), and the sort runs once per
read or flush after a write instead of on every write, which matches the
write-heavy access pattern of log ingestion.

A memtable is read through the face a run has,
:meth:`Memtable.slice_partition_view`.  Each partition keeps one *face*:
a row-backed block over all its rows in clustering order, built by the
first read after a write and dropped by the next write.  A read bisects
the face's clustering array and answers a view over the in-bounds range,
so a column a kernel transposed stays for the next read.  A flush
encodes each partition straight from its sorted rows and keeps no face.
A delete is not a separate entry point: it is the upsert of a marker row
(``Row(ck, {}, tombstone_ts=ts)``), which
:func:`~repro.cassdb.row.merge_rows` lets shadow what it covers.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .row import ClusteringBound, Row, merge_rows, slice_bounds_keys
from .vector import BlockView, ColumnBlock

__all__ = ["MemPartition", "Memtable"]


class MemPartition:
    """Mutable partition: clustering key -> row, sorted on demand, read
    through one kept face.

    The face is a row-backed :class:`ColumnBlock` over every row in
    clustering order.  :meth:`face` builds it on the first read after a
    write and :meth:`upsert` drops it — a new key, a merge into an
    existing key and a tombstone marker alike — so a column a kernel
    transposes out of it serves every read until the next write.

    Concurrency: reads and upserts both run under the store lock, so a
    face is built and dropped under it.  A view taken before a write
    keeps its snapshot: nothing edits the face's row list, and
    ``BlockView.to_rows`` copies.  Two kernels may transpose the same
    lazy column at once; they compute equal values, and the store into
    the block's column dict is atomic.
    """

    __slots__ = ("rows", "_sorted_keys", "_dirty", "_face")

    def __init__(self):
        self.rows: dict[tuple, Row] = {}
        self._sorted_keys: list[tuple] = []
        self._dirty = False
        self._face: ColumnBlock | None = None

    def upsert(self, row: Row) -> int:
        """Insert/merge one row; returns the row-count delta (0 or 1)."""
        self._face = None
        rows = self.rows
        existing = rows.get(row.clustering)
        if existing is None:
            rows[row.clustering] = row
            self._dirty = True
            return 1
        rows[row.clustering] = merge_rows(existing, row)
        return 0

    def sorted_keys(self) -> list[tuple]:
        if self._dirty or len(self._sorted_keys) != len(self.rows):
            self._sorted_keys = sorted(self.rows)
            self._dirty = False
        return self._sorted_keys

    def sorted_rows(self) -> list[Row]:
        rows = self.rows
        return [rows[k] for k in self.sorted_keys()]

    def face(self) -> ColumnBlock:
        """The row-backed block over every row, kept until the next
        upsert.  (The sorted key list is shared, not copied: a re-sort
        replaces it and nothing edits it.)"""
        face = self._face
        if face is None:
            face = self._face = ColumnBlock.over_rows(self.sorted_rows(),
                                                      self.sorted_keys())
        return face

    def __len__(self) -> int:
        return len(self.rows)


class Memtable:
    """Write buffer for one table on one storage node."""

    def __init__(self):
        self.partitions: dict[tuple, MemPartition] = {}
        self._row_count = 0

    def upsert(self, partition_key: tuple, row: Row) -> None:
        part = self.partitions.get(partition_key)
        if part is None:
            part = self.partitions[partition_key] = MemPartition()
        self._row_count += part.upsert(row)

    def upsert_many(self, items: Iterable[tuple[tuple, Row]]) -> None:
        """Bulk upsert of ``(partition key, row)`` pairs.

        One method call for a node's share of a write batch; the
        per-pair work is the same as :meth:`upsert` with the partition
        lookup hoisted for runs of pairs sharing a key (a node's share
        of a batch arrives sorted by partition key).
        """
        partitions = self.partitions
        last_key: tuple | None = None
        part: MemPartition | None = None
        count = 0
        for partition_key, row in items:
            if partition_key != last_key:
                part = partitions.get(partition_key)
                if part is None:
                    part = partitions[partition_key] = MemPartition()
                last_key = partition_key
            count += part.upsert(row)
        self._row_count += count

    def slice_partition_view(
        self,
        partition_key: tuple,
        lower: ClusteringBound | None = None,
        upper: ClusteringBound | None = None,
    ) -> tuple[BlockView, int] | None:
        """The in-bounds slice of a partition plus the pruned-row count;
        ``None`` when the partition is absent — the contract of
        :meth:`SSTable.slice_partition_view`.

        The partition's face is bisected and the view is over the
        in-bounds offset range of it, as over a run's block.
        """
        part = self.partitions.get(partition_key)
        if part is None:
            return None
        face = part.face()
        lo, hi = slice_bounds_keys(face.clustering, lower, upper)
        return BlockView(face, range(lo, hi)), face.n - (hi - lo)

    def partition_keys(self) -> Iterator[tuple]:
        return iter(self.partitions)

    @property
    def row_count(self) -> int:
        """Total live+tombstone rows buffered (flush trigger metric)."""
        return self._row_count

    def __len__(self) -> int:
        return self._row_count
