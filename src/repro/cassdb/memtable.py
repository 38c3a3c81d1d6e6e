"""In-memory write buffer: the first stop of Cassandra's write path.

"When data is written to Cassandra, each data record is sorted and
written sequentially to disk" (paper §II-A).  The memtable is where that
sort happens: rows accumulate per partition in clustering-key order, and
when the memtable grows past a threshold the storage engine flushes it
into an immutable :class:`~repro.cassdb.sstable.SSTable`.

Rows within a partition are kept as a dict keyed by clustering tuple plus
a lazily-sorted key list — upserts are O(1), and the sorted view is
materialized once per flush/scan instead of on every write, which matches
the write-heavy access pattern of log ingestion.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .row import Row, merge_rows

__all__ = ["MemPartition", "Memtable"]


class MemPartition:
    """Mutable partition: clustering key -> row, sorted on demand."""

    __slots__ = ("rows", "_sorted_keys", "_dirty")

    def __init__(self):
        self.rows: dict[tuple, Row] = {}
        self._sorted_keys: list[tuple] = []
        self._dirty = False

    def upsert(self, row: Row) -> int:
        """Insert/merge one row; returns the row-count delta (0 or 1)."""
        rows = self.rows
        existing = rows.get(row.clustering)
        if existing is None:
            rows[row.clustering] = row
            self._dirty = True
            return 1
        rows[row.clustering] = merge_rows(existing, row)
        return 0

    def delete(self, clustering: tuple, tombstone_ts: int) -> int:
        """Write a row tombstone (deletes survive flush/merge); returns
        the row-count delta (0 or 1 — tombstones are buffered rows)."""
        marker = Row(clustering, {}, tombstone_ts=tombstone_ts)
        existing = self.rows.get(clustering)
        if existing is None:
            self.rows[clustering] = marker
            self._dirty = True
            return 1
        self.rows[clustering] = merge_rows(existing, marker)
        return 0

    def sorted_keys(self) -> list[tuple]:
        if self._dirty or len(self._sorted_keys) != len(self.rows):
            self._sorted_keys = sorted(self.rows)
            self._dirty = False
        return self._sorted_keys

    def sorted_items(self) -> tuple[list[tuple], list[Row]]:
        """Sorted clustering keys and their rows, as parallel lists.

        The flush path hands both straight to the SSTable build: the key
        list becomes the column block's clustering array, so the build
        skips re-extracting one tuple per row.  The sealed memtable is
        discarded after the flush, so sharing the internal key list is
        safe.
        """
        keys = self.sorted_keys()
        return keys, [self.rows[k] for k in keys]

    def __len__(self) -> int:
        return len(self.rows)


class Memtable:
    """Write buffer for one table on one storage node."""

    def __init__(self):
        self.partitions: dict[str, MemPartition] = {}
        self._row_count = 0

    def upsert(self, partition_key: str, row: Row) -> None:
        part = self.partitions.get(partition_key)
        if part is None:
            part = self.partitions[partition_key] = MemPartition()
        self._row_count += part.upsert(row)

    def upsert_many(self, items: Iterable[tuple[str, Row]]) -> None:
        """Bulk upsert of ``(partition key, row)`` pairs.

        One method call for a node's share of a write batch; the
        per-pair work is the same as :meth:`upsert` with the partition
        lookup hoisted for runs of pairs sharing a key (batched ingest
        writes whole per-(hour, type) groups at once, pre-sorted by
        partition key).
        """
        partitions = self.partitions
        last_key: str | None = None
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

    def delete(self, partition_key: str, clustering: tuple, tombstone_ts: int) -> None:
        part = self.partitions.get(partition_key)
        if part is None:
            part = self.partitions[partition_key] = MemPartition()
        self._row_count += part.delete(clustering, tombstone_ts)

    def get_partition(self, partition_key: str) -> MemPartition | None:
        return self.partitions.get(partition_key)

    def partition_keys(self) -> Iterator[str]:
        return iter(self.partitions)

    @property
    def row_count(self) -> int:
        """Total live+tombstone rows buffered (flush trigger metric)."""
        return self._row_count

    def __len__(self) -> int:
        return self._row_count

    def items(self) -> Iterable[tuple[str, MemPartition]]:
        return self.partitions.items()
