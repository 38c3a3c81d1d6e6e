"""Immutable sorted runs (SSTables) with bloom filters, stored columnar.

An SSTable is a frozen snapshot of a memtable: every partition's rows in
clustering order, plus a bloom filter over partition keys so reads for
absent partitions return without touching the data ("data is retrieved
by row key and range within a row, which guarantees a fast and efficient
search" — paper §II-A).

Each partition is physically a
:class:`~repro.cassdb.vector.ColumnBlock` — per-column value arrays,
dictionary-encoded low-cardinality strings, a liveness bitmap — and the
sparse clustering index maps straight onto block offsets.  Scans hand
out :class:`~repro.cassdb.vector.BlockView` selections that the
vectorized kernels filter/project/fold without building ``Row`` objects,
and :attr:`SSTable.partitions` is the plain ``partition key -> block``
dict (dropping a key is the simulated loss of that partition).  A run
is built *from* blocks: flush (:meth:`SSTable.from_memtable`) encodes
each memtable partition's sorted rows, compaction
(:func:`merge_sstables`) encodes what
:func:`~repro.cassdb.vector.merge_views` — the same merge a read runs —
emitted over the runs' blocks, and both hand the constructor the
finished dict, as a loader of on-disk runs would.  A run and a memtable
answer a read through one face, ``slice_partition_view(pk, lower,
upper) -> (BlockView, pruned) | None``.

SSTables here live in memory (the cluster is simulated in-process) but
preserve the two properties the rest of the system depends on:
immutability (compaction builds new tables, never edits) and sortedness
(range scans bisect instead of filtering).
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

from .bloom import BloomFilter
from .memtable import Memtable
from .row import ClusteringBound, slice_bounds_keys
from .vector import BlockHints, BlockView, ColumnBlock, merge_views

__all__ = [
    "INDEX_INTERVAL",
    "SSTable",
    "merge_sstables",
]

_generation_counter = itertools.count(1)

# One clustering key is sampled into the sparse index every this many
# rows; a bounds probe bisects the samples first, so the exact bisect
# only ever inspects one sample block instead of the whole partition.
# Per-table tuning lives in TableSchema.index_interval (threaded here
# via BlockHints); this module constant is only the fallback default.
INDEX_INTERVAL = 64


class SSTable:
    """One immutable sorted run of a table's data on one node."""

    def __init__(self, partitions: dict[str, ColumnBlock],
                 generation: int | None = None, *,
                 hints: BlockHints | None = None):
        # Whoever builds a run hands it its blocks (flush, compaction; a
        # loader, once runs live on disk).  *hints* is what built them:
        # the sparse index samples at its interval and compaction
        # inherits it.
        self.hints = hints
        self.index_interval = (
            hints.index_interval if hints is not None else INDEX_INTERVAL)
        interval = self.index_interval
        self.generation = (
            generation if generation is not None else next(_generation_counter)
        )
        self.bloom = BloomFilter.from_keys(partitions.keys())
        self.partitions = partitions
        self.row_count = sum(b.n for b in partitions.values())
        # Sparse clustering index: every index_interval-th clustering key
        # per partition (only for partitions big enough to benefit) — the
        # role index blocks play in Cassandra's -Index.db component.  The
        # samples are offsets into the block's key array.
        self.index: dict[str, list[tuple]] = {
            pk: block.clustering[::interval]
            for pk, block in partitions.items() if block.n > interval
        }

    @classmethod
    def from_memtable(cls, memtable: Memtable, *,
                      hints: BlockHints | None = None) -> "SSTable":
        """Flush: each partition encoded column-major straight from its
        sorted rows, not through a read face, so a sealed memtable keeps
        no face while its flush runs.  The memtable's sorted key list
        becomes the block's clustering array as it is (the sealed
        memtable is discarded afterwards)."""
        return cls({pk: ColumnBlock.from_rows(part.sorted_rows(), hints,
                                              part.sorted_keys())
                    for pk, part in memtable.partitions.items()},
                   hints=hints)

    def maybe_contains(self, partition_key: str) -> bool:
        """Bloom-filter check; False means *definitely* absent.  The
        store asks once per read and slices only the runs that pass."""
        return partition_key in self.bloom

    def slice_partition_view(
        self,
        partition_key: str,
        lower: ClusteringBound | None = None,
        upper: ClusteringBound | None = None,
    ) -> tuple[BlockView, int] | None:
        """The in-bounds slice of a partition plus the pruned-row count —
        the read face a memtable shares.

        Bisected into the block via the sparse clustering index; the
        result is a :class:`BlockView` over the in-bounds offset range,
        so no row is materialized.  ``None`` when the partition is
        absent from this run.
        """
        block = self.partitions.get(partition_key)
        if block is None:
            return None
        lo, hi = slice_bounds_keys(block.clustering, lower, upper,
                                   samples=self.index.get(partition_key),
                                   interval=self.index_interval)
        return BlockView(block, range(lo, hi)), block.n - (hi - lo)

    def partition_keys(self) -> Iterator[str]:
        return iter(self.partitions)

    def __len__(self) -> int:
        return self.row_count


def merge_sstables(tables: Iterable[SSTable], *,
                   hints: BlockHints | None = None) -> SSTable:
    """Compaction: merge several runs into one, reconciling duplicates.

    Each partition is :func:`~repro.cassdb.vector.merge_views` over the
    runs' full blocks, live rows only: a row whose latest state is a
    deletion is garbage-collected, its marker with it.  That is safe
    against the runs — compaction covers *all* of the table's, so no
    older run is left for the tombstone to shadow — but not against a
    write still in a memtable, a hint buffer or another replica and
    stamped at or before the tombstone: delivered after this
    compaction, it resurrects the row (there is no ``gc_grace``).

    The output is built in sorted partition-key order, so the merged
    run's partition iteration order (``partition_keys()``, full scans)
    is deterministic whatever order the inputs arrived in.  Hints are
    inherited from the inputs unless overridden.
    """
    tables = list(tables)
    if hints is None:
        hints = next((t.hints for t in tables if t.hints is not None), None)
    all_keys: set[str] = set()
    for t in tables:
        all_keys.update(t.partitions)
    out: dict[str, ColumnBlock] = {}
    for pk in sorted(all_keys):
        rows = merge_views([BlockView(block) for t in tables
                            if (block := t.partitions.get(pk)) is not None])
        if rows:
            out[pk] = ColumnBlock.from_rows(rows, hints)
    return SSTable(out, hints=hints)
