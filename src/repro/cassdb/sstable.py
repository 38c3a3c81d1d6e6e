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
dict (dropping a key is the simulated loss of that partition).
Compaction (:func:`merge_sstables`) reconciles the runs' blocks through
:func:`~repro.cassdb.vector.merge_views`, the same merge a read runs.

SSTables here live in memory (the cluster is simulated in-process) but
preserve the two properties the rest of the system depends on:
immutability (compaction builds new tables, never edits) and sortedness
(range scans bisect instead of filtering).
"""

from __future__ import annotations

import bisect
import itertools
from typing import Iterable, Iterator

from repro import obs

from .bloom import BloomFilter
from .memtable import Memtable
from .row import ClusteringBound, Row
from .vector import BlockHints, BlockView, ColumnBlock, merge_views

__all__ = [
    "INDEX_INTERVAL",
    "SSTable",
    "merge_sstables",
    "slice_bounds_keys",
]

_generation_counter = itertools.count(1)

# One clustering key is sampled into the sparse index every this many
# rows; a bounds probe bisects the samples first, so the exact bisect
# only ever inspects one sample block instead of the whole partition.
# Per-table tuning lives in TableSchema.index_interval (threaded here
# via BlockHints); this module constant is only the fallback default.
INDEX_INTERVAL = 64


# Same counter the store layer bumps: every bloom-filter rejection that
# saved a partition probe, wherever the check ran.
_M_BLOOM_SKIPS = obs.get_registry().counter("cassdb.store.bloom_skips")


class SSTable:
    """One immutable sorted run of a table's data on one node."""

    def __init__(self, partitions: dict[str, list[Row]],
                 generation: int | None = None, *,
                 hints: BlockHints | None = None,
                 clusterings: dict[str, list[tuple]] | None = None):
        # Rows per partition must already be sorted by clustering key.
        # *clusterings* optionally passes pre-extracted clustering-key
        # lists (the memtable already has them) so block builds skip
        # one pass over the rows.
        self.hints = hints
        self.index_interval = (
            hints.index_interval if hints is not None else INDEX_INTERVAL)
        interval = self.index_interval
        self.generation = (
            generation if generation is not None else next(_generation_counter)
        )
        self.bloom = BloomFilter.from_keys(partitions.keys())
        blocks: dict[str, ColumnBlock] = {}
        for pk, rows in partitions.items():
            keys = clusterings.get(pk) if clusterings else None
            blocks[pk] = ColumnBlock.from_rows(rows, hints=hints,
                                               clustering=keys)
        self.partitions: dict[str, ColumnBlock] = blocks
        self.row_count = sum(b.n for b in blocks.values())
        # Sparse clustering index: every index_interval-th clustering key
        # per partition (only for partitions big enough to benefit) — the
        # role index blocks play in Cassandra's -Index.db component.  The
        # samples are offsets into the block's key array.
        self.index: dict[str, list[tuple]] = {
            pk: block.clustering[::interval]
            for pk, block in blocks.items() if block.n > interval
        }

    @classmethod
    def from_memtable(cls, memtable: Memtable, *,
                      hints: BlockHints | None = None) -> "SSTable":
        parts: dict[str, list[Row]] = {}
        clusterings: dict[str, list[tuple]] = {}
        for pk, partition in memtable.items():
            keys, rows = partition.sorted_items()
            parts[pk] = rows
            clusterings[pk] = keys
        return cls(parts, hints=hints, clusterings=clusterings)

    def maybe_contains(self, partition_key: str) -> bool:
        """Bloom-filter check; False means *definitely* absent."""
        return partition_key in self.bloom

    def slice_partition_view(
        self,
        partition_key: str,
        lower: ClusteringBound | None = None,
        upper: ClusteringBound | None = None,
    ) -> tuple[BlockView, int] | None:
        """The in-bounds slice of a partition plus the pruned-row count.

        Bloom-checked, then bisected into the block via the sparse
        clustering index; the result is a :class:`BlockView` over the
        in-bounds offset range, so no row is materialized.  ``None``
        when the partition is absent from this run.
        """
        if partition_key not in self.bloom:
            _M_BLOOM_SKIPS.inc()  # a rejection is a saved partition probe
            return None
        block = self.partitions.get(partition_key)
        if block is None:
            return None
        lo, hi = slice_bounds_keys(block.clustering, lower, upper,
                                   samples=self.index.get(partition_key),
                                   interval=self.index_interval)
        return BlockView(block, range(lo, hi)), block.n - (hi - lo)

    def block(self, partition_key: str) -> ColumnBlock | None:
        """The raw column block for a partition (None when absent)."""
        return self.partitions.get(partition_key)

    def partition_keys(self) -> Iterator[str]:
        return iter(self.partitions)

    def __len__(self) -> int:
        return self.row_count


def _narrowed(samples: list[tuple] | None, key: tuple, interval: int,
              n: int, right: bool) -> tuple[int, int]:
    """Bisect the sparse samples to confine the exact bisect to one
    sample block: ``[blo, bhi)``."""
    if not samples:
        return 0, n
    if right:
        j = bisect.bisect_right(samples, key)
        return max(0, (j - 1) * interval), min(n, j * interval)
    i = bisect.bisect_left(samples, key)
    return max(0, (i - 1) * interval), min(n, i * interval)


def slice_bounds_keys(
    keys: list[tuple],
    lower: ClusteringBound | None = None,
    upper: ClusteringBound | None = None,
    *,
    samples: list[tuple] | None = None,
    interval: int = INDEX_INTERVAL,
) -> tuple[int, int]:
    """The ``[lo, hi)`` index range of sorted clustering *keys* admitted
    by the bounds.

    Bisects the key array (``ColumnBlock.clustering``, or a memtable
    partition's sorted key list), then applies the (prefix-aware) bound
    predicates to the edge elements only — O(log n + edge) for the
    probe.  With *samples* (a sparse clustering index: every
    *interval*-th key) each bisect is first narrowed to a single sample
    block, so it inspects O(log(n/interval) + log(interval)) keys of a
    large partition.
    """
    n = len(keys)
    lo, hi = 0, n
    if not n:
        return 0, 0
    if lower is not None:
        blo, bhi = _narrowed(samples, lower.key, interval, n, right=False)
        lo = bisect.bisect_left(keys, lower.key, blo, bhi)
        while lo < n and not lower.admits_lower(keys[lo]):
            lo += 1
    if upper is not None:
        # Pad the bound so that every clustering tuple sharing the prefix
        # sorts below the sentinel, then walk back over rejected edges.
        padded = upper.key + (_Greatest(),)
        blo, bhi = _narrowed(samples, padded, interval, n, right=True)
        hi = bisect.bisect_right(keys, padded, blo, bhi)
        while hi > lo and not upper.admits_upper(keys[hi - 1]):
            hi -= 1
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
    out: dict[str, list[Row]] = {}
    for pk in sorted(all_keys):
        rows = merge_views([BlockView(block) for t in tables
                            if (block := t.partitions.get(pk)) is not None])
        if rows:
            out[pk] = rows
    return SSTable(out, hints=hints)
