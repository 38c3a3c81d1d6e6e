"""Per-node, per-table LSM storage engine.

Ties together the write path (memtable → flush → SSTables → compaction)
and the read path: every tier — the active memtable, sealed ones, each
run — is asked the same ``slice_partition_view(pk, lower, upper)`` and
answers a :class:`~repro.cassdb.vector.BlockView`; one answer is served
as it is, several are merged.  A flush and a compaction each encode
one block: a run holds all its partitions in one
:class:`~repro.cassdb.vector.ColumnBlock`, and a partition read of it
is a view over the partition's offset range.  A run holds a partition
exactly when its ``offsets`` name it, so a read skips every other run
with one dict lookup.  Rows arrive one way, :meth:`TableStore.write_rows`,
as a :class:`~repro.cassdb.memtable.Batch` of column cells, a delete as
a tombstone marker among them.  One :class:`TableStore` exists per table
per storage node.

Concurrency model: the store lock guards memtable appends, sealing a
memtable and publishing an SSTable; a run's encode and a compaction's
merge run outside it.  A flush seals the active memtable under the
lock — it resolves each partition's writes since its last read (a scan
of their keys; a sort only where they arrived out of order) and swaps
the memtable onto the ``frozen`` list — and builds the SSTable outside
it, so concurrent writers keep committing into the fresh memtable and
readers keep seeing the sealed rows (via ``frozen``) while the build
runs.  Compaction merges a snapshot of the runs outside the lock the
same way.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable

from repro import obs

from .memtable import Batch, Memtable
from .row import ClusteringBound, Row
from .sstable import SSTable, merge_sstables
from .vector import BlockView, ColumnBlock, merge_views

__all__ = ["StoreStats", "TableStore"]

# Shared across every TableStore: the LSM-health counters the run-skip
# rate and flush/compaction dashboards are built from.  A read counts
# each run once: ``sstable_probes`` if its offsets hold the partition,
# ``bloom_skips`` (the name dashboards know) if they do not.
_M_FLUSHES = obs.get_registry().counter("cassdb.store.flushes")
_M_COMPACTIONS = obs.get_registry().counter("cassdb.store.compactions")
_M_BLOOM_SKIPS = obs.get_registry().counter("cassdb.store.bloom_skips")
_M_SSTABLE_PROBES = obs.get_registry().counter("cassdb.store.sstable_probes")
_M_ROWS_PRUNED = obs.get_registry().counter("cassdb.store.rows_pruned")
_M_FLUSHED_ROWS = obs.get_registry().histogram(
    "cassdb.store.flush_rows", buckets=(100, 1000, 10_000, 100_000))


@dataclass
class StoreStats:
    """Operational counters exposed for the scalability benchmarks."""

    writes: int = 0
    reads: int = 0
    flushes: int = 0
    compactions: int = 0
    bloom_skips: int = 0  # runs a read skipped: their offsets lack the key
    sstable_probes: int = 0
    rows_pruned: int = 0  # rows excluded by clustering bounds before merge


@dataclass
class TableStore:
    """LSM tree for one table on one node.

    Parameters
    ----------
    flush_threshold:
        Rows buffered in the memtable before an automatic flush.
    max_sstables:
        Size-tiered compaction trigger: when the number of runs exceeds
        this, all runs are merged into one.
    """

    flush_threshold: int = 50_000
    max_sstables: int = 8
    memtable: Memtable = field(default_factory=Memtable)
    # Sealed memtables whose SSTable build is in flight; readers treat
    # them as sources so pre-flush rows stay visible during the build.
    frozen: list[Memtable] = field(default_factory=list)
    sstables: list[SSTable] = field(default_factory=list)
    stats: StoreStats = field(default_factory=StoreStats)
    # Guards pointer swaps (memtable appends, seal/publish) against the
    # coordinator's parallel replica reads; flush/compaction merge work
    # happens outside it, on sealed snapshots.
    lock: threading.RLock = field(default_factory=threading.RLock, repr=False)
    # Called (outside the lock) once a memtable is sealed and before its
    # SSTable build, so a caller can act while the build is in flight.
    # None — the permanent default — costs one attribute check per flush.
    flush_hook: "Callable[[], None] | None" = field(default=None, repr=False)

    # -- write path -----------------------------------------------------

    def write_rows(self, batch: Batch) -> None:
        """Append *batch* to the memtable — the one write entry: one
        lock acquisition for all its rows.

        Every write lands here, a batch of one row included — the store
        lock is taken once per call, and the flush check runs once
        after it (the memtable may overshoot the threshold by up to one
        batch; the next one flushes it).
        """
        with self.lock:
            self.memtable.append(batch)
            self.stats.writes += len(batch)
            sealed = (self._seal_locked()
                      if self.memtable.row_count >= self.flush_threshold
                      else None)
        if sealed is not None:
            self._build_sstable(sealed)

    def _seal_locked(self) -> Memtable | None:
        """Resolve the active memtable and swap it onto the frozen list
        (under lock).  Returns the sealed memtable, or None when empty."""
        if not self.memtable.row_count:
            return None
        sealed = self.memtable
        sealed.seal()  # from here readers and the build only read it
        self.frozen.append(sealed)
        self.memtable = Memtable()
        return sealed

    def _build_sstable(self, sealed: Memtable) -> None:
        """Build and publish the SSTable for a sealed memtable.

        Runs *outside* the store lock: writers commit to the fresh
        memtable and readers see the sealed rows via ``frozen`` for the
        duration of the build.  Only the publish (swap frozen → run) is
        locked.
        """
        flushed_rows = sealed.row_count
        hook = self.flush_hook
        if hook is not None:
            hook()
        with obs.get_tracer().span("cassdb.store.flush", rows=flushed_rows):
            sst = SSTable.from_memtable(sealed)
        with self.lock:
            self.frozen.remove(sealed)
            self.sstables.append(sst)
            self.stats.flushes += 1
            need_compact = len(self.sstables) > self.max_sstables
        _M_FLUSHES.inc()
        _M_FLUSHED_ROWS.observe(flushed_rows)
        if need_compact:
            self.compact()

    def flush(self) -> None:
        """Freeze the memtable into a new SSTable (no-op when empty)."""
        with self.lock:
            sealed = self._seal_locked()
        if sealed is not None:
            self._build_sstable(sealed)

    def compact(self) -> None:
        """Merge all runs into one, dropping shadowed data and tombstones.

        The merge runs on a snapshot outside the lock; runs flushed
        while it was merging are kept alongside the merged result.
        """
        with self.lock:
            runs = list(self.sstables)
        if len(runs) <= 1:
            return
        with obs.get_tracer().span("cassdb.store.compact", runs=len(runs)):
            merged = merge_sstables(runs)
        with self.lock:
            if self.sstables[:len(runs)] != runs:
                return  # lost the race to a concurrent compaction
            self.sstables = [merged] + self.sstables[len(runs):]
            self.stats.compactions += 1
        _M_COMPACTIONS.inc()

    # -- read path ------------------------------------------------------

    def read_partition(
        self,
        partition_key: tuple,
        lower: ClusteringBound | None = None,
        upper: ClusteringBound | None = None,
        reverse: bool = False,
        limit: int | None = None,
    ) -> list[Row]:
        """:meth:`read_partition_view` as rows.  Nothing in the program
        calls it; ``benchmarks/e2e/trace.py`` wraps it by name."""
        return self.read_partition_view(partition_key, lower, upper,
                                        reverse, limit).to_rows()

    def read_partition_view(
        self,
        partition_key: tuple,
        lower: ClusteringBound | None = None,
        upper: ClusteringBound | None = None,
        reverse: bool = False,
        limit: int | None = None,
    ) -> BlockView:
        """All live rows of a partition within clustering bounds, as the
        view the vectorized kernels filter, project and fold.

        Each run whose offsets hold the partition is first bisected
        down to its in-bounds slice — out-of-range rows are *pruned*
        before any merge work.  Sealed memtables awaiting their
        SSTable build count as sources, so an in-flight flush never
        hides rows.

        When one tier alone holds the partition — one SSTable run, the
        steady state after flush/compaction, or one memtable, a
        partition written since the last flush — the view is that
        tier's slice, dead rows dropped: no merge runs and, over a run,
        no ``Row`` is built.  With several sources (memtable deltas,
        un-compacted runs) the k-way heap merge reconciles them
        (duplicates by cell timestamp, tombstoned rows dropped), stops
        once *limit* live rows exist, and the view is over a row-backed
        block of what it emitted.  Either way dead rows are gone, the
        block ascends and *reverse*/*limit* are the view's order.
        """
        sources = self._slices(partition_key, lower, upper)
        if len(sources) == 1:
            return sources[0].live().ordered(reverse, limit)
        # The merge stops at *limit* and, reversed, emits descending.
        rows = merge_views(sources, reverse=reverse, limit=limit)
        if reverse:
            rows.reverse()
        return BlockView(ColumnBlock.over_rows(rows)).ordered(reverse)

    def exchange_partition(self, partition_key: tuple,
                           lower: ClusteringBound | None = None,
                           upper: ClusteringBound | None = None) -> list[Row]:
        """This node's copy of a partition within clustering bounds, as
        replicas exchange it: memtables and runs reconciled, ascending,
        dead rows *kept* — a delete reaches a replica that missed it
        only as the tombstone marker.  No *reverse*/*limit*: a limit cut
        below a reconcile across replicas is a short read."""
        return merge_views(self._slices(partition_key, lower, upper),
                           keep_dead=True)

    def _slices(self, partition_key: tuple, lower: ClusteringBound | None,
                upper: ClusteringBound | None) -> list[BlockView]:
        """Every tier's non-empty in-bounds slice of a partition, newest
        tier first.  Memtables (active, then sealed ones awaiting their
        build) and runs answer the same ``slice_partition_view``; a run
        is asked only if its ``offsets`` hold the partition key."""
        sources: list[BlockView] = []
        pruned = 0
        with self.lock:
            self.stats.reads += 1
            tiers: list[Memtable | SSTable] = [self.memtable, *self.frozen]
            for sst in self.sstables:
                if partition_key in sst.offsets:
                    self.stats.sstable_probes += 1
                    _M_SSTABLE_PROBES.inc()
                    tiers.append(sst)
                else:
                    self.stats.bloom_skips += 1
                    _M_BLOOM_SKIPS.inc()
            for tier in tiers:
                sliced = tier.slice_partition_view(partition_key, lower, upper)
                if sliced is not None:
                    source, skipped = sliced
                    pruned += skipped
                    if len(source):
                        sources.append(source)
            if pruned:
                self.stats.rows_pruned += pruned
        if pruned:
            _M_ROWS_PRUNED.inc(pruned)
        return sources

    def partition_keys(self) -> set[tuple]:
        """Every partition key present on this node (memtable + runs)."""
        with self.lock:
            keys = set(self.memtable.partition_keys())
            for mem in self.frozen:
                keys.update(mem.partition_keys())
            for sst in self.sstables:
                keys.update(sst.partition_keys())
            return keys

    @property
    def row_count(self) -> int:
        """Approximate row count (duplicates across runs counted once each)."""
        with self.lock:
            return (
                self.memtable.row_count
                + sum(m.row_count for m in self.frozen)
                + sum(len(s) for s in self.sstables)
            )
