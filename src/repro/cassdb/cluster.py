"""The simulated Cassandra cluster: coordination, replication, consistency.

This is the "backend distributed NoSQL database" of the paper's
architecture (Fig 3).  A :class:`Cluster` owns the ring, the storage
nodes and the keyspace, and implements the coordinator logic every
Cassandra node runs:

* writes go to all replicas of the partition key; the coordinator waits
  for ``consistency`` acks and buffers *hints* for replicas that are
  down (hinted handoff, replayed when the replica recovers);
* reads query ``consistency`` replicas; more than one are asked at
  once on the replica pool and answer with their whole in-bounds copy,
  tombstone markers kept, the coordinator reconciles the copies by cell
  timestamp and writes back what a replica lacks — a missed delete
  included (read repair);
* a read of several partitions (an ``IN`` list, a time window) walks
  them on the calling thread, in order: the network is a method call,
  so there is no round-trip for a fan-out to save.
  :meth:`Cluster.window_partitions` is the one place a ``[t0, t1)``
  window becomes partitions and clustering bounds;
* ``UnavailableError`` / ``WriteTimeoutError`` / ``ReadTimeoutError``
  reproduce the driver-visible failure modes.

The cluster is in-process: "nodes" are Python objects and "the network"
is a method call, but placement, replication and consistency semantics
are the real ones — which is what the paper's schema design (§II-B) and
the locality-aware analytics (§III-A, Fig 4) depend on.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import random
import threading
import time
from operator import itemgetter
from concurrent.futures import ThreadPoolExecutor, as_completed, wait
from enum import Enum
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro import obs

from .errors import (
    BatchUnavailableError,
    BatchWriteTimeoutError,
    CassDBError,
    NodeDownError,
    ReadTimeoutError,
    SchemaError,
    UnavailableError,
    WriteTimeoutError,
)
from .hashring import HashRing
from .node import Hint, StorageNode
from .resilience import BreakerState, CircuitBreaker, RetryPolicy
from .row import ClusteringBound, Row, in_partition_order
from .schema import Keyspace, TableSchema
from .vector import (
    BlockHints,
    BlockView,
    ColumnBlock,
    materialize_dicts,
    merge_views,
    select_rows,
)

# Number of write-lock stripes: enough that concurrent writers to
# disjoint partitions rarely collide, small enough that acquiring every
# stripe (repair) stays cheap.
DEFAULT_WRITE_STRIPES = 32

__all__ = ["Consistency", "Cluster"]


class Consistency(Enum):
    """Tunable consistency levels (the subset the paper's workload needs)."""

    ONE = "ONE"
    TWO = "TWO"
    QUORUM = "QUORUM"
    ALL = "ALL"

    def required(self, replication_factor: int) -> int:
        if self is Consistency.ONE:
            return 1
        if self is Consistency.TWO:
            return min(2, replication_factor)
        if self is Consistency.QUORUM:
            return replication_factor // 2 + 1
        return replication_factor


# ``fold(partition_values, view)``: what a replica-side read returns for
# one partition, *view* the partition's live in-bounds rows as the
# vectorized kernels take them.
PartitionFold = Callable[[dict[str, Any], BlockView], Any]


# What a failed group of ``write_batch`` raises, by the per-row error
# ``_commit_groups`` names.
_BATCH_ERRORS = {
    UnavailableError: BatchUnavailableError,
    WriteTimeoutError: BatchWriteTimeoutError,
}


def _now_us() -> int:
    return time.time_ns() // 1_000


class Cluster:
    """A masterless ring of storage nodes hosting one keyspace."""

    def __init__(
        self,
        node_ids: Sequence[str] | int = 4,
        *,
        replication_factor: int = 1,
        vnodes: int = 64,
        keyspace: str = "logs",
        flush_threshold: int = 50_000,
        max_sstables: int = 8,
        retry_policy: RetryPolicy = RetryPolicy(),
    ):
        if isinstance(node_ids, int):
            node_ids = [f"node{i:02d}" for i in range(node_ids)]
        node_ids = list(node_ids)
        if replication_factor > len(node_ids):
            raise ValueError("replication_factor cannot exceed node count")
        self.keyspace = Keyspace(keyspace, replication_factor=replication_factor)
        self.ring = HashRing(
            node_ids, vnodes=vnodes, replication_factor=replication_factor
        )
        self.nodes: dict[str, StorageNode] = {
            nid: StorageNode(
                nid, flush_threshold=flush_threshold,
                max_sstables=max_sstables,
                hints_provider=self._block_hints_for,
            )
            for nid in node_ids
        }
        self._write_ts = itertools.count(_now_us())
        # Write-path coordination is *striped*: each (table, partition
        # key) hashes to one of DEFAULT_WRITE_STRIPES locks, so writers to
        # disjoint partitions commit concurrently while replica-set
        # application + hint buffering stays atomic per partition.  The
        # *read* path runs lock-free at this layer — each TableStore
        # snapshots its runs under its own lock.  Repair acquires every
        # stripe (in index order, as does the batch commit, so lock
        # ordering is total and deadlock-free).
        self._write_locks = tuple(
            threading.RLock() for _ in range(DEFAULT_WRITE_STRIPES)
        )
        # Aggregate coordinator counters (bench_fig2 reads these).
        self.coordinator_writes = 0
        self.coordinator_reads = 0
        self.hinted_writes = 0
        self.read_repairs = 0
        self._counter_lock = threading.Lock()
        # Monotonic per-table write epochs: bumped on every *successful*
        # coordinated write (once per batch), so layered caches (the
        # server's result cache) can detect staleness without
        # subscribing to individual writes.
        self._table_epochs: dict[str, int] = {}
        self._epoch_lock = threading.Lock()
        # The replica-read executor, created by the first read that asks
        # more than one replica (see _replica_pool).
        self._pool_lock = threading.Lock()
        self._replica_pool_: ThreadPoolExecutor | None = None
        # Process-wide obs series (shared across Cluster instances).
        registry = obs.get_registry()
        self._m_reads = registry.counter("cassdb.coordinator.reads")
        self._m_writes = registry.counter("cassdb.coordinator.writes")
        self._m_read_latency = registry.histogram(
            "cassdb.coordinator.read_latency_ms")
        self._m_write_latency = registry.histogram(
            "cassdb.coordinator.write_latency_ms")
        self._m_hints_buffered = registry.counter("cassdb.hints.buffered")
        self._m_hints_replayed = registry.counter("cassdb.hints.replayed")
        self._m_read_repairs = registry.counter("cassdb.read_repairs")
        self._m_consistency_failures = registry.counter(
            "cassdb.consistency.failures")
        self._m_locality_reads = registry.counter("cassdb.locality.reads")
        self._m_agg_pushdown_partitions = registry.counter(
            "cassdb.coordinator.agg_pushdown_partitions")
        self._m_parallel_replica_reads = registry.counter(
            "cassdb.coordinator.parallel_replica_reads")
        # Batched write path (S6 bench reads these).
        self._m_batches = registry.counter("cassdb.write.batches")
        self._m_batch_rows = registry.histogram(
            "cassdb.write.batch_rows", buckets=(10, 100, 1000, 10_000))
        self._m_batch_groups = registry.histogram(
            "cassdb.write.batch_groups", buckets=(1, 2, 4, 8, 16))
        # Every coordinated op runs under the retry policy, and every
        # replica has a circuit breaker.  The jitter RNG's seed is a
        # constant, so a retry schedule is reproducible.
        self.retry_policy = retry_policy
        self._retry_rng = random.Random(2017)
        self._retry_lock = threading.Lock()
        self._breakers = {
            nid: CircuitBreaker(
                failure_threshold=retry_policy.breaker_failures,
                cooldown_s=retry_policy.breaker_cooldown_s,
            )
            for nid in node_ids
        }
        # Chaos injection point: a FaultGate armed by repro.chaos, or
        # None (the permanent default: one attribute check per op).
        self.chaos_gate = None
        self._m_read_retries = registry.counter("cassdb.retry.read_retries")
        self._m_write_retries = registry.counter("cassdb.retry.write_retries")
        self._m_retry_exhausted = registry.counter("cassdb.retry.exhausted")
        self._m_spec_reads = registry.counter(
            "cassdb.retry.speculative_reads")
        self._m_spec_wins = registry.counter("cassdb.retry.speculative_wins")
        self._m_breaker_opens = registry.counter("cassdb.breaker.opens")
        self._m_breaker_skips = registry.counter(
            "cassdb.breaker.skipped_targets")

    # -- replica pool -------------------------------------------------------

    @property
    def _replica_pool(self) -> ThreadPoolExecutor:
        """Where a QUORUM/ALL read asks its replicas at once, so a slow
        one overlaps the others and a hedged duplicate can overtake it.
        A CL=ONE read never comes here: it starts no thread."""
        pool = self._replica_pool_
        if pool is None:
            with self._pool_lock:
                pool = self._replica_pool_
                if pool is None:
                    pool = self._replica_pool_ = ThreadPoolExecutor(
                        max_workers=min(8, max(2, len(self.nodes))),
                        thread_name_prefix="cassdb-replica",
                    )
        return pool

    def close(self) -> None:
        """Shut down the replica pool (idempotent)."""
        with self._pool_lock:
            if self._replica_pool_ is not None:
                self._replica_pool_.shutdown(wait=True, cancel_futures=True)
                self._replica_pool_ = None

    # -- schema -----------------------------------------------------------

    def create_table(self, schema: TableSchema,
                     if_not_exists: bool = False) -> TableSchema:
        if if_not_exists and schema.name in self.keyspace.tables:
            return self.keyspace.tables[schema.name]
        return self.keyspace.create_table(schema)

    def schema(self, table: str) -> TableSchema:
        return self.keyspace.table(table)

    def _block_hints_for(self, table: str) -> BlockHints | None:
        """Schema-derived run hints for a node's table store (the index
        interval); None when the table has no registered schema."""
        try:
            return self.keyspace.table(table).block_hints
        except SchemaError:
            return None

    # -- membership / failure simulation -----------------------------------

    def alive_nodes(self) -> list[str]:
        return [nid for nid, n in self.nodes.items() if n.up]

    def kill_node(self, node_id: str) -> None:
        """Explicit node failure: process dead *and* cluster-visible
        (data retained, requests refused, hint buffering starts now)."""
        self.nodes[node_id].mark_down()

    def crash_node(self, node_id: str) -> None:
        """The node's process dies silently: it stops answering, but
        coordinators keep routing to it until :meth:`kill_node` or
        :meth:`revive_node`; meanwhile its breaker opens.  Writes that
        reach it in the window are hinted by the coordinator."""
        self.nodes[node_id].crash()

    def recover_node(self, node_id: str) -> None:
        """The process restarts.  Hints buffered for it while it was
        down wait for :meth:`revive_node`."""
        self.nodes[node_id].recover_process()

    def revive_node(self, node_id: str) -> None:
        """Bring a node back and replay hints both ways: hints buffered
        *for* it cluster-wide, and hints *it* buffered (as a coordinator)
        whose targets have since come back.  Peers that are still down
        keep their buffers until their own revival — so any revival
        order converges without anti-entropy repair."""
        node = self.nodes[node_id]
        node.mark_up()
        for peer_id, peer in self.nodes.items():
            if peer is node or not peer.up:
                continue
            for hint in peer.drain_hints_for(node_id):
                node.write(hint.table, hint.partition_key, hint.row)
                self._m_hints_replayed.inc()
            if not peer.process_up:
                continue  # crashed, still routed: its own revival replays
            for hint in node.drain_hints_for(peer_id):
                peer.write(hint.table, hint.partition_key, hint.row)
                self._m_hints_replayed.inc()

    def _replica_up(self, node_id: str) -> bool:
        """Routing liveness as the coordinator sees it, including any
        chaos-gate flap window currently suppressing the replica."""
        if not self.nodes[node_id].up:
            return False
        gate = self.chaos_gate
        return gate is None or not gate.replica_down(node_id)

    # -- circuit breakers ---------------------------------------------------

    def breaker(self, node_id: str) -> CircuitBreaker:
        """The replica's circuit breaker."""
        return self._breakers[node_id]

    def _breaker_failure(self, node_id: str) -> None:
        if self._breakers[node_id].record_failure():
            self._m_breaker_opens.inc()

    def _read_targets(
        self, alive: list[str], required: int
    ) -> tuple[list[str], list[str]]:
        """Pick read targets among *alive* replicas, breaker-aware.

        Targets are the first *required* replicas whose breaker allows a
        read.  ``allow()`` is asked only until they are found: past its
        cooldown an open breaker answers with the one probe, and a
        replica granted the probe but never read would stay HALF_OPEN
        for good.  Returns ``(targets, spares)``; spares, for
        speculative (hedged) reads, are the replicas after the targets
        whose breaker is CLOSED.  When too few breakers allow a read,
        every alive replica is routed, refused ones last.
        """
        targets: list[str] = []
        broken: list[str] = []
        rest = iter(alive)
        for rid in rest:
            if self._breakers[rid].allow():
                targets.append(rid)
                if len(targets) == required:
                    break
            else:
                broken.append(rid)
        else:
            # Not enough healthy replicas: route through open breakers
            # too rather than fail the read outright.
            routed = targets + broken
            return routed[:required], routed[required:]
        if broken:
            self._m_breaker_skips.inc(len(broken))
        return targets, [rid for rid in rest
                         if self._breakers[rid].state == BreakerState.CLOSED]

    # -- write path ---------------------------------------------------------

    def next_write_ts(self) -> int:
        return next(self._write_ts)

    def insert(
        self,
        table: str,
        values: Mapping[str, Any],
        consistency: Consistency = Consistency.ONE,
    ) -> None:
        """Insert/upsert one row (CQL ``INSERT`` semantics: always upsert)."""
        schema = self.schema(table)
        # Key columns are stored positionally (in the partition key and
        # clustering tuples); only regular columns become cells.
        pk, row = schema.row_builder(values, self.next_write_ts())
        self._replicated_write(schema, pk, row, consistency)

    def insert_many(
        self,
        table: str,
        rows: Iterable[Mapping[str, Any]],
        consistency: Consistency = Consistency.ONE,
    ) -> int:
        """Bulk upsert; returns the number of rows written.

        Routed through :meth:`write_batch`: rows are grouped by replica
        set and applied with one lock acquisition per storage node, not
        one per row.
        """
        return self.write_batch(table, rows, consistency)

    def delete_row(
        self,
        table: str,
        values: Mapping[str, Any],
        consistency: Consistency = Consistency.ONE,
    ) -> None:
        """Delete one row identified by its full primary key."""
        schema = self.schema(table)
        pk, row = schema.row_builder(values, 0)
        marker = Row(row.clustering, {}, tombstone_ts=self.next_write_ts())
        self._replicated_write(schema, pk, marker, consistency)

    # -- write-lock striping -------------------------------------------------

    def _all_write_locks(self) -> contextlib.ExitStack:
        """Acquire every stripe in index order (repair's full barrier)."""
        stack = contextlib.ExitStack()
        for lock in self._write_locks:
            stack.enter_context(lock)
        return stack

    def _bump_epoch(self, table: str) -> None:
        with self._epoch_lock:
            self._table_epochs[table] = self._table_epochs.get(table, 0) + 1

    def table_epoch(self, table: str) -> int:
        """Monotonic count of coordinated write *commits* to *table*
        (cache token; a whole batch counts once)."""
        with self._epoch_lock:
            return self._table_epochs.get(table, 0)

    def _retrying(self, kind: str, fn):
        """Run *fn* under the retry policy.

        Retries coordinator-level failures with exponential backoff and
        seeded jitter, within ``max_attempts`` and the per-operation
        ``request_timeout_ms`` budget.  Re-applying a write is safe —
        rows carry their write timestamp, so replays are idempotent
        under last-write-wins.
        """
        policy = self.retry_policy
        retries = (self._m_write_retries if kind == "write"
                   else self._m_read_retries)
        start = time.perf_counter()
        attempt = 1
        while True:
            try:
                return fn()
            except (UnavailableError, WriteTimeoutError, ReadTimeoutError,
                    NodeDownError):
                elapsed_ms = (time.perf_counter() - start) * 1000.0
                if (attempt >= policy.max_attempts
                        or elapsed_ms >= policy.request_timeout_ms):
                    self._m_retry_exhausted.inc()
                    raise
                with self._retry_lock:
                    delay_ms = policy.delay_ms(attempt, self._retry_rng)
                retries.inc()
                if delay_ms > 0:
                    time.sleep(delay_ms / 1000.0)
                attempt += 1

    def _replicated_write(
        self, schema: TableSchema, partition_key: tuple, row: Row,
        consistency: Consistency,
    ) -> None:
        """Commit one row (or tombstone marker) as a batch of one group."""
        start = time.perf_counter()
        table = schema.name
        ring_key = schema.ring_key(partition_key)
        pending = [(tuple(self.ring.replicas(ring_key)),
                    [(partition_key, row)])]
        stripes = [hash((table, partition_key)) % len(self._write_locks)]

        def attempt() -> None:
            failed = self._commit_groups(table, pending, stripes, consistency)
            if failed is not None:
                _group, error, required, got = failed
                raise error(required, got)

        with obs.get_tracer().span(
            "cassdb.write", table=table, partition=ring_key
        ):
            self._retrying("write", attempt)
        with self._counter_lock:
            self.coordinator_writes += 1
        self._m_writes.inc()
        self._bump_epoch(table)
        self._m_write_latency.observe((time.perf_counter() - start) * 1000.0)

    # -- batched write path --------------------------------------------------

    def write_batch(
        self,
        table: str,
        rows: Iterable[Mapping[str, Any]],
        consistency: Consistency = Consistency.ONE,
    ) -> int:
        """Bulk upsert one table; returns rows written.

        The batched commit the ingest pipelines ride (§III-D: Spark
        micro-batches into the backend) — routed by replica set,
        applied by node:

        * rows are built by the schema's precompiled
          :attr:`~repro.cassdb.schema.TableSchema.row_builder` and
          grouped by replica set — the unit availability, acks and
          hints are decided for;
        * the batch takes the union of its stripe locks once, checks
          every group's availability before anything is applied, and
          then applies each storage node's share of all groups with
          **one** ``StorageNode.write_rows`` call (one ``TableStore``
          lock, one span per node, not per group and replica);
        * the table epoch is bumped **once** for the whole batch (the
          server's result cache sees one epoch change, not one per row);
        * one ``cassdb.write_batch`` trace span and one set of
          ``cassdb.write.batch_*`` observations cover the call.

        A batch with an unavailable group applies nothing and raises
        :class:`BatchUnavailableError`.  Past that check atomicity is,
        like Cassandra's unlogged ``BATCH``, per replica-set group: when
        a replica refuses its share and a group ends short of its acks
        (:class:`BatchWriteTimeoutError`), the groups that met their
        level stay committed — and the epoch still advances so caches
        never serve the partial batch as fresh.
        """
        schema = self.schema(table)
        build = schema.row_builder
        ring_key = schema.ring_key
        next_ts = self.next_write_ts
        n_stripes = len(self._write_locks)
        # replica-set tuple -> partition keys.  Per-pk routing (ring
        # lookup + stripe hash) runs once per *distinct* partition;
        # ``rows_of`` jumps straight from pk to its rows for every later
        # row of that partition.
        groups: dict[tuple[str, ...], list[tuple]] = {}
        rows_of: dict[tuple, list[Row]] = {}
        stripes: set[int] = set()
        n = 0
        for values in rows:
            pk, row = build(values, next_ts())
            part = rows_of.get(pk)
            if part is None:
                part = rows_of[pk] = []
                replicas = tuple(self.ring.replicas(ring_key(pk)))
                groups.setdefault(replicas, []).append(pk)
                stripes.add(hash((table, pk)) % n_stripes)
            part.append(row)
            n += 1
        if not n:
            return 0
        start = time.perf_counter()
        # A group's items are its partitions' rows in partition order,
        # so a node's share is a few sorted runs for its sort to merge.
        pending = [(replicas, [(pk, row) for pk in in_partition_order(keys)
                               for row in rows_of[pk]])
                   for replicas, keys in groups.items()]
        ordered = sorted(stripes)
        gate = self.chaos_gate
        if gate is not None:
            gate.on_coordinator_op(self)

        def committed() -> int:
            return n - sum(len(items) for _replicas, items in pending)

        def attempt() -> None:
            failed = self._commit_groups(table, pending, ordered, consistency)
            if failed is not None:
                (replicas, items), error, required, got = failed
                raise _BATCH_ERRORS[error](
                    required, got, table=table, group=replicas,
                    group_rows=len(items), applied_rows=committed())

        try:
            with obs.get_tracer().span(
                "cassdb.write_batch", table=table, rows=n, groups=len(groups)
            ):
                self._retrying("write", attempt)
        finally:
            applied = committed()
            if applied:
                with self._counter_lock:
                    self.coordinator_writes += applied
                self._m_writes.inc(applied)
                self._bump_epoch(table)
                self._m_batches.inc()
                self._m_batch_rows.observe(applied)
                self._m_batch_groups.observe(len(groups))
            self._m_write_latency.observe(
                (time.perf_counter() - start) * 1000.0)
        return n

    def _commit_groups(
        self,
        table: str,
        pending: list[tuple[tuple[str, ...], list[tuple[tuple, Row]]]],
        stripes: list[int],
        consistency: Consistency,
    ) -> "tuple[tuple, type[CassDBError], int, int] | None":
        """Commit replica-set groups: route by set, apply by node — the
        one place rows reach a replica, acks are counted and hints are
        buffered (a single-row write is one group of one row).

        *pending* is ``(replica ids, items)`` per group and is pruned in
        place of every group that met its consistency level, so a retry
        re-sends only the rest.  *stripes* is the sorted set of stripe
        indices the partitions hash to; acquiring them in index order
        keeps lock ordering total across concurrent batches, per-row
        writes and repair.

        Returns None when every group committed, else ``(group, error
        class, required, got)`` for the first group that did not:
        :class:`UnavailableError` from the availability check, which
        runs for every group before anything is applied (nothing was
        applied, nothing pruned); :class:`WriteTimeoutError` when a
        routed-to replica refused its share and left the group short of
        acks — rows may sit on the replicas that did apply, so the table
        epoch advances and layered caches drop what is now stale.
        """
        gate = self.chaos_gate
        with contextlib.ExitStack() as stack:
            for idx in stripes:
                stack.enter_context(self._write_locks[idx])
            # Route: one gate tick and one liveness reading per group.
            routes: list[tuple[list[str], int]] = []
            for group in pending:
                if gate is not None:
                    gate.on_coordinator_op(self)
                replica_ids = group[0]
                routed = [r for r in replica_ids if self._replica_up(r)]
                required = consistency.required(len(replica_ids))
                if len(routed) < required:
                    self._m_consistency_failures.inc()
                    return group, UnavailableError, required, len(routed)
                routes.append((routed, required))
            # Apply: each node's share of every group in one call.
            shares: dict[str, list[tuple[tuple, Row]]] = {}
            for (_replica_ids, items), (routed, _) in zip(pending, routes):
                for replica_id in routed:
                    share = shares.get(replica_id)
                    if share is None:
                        shares[replica_id] = list(items)
                    else:
                        share.extend(items)
            applied: set[str] = set()
            for replica_id, share in shares.items():
                # Sorting by partition key groups same-partition rows
                # into runs (memtable bulk-upsert locality); write
                # timestamps, not application order, decide
                # last-write-wins, so this is safe.
                try:
                    self.nodes[replica_id].write_rows(
                        table, in_partition_order(share, itemgetter(0)))
                except NodeDownError:
                    # Crashed but still routed: no ack for any group.
                    self._breaker_failure(replica_id)
                else:
                    self._breakers[replica_id].record_success()
                    applied.add(replica_id)
            # Settle: acks and hints per group, from the node outcomes.
            short: list = []
            failed = None
            hinted = 0
            partial = False
            for group, (routed, required) in zip(pending, routes):
                replica_ids, items = group
                acked = [r for r in routed if r in applied]
                if acked and len(acked) < len(replica_ids):
                    # A replica that applied the write holds the hints
                    # for those that did not; a group nobody applied has
                    # no holder (and no ack, so it fails its level).
                    holder = self.nodes[acked[0]]
                    for replica_id in replica_ids:
                        if replica_id not in acked:
                            holder.buffer_hints(
                                Hint(replica_id, table, pk, row)
                                for pk, row in items)
                            hinted += len(items)
                if len(acked) < required:
                    short.append(group)
                    partial = partial or bool(acked)
                    if failed is None:
                        failed = (group, WriteTimeoutError, required,
                                  len(acked))
            if hinted:
                with self._counter_lock:
                    self.hinted_writes += hinted
                self._m_hints_buffered.inc(hinted)
            if short:
                self._m_consistency_failures.inc(len(short))
                if partial:
                    self._bump_epoch(table)
                pending[:] = short
            else:
                pending.clear()
            return failed

    # -- read path ------------------------------------------------------------

    def select_partition(
        self,
        table: str,
        partition_values: tuple,
        *,
        lower: ClusteringBound | None = None,
        upper: ClusteringBound | None = None,
        reverse: bool = False,
        limit: int | None = None,
        columns: Sequence[str] | None = None,
        predicates: Sequence[tuple[str, str, Any]] | None = None,
        consistency: Consistency = Consistency.ONE,
    ) -> list[dict[str, Any]]:
        """Read rows of one partition as plain dicts, in clustering order.

        This is *the* fast path the data model is built around: a context
        query (hour+type, hour+source, …) touches exactly one partition,
        named by its key tuple, e.g. ``(3, "MCE")``.

        ``columns`` is the projection-pushdown hook: when set, only those
        columns are materialized out of the row (absent cells are simply
        omitted, so ``row.get(col)`` reads as None downstream).

        ``predicates`` is the filter-pushdown hook: ``(column, op,
        value)`` residuals evaluated per-column before any row dict is
        built (absent/None never matches); a predicate may name a column
        the projection drops.  With predicates present, *limit* counts
        matching rows.
        """
        schema = self.schema(table)
        pk_values = dict(zip(schema.partition_key, partition_values))
        # A limit must count post-filter rows, so it cannot be pushed to
        # the replica read when predicates will drop some of them.
        store_limit = None if predicates else limit
        view = self._replicated_read(
            schema, partition_values, lower, upper, reverse, store_limit,
            consistency)
        if predicates:
            view = select_rows(
                view,
                [(schema.column_source(col), op, value)
                 for col, op, value in predicates],
                pk_values)
            if limit is not None:
                view = view.ordered(False, limit)
        return materialize_dicts(view, schema, pk_values, columns)

    def select_partitions(
        self,
        table: str,
        partition_values_list: Sequence[tuple],
        *,
        lower: ClusteringBound | None = None,
        upper: ClusteringBound | None = None,
        reverse: bool = False,
        limit: int | None = None,
        columns: Sequence[str] | None = None,
        predicates: Sequence[tuple[str, str, Any]] | None = None,
        consistency: Consistency = Consistency.ONE,
    ) -> list[list[dict[str, Any]]]:
        """Read several partitions (the IN-list fan-out): one
        :meth:`select_partition` per key tuple, on the calling thread,
        the per-partition row lists **in input order** — Cassandra's
        multi-partition IN semantics.  *limit* is per partition.
        """
        return [
            self.select_partition(
                table, pv, lower=lower, upper=upper, reverse=reverse,
                limit=limit, columns=columns, predicates=predicates,
                consistency=consistency,
            )
            for pv in partition_values_list
        ]

    def window_partitions(
        self,
        table: str,
        t0: float,
        t1: float,
        rest: Sequence[Any] | None = None,
    ) -> tuple[list[tuple], ClusteringBound, ClusteringBound]:
        """What a read of ``[t0, t1)`` touches in a time-bucketed table:
        the partition-key tuples, in partition order, and the
        ``ts >= t0`` / ``ts < t1`` clustering bounds that make the store
        prune instead of the caller filtering.

        *rest* is the partition-key values after the bucket column;
        ``None`` names every partition present in the covered buckets —
        the keys whose ``key[0]`` is one of them.
        The table must declare ``time_bucket`` and cluster on ``ts``
        first — the column its buckets are stamped from.
        """
        schema = self.schema(table)
        if schema.time_bucket is None:
            raise SchemaError(
                f"table {table!r} has no time_bucket: a windowed read "
                "needs a bucketed table")
        if schema.clustering_key[:1] != ("ts",):
            raise SchemaError(
                f"table {table!r}: first clustering column is "
                f"{next(iter(schema.clustering_key), None)!r}, not 'ts', "
                "so a window cannot be pushed down as clustering bounds")
        buckets = schema.buckets(t0, t1)
        if rest is not None:
            partitions = [(bucket, *rest) for bucket in buckets]
        else:
            partitions = in_partition_order(
                key for key in self.partition_keys(table)
                if key[0] in buckets)
        return (partitions, ClusteringBound((t0,)),
                ClusteringBound((t1,), inclusive=False))

    def select_window(
        self,
        table: str,
        t0: float,
        t1: float,
        rest: Sequence[Any] | None = None,
        *,
        predicates: Sequence[tuple[str, str, Any]] | None = None,
    ) -> list[dict[str, Any]]:
        """Rows of a time-bucketed table stamped in ``[t0, t1)``, in
        (bucket, partition, clustering) order: one
        :meth:`select_partition` per partition of
        :meth:`window_partitions`, *predicates* handed to each."""
        partitions, lower, upper = self.window_partitions(table, t0, t1, rest)
        rows: list[dict[str, Any]] = []
        for pv in partitions:
            rows += self.select_partition(
                table, pv, lower=lower, upper=upper, predicates=predicates)
        return rows

    def aggregate_partitions(
        self,
        table: str,
        partition_values_list: Sequence[tuple],
        *,
        lower: ClusteringBound | None = None,
        upper: ClusteringBound | None = None,
        fold: PartitionFold,
        consistency: Consistency = Consistency.ONE,
    ) -> list[Any]:
        """Aggregate-pushdown read: fold each partition at the replica read.

        ``fold(partition_values, view)`` is applied to each partition's
        live data *before* anything is shipped back — no row dicts are
        built and no rows cross the coordinator boundary, only the
        (small) partial each fold returns.  *view* is the
        :class:`~repro.cassdb.vector.BlockView` the replica read
        answers, whichever tiers hold the partition; the vectorized
        kernels fold it a column at a time.  Partitions are walked on
        the calling thread and partials come back in input order;
        merging them is the caller's job (the query engine's
        MergePartials operator).
        """
        schema = self.schema(table)
        names = schema.partition_key
        self._m_agg_pushdown_partitions.inc(len(partition_values_list))
        partials = []
        for key in partition_values_list:
            partials.append(fold(dict(zip(names, key)), self._replicated_read(
                schema, key, lower, upper, False, None, consistency)))
        return partials

    def _replicated_read(
        self,
        schema: TableSchema,
        partition_key: tuple,
        lower: ClusteringBound | None,
        upper: ClusteringBound | None,
        reverse: bool,
        limit: int | None,
        consistency: Consistency,
    ) -> BlockView:
        start = time.perf_counter()
        table = schema.name
        ring_key = schema.ring_key(partition_key)
        with obs.get_tracer().span(
            "cassdb.read", table=table, partition=ring_key
        ) as span:
            rows = self._retrying("read", lambda: self._coordinate_read(
                table, ring_key, partition_key, lower, upper, reverse, limit,
                consistency,
            ))
            span.set(rows=len(rows))
        self._m_read_latency.observe((time.perf_counter() - start) * 1000.0)
        return rows

    def _coordinate_read(
        self,
        table: str,
        ring_key: str,
        partition_key: tuple,
        lower: ClusteringBound | None,
        upper: ClusteringBound | None,
        reverse: bool,
        limit: int | None,
        consistency: Consistency,
    ) -> BlockView:
        with self._counter_lock:
            self.coordinator_reads += 1
        self._m_reads.inc()
        gate = self.chaos_gate
        if gate is not None:
            gate.on_coordinator_op(self)
        replicas = self.ring.replicas(ring_key)
        required = consistency.required(len(replicas))
        alive = [r for r in replicas if self._replica_up(r)]
        if len(alive) < required:
            self._m_consistency_failures.inc()
            raise UnavailableError(required, len(alive))
        targets, spares = self._read_targets(alive, required)
        if len(targets) == 1:
            # The CL=ONE steady state: hand the replica's view straight
            # through — the store already dropped dead rows and applied
            # reverse/limit, and a single response needs no
            # reconciliation.
            rid = targets[0]
            g = self.chaos_gate
            if g is not None:
                g.before_replica_read(rid)
            try:
                source = self.nodes[rid].read_partition_view(
                    table, partition_key, lower, upper, reverse, limit
                )
            except NodeDownError:
                self._breaker_failure(rid)
                self._m_consistency_failures.inc()
                raise ReadTimeoutError(required, 0)
            self._breakers[rid].record_success()
            return source
        responses: dict[str, list[Row]] = {}

        def read_replica(replica_id: str) -> list[Row] | None:
            g = self.chaos_gate
            if g is not None:
                g.before_replica_read(replica_id)
            try:
                # The whole in-bounds copy, markers kept: *limit* is
                # applied after the reconcile, never below it.
                rows = self.nodes[replica_id].exchange_partition(
                    table, partition_key, lower, upper
                )
            except NodeDownError:  # raced with a kill; treat as no response
                self._breaker_failure(replica_id)
                return None
            self._breakers[replica_id].record_success()
            return rows

        # QUORUM/ALL: query every required replica concurrently and
        # gather — digest latency is max(replicas), not sum.
        self._m_parallel_replica_reads.inc()
        pool = self._replica_pool
        futures = {
            pool.submit(
                contextvars.copy_context().run, read_replica, rid): rid
            for rid in targets
        }
        hedged: set[str] = set()
        if spares:
            # Speculative retry: replicas still silent past the
            # threshold each get a hedged duplicate on a spare.
            _, pending = wait(futures, timeout=(
                self.retry_policy.speculative_threshold_ms / 1000.0))
            if pending:
                for rid in spares[:len(pending)]:
                    hedged.add(rid)
                    futures[pool.submit(
                        contextvars.copy_context().run,
                        read_replica, rid)] = rid
                self._m_spec_reads.inc(len(hedged))
        for future in as_completed(futures):
            rid = futures[future]
            rows = future.result()
            if rows is not None and rid not in responses:
                responses[rid] = rows
                if len(responses) >= required:
                    break
        for rid in responses:
            if rid in hedged:
                self._m_spec_wins.inc()
        if len(responses) < required:
            self._m_consistency_failures.inc()
            raise ReadTimeoutError(required, len(responses))
        # Read repair rides the reconcile; what is served is the live
        # part of it, ordered and limited here.
        merged, pushed = self._reconcile_copies(
            table, partition_key, responses)
        if pushed:
            with self._counter_lock:
                self.read_repairs += pushed
            self._m_read_repairs.inc(pushed)
        merged_view = BlockView(ColumnBlock.over_rows(merged))
        return merged_view.live().ordered(reverse, limit)

    def _reconcile_copies(
        self, table: str, partition_key: tuple, copies: dict[str, list[Row]]
    ) -> tuple[list[Row], int]:
        """Merge the replicas' exchanged copies of a partition (cell-level
        last-write-wins, tombstone markers kept) and push back to each
        replica every row it lacks or holds stale.  Returns the merged
        rows, ascending, dead ones included, and the count pushed —
        read repair and :meth:`repair` are this one loop."""
        merged = merge_views(
            [BlockView(ColumnBlock.over_rows(rows))
             for rows in copies.values()], keep_dead=True)
        pushed = 0
        for replica_id, rows in copies.items():
            have = {row.clustering: row for row in rows}
            node = self.nodes[replica_id]
            for row in merged:
                mine = have.get(row.clustering)
                if mine is None or mine != row:
                    try:
                        node.write(table, partition_key, row)
                    except NodeDownError:
                        break  # crashed after answering; repair later
                    pushed += 1
        return merged, pushed

    # -- full scans & placement introspection ---------------------------------

    def _first_alive_view(
        self, table: str, ring_key: str, partition_key: tuple,
        lower: ClusteringBound | None, upper: ClusteringBound | None,
    ) -> BlockView | None:
        """One partition, within clustering bounds, as its first alive
        replica holds it; None when every replica is down."""
        for replica_id in self.ring.replicas(ring_key):
            node = self.nodes[replica_id]
            if not node.up:
                continue
            try:
                return node.read_partition_view(table, partition_key,
                                                lower, upper)
            except NodeDownError:  # crashed but still routed: next replica
                continue
        return None

    def scan_table(self, table: str) -> Iterable[dict[str, Any]]:
        """Yield every live row of a table (analytics full-scan path).

        Reads each partition once via its first *alive* replica.  This is
        the slow path the paper routes through Spark instead; sparklet's
        ``cassandraTable`` uses :meth:`partitions_by_node` to do the same
        scan with locality.
        """
        for rows in self.fold_table_partitions(table, self.row_fold(table)):
            yield from rows

    def row_fold(self, table: str) -> PartitionFold:
        """The fold of a row scan: every column of a partition read as
        plain dicts."""
        schema = self.schema(table)
        return lambda pk_values, view: materialize_dicts(
            view, schema, pk_values, None)

    def fold_table_partitions(
        self,
        table: str,
        fold: PartitionFold,
        lower: ClusteringBound | None = None,
        upper: ClusteringBound | None = None,
    ) -> Iterable[Any]:
        """Full-scan aggregate pushdown: fold every partition in place.

        The serial analog of :meth:`aggregate_partitions` for unrouted
        aggregates — each partition is folded, within the clustering
        bounds, at its first alive replica and only the partials are
        yielded, in partition order.
        """
        schema = self.schema(table)
        names = schema.partition_key
        for key in in_partition_order(self.partition_keys(table)):
            source = self._first_alive_view(
                table, schema.ring_key(key), key, lower, upper)
            if source is not None:
                yield fold(dict(zip(names, key)), source)

    def partition_keys(self, table: str) -> set[tuple]:
        keys: set[tuple] = set()
        for node in self.nodes.values():
            keys.update(node.partition_keys(table))
        return keys

    def partitions_by_node(self, table: str) -> dict[str, set[tuple]]:
        """Map node id -> partition keys whose *primary* replica it holds.

        The sparklet scheduler uses this to co-locate tasks with data
        (paper §III-A: "By associating local partitions with the same
        local Spark worker, the big data processing unit performs
        analytics efficiently").
        """
        ring_key = self.schema(table).ring_key
        out: dict[str, set[tuple]] = {nid: set() for nid in self.nodes}
        for key in self.partition_keys(table):
            out[self.ring.primary(ring_key(key))].add(key)
        return out

    def read_partition_raw(
        self, table: str, partition_key: tuple, *,
        lower: ClusteringBound | None = None,
        upper: ClusteringBound | None = None,
        fold: PartitionFold | None = None,
    ) -> Any:
        """Locality read (sparklet task input): one partition by its key
        tuple, within clustering bounds, folded as its first alive replica
        holds it — ``fold(partition_values, view)`` as in
        :meth:`aggregate_partitions`; by default the :meth:`row_fold`."""
        start = time.perf_counter()
        self._m_locality_reads.inc()
        schema = self.schema(table)
        ring_key = schema.ring_key(partition_key)
        with obs.get_tracer().span(
            "cassdb.read", table=table, partition=ring_key, locality=True
        ) as span:
            source = self._first_alive_view(table, ring_key, partition_key,
                                            lower, upper)
            if source is None:
                raise UnavailableError(1, 0)
            span.set(rows=len(source))
            value = (fold or self.row_fold(table))(
                dict(zip(schema.partition_key, partition_key)), source)
        self._m_read_latency.observe((time.perf_counter() - start) * 1000.0)
        return value

    # -- anti-entropy repair -----------------------------------------------

    @staticmethod
    def _partition_digest(rows: list[Row]) -> str:
        """Content digest of a replica's copy of a partition (the role
        Merkle trees play in Cassandra's repair)."""
        import hashlib

        h = hashlib.md5()
        for row in rows:
            h.update(repr(row.clustering).encode())
            h.update(repr(row.tombstone_ts).encode())
            stamps = row.timestamps()
            for name in sorted(row.values):
                h.update(name.encode())
                h.update(repr(row.values[name]).encode())
                h.update(str(stamps[name]).encode())
        return h.hexdigest()

    def repair(self, table: str) -> int:
        """Full anti-entropy repair of one table.

        For every partition, compare the content digests of all live
        replicas' copies — tombstone markers included, so a delete one
        replica missed is a divergence; where they diverge, merge every
        copy and push each replica what it lacks
        (:meth:`_reconcile_copies`).  Returns the number of partitions
        that needed repair.
        Unlike read repair this covers data nobody has queried —
        Cassandra's ``nodetool repair``.
        """
        ring_key = self.schema(table).ring_key
        with self._all_write_locks():
            repaired = 0
            for pk in in_partition_order(self.partition_keys(table)):
                replicas = [
                    rid for rid in self.ring.replicas(ring_key(pk))
                    if self.nodes[rid].up and self.nodes[rid].process_up
                ]
                if len(replicas) < 2:
                    continue
                copies = {
                    rid: self.nodes[rid].exchange_partition(table, pk)
                    for rid in replicas
                }
                if len({self._partition_digest(rows)
                        for rows in copies.values()}) == 1:
                    continue
                self._reconcile_copies(table, pk, copies)
                repaired += 1
            return repaired

    def flush_all(self) -> None:
        """Flush every memtable on every node (test/bench determinism aid)."""
        for node in self.nodes.values():
            for store in node.tables.values():
                store.flush()

    def total_rows(self, table: str) -> int:
        """Live rows in *table* counted once (via scan; O(data))."""
        return sum(self.fold_table_partitions(
            table, lambda _pk_values, view: len(view)))
