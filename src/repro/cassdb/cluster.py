"""The simulated Cassandra cluster: coordination, replication, consistency.

This is the "backend distributed NoSQL database" of the paper's
architecture (Fig 3).  A :class:`Cluster` owns the ring, the storage
nodes and the keyspace, and implements the coordinator logic every
Cassandra node runs:

* every write is a batch of columns (an ``insert`` is a batch of one
  row) sent to all replicas of each partition key, no per-row object on
  the way; the coordinator waits for ``consistency`` acks and buffers
  *hints* for replicas that are down (hinted handoff, replayed when the
  replica recovers);
* reads query ``consistency`` replicas; more than one are asked at
  once on the replica pool and answer with their whole in-bounds copy,
  the coordinator reconciles the copies by cell timestamp and writes
  back what a replica lacks — a write it missed (read repair);
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
from array import array
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
from .memtable import Batch
from .node import Hint, StorageNode
from .resilience import BreakerState, CircuitBreaker, RetryPolicy
from .row import UNSET, ClusteringBound, Row, columns_of, in_partition_order
from .schema import Keyspace, TableSchema
from .vector import (
    BlockView,
    Column,
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


# What Cluster.recording_reads collects (None outside it); to_thread, the
# replica pool and sparklet tasks copy the context, so it follows reads.
_READ_EPOCHS: contextvars.ContextVar[dict[tuple, int] | None] = (
    contextvars.ContextVar("cassdb_read_epochs", default=None))


def _epoch_key(schema: TableSchema, partition_key: tuple) -> tuple:
    """(table, time bucket), the bucket None in a table without one."""
    return (schema.name,
            partition_key[0] if schema.time_bucket is not None else None)


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
        # Monotonic write epochs by (table, bucket), and (table, None) for
        # the whole table: bumped once per commit landing rows there (a
        # batch, a hint replay, a repair push), so layered caches (the
        # server's result cache) can detect staleness without
        # subscribing to individual writes.
        self._epochs: dict[tuple, int] = {}
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
        # table -> target node -> its hints, each with the node holding it.
        landing: dict[str, dict[str, list[tuple[StorageNode, Hint]]]] = {}
        for peer_id, peer in self.nodes.items():
            if peer is node or not peer.up:
                continue
            held = [(peer, hint) for hint in peer.drain_hints_for(node_id)]
            # A crashed peer, still routed, replays at its own revival.
            if peer.process_up:
                held += [(node, hint) for hint in node.drain_hints_for(peer_id)]
            for holder, hint in held:
                landing.setdefault(hint.table, {}).setdefault(
                    hint.target_node, []).append((holder, hint))
        for table, shares in landing.items():
            landed: list[tuple] = []
            for target, held in shares.items():
                try:
                    self.nodes[target].write_rows(table, Batch.of_rows(
                        (hint.partition_key, hint.row)
                        for _holder, hint in held))
                except NodeDownError:
                    # The target crashed since the drain: its holders
                    # keep its hints for its next revival.
                    for holder, hint in held:
                        holder.buffer_hints((hint,))
                    continue
                self._m_hints_replayed.inc(len(held))
                landed.extend(hint.partition_key for _holder, hint in held)
            if landed:
                self._bump_epochs(table, landed)

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
        """Insert/upsert one row (CQL ``INSERT`` semantics: always
        upsert): a :meth:`write_batch` of one row."""
        self.write_batch(table, columns_of((values,)), consistency)

    def insert_many(
        self,
        table: str,
        columns: Mapping[str, Sequence[Any]],
        consistency: Consistency = Consistency.ONE,
    ) -> int:
        """:meth:`write_batch` (``benchmarks/e2e/trace.py`` wraps it)."""
        return self.write_batch(table, columns, consistency)

    # -- write-lock striping -------------------------------------------------

    def _all_write_locks(self) -> contextlib.ExitStack:
        """Acquire every stripe in index order (repair's full barrier)."""
        stack = contextlib.ExitStack()
        for lock in self._write_locks:
            stack.enter_context(lock)
        return stack

    def _bump_epochs(self, table: str, partition_keys: Iterable[tuple]
                     ) -> None:
        """Advance the epochs of *table* and of the buckets of
        *partition_keys*, once each, after their rows landed."""
        schema = self.schema(table)
        keys = {(table, None), *(_epoch_key(schema, pk)
                                 for pk in partition_keys)}
        with self._epoch_lock:
            for key in keys:
                self._epochs[key] = self._epochs.get(key, 0) + 1

    def epoch(self, key: tuple) -> int:
        """The write epoch of a ``(table, bucket)``, or ``(table, None)``
        for the whole table: a cache token."""
        return self._epochs.get(key, 0)

    def table_epoch(self, table: str) -> int:
        """Monotonic count of commits that landed rows in *table*."""
        return self.epoch((table, None))

    @contextlib.contextmanager
    def recording_reads(self):
        """Within the block, each read records the ``(table, bucket)`` it
        touches — a partition listing, ``(table, None)`` — into the dict
        yielded, with its epoch as it was before the first read of it."""
        seen: dict[tuple, int] = {}
        token = _READ_EPOCHS.set(seen)
        try:
            yield seen
        finally:
            _READ_EPOCHS.reset(token)

    def _saw(self, key: tuple) -> None:
        # Threads of one request may race: setdefault keeps the first
        # epoch, read before any of them read the key's data.
        seen = _READ_EPOCHS.get()
        if seen is not None and key not in seen:
            seen.setdefault(key, self._epochs.get(key, 0))

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

    # -- batched write path --------------------------------------------------

    def write_batch(
        self,
        table: str,
        columns: Mapping[str, Sequence[Any]],
        consistency: Consistency = Consistency.ONE,
    ) -> int:
        """Bulk upsert one table from *columns* — column name -> its
        values, one per row, :data:`~repro.cassdb.row.UNSET` where a row
        leaves the cell unwritten; returns rows written.

        The batched commit the ingest pipelines ride (§III-D: Spark
        micro-batches into the backend) — routed by replica set,
        applied by node:

        * the columns become one plain block, each row stamped with the
          next write timestamp in column order, and row offsets are
          grouped by partition key — no per-row object;
        * partitions are grouped by replica set — the unit
          availability, acks and hints are decided for;
        * the batch takes the union of its stripe locks once, checks
          every group's availability before anything is applied, and
          then applies each storage node's share of all groups with
          **one** ``StorageNode.write_rows`` call (one ``TableStore``
          lock, one span per node, not per group and replica);
        * the epochs of the table and of each bucket it wrote are
          bumped **once** for the whole batch (the server's result
          cache sees one epoch change, not one per row);
        * one ``cassdb.write_batch`` trace span and one set of
          ``cassdb.write.batch_*`` observations cover the call.

        A batch with an unavailable group applies nothing and raises
        :class:`BatchUnavailableError`.  Past that check atomicity is,
        like Cassandra's unlogged ``BATCH``, per replica-set group: when
        a replica refuses its share and a group ends short of its acks
        (:class:`BatchWriteTimeoutError`), the groups that met their
        level stay committed — and the epochs still advance so caches
        never serve the partial batch as fresh.
        """
        schema = self.schema(table)
        n = len(next(iter(columns.values()), ()))
        if not n:
            return 0
        stamps = array("q", itertools.islice(self._write_ts, n))
        return self._commit(schema, self._batch(schema, columns, stamps),
                            consistency)

    @staticmethod
    def _batch(schema: TableSchema, columns: Mapping[str, Sequence[Any]],
               stamps: array) -> Batch:
        """*columns* as a batch: a plain block, row ``i`` stamped
        ``stamps[i]``, and per partition key the offsets of its rows.  A
        key column that is missing, or unset in a row, is a
        :class:`SchemaError`."""
        n = len(next(iter(columns.values())))
        if any(len(values) != n for values in columns.values()):
            raise SchemaError(f"table {schema.name!r}: columns of unequal "
                              "length")
        key_columns = schema.partition_key + schema.clustering_key
        for name in key_columns:
            if UNSET in columns.get(name, (UNSET,)):
                raise SchemaError(
                    f"table {schema.name!r}: missing key column {name!r}")
        rows_of: dict[tuple, list[int]] = {}
        for i, pk in enumerate(zip(*[columns[c]
                                     for c in schema.partition_key])):
            rows = rows_of.get(pk)
            if rows is None:
                rows_of[pk] = [i]
            else:
                rows.append(i)
        cells: dict[str, Column] = {}
        for name, values in columns.items():
            if name in key_columns:
                continue
            present = None
            if UNSET in values:
                present = bytearray(v is not UNSET for v in values)
                if not any(present):
                    continue
                values = [None if v is UNSET else v for v in values]
            cells[name] = Column(name, values, stamps, present)
        clustering = (list(zip(*[columns[c] for c in schema.clustering_key]))
                      if schema.clustering_key else [()] * n)
        return Batch(ColumnBlock(clustering, cells),
                     list(rows_of.items()))

    def _commit(self, schema: TableSchema, batch: Batch,
                consistency: Consistency) -> int:
        """Commit *batch*'s rows as :meth:`write_batch` describes: every
        write lands here."""
        n = len(batch)
        if not n:
            return 0
        start = time.perf_counter()
        table = schema.name
        ring_key = schema.ring_key
        n_stripes = len(self._write_locks)
        # replica-set tuple -> its partitions' row offsets: the unit
        # availability, acks and hints are decided for.
        groups: dict[tuple[str, ...], list[tuple[tuple, list[int]]]] = {}
        stripes: set[int] = set()
        for part in batch:
            pk = part[0]
            replicas = tuple(self.ring.replicas(ring_key(pk)))
            groups.setdefault(replicas, []).append(part)
            stripes.add(hash((table, pk)) % n_stripes)
        # A group's items are its partitions' rows in partition order.
        pending = [(replicas, Batch(batch.block, in_partition_order(
                        parts, itemgetter(0))))
                   for replicas, parts in groups.items()]
        ordered = sorted(stripes)

        def committed() -> int:
            return n - sum(len(items) for _replicas, items in pending)

        def attempt() -> None:
            failed = self._commit_groups(table, pending, ordered, consistency)
            if failed is not None:
                (replicas, items), error, required, got = failed
                raise error(
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
                self._bump_epochs(table, (pk for pk, _rows in batch))
                self._m_batches.inc()
                self._m_batch_rows.observe(applied)
                self._m_batch_groups.observe(len(groups))
            self._m_write_latency.observe(
                (time.perf_counter() - start) * 1000.0)
        return n

    def _commit_groups(
        self,
        table: str,
        pending: list[tuple[tuple[str, ...], Batch]],
        stripes: list[int],
        consistency: Consistency,
    ) -> "tuple[tuple, type[CassDBError], int, int] | None":
        """Commit replica-set groups: route by set, apply by node — the
        one place a write's rows reach a replica, acks are counted and
        hints are buffered (an insert is one group of one row).

        *pending* is ``(replica ids, items)`` per group and is pruned in
        place of every group that met its consistency level, so a retry
        re-sends only the rest.  *stripes* is the sorted set of stripe
        indices the partitions hash to; acquiring them in index order
        keeps lock ordering total across concurrent commits and
        repair.

        Returns None when every group committed, else ``(group, error
        class, required, got)`` for the first group that did not:
        :class:`BatchUnavailableError` from the availability check, which
        runs for every group before anything is applied (nothing was
        applied, nothing pruned); :class:`BatchWriteTimeoutError` when a
        routed-to replica refused its share and left the group short of
        acks — rows may sit on the replicas that did apply, so the
        epochs advance and layered caches drop what is now stale.
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
                    return group, BatchUnavailableError, required, len(routed)
                routes.append((routed, required))
            # Apply: each node's share of every group in one call.
            shares: dict[str, list[Batch]] = {}
            for (_replica_ids, items), (routed, _) in zip(pending, routes):
                for replica_id in routed:
                    shares.setdefault(replica_id, []).append(items)
            applied: set[str] = set()
            for replica_id, share in shares.items():
                if len(share) > 1:  # one batch, its parts in order
                    share = [Batch(share[0].block, in_partition_order(
                        [part for items in share for part in items],
                        itemgetter(0)))]
                try:
                    self.nodes[replica_id].write_rows(table, share[0])
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
                                Hint(replica_id, table, pk,
                                     items.block.row_at(i))
                                for pk, offsets in items for i in offsets)
                            hinted += len(items)
                if len(acked) < required:
                    short.append(group)
                    partial = partial or bool(acked)
                    if failed is None:
                        failed = (group, BatchWriteTimeoutError, required,
                                  len(acked))
            if hinted:
                with self._counter_lock:
                    self.hinted_writes += hinted
                self._m_hints_buffered.inc(hinted)
            if short:
                self._m_consistency_failures.inc(len(short))
                if partial:
                    self._bump_epochs(table, (pk for _replicas, items in short
                                              for pk, _row in items))
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
        self._saw(_epoch_key(schema, partition_key))
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
            # through — the store already applied reverse/limit, and a
            # single response needs no reconciliation.
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
                # The whole in-bounds copy: *limit* is applied after the
                # reconcile, never below it.
                rows = self.nodes[replica_id].read_partition_view(
                    table, partition_key, lower, upper).to_rows()
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
        # Read repair rides the reconcile; what is served is ordered and
        # limited here.
        merged, pushed = self._reconcile_copies(
            table, partition_key, responses)
        if pushed:
            with self._counter_lock:
                self.read_repairs += pushed
            self._m_read_repairs.inc(pushed)
        return BlockView(ColumnBlock.over_rows(merged)).ordered(reverse, limit)

    def _reconcile_copies(
        self, table: str, partition_key: tuple, copies: dict[str, list[Row]]
    ) -> tuple[list[Row], int]:
        """Merge the replicas' copies of a partition (cell-level
        last-write-wins) and push back to each replica every row it
        lacks or holds stale.  Returns the merged rows, ascending, and
        the count pushed — read repair and :meth:`repair` are this one
        loop, one ``write_rows`` per replica.  A push bumps the
        partition's epochs."""
        merged = merge_views([BlockView(ColumnBlock.over_rows(rows))
                              for rows in copies.values()])
        pushed = 0
        for replica_id, rows in copies.items():
            have = {row.clustering: row for row in rows}
            missing = [(partition_key, row) for row in merged
                       if have.get(row.clustering) != row]
            if not missing:
                continue
            try:
                self.nodes[replica_id].write_rows(
                    table, Batch.of_rows(missing))
            except NodeDownError:
                continue  # crashed after answering; repair later
            pushed += len(missing)
        if pushed:
            self._bump_epochs(table, (partition_key,))
        return merged, pushed

    # -- full scans & placement introspection ---------------------------------

    def _first_alive_view(
        self, schema: TableSchema, ring_key: str, partition_key: tuple,
        lower: ClusteringBound | None, upper: ClusteringBound | None,
    ) -> BlockView | None:
        """One partition, within clustering bounds, as its first alive
        replica holds it; None when every replica is down."""
        table = schema.name
        self._saw(_epoch_key(schema, partition_key))
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
                schema, schema.ring_key(key), key, lower, upper)
            if source is not None:
                yield fold(dict(zip(names, key)), source)

    def partition_keys(self, table: str) -> set[tuple]:
        self._saw((table, None))
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
            source = self._first_alive_view(schema, ring_key, partition_key,
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
            stamps = row.timestamps()
            for name in sorted(row.values):
                h.update(name.encode())
                h.update(repr(row.values[name]).encode())
                h.update(str(stamps[name]).encode())
        return h.hexdigest()

    def repair(self, table: str) -> int:
        """Full anti-entropy repair of one table.

        For every partition, compare the content digests of all live
        replicas' copies — a write one replica missed is a divergence;
        where they diverge, merge every copy and push each replica what
        it lacks (:meth:`_reconcile_copies`).  Returns the number of
        partitions that needed repair.
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
                    rid: self.nodes[rid].read_partition_view(
                        table, pk).to_rows()
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
