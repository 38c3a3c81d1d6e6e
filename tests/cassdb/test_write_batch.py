"""Batched-write semantics: grouping, hints, epochs, striping, flush.

PR 3's write-path contract in one place:

* ``write_batch`` / ``insert_many`` equal per-row inserts row-for-row;
* a replica down mid-batch gets its rows via hinted handoff on revival;
* one epoch bump per batch, and the server result cache still
  invalidates correctly on that single bump;
* a failed (Unavailable) write leaves counters, the epoch and the
  result cache untouched;
* writers to disjoint partitions commit concurrently (striped locks,
  no cluster-wide lock);
* a single-row ``insert`` / ``delete_row`` is a batch of one row: one
  group of one, with the batch's counters, epochs, typed errors
  (``Batch*``, ``group_rows`` 1) and hints;
* a memtable flush builds its SSTable outside the store lock — readers
  see the sealed rows for the whole build, writers keep committing.
"""

import threading

import pytest

from repro import obs
from repro.cassdb import Cluster, Consistency, RetryPolicy, TableSchema
from repro.cassdb.errors import (
    BatchUnavailableError,
    BatchWriteTimeoutError,
    UnavailableError,
)
from repro.cassdb.memtable import Batch
from repro.cassdb.row import Row, columns_of
from repro.cassdb.sstable import SSTable
from repro.cassdb.storage import TableStore
from repro.core.result_cache import ResultCache

EVENTS = TableSchema(
    "event_by_time", partition_key=("hour", "type"), clustering_key=("ts", "seq")
)


def make_cluster(n=4, rf=2, **kw) -> Cluster:
    cluster = Cluster(n, replication_factor=rf, **kw)
    cluster.create_table(EVENTS)
    return cluster


def event_rows(n=20, hour=0, type_="MCE"):
    return [
        {"hour": hour, "type": type_, "ts": float(i), "seq": 0,
         "source": f"c0-0c0s0n{i % 4}", "amount": 1}
        for i in range(n)
    ]


class TestBatchEqualsPerRow:
    def test_roundtrip_parity(self):
        batched, per_row = make_cluster(), make_cluster()
        rows = event_rows(30) + event_rows(30, hour=1) + event_rows(5, type_="OOM")
        assert batched.write_batch("event_by_time", columns_of(
            rows)) == len(rows)
        for values in rows:
            per_row.insert("event_by_time", values)
        for key in ((0, "MCE"), (1, "MCE"), (0, "OOM")):
            a = batched.select_partition("event_by_time", key)
            b = per_row.select_partition("event_by_time", key)
            assert a == b

    def test_insert_many_routes_through_batch(self):
        cluster = make_cluster()
        batches = obs.get_registry().counter("cassdb.write.batches")
        before = batches.value
        n = cluster.insert_many("event_by_time", columns_of(
            iter(event_rows(25))))
        assert n == 25
        assert batches.value == before + 1
        assert cluster.coordinator_writes == 25

    def test_empty_batch_is_noop(self):
        cluster = make_cluster()
        e0 = cluster.table_epoch("event_by_time")
        assert cluster.write_batch("event_by_time", columns_of([])) == 0
        assert cluster.table_epoch("event_by_time") == e0

    def test_duplicate_keys_last_write_wins(self):
        cluster = make_cluster()
        cluster.write_batch("event_by_time", columns_of([
            {"hour": 0, "type": "MCE", "ts": 1.0, "seq": 0, "v": 1},
            {"hour": 0, "type": "MCE", "ts": 1.0, "seq": 0, "v": 2},
        ]))
        rows = cluster.select_partition("event_by_time", (0, "MCE"))
        assert len(rows) == 1
        assert rows[0]["v"] == 2


class TestHintedHandoffMidBatch:
    def test_down_replica_catches_up_on_revival(self):
        cluster = make_cluster(4, rf=2)
        victim = "node03"
        cluster.kill_node(victim)
        rows = [r for h in range(8) for r in event_rows(10, hour=h)]
        cluster.write_batch("event_by_time", columns_of(rows), Consistency.ONE)
        assert cluster.hinted_writes > 0
        # The victim holds nothing it replicates until hints replay.
        assert not cluster.nodes[victim].partition_keys("event_by_time")
        cluster.revive_node(victim)
        victim_keys = cluster.nodes[victim].partition_keys("event_by_time")
        expected = {
            pk for pk in cluster.partition_keys("event_by_time")
            if victim in cluster.ring.replicas(EVENTS.ring_key(pk))
        }
        assert victim_keys == expected
        # Reads served *by* the revived replica see the full partitions.
        for pk in sorted(expected):
            rows_here = cluster.nodes[victim].read_partition_view(
                "event_by_time", pk).to_rows()
            assert len(rows_here) == 10


class TestEpochAndResultCache:
    def test_one_epoch_bump_per_batch(self):
        cluster = make_cluster()
        e0 = cluster.table_epoch("event_by_time")
        cluster.write_batch("event_by_time", columns_of(event_rows(50)))
        assert cluster.table_epoch("event_by_time") == e0 + 1
        cluster.insert("event_by_time",
                       {"hour": 9, "type": "MCE", "ts": 0.0, "seq": 0})
        assert cluster.table_epoch("event_by_time") == e0 + 2

    def test_batch_invalidates_cached_results(self):
        cluster = make_cluster()
        cluster.write_batch("event_by_time", columns_of(event_rows(10)))
        cache = ResultCache(ttl_seconds=3600.0)
        cache.put("q", ["payload"], {"event_by_time": cluster.table_epoch(
            "event_by_time")})
        assert cache.get("q", epoch_of=cluster.table_epoch) == ["payload"]
        cluster.write_batch("event_by_time", columns_of(
            event_rows(10, hour=5)))
        assert cache.get(
            "q", epoch_of=cluster.table_epoch) is ResultCache.MISSING


class TestFailedWriteLeavesNoTrace:
    def test_unavailable_per_row_write(self):
        cluster = make_cluster(4, rf=2)
        cluster.insert("event_by_time",
                       {"hour": 0, "type": "MCE", "ts": 0.0, "seq": 0})
        writes = obs.get_registry().counter("cassdb.coordinator.writes")
        for nid in cluster.nodes:
            cluster.kill_node(nid)
        e0 = cluster.table_epoch("event_by_time")
        w0, m0 = cluster.coordinator_writes, writes.value
        with pytest.raises(UnavailableError):
            cluster.insert("event_by_time",
                           {"hour": 0, "type": "MCE", "ts": 1.0, "seq": 0})
        assert cluster.table_epoch("event_by_time") == e0
        assert cluster.coordinator_writes == w0
        assert writes.value == m0

    def test_unavailable_batch(self):
        cluster = make_cluster(4, rf=2)
        for nid in cluster.nodes:
            cluster.kill_node(nid)
        e0 = cluster.table_epoch("event_by_time")
        w0 = cluster.coordinator_writes
        with pytest.raises(UnavailableError):
            cluster.write_batch("event_by_time", columns_of(event_rows(10)))
        assert cluster.table_epoch("event_by_time") == e0
        assert cluster.coordinator_writes == w0

    def test_cached_entry_survives_failed_write(self):
        cluster = make_cluster(4, rf=2)
        cluster.write_batch("event_by_time", columns_of(event_rows(10)))
        cache = ResultCache(ttl_seconds=3600.0)
        cache.put("q", ["payload"], {"event_by_time": cluster.table_epoch(
            "event_by_time")})
        for nid in cluster.nodes:
            cluster.kill_node(nid)
        with pytest.raises(UnavailableError):
            cluster.insert("event_by_time",
                           {"hour": 0, "type": "MCE", "ts": 9.0, "seq": 0})
        assert cache.get("q", epoch_of=cluster.table_epoch) == ["payload"]


class TestConcurrentDisjointWriters:
    def test_per_row_writers(self):
        cluster = make_cluster(4, rf=2)
        errors = []

        def worker(hour):
            try:
                for values in event_rows(50, hour=hour):
                    cluster.insert("event_by_time", values)
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(h,))
                   for h in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for hour in range(8):
            rows = cluster.select_partition("event_by_time", (hour, "MCE"))
            assert len(rows) == 50
        assert cluster.coordinator_writes == 8 * 50

    def test_batch_writers(self):
        cluster = make_cluster(4, rf=2)
        errors = []

        def worker(hour):
            try:
                cluster.write_batch("event_by_time", columns_of(
                    event_rows(100, hour=hour)))
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(h,))
                   for h in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for hour in range(6):
            rows = cluster.select_partition("event_by_time", (hour, "MCE"))
            assert len(rows) == 100
        assert cluster.table_epoch("event_by_time") == 6


class TestSingleRowGroupCommit:
    """``insert`` / ``delete_row`` commit as a batch of one row; what a
    caller can observe under faults is the batch contract for one
    group of one row."""

    VALUES = {"hour": 0, "type": "MCE", "ts": 1.0, "seq": 0, "v": 1}
    # fault on one replica, consistency -> error, hinted, writes, epochs
    SCENARIOS = {
        "down_replica_at_one":
            ("kill_node", Consistency.ONE, None, 1, 1, 1),
        "too_few_replicas_at_quorum":
            ("kill_node", Consistency.QUORUM, BatchUnavailableError,
             0, 0, 0),
        # Routed to, refuses the write: one ack short, partially applied.
        "crashed_unconvicted_replica":
            ("crash_node", Consistency.QUORUM, BatchWriteTimeoutError,
             1, 0, 1),
    }

    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("op", ["insert", "delete_row"])
    def test_fault_accounting(self, op, scenario):
        fault, consistency, error, hinted, writes, epochs = (
            self.SCENARIOS[scenario])
        # A retry re-sends the row to the crashed replica and re-buffers
        # its hint: the counts below are those of one attempt.
        cluster = make_cluster(4, rf=2, retry_policy=(
            RetryPolicy(max_attempts=1) if fault == "crash_node"
            else RetryPolicy()))
        pk = (self.VALUES["hour"], self.VALUES["type"])
        survivor, victim = cluster.ring.replicas(EVENTS.ring_key(pk))
        getattr(cluster, fault)(victim)
        write = getattr(cluster, op)
        if error is None:
            write("event_by_time", self.VALUES, consistency)
        else:
            with pytest.raises(error) as raised:
                write("event_by_time", self.VALUES, consistency)
            assert type(raised.value) is error
            assert raised.value.group_rows == 1
            assert raised.value.applied_rows == 0
        assert cluster.hinted_writes == hinted
        assert cluster.coordinator_writes == writes
        assert cluster.table_epoch("event_by_time") == epochs
        hints = [(nid, h.target_node, h.table, h.partition_key,
                  h.row.clustering, h.row.is_live)
                 for nid, node in cluster.nodes.items() for h in node.hints]
        assert hints == ([(survivor, victim, "event_by_time", pk, (1.0, 0),
                           op == "insert")] if hinted else [])


def _row(ts, seq=0, write_ts=1, **cols):
    return Row.from_values((ts, seq), cols or {"v": ts}, write_ts=write_ts)


class TestFlushOutsideLock:
    def test_readers_and_writers_during_sstable_build(self, monkeypatch):
        store = TableStore(flush_threshold=1_000)
        for i in range(10):
            store.write_rows(Batch.of_rows([("pk", _row(float(i)))]))

        build_started = threading.Event()
        release_build = threading.Event()
        real_build = SSTable.from_memtable

        def slow_build(memtable, **kwargs):
            build_started.set()
            assert release_build.wait(5.0)
            return real_build(memtable, **kwargs)

        monkeypatch.setattr(SSTable, "from_memtable", slow_build)
        flusher = threading.Thread(target=store.flush)
        flusher.start()
        try:
            assert build_started.wait(5.0)
            # Build in flight: the sealed rows stay visible...
            rows = store.read_partition_view("pk").to_rows()
            assert [r.clustering[0] for r in rows] == [float(i)
                                                       for i in range(10)]
            # ...and writers commit into the fresh memtable, unstalled.
            store.write_rows(Batch.of_rows([("pk", _row(10.0))]))
            assert store.memtable.row_count == 1
        finally:
            release_build.set()
            flusher.join(5.0)
        assert not flusher.is_alive()
        assert store.stats.flushes == 1
        assert not store.frozen
        rows = store.read_partition_view("pk").to_rows()
        assert [r.clustering[0] for r in rows] == [float(i) for i in range(11)]

    def test_batch_write_rows_triggers_flush(self):
        store = TableStore(flush_threshold=10)
        items = [("pk", _row(float(i))) for i in range(25)]
        store.write_rows(Batch.of_rows(items))
        # Bulk application checks the threshold once per group.
        assert store.stats.flushes == 1
        assert store.row_count == 25
