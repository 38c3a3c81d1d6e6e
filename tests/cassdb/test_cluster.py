"""Unit tests for cluster coordination: replication, consistency, repair."""

import threading

import pytest

from repro.cassdb import Cluster, ClusteringBound, Consistency, TableSchema
from repro.cassdb.errors import SchemaError, UnavailableError
from repro.cassdb.row import columns_of

EVENTS = TableSchema(
    "event_by_time", partition_key=("hour", "type"), clustering_key=("ts", "seq")
)


def make_cluster(n=4, rf=2, **kw) -> Cluster:
    cluster = Cluster(n, replication_factor=rf, **kw)
    cluster.create_table(EVENTS)
    return cluster


def insert_events(cluster, n=20, hour=0, type_="MCE"):
    for i in range(n):
        cluster.insert(
            "event_by_time",
            {"hour": hour, "type": type_, "ts": float(i), "seq": 0,
             "source": f"c0-0c0s0n{i % 4}", "amount": 1},
        )


class TestSchemaManagement:
    def test_duplicate_table_rejected(self):
        cluster = make_cluster()
        with pytest.raises(SchemaError):
            cluster.create_table(EVENTS)

    def test_rf_exceeding_nodes_rejected(self):
        with pytest.raises(ValueError):
            Cluster(2, replication_factor=3)

    def test_int_node_spec(self):
        cluster = Cluster(3)
        assert set(cluster.nodes) == {"node00", "node01", "node02"}


class TestWriteReadRoundtrip:
    def test_select_partition_in_order(self):
        cluster = make_cluster()
        insert_events(cluster, 20)
        rows = cluster.select_partition("event_by_time", (0, "MCE"))
        assert [r["ts"] for r in rows] == [float(i) for i in range(20)]
        assert rows[0]["hour"] == 0  # key columns rehydrated from the query
        assert rows[0]["type"] == "MCE"
        assert rows[0]["amount"] == 1

    def test_select_with_bounds(self):
        cluster = make_cluster()
        insert_events(cluster, 20)
        rows = cluster.select_partition(
            "event_by_time", (0, "MCE"),
            lower=ClusteringBound((5.0,)),
            upper=ClusteringBound((8.0,)),
        )
        assert [r["ts"] for r in rows] == [5.0, 6.0, 7.0, 8.0]

    def test_select_absent_partition(self):
        cluster = make_cluster()
        insert_events(cluster, 5)
        assert cluster.select_partition("event_by_time", (99, "MCE")) == []

    def test_replication_places_rf_copies(self):
        cluster = make_cluster(4, rf=3)
        insert_events(cluster, 1)
        holders = [
            nid for nid, node in cluster.nodes.items()
            if node.partition_keys("event_by_time")
        ]
        assert len(holders) == 3

    def test_upsert_semantics(self):
        cluster = make_cluster()
        cluster.insert("event_by_time",
                       {"hour": 0, "type": "MCE", "ts": 1.0, "seq": 0, "v": 1})
        cluster.insert("event_by_time",
                       {"hour": 0, "type": "MCE", "ts": 1.0, "seq": 0, "v": 2})
        rows = cluster.select_partition("event_by_time", (0, "MCE"))
        assert len(rows) == 1
        assert rows[0]["v"] == 2

    def test_insert_many(self):
        cluster = make_cluster()
        n = cluster.insert_many(
            "event_by_time",
            columns_of(({"hour": 0, "type": "T", "ts": float(i), "seq": 0} for i in range(7))),
        )
        assert n == 7


class TestProjectionWithPredicates:
    """A pushed-down predicate may name a column the projection drops;
    the row-form read used to project first and then find nothing to
    filter on."""

    @pytest.mark.parametrize("flushed", ["memtable", "sstable", "both"])
    def test_predicate_column_outside_projection(self, flushed):
        cluster = make_cluster()
        insert_events(cluster, n=10)
        if flushed != "memtable":
            cluster.flush_all()
        if flushed == "both":
            insert_events(cluster, n=20)        # rewrites 0-9, adds 10-19
        n = 10 if flushed != "both" else 20
        want = [{"ts": float(i)} for i in range(n) if i % 4 == 1]
        got = cluster.select_partition(
            "event_by_time", (0, "MCE"), columns=("ts",),
            predicates=[("source", "=", "c0-0c0s0n1")])
        assert got == want
        assert cluster.select_partition(
            "event_by_time", (0, "MCE"), columns=("ts",), limit=2,
            predicates=[("source", "in", {"c0-0c0s0n1"}), ("hour", "=", 0)],
        ) == want[:2]


class TestFailureModes:
    def test_unavailable_when_all_replicas_down(self):
        cluster = make_cluster(4, rf=2)
        insert_events(cluster, 1)
        pk = cluster.schema("event_by_time").ring_key((0, "MCE"))
        for replica in cluster.ring.replicas(pk):
            cluster.kill_node(replica)
        with pytest.raises(UnavailableError):
            cluster.select_partition("event_by_time", (0, "MCE"))

    def test_read_one_succeeds_with_one_replica_down(self):
        cluster = make_cluster(4, rf=2)
        insert_events(cluster, 10)
        pk = cluster.schema("event_by_time").ring_key((0, "MCE"))
        cluster.kill_node(cluster.ring.replicas(pk)[0])
        rows = cluster.select_partition(
            "event_by_time", (0, "MCE"), consistency=Consistency.ONE
        )
        assert len(rows) == 10

    def test_quorum_read_fails_with_majority_down(self):
        cluster = make_cluster(4, rf=3)
        insert_events(cluster, 5)
        pk = cluster.schema("event_by_time").ring_key((0, "MCE"))
        for replica in cluster.ring.replicas(pk)[:2]:
            cluster.kill_node(replica)
        with pytest.raises(UnavailableError):
            cluster.select_partition(
                "event_by_time", (0, "MCE"), consistency=Consistency.QUORUM
            )

    def test_hinted_handoff_replays_on_revive(self):
        cluster = make_cluster(4, rf=2)
        pk = (0, "MCE")
        down = cluster.ring.replicas(
            cluster.schema("event_by_time").ring_key(pk))[1]
        cluster.kill_node(down)
        insert_events(cluster, 10)  # hints buffered for `down`
        assert cluster.hinted_writes > 0
        cluster.revive_node(down)
        # The revived node must now hold the partition locally.
        rows = cluster.nodes[down].read_partition_view(
            "event_by_time", pk).to_rows()
        assert len(rows) == 10

    def test_write_consistency_one_with_node_down(self):
        cluster = make_cluster(4, rf=2)
        pk = cluster.schema("event_by_time").ring_key((0, "MCE"))
        cluster.kill_node(cluster.ring.replicas(pk)[0])
        cluster.insert(
            "event_by_time",
            {"hour": 0, "type": "MCE", "ts": 1.0, "seq": 0},
            Consistency.ONE,
        )  # must not raise

    def test_read_repair_fixes_stale_replica(self):
        cluster = make_cluster(4, rf=2)
        pk = (0, "MCE")
        replicas = cluster.ring.replicas(
            cluster.schema("event_by_time").ring_key(pk))
        cluster.kill_node(replicas[1])
        insert_events(cluster, 5)
        cluster.nodes[replicas[1]].mark_up()  # revive WITHOUT hint replay
        # ALL-consistency read reconciles and repairs the stale replica.
        rows = cluster.select_partition(
            "event_by_time", (0, "MCE"), consistency=Consistency.ALL
        )
        assert len(rows) == 5
        assert cluster.read_repairs > 0
        stale_now = cluster.nodes[replicas[1]].read_partition_view(
            "event_by_time", pk).to_rows()
        assert len(stale_now) == 5


class TestMissedWritesCrossReplicas:
    """A write one of three replicas missed reaches it by
    reconciliation when its hint cannot: R + W > N holds whichever
    replicas answer, and read repair and ``repair()`` deliver the row."""

    KEY = {"hour": 0, "type": "MCE", "ts": 1.0, "seq": 0}

    def missed_write(self, hint="holder down"):
        """(cluster, partition key, the replica lacking the row): a row
        written at QUORUM while one replica was down, which came back
        without its hint — the hint's holder is down too, or
        (``hint="dropped"``) the buffer was lost."""
        cluster = make_cluster(4, rf=3)
        pk = (self.KEY["hour"], self.KEY["type"])
        stale, *others = cluster.ring.replicas(EVENTS.ring_key(pk))
        cluster.kill_node(stale)
        cluster.insert("event_by_time", {**self.KEY, "amount": 1},
                       Consistency.QUORUM)
        holders = [rid for rid in others if cluster.nodes[rid].hints]
        assert len(holders) == 1
        if hint == "dropped":
            cluster.nodes[holders[0]].hints.clear()
        else:
            cluster.kill_node(holders[0])
        cluster.revive_node(stale)
        assert self.alone(cluster, stale, pk) == []
        return cluster, pk, stale

    @staticmethod
    def alone(cluster, node_id, pk):
        return cluster.nodes[node_id].read_partition_view(
            "event_by_time", pk).to_rows()

    @staticmethod
    def served(cluster, level):
        return [(r["ts"], r["amount"]) for r in cluster.select_partition(
            "event_by_time", (0, "MCE"), consistency=level)]

    def test_quorum_read_answers_the_missed_row(self):
        cluster, _pk, _stale = self.missed_write()
        assert self.served(cluster, Consistency.QUORUM) == [(1.0, 1)]

    def test_quorum_read_repair_delivers_the_row_once(self):
        cluster, pk, stale = self.missed_write()
        self.served(cluster, Consistency.QUORUM)
        assert cluster.read_repairs == 1
        assert [r.values for r in self.alone(cluster, stale, pk)] == [
            {"amount": 1}]
        self.served(cluster, Consistency.QUORUM)
        assert cluster.read_repairs == 1

    def test_repair_delivers_the_write_once(self):
        cluster, pk, _stale = self.missed_write()
        assert cluster.repair("event_by_time") == 1
        assert cluster.repair("event_by_time") == 0
        for node_id in cluster.ring.replicas(EVENTS.ring_key(pk)):
            if cluster.nodes[node_id].up:
                assert len(self.alone(cluster, node_id, pk)) == 1

    def test_at_all_with_the_hint_dropped_and_every_replica_up(self):
        cluster, pk, stale = self.missed_write(hint="dropped")
        assert self.served(cluster, Consistency.ALL) == [(1.0, 1)]
        assert cluster.read_repairs == 1
        assert len(self.alone(cluster, stale, pk)) == 1
        assert cluster.repair("event_by_time") == 0


class TestEpochsFollowEveryRowThatLands:
    """Every commit that lands a row on a replica — a coordinated write,
    a hint replay, a read repair, an anti-entropy repair — advances the
    epoch of the table and of the (table, bucket) it wrote, and of no
    other bucket.  A cached reply is checked against these, so a row a
    lagging replica receives late still retires what it served."""

    HOURLY = TableSchema("hourly", partition_key=("hour", "type"),
                         clustering_key=("ts",), time_bucket=("hour", 3600.0))

    def lagging(self):
        """A 2-node RF 2 cluster where one replica missed a row of hour
        1, its hint still held by the other, and the other row of hour 0
        everywhere."""
        cluster = Cluster(2, replication_factor=2)
        cluster.create_table(self.HOURLY)
        cluster.insert("hourly", {"hour": 0, "type": "MCE", "ts": 1.0})
        stale, holder = cluster.ring.replicas(
            self.HOURLY.ring_key((1, "MCE")))
        cluster.kill_node(stale)
        cluster.insert("hourly", {"hour": 1, "type": "MCE", "ts": 3601.0})
        assert len(cluster.nodes[holder].hints) == 1
        return cluster, stale, holder

    @staticmethod
    def epochs(cluster):
        return (cluster.table_epoch("hourly"), cluster.epoch(("hourly", 0)),
                cluster.epoch(("hourly", 1)))

    def lost_hint(self):
        cluster, stale, holder = self.lagging()
        cluster.nodes[holder].hints.clear()
        cluster.nodes[stale].mark_up()  # back without the replay
        return cluster, self.epochs(cluster)

    def test_a_write_advances_its_bucket_and_the_table(self):
        cluster = Cluster(2, replication_factor=2)
        cluster.create_table(self.HOURLY)
        cluster.write_batch("hourly", columns_of([
            {"hour": 1, "type": t, "ts": 3600.0 + i}
            for i, t in enumerate(["MCE", "LBUG", "MCE"])]))
        assert self.epochs(cluster) == (1, 0, 1)

    def test_a_hint_replay_advances_the_epochs(self):
        cluster, stale, _holder = self.lagging()
        table, hour0, hour1 = self.epochs(cluster)
        cluster.revive_node(stale)
        assert self.epochs(cluster) == (table + 1, hour0, hour1 + 1)

    def test_a_read_repair_advances_the_epochs(self):
        cluster, (table, hour0, hour1) = self.lost_hint()
        rows = cluster.select_partition("hourly", (1, "MCE"),
                                        consistency=Consistency.ALL)
        assert len(rows) == 1 and cluster.read_repairs == 1
        assert self.epochs(cluster) == (table + 1, hour0, hour1 + 1)

    def test_a_repair_advances_the_epochs(self):
        cluster, (table, hour0, hour1) = self.lost_hint()
        assert cluster.repair("hourly") == 1
        assert self.epochs(cluster) == (table + 1, hour0, hour1 + 1)
        assert cluster.repair("hourly") == 0
        assert self.epochs(cluster) == (table + 1, hour0, hour1 + 1)


class TestConsistencyRequired:
    @pytest.mark.parametrize(
        "cl,rf,expected",
        [
            (Consistency.ONE, 3, 1),
            (Consistency.TWO, 3, 2),
            (Consistency.TWO, 1, 1),
            (Consistency.QUORUM, 3, 2),
            (Consistency.QUORUM, 5, 3),
            (Consistency.QUORUM, 1, 1),
            (Consistency.ALL, 3, 3),
        ],
    )
    def test_required(self, cl, rf, expected):
        assert cl.required(rf) == expected


class TestScansAndPlacement:
    def test_scan_table_sees_each_row_once(self):
        cluster = make_cluster(4, rf=3)
        insert_events(cluster, 30, hour=0)
        insert_events(cluster, 30, hour=1)
        rows = list(cluster.scan_table("event_by_time"))
        assert len(rows) == 60

    def test_partitions_by_node_covers_all(self):
        cluster = make_cluster(4, rf=2)
        for h in range(24):
            insert_events(cluster, 2, hour=h)
        by_node = cluster.partitions_by_node("event_by_time")
        covered = set().union(*by_node.values())
        assert covered == cluster.partition_keys("event_by_time")
        assert len(covered) == 24

    def test_read_partition_raw(self):
        cluster = make_cluster()
        insert_events(cluster, 4)
        rows = cluster.read_partition_raw("event_by_time", (0, "MCE"))
        assert len(rows) == 4
        assert rows[0]["type"] == "MCE"

    def test_scan_survives_single_node_failure_with_rf2(self):
        cluster = make_cluster(4, rf=2)
        for h in range(12):
            insert_events(cluster, 3, hour=h)
        cluster.kill_node("node01")
        rows = list(cluster.scan_table("event_by_time"))
        assert len(rows) == 36

    def test_flush_all_and_total_rows(self):
        cluster = make_cluster()
        insert_events(cluster, 10)
        cluster.flush_all()
        assert cluster.total_rows("event_by_time") == 10


class TestScatterGather:
    def test_in_list_results_preserve_input_order(self):
        cluster = make_cluster(4, rf=2)
        for h in range(8):
            insert_events(cluster, h + 1, hour=h)
        keys = [(5, "MCE"), (0, "MCE"), (7, "MCE"), (2, "MCE")]
        per_partition = cluster.select_partitions("event_by_time", keys)
        assert [len(rows) for rows in per_partition] == [6, 1, 8, 3]
        for (hour, _), rows in zip(keys, per_partition):
            assert all(r["hour"] == hour for r in rows)
        cluster.close()

    def test_scatter_matches_sequential_reads(self):
        cluster = make_cluster(4, rf=3)
        for h in range(6):
            insert_events(cluster, 10, hour=h)
        keys = [(h, "MCE") for h in range(6)]
        scattered = cluster.select_partitions(
            "event_by_time", keys, limit=4, consistency=Consistency.QUORUM)
        sequential = [
            cluster.select_partition(
                "event_by_time", k, limit=4, consistency=Consistency.QUORUM)
            for k in keys
        ]
        assert scattered == sequential
        cluster.close()

    def test_cl_one_multi_partition_reads_start_no_thread(self):
        """A read walks its partitions on the caller's thread; only a
        read that asks several replicas at once builds the executor."""
        windowed = TableSchema(
            "w", partition_key=("bucket", "part"),
            clustering_key=("ts", "seq"), time_bucket=("bucket", 60.0))
        cluster = Cluster(4, replication_factor=2)
        cluster.create_table(windowed)
        cluster.write_batch("w", columns_of([
            {"bucket": b, "part": "a", "ts": b * 60.0 + i, "seq": i, "v": i}
            for b in range(8) for i in range(3)]))
        keys = [(b, "a") for b in range(8)]
        threads = set(threading.enumerate())
        assert [len(rows) for rows in
                cluster.select_partitions("w", keys)] == [3] * 8
        assert cluster.aggregate_partitions(
            "w", keys, fold=lambda _pk_values, view: len(view)) == [3] * 8
        assert len(cluster.select_window("w", 0.0, 480.0)) == 24
        assert len(cluster.select_window("w", 0.0, 480.0, ("a",))) == 24
        assert set(threading.enumerate()) <= threads
        assert cluster._replica_pool_ is None
        cluster.select_partitions("w", keys, consistency=Consistency.QUORUM)
        assert cluster._replica_pool_ is not None
        cluster.close()

    def test_table_epoch_advances_on_writes(self):
        cluster = make_cluster()
        e0 = cluster.table_epoch("event_by_time")
        insert_events(cluster, 3, hour=0)
        e1 = cluster.table_epoch("event_by_time")
        assert e1 == e0 + 3

    def test_quorum_scatter_survives_node_failure(self):
        cluster = make_cluster(4, rf=3)
        for h in range(4):
            insert_events(cluster, 5, hour=h)
        cluster.kill_node("node02")
        rows = cluster.select_partitions(
            "event_by_time", [(h, "MCE") for h in range(4)],
            consistency=Consistency.QUORUM)
        assert [len(r) for r in rows] == [5, 5, 5, 5]
        cluster.close()
