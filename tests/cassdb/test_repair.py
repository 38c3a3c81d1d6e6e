"""Tests for anti-entropy repair."""

from repro.cassdb import Cluster, Consistency, TableSchema

SCHEMA = TableSchema("t", partition_key=("k",), clustering_key=("c",))


class TestAntiEntropyRepair:
    def _diverged_cluster(self):
        """RF=2 cluster where one replica missed writes WITHOUT hints
        (node was up from the coordinator's view but dropped them)."""
        cluster = Cluster(4, replication_factor=2)
        cluster.create_table(SCHEMA)
        for i in range(20):
            cluster.insert("t", {"k": f"p{i % 4}", "c": i, "v": i})
        # Corrupt: silently drop one replica's copy of one partition.
        pk = cluster.schema("t").partition_key_from_tuple(("p1",))
        victim = cluster.ring.replicas(pk)[1]
        store = cluster.nodes[victim].tables["t"]
        store.memtable.partitions.pop(pk, None)
        for sst in store.sstables:
            sst.offsets.pop(pk, None)
        return cluster, pk, victim

    def test_repair_detects_and_fixes_divergence(self):
        cluster, pk, victim = self._diverged_cluster()
        assert len(cluster.nodes[victim].read_partition_view("t", pk)) == 0
        repaired = cluster.repair("t")
        assert repaired >= 1
        rows = cluster.nodes[victim].read_partition_view("t", pk).to_rows()
        assert len(rows) == 5  # i in {1, 5, 9, 13, 17}

    def test_repair_idempotent(self):
        cluster, _pk, _victim = self._diverged_cluster()
        cluster.repair("t")
        assert cluster.repair("t") == 0

    def test_repair_noop_on_healthy_cluster(self):
        cluster = Cluster(4, replication_factor=3)
        cluster.create_table(SCHEMA)
        for i in range(30):
            cluster.insert("t", {"k": f"p{i % 5}", "c": i, "v": i})
        assert cluster.repair("t") == 0

    def test_repair_after_missed_hints(self):
        """Node down during writes, revived *without* hint replay (the
        coordinator holding hints also died): repair reconciles."""
        cluster = Cluster(4, replication_factor=2)
        cluster.create_table(SCHEMA)
        cluster.insert("t", {"k": "a", "c": 0, "v": 0})
        pk = cluster.schema("t").partition_key_from_tuple(("a",))
        down = cluster.ring.replicas(pk)[1]
        cluster.kill_node(down)
        for i in range(1, 10):
            cluster.insert("t", {"k": "a", "c": i, "v": i})
        # Lose the hints (simulate coordinator death) then revive.
        for node in cluster.nodes.values():
            node.hints.clear()
        cluster.nodes[down].mark_up()
        assert len(cluster.nodes[down].read_partition_view("t", pk)) == 1
        cluster.repair("t")
        assert len(cluster.nodes[down].read_partition_view("t", pk)) == 10

    def test_quorum_reads_consistent_after_repair(self):
        cluster, pk, _victim = self._diverged_cluster()
        cluster.repair("t")
        rows = cluster.select_partition("t", ("p1",),
                                        consistency=Consistency.ALL)
        assert [r["c"] for r in rows] == [1, 5, 9, 13, 17]
