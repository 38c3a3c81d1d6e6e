"""A partition key is its values.

A partition is stored under the tuple of its key columns' values, as
written; the string ``table\\x1fv1\\x1fv2`` is built only to place it on
the ring, and nothing parses it back.  When scans parsed it back, an int
key came back as a string and two keys that join alike were one
partition.
"""

import pytest

from repro.cassdb import Cluster, Session, TableSchema
from repro.cassdb.errors import SchemaError
from repro.cassdb.row import columns_of
from repro.core.model import TABLE_SCHEMAS
from repro.sparklet import SparkletContext


def _cluster(*schemas, **kw) -> Cluster:
    cluster = Cluster(3, replication_factor=2, **kw)
    for schema in schemas:
        cluster.create_table(schema)
    return cluster


INT_KEYED = TableSchema("t", partition_key=("k",), clustering_key=("c",))
PAIR_KEYED = TableSchema("p", partition_key=("a", "b"), clustering_key=("c",))


class TestTypesSurviveEveryRead:
    """An int key reads back as the int through every path, not only
    the routed read."""

    @pytest.fixture
    def cluster(self):
        cluster = _cluster(INT_KEYED)
        cluster.insert_many("t", columns_of(
            [{"k": 1, "c": c, "v": c} for c in range(3)]))
        yield cluster
        cluster.close()

    @staticmethod
    def _read(cluster, read):
        if read == "scan_table":
            return list(cluster.scan_table("t"))
        with SparkletContext(cluster=cluster) as sc:
            if read == "cassandraTable":
                return sc.cassandraTable("t").collect()
            return Session(
                cluster, sparklet=sc if read == "group_by_sparklet" else None,
            ).execute("SELECT k, count(*) FROM t GROUP BY k")

    @pytest.mark.parametrize("read", [
        "scan_table", "group_by_serial", "group_by_sparklet",
        "cassandraTable"])
    def test_an_int_key_reads_back_as_the_int(self, cluster, read):
        routed = cluster.select_partition("t", (1,))
        assert {type(row["k"]) for row in routed} == {int}
        rows = self._read(cluster, read)
        assert rows and {row["k"] for row in rows} == {1}
        assert {type(row["k"]) for row in rows} == {int}

    def test_a_string_does_not_reach_the_int_partition(self, cluster):
        assert len(cluster.select_partition("t", (1,))) == 3
        assert cluster.select_partition("t", ("1",)) == []


class TestKeysThatJoinAlike:
    """``('x\\x1fy', 'z')`` and ``('x', 'y\\x1fz')`` join to the same ring
    string; they share replicas, not a partition."""

    KEYS = [("x\x1fy", "z"), ("x", "y\x1fz")]

    @pytest.fixture(params=[False, True], ids=["memtable", "flushed"])
    def cluster(self, request):
        cluster = _cluster(PAIR_KEYED)
        for i, (a, b) in enumerate(self.KEYS):
            cluster.insert("p", {"a": a, "b": b, "c": 0, "v": i})
        if request.param:
            cluster.flush_all()
        yield cluster
        cluster.close()

    def test_each_key_keeps_its_own_row(self, cluster):
        assert PAIR_KEYED.ring_key(self.KEYS[0]) == PAIR_KEYED.ring_key(
            self.KEYS[1])
        for i, key in enumerate(self.KEYS):
            assert cluster.select_partition("p", key) == [
                {"a": key[0], "b": key[1], "c": 0, "v": i}]

    def test_a_scan_answers_a_unit_separator(self, cluster):
        rows = sorted(cluster.scan_table("p"), key=lambda row: row["v"])
        assert [(row["a"], row["b"], row["v"]) for row in rows] == [
            ("x\x1fy", "z", 0), ("x", "y\x1fz", 1)]
        assert len(cluster.partition_keys("p")) == 2


class TestOneAndTheStringOne:
    """A key column holding both ``1`` and ``'1'`` is two partitions, and
    every walk that sorts partitions takes it without raising."""

    def test_flush_compaction_and_scans(self):
        cluster = _cluster(INT_KEYED, max_sstables=1)
        try:
            for c in range(3):
                cluster.insert_many("t", columns_of([{"k": 1, "c": c, "v": "int"},
                                          {"k": "1", "c": c, "v": "str"}]))
                cluster.flush_all()  # the second flush on a node compacts
            stores = [node.tables["t"] for node in cluster.nodes.values()
                      if "t" in node.tables]
            assert stores and all(len(s.sstables) == 1 for s in stores)
            assert sum(s.stats.compactions for s in stores) > 0
            assert cluster.partition_keys("t") == {(1,), ("1",)}
            rows = list(cluster.scan_table("t"))
            assert [(row["k"], row["v"]) for row in rows] == (
                [(1, "int")] * 3 + [("1", "str")] * 3)
            assert [r["v"] for r in cluster.select_partition("t", ("1",))] == [
                "str"] * 3
            assert cluster.repair("t") == 0
            assert Session(cluster).execute(
                "SELECT count(*) FROM t") == [{"count": 6}]
            with SparkletContext(cluster=cluster) as sc:
                collected = sc.cassandraTable("t").collect()
            assert sorted(row["v"] for row in collected) == (
                ["int"] * 3 + ["str"] * 3)
        finally:
            cluster.close()


def test_a_key_of_the_wrong_arity_names_the_table():
    cluster = _cluster(PAIR_KEYED)
    try:
        reads = [
            lambda: cluster.select_partition("p", ("x",)),
            lambda: cluster.aggregate_partitions(
                "p", [("x", "y", "z")], fold=lambda values, view: None),
            lambda: cluster.read_partition_raw("p", ("x",)),
            lambda: PAIR_KEYED.ring_key(()),
        ]
        for read in reads:
            with pytest.raises(SchemaError, match="table 'p'"):
                read()
    finally:
        cluster.close()


def test_the_ring_string_pins_placement():
    assert (TABLE_SCHEMAS["event_by_time"].ring_key((0, "MCE"))
            == "event_by_time\x1f0\x1fMCE")
