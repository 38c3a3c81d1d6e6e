"""Unit tests for RDD transformations and actions."""

import pytest

from repro.sparklet import SparkletContext


@pytest.fixture(scope="module")
def sc():
    ctx = SparkletContext(4)
    yield ctx
    ctx.stop()


def _glom(rdd):
    """One list per partition."""
    return rdd.mapPartitions(lambda it: [list(it)]).collect()


class TestBasicTransformations:
    def test_map(self, sc):
        assert sc.parallelize([1, 2, 3]).map(lambda x: x * 2).collect() == [2, 4, 6]

    def test_filter(self, sc):
        got = sc.parallelize(range(10)).filter(lambda x: x % 2 == 0).collect()
        assert got == [0, 2, 4, 6, 8]

    def test_flatmap(self, sc):
        got = sc.parallelize(["a b", "c"]).flatMap(str.split).collect()
        assert got == ["a", "b", "c"]

    def test_map_preserves_order(self, sc):
        got = sc.parallelize(range(100), 7).map(lambda x: x).collect()
        assert got == list(range(100))

    def test_pipelined_narrow_chain(self, sc):
        got = (
            sc.parallelize(range(20), 3)
            .map(lambda x: x + 1)
            .filter(lambda x: x % 2 == 0)
            .map(str)
            .collect()
        )
        assert got == [str(x) for x in range(1, 21) if x % 2 == 0]

    def test_glom_partition_count(self, sc):
        parts = _glom(sc.parallelize(range(10), 4))
        assert len(parts) == 4
        assert [x for p in parts for x in p] == list(range(10))

    def test_union(self, sc):
        got = sc.parallelize([1, 2]).union(sc.parallelize([3])).collect()
        assert got == [1, 2, 3]

    def test_distinct(self, sc):
        got = sorted(sc.parallelize([1, 2, 2, 3, 3, 3], 3).distinct().collect())
        assert got == [1, 2, 3]

    def test_keyby_keys_values(self, sc):
        rdd = sc.parallelize(["aa", "b"]).keyBy(len)
        assert rdd.collect() == [(2, "aa"), (1, "b")]
        assert rdd.keys().collect() == [2, 1]
        assert rdd.values().collect() == ["aa", "b"]

    def test_mapvalues_flatmapvalues(self, sc):
        rdd = sc.parallelize([("a", [1, 2]), ("b", [3])])
        assert rdd.mapValues(len).collect() == [("a", 2), ("b", 1)]
        assert rdd.flatMapValues(lambda v: v).collect() == [
            ("a", 1), ("a", 2), ("b", 3)
        ]

    def test_empty_rdd(self, sc):
        assert sc.parallelize([]).collect() == []
        assert sc.parallelize([]).count() == 0

    def test_parallelize_more_partitions_than_items(self, sc):
        rdd = sc.parallelize([1, 2], 10)
        assert rdd.collect() == [1, 2]
        assert rdd.getNumPartitions() <= 2


class TestShuffles:
    def test_reduce_by_key(self, sc):
        pairs = [("a", 1), ("b", 2), ("a", 3), ("b", 4), ("c", 5)]
        got = sc.parallelize(pairs, 3).reduceByKey(lambda a, b: a + b)
        assert sorted(got.collect()) == [("a", 4), ("b", 6), ("c", 5)]

    def test_group_by_key(self, sc):
        pairs = [("a", 1), ("b", 2), ("a", 3)]
        got = dict(sc.parallelize(pairs, 2).groupByKey().collect())
        assert sorted(got["a"]) == [1, 3]
        assert got["b"] == [2]

    def test_combine_by_key(self, sc):
        pairs = [("x", 1), ("x", 2), ("y", 5)]
        got = dict(
            sc.parallelize(pairs, 2)
            .combineByKey(
                lambda v: (v, 1),
                lambda c, v: (c[0] + v, c[1] + 1),
                lambda a, b: (a[0] + b[0], a[1] + b[1]),
            )
            .collect()
        )
        assert got == {"x": (3, 2), "y": (5, 1)}

    def test_join(self, sc):
        left = sc.parallelize([(1, "a"), (2, "b")])
        right = sc.parallelize([(1, "x"), (1, "y"), (3, "z")])
        assert sorted(left.join(right).collect()) == [
            (1, ("a", "x")), (1, ("a", "y"))
        ]

    def test_cogroup(self, sc):
        left = sc.parallelize([(1, "a"), (1, "b")])
        right = sc.parallelize([(1, "x"), (2, "y")])
        got = dict(left.cogroup(right).collect())
        assert sorted(got[1][0]) == ["a", "b"]
        assert got[1][1] == ["x"]
        assert got[2] == ([], ["y"])

    def test_partition_by_routes_same_key_together(self, sc):
        from repro.sparklet.partitioner import HashPartitioner

        rdd = sc.parallelize([(i % 5, i) for i in range(50)], 4).partitionBy(
            HashPartitioner(3)
        )
        parts = _glom(rdd)
        assert len(parts) == 3
        for k in range(5):
            # All values for k must be in exactly one partition.
            assert sum(1 for part in parts
                       if any(kk == k for kk, _ in part)) == 1

    def test_a_one_partition_shuffle_hashes_nothing(self, sc, monkeypatch):
        """Every streaming window is a one-partition reduceByKey: the
        key's reduce partition is 0 without an md5 of its repr."""
        from repro.sparklet import partitioner

        pairs = [((i % 7, f"k{i % 3}"), i) for i in range(60)]
        wide = sorted(sc.parallelize(pairs, 3)
                      .reduceByKey(lambda a, b: a + b, 4).collect())
        hashed = []
        token_for_key = partitioner.token_for_key
        monkeypatch.setattr(partitioner, "token_for_key",
                            lambda key: hashed.append(key)
                            or token_for_key(key))
        narrow = sc.parallelize(pairs, 1).reduceByKey(lambda a, b: a + b, 1)
        assert sorted(narrow.collect()) == wide
        assert hashed == []


class TestActions:
    def test_count(self, sc):
        assert sc.parallelize(range(101), 7).count() == 101

    def test_reduce(self, sc):
        assert sc.parallelize(range(10), 3).reduce(lambda a, b: a + b) == 45

    def test_reduce_with_empty_partitions(self, sc):
        assert sc.parallelize([5], 4).reduce(lambda a, b: a + b) == 5

    def test_reduce_empty_raises(self, sc):
        with pytest.raises(ValueError):
            sc.parallelize([]).reduce(lambda a, b: a + b)

    def test_take_first(self, sc):
        rdd = sc.parallelize(range(100), 10)
        assert rdd.take(5) == [0, 1, 2, 3, 4]
        assert rdd.take(0) == []
        assert rdd.first() == 0

    def test_first_empty_raises(self, sc):
        with pytest.raises(ValueError):
            sc.parallelize([]).first()

    def test_take_more_than_size(self, sc):
        assert sc.parallelize([1, 2]).take(10) == [1, 2]

    def test_collect_as_map_lookup(self, sc):
        rdd = sc.parallelize([("a", 1), ("b", 2), ("a", 3)])
        assert rdd.collectAsMap()["b"] == 2
