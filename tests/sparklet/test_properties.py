"""Property-based tests: RDD semantics vs plain-Python references."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparklet import SparkletContext
from tests.oracle import ListRDD


@pytest.fixture(scope="module")
def sc():
    ctx = SparkletContext(3)
    yield ctx
    ctx.stop()


ints = st.lists(st.integers(-100, 100), max_size=60)
pairs = st.lists(
    st.tuples(st.integers(0, 9), st.integers(-50, 50)), max_size=60
)
parts = st.integers(1, 7)


class TestAgainstReference:
    @settings(max_examples=40, deadline=None)
    @given(data=ints, n=parts)
    def test_map_filter(self, sc, data, n):
        got = (
            sc.parallelize(data, n)
            .map(lambda x: x * 3 + 1)
            .filter(lambda x: x % 2 == 0)
            .collect()
        )
        assert got == [x * 3 + 1 for x in data if (x * 3 + 1) % 2 == 0]

    @settings(max_examples=40, deadline=None)
    @given(data=ints, n=parts)
    def test_count_sum(self, sc, data, n):
        rdd = sc.parallelize(data, n)
        assert rdd.count() == len(data)
        if data:
            assert rdd.reduce(lambda a, b: a + b) == sum(data)

    @settings(max_examples=40, deadline=None)
    @given(data=pairs, n=parts)
    def test_reduce_by_key(self, sc, data, n):
        got = dict(
            sc.parallelize(data, n).reduceByKey(lambda a, b: a + b).collect()
        )
        ref: dict[int, int] = {}
        for k, v in data:
            ref[k] = ref.get(k, 0) + v
        assert got == ref

    @settings(max_examples=40, deadline=None)
    @given(data=pairs, n=parts)
    def test_group_by_key_multiset(self, sc, data, n):
        got = dict(sc.parallelize(data, n).groupByKey().collect())
        ref: dict[int, list[int]] = {}
        for k, v in data:
            ref.setdefault(k, []).append(v)
        assert {k: sorted(v) for k, v in got.items()} == {
            k: sorted(v) for k, v in ref.items()
        }

    @settings(max_examples=40, deadline=None)
    @given(data=ints, n=parts)
    def test_distinct(self, sc, data, n):
        got = sorted(sc.parallelize(data, n).distinct().collect())
        assert got == sorted(set(data))

    @settings(max_examples=30, deadline=None)
    @given(left=pairs, right=pairs)
    def test_join_reference(self, sc, left, right):
        got = sorted(
            sc.parallelize(left, 3).join(sc.parallelize(right, 2)).collect()
        )
        ref = sorted(
            (k, (lv, rv))
            for k, lv in left
            for k2, rv in right
            if k == k2
        )
        assert got == ref

    @settings(max_examples=40, deadline=None)
    @given(data=ints, n=parts)
    def test_take_is_prefix(self, sc, data, n):
        rdd = sc.parallelize(data, n)
        for k in (0, 1, 3, len(data)):
            assert rdd.take(k) == data[:k]


# One step of a generated lineage: (key, value) int pairs in, (key,
# value) int pairs out, so any step can follow any other.  ``other()``
# mints a second base of the same flavour for the two-parent operators.
# A groupByKey list's order depends on partitioning, so its step reduces
# the list to an order-free summary before the next step sees it.
LINEAGE_STEPS = {
    "map": lambda r, other: r.map(lambda kv: ((kv[0] + kv[1]) % 5, kv[1])),
    "filter": lambda r, other: r.filter(lambda kv: (kv[0] + kv[1]) % 3),
    "flatMap": lambda r, other: r.flatMap(lambda kv: [kv] * (kv[1] % 3)),
    "mapValues": lambda r, other: r.mapValues(lambda v: v * 2 - 1),
    "flatMapValues": lambda r, other: r.flatMapValues(lambda v: (v, -v)),
    "keyBy": lambda r, other: (r.keyBy(lambda kv: kv[1] % 4)
                               .mapValues(lambda kv: kv[0])),
    "keys": lambda r, other: r.keys().map(lambda k: (k % 3, k)),
    "values": lambda r, other: r.values().map(lambda v: (v % 4, v)),
    "union": lambda r, other: r.union(other()),
    "reduceByKey": lambda r, other: r.reduceByKey(lambda a, b: a + b),
    "groupByKey": lambda r, other: r.groupByKey().mapValues(
        lambda vs: 100 * len(vs) + max(vs)),
    "distinct": lambda r, other: r.distinct(),
    "join": lambda r, other: r.join(other()).mapValues(
        lambda vw: vw[0] - vw[1]),
}

small_pair = st.tuples(st.integers(0, 4), st.integers(-20, 20))


def _lineage(make, data, other, steps):
    rdd = make(data)
    for name in steps:
        rdd = LINEAGE_STEPS[name](rdd, lambda: make(other))
    return rdd


class TestRandomLineages:
    @settings(max_examples=60, deadline=None)
    @given(data=st.lists(small_pair, max_size=20),
           other=st.lists(small_pair, max_size=6),   # bounds a join chain
           steps=st.lists(st.sampled_from(sorted(LINEAGE_STEPS)),
                          max_size=5),
           n=st.sampled_from([1, 3]))
    def test_engine_agrees_with_list_reference(self, sc, data, other,
                                               steps, n):
        got = _lineage(lambda d: sc.parallelize(d, n), data, other, steps)
        ref = _lineage(ListRDD, data, other, steps)
        expected = Counter(ref.collect())
        assert Counter(got.collect()) == expected
        assert got.count() == ref.count()
        head = Counter(got.take(3))
        assert sum(head.values()) == len(ref.take(3))
        assert head <= expected
