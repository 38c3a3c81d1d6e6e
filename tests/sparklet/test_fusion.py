"""Narrow-chain fusion: fused execution must be invisible.

Every chain here runs through the compiled fusion and through the
list-backed reference evaluation (``tests/oracle``) and must give
identical results — plus the barriers (caching, raw mapPartitions) and
metric accounting fusion must respect.
"""

import pytest

from repro import obs
from repro.sparklet import SparkletContext
from repro.sparklet.rdd import _FUSED_CODE_CACHE, _compile_ops
from tests.oracle import ListRDD


@pytest.fixture()
def sc():
    with SparkletContext(4) as ctx:
        yield ctx


DATA = list(range(500))
KV_DATA = [(i % 7, i) for i in range(300)]

CHAINS = {
    "map-map": lambda r: r.map(lambda x: x + 1).map(lambda x: x * 2),
    "map-filter": lambda r: r.map(lambda x: x * 3).filter(
        lambda x: x % 2 == 0),
    "filter-map": lambda r: r.filter(lambda x: x > 100).map(lambda x: -x),
    "flatmap-mid": lambda r: (r.map(lambda x: x + 1)
                              .flatMap(lambda x: (x, x * 10))
                              .filter(lambda x: x % 3 != 0)),
    "flatmap-flatmap": lambda r: (r.flatMap(lambda x: (x, x))
                                  .flatMap(lambda x: [x] if x % 2 else [])),
    "keyby-values": lambda r: (r.keyBy(lambda x: x % 16)
                               .mapValues(lambda v: v * v)
                               .values()),
    "keyby-keys": lambda r: (r.map(lambda x: x + 5)
                             .keyBy(lambda x: x % 4)
                             .keys()
                             .filter(lambda k: k != 2)),
    "long-mixed": lambda r: (r.map(lambda x: x - 1)
                             .filter(lambda x: x >= 0)
                             .keyBy(lambda x: x % 9)
                             .mapValues(lambda v: v + 100)
                             .flatMapValues(lambda v: (v, v + 1))
                             .values()
                             .map(lambda x: x * 2)),
}

KV_CHAINS = {
    "mapvalues": lambda r: r.mapValues(lambda v: v * 3),
    "flatmapvalues": lambda r: (r.flatMapValues(lambda v: range(v % 3))
                                .mapValues(lambda v: v + 1)),
    "keys-after-mapvalues": lambda r: r.mapValues(lambda v: -v).keys(),
    "values-filter": lambda r: (r.values()
                                .filter(lambda v: v % 5 == 0)
                                .map(lambda v: v // 5)),
}


class TestFusionParity:
    @pytest.mark.parametrize("name", sorted(CHAINS))
    def test_chain_matrix(self, sc, name):
        build = CHAINS[name]
        assert (build(sc.parallelize(DATA, 4)).collect()
                == build(ListRDD(DATA)).collect())

    @pytest.mark.parametrize("name", sorted(KV_CHAINS))
    def test_kv_chain_matrix(self, sc, name):
        build = KV_CHAINS[name]
        assert (build(sc.parallelize(KV_DATA, 3)).collect()
                == build(ListRDD(KV_DATA)).collect())

    def test_empty_partitions(self, sc):
        build = CHAINS["long-mixed"]
        # 2 records across 8 partitions: most partitions are empty.
        assert (build(sc.parallelize([1, 2], 8)).collect()
                == build(ListRDD([1, 2])).collect())
        assert build(sc.parallelize([], 4)).collect() == []

    def test_shuffle_on_top_of_fused_chain(self, sc):
        got = (sc.parallelize(DATA, 4)
               .map(lambda x: x + 1)
               .filter(lambda x: x % 2 == 0)
               .keyBy(lambda x: x % 8)
               .reduceByKey(lambda a, b: a + b, 3)
               .collect())
        sums = {}
        for x in DATA:
            if (x + 1) % 2 == 0:
                sums[(x + 1) % 8] = sums.get((x + 1) % 8, 0) + x + 1
        assert sorted(got) == sorted(sums.items())


class TestFusionBarriers:
    def test_cached_intermediate_is_a_barrier(self, sc):
        mid = sc.parallelize(DATA, 4).map(lambda x: x * 2).cache()
        top = mid.filter(lambda x: x % 3 == 0).map(lambda x: x + 1)
        assert top.collect() == [x * 2 + 1 for x in DATA if x * 2 % 3 == 0]
        # The cache below the fused chain must still be populated —
        # fusion may not reach through a cached layer.
        assert mid.is_fully_cached
        assert mid.collect() == [x * 2 for x in DATA]

    def test_raw_map_partitions_is_a_barrier(self, sc):
        base = sc.parallelize(DATA, 4)
        got = (base.map(lambda x: x + 1)
               .mapPartitions(lambda it: [sum(it)])
               .map(lambda x: x * 2)
               .collect())
        assert got == [sum(x + 1 for x in part) * 2
                       for part in base.mapPartitions(
                           lambda it: [list(it)]).collect()]

    def test_records_read_preserved(self, tmp_path, sc):
        path = tmp_path / "lines.txt"
        path.write_text("".join(f"line {i}\n" for i in range(120)))
        sc.reset_metrics()
        out = (sc.textFile(str(path), 4)
               .map(str.strip)
               .filter(lambda s: not s.endswith("7"))
               .map(len)
               .collect())
        assert out == [len(f"line {i}") for i in range(120) if i % 10 != 7]
        assert sc.metrics.records_read == 120


class TestFusionMachinery:
    def test_codegen_cached_by_shape(self, sc):
        rdd = (sc.parallelize(DATA, 2)
               .map(lambda x: x + 1)
               .filter(lambda x: x % 2 == 0))
        rdd.collect()
        key = ("map", "filter")
        assert key in _FUSED_CODE_CACHE
        compiled = _FUSED_CODE_CACHE[key]
        rdd.collect()
        # A second run with the same shape reuses the compiled function.
        assert _FUSED_CODE_CACHE[key] is compiled

    def test_compile_ops_matches_hand_evaluation(self):
        fn = _compile_ops(("map", "filter", "keyby", "mapvalues"))
        out = fn(iter(range(10)),
                 lambda x: x + 1,          # map
                 lambda x: x % 2 == 0,     # filter
                 lambda x: x % 3,          # keyBy
                 lambda v: v * 10)         # mapValues
        assert out == [(k % 3, k * 10) for k in range(1, 11) if k % 2 == 0]

    def test_fusion_counters_advance(self):
        reg = obs.get_registry()
        chains = reg.counter("sparklet.fusion.chains")
        ops = reg.counter("sparklet.fusion.ops_fused")
        c0, o0 = chains.value, ops.value
        with SparkletContext(2) as sc:
            (sc.parallelize(range(100), 2)
             .map(lambda x: x + 1)
             .filter(lambda x: x > 10)
             .map(lambda x: x * 2)
             .collect())
        assert chains.value == c0 + 2          # one chain per partition
        assert ops.value == o0 + 6             # 3 ops x 2 partitions
