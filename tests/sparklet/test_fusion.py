"""Narrow chains: pipelined generators agree with the reference.

Every chain here runs through the engine (one generator layer per
transformation, pipelined inside a task) and through the list-backed
reference evaluation (``tests/oracle``) and must give identical results
— plus a raw ``mapPartitions`` layer inside a chain and the
``records_read`` accounting a chain must keep.
"""

import pytest

from repro.sparklet import SparkletContext
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
