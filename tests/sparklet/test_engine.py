"""Tests for partitioners, worker pool, scheduler metrics, sources and
accumulators."""

import pytest

from repro.cassdb import Cluster, TableSchema
from repro.sparklet import SparkletContext
from repro.sparklet.executor import WorkerPool
from repro.sparklet.partitioner import HashPartitioner


class TestPartitioners:
    def test_hash_partitioner_stable_and_in_range(self):
        p = HashPartitioner(7)
        for key in ["a", ("x", 1), 42, 3.5, None]:
            idx = p.partition(key)
            assert 0 <= idx < 7
            assert idx == p.partition(key)

    def test_hash_partitioner_equality(self):
        assert HashPartitioner(3) == HashPartitioner(3)
        assert HashPartitioner(3) != HashPartitioner(4)

    def test_invalid_partition_count(self):
        with pytest.raises(ValueError):
            HashPartitioner(0)


class TestWorkerPool:
    def test_rejects_empty_and_bad_policy(self):
        with pytest.raises(ValueError):
            WorkerPool([])
        with pytest.raises(ValueError):
            WorkerPool(["w"], placement="bogus")

    def test_locality_honours_preference(self):
        pool = WorkerPool(["a", "b", "c"], placement="locality")
        assert pool.assign("b") == "b"

    def test_locality_falls_back_when_unknown(self):
        pool = WorkerPool(["a", "b"], placement="locality")
        assert pool.assign("zzz") in ("a", "b")

    def test_round_robin_ignores_preference(self):
        pool = WorkerPool(["a", "b"], placement="round_robin")
        got = {pool.assign("a") for _ in range(4)}
        assert got == {"a", "b"}

    def test_run_tasks_order(self):
        pool = WorkerPool(["a", "b"])
        tasks = [(lambda tc, i=i: i * 10, None, i) for i in range(6)]
        results, contexts = pool.run_tasks(tasks)
        assert results == [0, 10, 20, 30, 40, 50]
        assert len(contexts) == 6
        pool.shutdown()


class TestSchedulerMetrics:
    def test_stage_and_task_counts(self):
        sc = SparkletContext(4)
        sc.parallelize(range(100), 8).map(lambda x: (x % 3, 1)).reduceByKey(
            lambda a, b: a + b, 5
        ).collect()
        # One map stage (8 tasks) + one result stage (5 tasks).
        assert sc.metrics.stages == 2
        assert sc.metrics.tasks == 13
        assert sc.metrics.jobs == 1

    def test_shuffle_reuse_across_actions(self):
        sc = SparkletContext(2)
        rdd = sc.parallelize([(1, 1)] * 10, 4).reduceByKey(lambda a, b: a + b)
        rdd.collect()
        stages_after_first = sc.metrics.stages
        rdd.count()  # same shuffle id: map stage must not rerun
        assert sc.metrics.stages == stages_after_first + 1

    def test_map_side_combine_reduces_shuffle_volume(self):
        sc1 = SparkletContext(2)
        data = [("k", 1)] * 1000
        sc1.parallelize(data, 4).reduceByKey(lambda a, b: a + b).collect()
        combined = sc1.metrics.shuffle_records_written
        sc2 = SparkletContext(2)
        sc2.parallelize(data, 4).groupByKey().collect()
        grouped = sc2.metrics.shuffle_records_written
        # reduceByKey writes one combiner per (map task, key) = 4;
        # groupByKey also combines map-side into lists here, so equal —
        # but partitionBy (no aggregator) writes every record.
        sc3 = SparkletContext(2)
        from repro.sparklet.partitioner import HashPartitioner

        sc3.parallelize(data, 4).partitionBy(HashPartitioner(2)).collect()
        raw = sc3.metrics.shuffle_records_written
        assert combined == 4
        assert raw == 1000
        assert grouped <= raw

    def test_shuffle_blocks_immutable_across_actions(self):
        """Regression: reduce-side merging must not mutate cached map
        outputs — repeated actions over a shuffled RDD (and lineages
        built on it) must return identical results every time."""
        sc = SparkletContext(3)
        grouped = sc.parallelize(
            [(i % 3, i) for i in range(12)], 2).groupByKey()
        first = sorted((k, sorted(v)) for k, v in grouped.collect())
        for _ in range(3):
            again = sorted((k, sorted(v)) for k, v in grouped.collect())
            assert again == first
        # A second shuffle stacked on the first (the join shape that
        # originally exposed the bug).
        joined = grouped.join(
            sc.parallelize([(0, "a"), (1, "b"), (2, "c")], 3))
        expected = [(k, (list(range(k, 12, 3)), tag))
                    for k, tag in enumerate("abc")]
        for _ in range(2):
            assert sorted((k, (sorted(v), tag))
                          for k, (v, tag) in joined.collect()) == expected

    def test_mutating_merge_leaves_shuffle_blocks_intact(self):
        """merge_combiners may mutate its first argument: with >= 2 map
        partitions every key merges on the reduce side, and the blocks
        the first action left behind must read the same a second time."""
        sc = SparkletContext(3)

        def merge(a, b):
            a.extend(b)
            return a

        summed = sc.parallelize(
            [(i % 4, i) for i in range(40)], 4
        ).combineByKey(lambda v: [v], lambda acc, v: acc + [v], merge, 2)
        first = sorted((k, sorted(v)) for k, v in summed.collect())
        assert first == [(k, list(range(k, 40, 4))) for k in range(4)]
        assert sorted((k, sorted(v)) for k, v in summed.collect()) == first

    def test_combiner_copied_on_first_merge_not_first_sight(self):
        copies = []

        class Tally:
            def __init__(self, n):
                self.n = n

            def __deepcopy__(self, memo):
                copies.append(self.n)
                return Tally(self.n)

        def merge(a, b):
            a.n += b.n
            return a

        sc = SparkletContext(2)
        # Keys 0..3 sit in both map partitions (merged on the reduce
        # side); keys 10..13 sit in one (seen once, never merged).
        data = ([(k, 1) for k in range(4)] + [(k + 10, 1) for k in range(4)]
                + [(k, 1) for k in range(4)])
        tallied = sc.parallelize(data, 2).combineByKey(
            Tally, lambda acc, v: merge(acc, Tally(v)), merge, 3)
        for _ in range(2):
            assert sorted((k, t.n) for k, t in tallied.collect()) == (
                [(k, 2) for k in range(4)] + [(k + 10, 1) for k in range(4)])
        # One private copy per merged key per action; none for the rest.
        assert copies == [1] * 8

    def test_reset_metrics(self):
        sc = SparkletContext(2)
        sc.parallelize(range(10)).count()
        sc.reset_metrics()
        assert sc.metrics.tasks == 0


def _event_cluster(hours=6, per_hour=10):
    cluster = Cluster(4, replication_factor=2)
    cluster.create_table(
        TableSchema("ev", partition_key=("hour", "type"),
                    clustering_key=("ts",))
    )
    for h in range(hours):
        for i in range(per_hour):
            cluster.insert(
                "ev", {"hour": h, "type": "MCE",
                       "ts": h * 3600.0 + i, "amount": 1}
            )
    return cluster


class TestCassandraTableRDD:
    def test_full_scan_counts(self):
        cluster = _event_cluster()
        sc = SparkletContext(cluster=cluster)
        assert sc.cassandraTable("ev").count() == 60

    def test_locality_placement_no_remote_records(self):
        cluster = _event_cluster()
        sc = SparkletContext(cluster=cluster, placement="locality")
        sc.cassandraTable("ev").count()
        assert sc.metrics.remote_records == 0
        assert sc.metrics.locality_fraction == 1.0

    def test_random_placement_has_remote_records(self):
        cluster = _event_cluster(hours=24)
        sc = SparkletContext(cluster=cluster, placement="random")
        sc.cassandraTable("ev").count()
        assert sc.metrics.remote_records > 0

    def test_where_pushdown(self):
        cluster = _event_cluster()
        sc = SparkletContext(cluster=cluster)
        n = sc.cassandraTable("ev", where=lambda r: r["hour"] == 3).count()
        assert n == 10

    @pytest.mark.parametrize("placement", ["locality", "random"])
    def test_folded_scan_accounts_the_rows_it_read(self, placement):
        """A scan carrying a fold yields one value per DB partition and
        counts the rows the replica handed the fold — what the row scan
        counts, under either placement."""
        cluster = _event_cluster(hours=24)
        for node in list(cluster.nodes.values())[:2]:
            node.tables["ev"].flush()       # column blocks and memtables
        accounted = []
        for fold in (None, lambda pk_values, source: len(source)):
            sc = SparkletContext(cluster=cluster, placement=placement)
            values = sc.cassandraTable("ev", fold=fold).collect()
            accounted.append((sc.metrics.records_read,
                              sc.metrics.remote_records))
            sc.stop()
        assert values == [10] * 24
        assert accounted[0] == accounted[1]
        assert accounted[0][0] == 240
        assert (accounted[0][1] > 0) == (placement == "random")

    def test_bounds_are_pushed_into_the_read(self):
        from repro.cassdb import ClusteringBound

        cluster = _event_cluster()
        sc = SparkletContext(cluster=cluster)
        rows = sc.cassandraTable(
            "ev", lower=ClusteringBound((3600.0 + 5,)),
            upper=ClusteringBound((2 * 3600.0 + 5,), inclusive=False),
            where=lambda r: r["hour"] == 2).collect()
        assert [r["ts"] for r in rows] == [7200.0 + i for i in range(5)]
        # Rows outside the bounds never left the store.
        assert sc.metrics.records_read == 5 + 5

    def test_a_fold_takes_no_row_predicate(self):
        sc = SparkletContext(cluster=_event_cluster())
        with pytest.raises(ValueError, match="row scan"):
            sc.cassandraTable("ev", where=lambda r: True,
                              fold=lambda pk_values, source: len(source))

    def test_split_factor_increases_partitions(self):
        cluster = _event_cluster(hours=24)
        sc = SparkletContext(cluster=cluster)
        base = sc.cassandraTable("ev").getNumPartitions()
        split = sc.cassandraTable("ev", split_factor=3).getNumPartitions()
        assert split > base

    def test_empty_table(self):
        cluster = Cluster(2)
        cluster.create_table(TableSchema("empty", partition_key=("k",)))
        sc = SparkletContext(cluster=cluster)
        assert sc.cassandraTable("empty").count() == 0

    def test_requires_cluster(self):
        sc = SparkletContext(2)
        with pytest.raises(RuntimeError):
            sc.cassandraTable("ev")


class TestTextFileRDD:
    def test_reads_all_lines(self, tmp_path):
        path = tmp_path / "log.txt"
        lines = [f"line {i}" for i in range(100)]
        path.write_text("\n".join(lines) + "\n")
        sc = SparkletContext(4)
        rdd = sc.textFile(str(path), 4)
        assert rdd.collect() == lines
        assert rdd.getNumPartitions() > 1

    def test_no_line_straddles_partitions(self, tmp_path):
        path = tmp_path / "log.txt"
        path.write_text("\n".join("x" * (i % 37 + 1) for i in range(200)) + "\n")
        sc = SparkletContext(4)
        parts = sc.textFile(str(path), 7).mapPartitions(
            lambda it: [list(it)]).collect()
        flat = [x for p in parts for x in p]
        assert flat == path.read_text().splitlines()

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        sc = SparkletContext(2)
        assert sc.textFile(str(path)).collect() == []

    def test_single_partition(self, tmp_path):
        path = tmp_path / "log.txt"
        path.write_text("a\nb\n")
        sc = SparkletContext(2)
        assert sc.textFile(str(path), 1).collect() == ["a", "b"]


class TestATextSplitReadsEachLineOnce:
    """Every line of a file is read exactly once across the splits, as
    a plain ``rstrip("\\n")`` of the file split on newlines, for every
    split count — and a split is read without a ``tell()`` per line."""

    CASES = {
        "no_trailing_newline": b"alpha\nbeta\ngamma",
        "crlf": b"alpha\r\nbeta\r\n\r\ngamma\r\n",
        "multibyte_at_cuts": "\n".join(
            "\u00e9\u65e5\u672c" * (i % 5 + 1) for i in range(40)
        ).encode() + b"\n",
        "empty": b"",
        "one_line": b"only one line\n",
    }

    @staticmethod
    def expected(data: bytes) -> list[str]:
        *whole, last = data.split(b"\n")
        lines = [line + b"\n" for line in whole] + ([last] if last else [])
        return [line.decode("utf-8", errors="replace").rstrip("\n")
                for line in lines]

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("splits", [1, 2, 3, 7, 16])
    def test_each_line_once_across_cuts(self, tmp_path, case, splits):
        path = tmp_path / "log.txt"
        path.write_bytes(self.CASES[case])
        sc = SparkletContext(4)
        rdd = sc.textFile(str(path), splits)
        parts = rdd.mapPartitions(lambda it: [list(it)]).collect()
        assert [line for part in parts for line in part] == self.expected(
            self.CASES[case])

    def test_a_split_makes_no_tell_per_line(self, tmp_path, monkeypatch):
        from repro.sparklet import sources

        path = tmp_path / "log.txt"
        path.write_text("".join(f"line {i}\n" for i in range(500)))
        sc = SparkletContext(4)
        rdd = sc.textFile(str(path), 4)
        tells = []

        class CountingFile:
            def __init__(self, fh):
                self._fh = fh

            def tell(self):
                tells.append(1)
                return self._fh.tell()

            def __getattr__(self, name):
                return getattr(self._fh, name)

            def __iter__(self):
                return iter(self._fh)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._fh.close()

        monkeypatch.setattr(sources, "open",
                            lambda *a, **kw: CountingFile(open(*a, **kw)),
                            raising=False)
        assert len(rdd.collect()) == 500
        assert tells == []


class TestSharedVariables:
    def test_accumulator_default_add(self):
        sc = SparkletContext(2)
        acc = sc.accumulator(0)
        acc += 5
        acc.add(2)
        assert acc.value == 7

    def test_accumulator_custom_merge(self):
        sc = SparkletContext(2)
        acc = sc.accumulator(set(), merge=lambda s, x: s | {x})
        sc.parallelize([1, 2, 2, 3], 2).map(acc.add).count()
        assert acc.value == {1, 2, 3}

    def test_accumulator_reset(self):
        sc = SparkletContext(2)
        acc = sc.accumulator(10)
        acc.reset(0)
        assert acc.value == 0

    def test_union_helper(self):
        sc = SparkletContext(2)
        rdds = [sc.parallelize([i]) for i in range(3)]
        assert sorted(sc.union(rdds).collect()) == [0, 1, 2]
        assert sc.union([rdds[0]]) is rdds[0]
        with pytest.raises(ValueError):
            sc.union([])

    def test_context_manager(self):
        with SparkletContext(2) as sc:
            assert sc.parallelize(range(3)).count() == 3
