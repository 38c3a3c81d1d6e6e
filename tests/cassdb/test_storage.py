"""Unit tests for the per-node LSM table store."""

import pytest

from repro.cassdb.memtable import Batch
from repro.cassdb.row import ClusteringBound, Row, slice_bounds_keys
from repro.cassdb.storage import TableStore
from repro.cassdb.vector import BlockView, ColumnBlock, merge_views

from .test_memtable_sstable import flushed


def _view(rows):
    """A sorted row list as the merge takes it: a row-backed view."""
    return BlockView(ColumnBlock.over_rows(rows))


def _row(ts, seq=0, write_ts=1, **cols):
    return Row.from_values((ts, seq), cols or {"v": ts}, write_ts=write_ts)



class TestWritePath:
    def test_flush_at_threshold(self):
        store = TableStore(flush_threshold=10)
        for i in range(25):
            store.write_rows(Batch.of_rows([("pk", _row(float(i)))]))
        assert store.stats.flushes == 2
        assert store.memtable.row_count == 5
        assert sum(len(s) for s in store.sstables) == 20

    def test_flush_empty_is_noop(self):
        store = TableStore()
        store.flush()
        assert store.stats.flushes == 0
        assert not store.sstables

    def test_compaction_at_max_sstables(self):
        store = TableStore(flush_threshold=1, max_sstables=3)
        for i in range(8):
            store.write_rows(Batch.of_rows([("pk", _row(float(i)))]))
        assert store.stats.compactions >= 1
        assert len(store.sstables) <= 4

    def test_row_count(self):
        store = TableStore(flush_threshold=5)
        for i in range(12):
            store.write_rows(Batch.of_rows([("pk", _row(float(i)))]))
        assert store.row_count == 12


class TestReadPath:
    def test_read_spans_memtable_and_sstables(self):
        store = TableStore(flush_threshold=5)
        for i in range(12):
            store.write_rows(Batch.of_rows([("pk", _row(float(i)))]))
        rows = store.read_partition_view("pk").to_rows()
        assert [r.clustering[0] for r in rows] == [float(i) for i in range(12)]

    def test_read_respects_bounds_and_limit(self):
        store = TableStore(flush_threshold=4)
        for i in range(20):
            store.write_rows(Batch.of_rows([("pk", _row(float(i)))]))
        rows = store.read_partition_view(
            "pk", lower=ClusteringBound((5.0,)), limit=3
        ).to_rows()
        assert [r.clustering[0] for r in rows] == [5.0, 6.0, 7.0]

    def test_read_reverse(self):
        store = TableStore(flush_threshold=4)
        for i in range(10):
            store.write_rows(Batch.of_rows([("pk", _row(float(i)))]))
        rows = store.read_partition_view("pk", reverse=True, limit=2).to_rows()
        assert [r.clustering[0] for r in rows] == [9.0, 8.0]

    def test_newest_value_wins_across_runs(self):
        store = TableStore(flush_threshold=1)
        store.write_rows(Batch.of_rows([("pk", Row.from_values((1.0, 0), {"v": "old"},
                                                 write_ts=1))]))
        store.write_rows(Batch.of_rows([("pk", Row.from_values((1.0, 0), {"v": "new"},
                                                 write_ts=2))]))
        rows = store.read_partition_view("pk").to_rows()
        assert len(rows) == 1
        assert rows[0].value("v") == "new"

    def test_absent_partition(self):
        store = TableStore()
        store.write_rows(Batch.of_rows([("other", _row(1.0))]))
        assert store.read_partition_view("pk").to_rows() == []

    def test_bloom_skips_counted(self):
        store = TableStore(flush_threshold=1)
        for i in range(5):
            store.write_rows(Batch.of_rows([(f"pk{i}", _row(1.0))]))
        store.read_partition_view("pk0").to_rows()
        assert store.stats.bloom_skips > 0

    def test_partition_keys_union(self):
        store = TableStore(flush_threshold=2)
        store.write_rows(Batch.of_rows([("a", _row(1.0))]))
        store.write_rows(Batch.of_rows([("b", _row(1.0))]))  # triggers flush
        store.write_rows(Batch.of_rows([("c", _row(1.0))]))  # in memtable
        assert store.partition_keys() == {"a", "b", "c"}


class TestCompactionEquivalence:
    def test_reads_identical_before_and_after_compaction(self):
        store = TableStore(flush_threshold=7, max_sstables=100)
        for i in range(50):
            store.write_rows(Batch.of_rows([(f"pk{i % 3}", _row(float(i % 13), seq=i,
                                                  write_ts=i))]))
        before = {
            pk: [(r.clustering, r.as_dict())
                 for r in store.read_partition_view(pk).to_rows()]
            for pk in store.partition_keys()
        }
        store.flush()
        store.compact()
        after = {
            pk: [(r.clustering, r.as_dict())
                 for r in store.read_partition_view(pk).to_rows()]
            for pk in store.partition_keys()
        }
        assert before == after


class TestBoundsPruning:
    """PR 2: bounded scans must touch strictly fewer rows than a full
    partition read, observable through the ``rows_pruned`` counter."""

    @staticmethod
    def _loaded_store(n=300, flush_threshold=40):
        store = TableStore(flush_threshold=flush_threshold)
        for i in range(n):
            store.write_rows(Batch.of_rows([("pk", _row(float(i), seq=i))]))
        return store

    def test_bounded_read_prunes_rows(self):
        store = self._loaded_store()
        full = store.read_partition_view("pk").to_rows()
        assert store.stats.rows_pruned == 0  # full scans prune nothing
        bounded = store.read_partition_view(
            "pk", lower=ClusteringBound((100.0,)),
            upper=ClusteringBound((110.0,)),
        ).to_rows()
        assert [r.clustering[0] for r in bounded] == [
            float(i) for i in range(100, 111)]
        assert len(bounded) < len(full)
        # Everything outside [100, 110] was pruned in every run it
        # appears in, before any merge work happened.
        assert store.stats.rows_pruned >= len(full) - len(bounded)

    def test_reverse_bounded_read_prunes_rows(self):
        store = self._loaded_store()
        rows = store.read_partition_view(
            "pk", lower=ClusteringBound((200.0,)), reverse=True,
            limit=5).to_rows()
        assert [r.clustering[0] for r in rows] == [
            299.0, 298.0, 297.0, 296.0, 295.0]
        assert store.stats.rows_pruned >= 200

    def test_bounded_equals_filtered_full_scan(self):
        store = self._loaded_store(n=257, flush_threshold=31)
        lower, upper = ClusteringBound((50.0,), False), ClusteringBound((90.0,))
        bounded = store.read_partition_view(
            "pk", lower=lower, upper=upper).to_rows()
        full = [r for r in store.read_partition_view("pk").to_rows()
                if 50.0 < r.clustering[0] <= 90.0]
        assert [(r.clustering, r.as_dict()) for r in bounded] == \
            [(r.clustering, r.as_dict()) for r in full]


class TestBoundedMemtableRead:
    """A bounded read bisects a memtable partition's key list and builds
    only the rows inside the bounds: what it returns, and what it
    reports pruned, are those of the unbounded read, filtered."""

    # 250 timestamps, four rows each: clustering (ts, seq) = (i // 4, i).
    KEYS = [(i // 4, i) for i in range(1000)]
    BOUNDS = [
        (ClusteringBound((100,)), ClusteringBound((120,))),
        (ClusteringBound((100,), False), ClusteringBound((120,), False)),
        # Both clustering columns named: a bound inside one timestamp.
        (ClusteringBound((100, 401)), ClusteringBound((120, 481), False)),
        (ClusteringBound((100,)), None),
        (None, ClusteringBound((3,), False)),
        (ClusteringBound((300,)), None),                      # past the end
        (ClusteringBound((120,)), ClusteringBound((100,))),   # empty window
        (None, None),
    ]

    @staticmethod
    def _write(store, keys, write_ts=1):
        store.write_rows(Batch.of_rows([
            ("pk", Row.from_values(key, {"v": key[1]}, write_ts=write_ts))
            for key in keys]))

    def _check_every_bound(self, store, buffered):
        """*buffered*: the clustering key of every row a memtable holds,
        once per memtable holding it."""
        full = [(r.clustering, r.as_dict())
                for r in store.read_partition_view("pk").to_rows()]
        for lower, upper in self.BOUNDS:
            def admitted(key):
                return ((lower is None or lower.admits_lower(key))
                        and (upper is None or upper.admits_upper(key)))

            before = store.stats.rows_pruned
            bounded = store.read_partition_view("pk", lower, upper).to_rows()
            assert [(r.clustering, r.as_dict()) for r in bounded] == [
                (key, values) for key, values in full if admitted(key)]
            assert store.stats.rows_pruned - before == sum(
                not admitted(key) for key in buffered)

    def test_equals_the_unbounded_read_filtered(self):
        store = TableStore()
        self._write(store, self.KEYS)
        assert not store.sstables and store.memtable.row_count == 1000
        self._check_every_bound(store, self.KEYS)

    def test_frozen_memtable_beside_the_live_one(self):
        store = TableStore()
        self._write(store, self.KEYS[:600])
        rewritten = self.KEYS[380:420]
        checked = []

        def while_the_build_runs():
            # The sealed memtable is on ``frozen``; these land in the
            # fresh one, some of them on keys the frozen one holds.
            self._write(store, self.KEYS[600:] + rewritten, write_ts=2)
            assert len(store.frozen) == 1 and store.memtable.row_count == 440
            self._check_every_bound(store, self.KEYS + rewritten)
            checked.append(True)

        store.flush_hook = while_the_build_runs
        store.flush()
        assert checked == [True]


class TestSparseIndexAndMerge:
    def test_slice_bounds_with_and_without_samples_agree(self):
        rows = [_row(float(i // 3), seq=i) for i in range(500)]
        keys = [r.clustering for r in rows]
        # A partition ahead of it in the run: "pk"'s stretch starts at 37.
        sst = flushed({"a": rows[:37], "pk": rows})
        start, stop = sst.offsets["pk"]
        assert start == 37
        for lo_v, hi_v, lo_inc, hi_inc in [
            (10.0, 50.0, True, True), (0.0, 0.0, True, True),
            (42.0, 43.0, False, False), (165.0, 900.0, True, True),
            (-5.0, 3.0, True, False),
        ]:
            lower = ClusteringBound((lo_v,), lo_inc)
            upper = ClusteringBound((hi_v,), hi_inc)
            plain = slice_bounds_keys(keys, lower, upper)
            in_run = slice_bounds_keys(sst.block.clustering, lower, upper,
                                       start=start, stop=stop)
            assert (plain[0] + start, plain[1] + start) == in_run

    def test_merge_row_slices_reconciles_and_orders(self):
        a = [Row.from_values((float(i), 0), {"v": "a"}, write_ts=1)
             for i in range(0, 10, 2)]
        b = [Row.from_values((float(i), 0), {"v": "b"}, write_ts=2)
             for i in range(0, 10, 3)]
        merged = merge_views([_view(a), _view(b)])
        assert [r.clustering[0] for r in merged] == [
            0.0, 2.0, 3.0, 4.0, 6.0, 8.0, 9.0]
        by_key = {r.clustering[0]: r.value("v") for r in merged}
        assert by_key[0.0] == "b"  # newer write wins on the overlap
        assert by_key[6.0] == "b"
        assert by_key[2.0] == "a"

    def test_merge_row_slices_reverse_limit(self):
        a = [_row(float(i), seq=0, write_ts=1) for i in range(0, 20, 2)]
        b = [_row(float(i), seq=0, write_ts=1) for i in range(1, 20, 2)]
        out = merge_views([_view(a), _view(b)], reverse=True, limit=4)
        assert [r.clustering[0] for r in out] == [19.0, 18.0, 17.0, 16.0]


class _CountedOffsets(dict):
    """A run's offsets that count the membership tests made of them."""

    tests = 0

    def __contains__(self, key):
        self.tests += 1
        return super().__contains__(key)


class TestOneReadFace:
    """Every tier answers ``slice_partition_view``; the mechanism, held
    as counts: a partition one tier alone holds is served with no merge,
    and a read looks the key up in each run's offsets exactly once."""

    @staticmethod
    def _count_calls(monkeypatch, owner, name):
        calls = []
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    def test_memtable_only_partition_read_runs_no_merge(self, monkeypatch):
        from repro.cassdb import storage

        store = TableStore()
        for i in range(50):
            store.write_rows(Batch.of_rows([("flushed", _row(float(i)))]))
        store.flush()
        for i in range(50):
            store.write_rows(Batch.of_rows([("pk", _row(float(i), seq=i))]))
        merges = self._count_calls(monkeypatch, storage, "merge_views")
        view = store.read_partition_view(
            "pk", ClusteringBound((5.0,)), ClusteringBound((9.0,)),
            reverse=True, limit=3)
        assert [r.clustering[0] for r in view.to_rows()] == [9.0, 8.0, 7.0]
        assert len(store.read_partition_view("pk")) == 50
        assert len(store.read_partition_view("flushed")) == 50  # one run alone
        assert merges == []
        store.write_rows(Batch.of_rows(
            [("flushed", _row(99.0))]))         # memtable + run
        assert len(store.read_partition_view("flushed")) == 51
        assert len(merges) == 1

    @pytest.mark.parametrize("runs", [0, 1, 3, 6])
    def test_a_read_over_k_runs_looks_up_k_offsets(self, runs):
        store = TableStore()
        for run in range(runs):
            # Even runs hold the partition read below, odd ones do not.
            pk = "pk" if run % 2 == 0 else "other"
            for i in range(10):
                store.write_rows(Batch.of_rows(
                    [(pk, _row(float(run * 10 + i)))]))
            store.flush()
        store.write_rows(Batch.of_rows([("pk", _row(1000.0))]))
        assert len(store.sstables) == runs
        for sst in store.sstables:
            sst.offsets = _CountedOffsets(sst.offsets)
        stats = store.stats
        for pk in ("pk", "other", "absent"):
            holding = sum(pk in sst.offsets for sst in store.sstables)
            for sst in store.sstables:
                sst.offsets.tests = 0
            probes, skips = stats.sstable_probes, stats.bloom_skips
            store.read_partition_view(pk, ClusteringBound((5.0,))).to_rows()
            assert [sst.offsets.tests for sst in store.sstables] == [1] * runs
            assert stats.sstable_probes - probes == holding
            assert stats.bloom_skips - skips == runs - holding
