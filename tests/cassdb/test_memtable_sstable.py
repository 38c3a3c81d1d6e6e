"""Unit tests for the memtable and SSTable layers."""

import sys
import threading

from repro.cassdb.memtable import Batch, Memtable
from repro.cassdb.row import ClusteringBound, Row, slice_bounds_keys
from repro.cassdb.sstable import SSTable, merge_sstables
from repro.cassdb.storage import TableStore
from repro.cassdb.vector import BlockView, ColumnBlock, merge_views


def scan_partition(rows, lower=None, upper=None, reverse=False):
    """Range-scan a sorted row list the way the store reads one source:
    bisect to the in-bounds slice, then merge (which orders it)."""
    lo, hi = slice_bounds_keys([r.clustering for r in rows], lower, upper)
    return merge_views([BlockView(ColumnBlock.over_rows(rows[lo:hi]))],
                       reverse=reverse)


def _row(ts, seq=0, ts_write=1, **cols):
    return Row.from_values((ts, seq), cols or {"v": ts}, write_ts=ts_write)


def flushed(partitions):
    """The run a flush builds from ``partition key -> sorted rows``."""
    memtable = Memtable()
    for pk, rows in partitions.items():
        memtable.append(Batch.of_rows((pk, row) for row in rows))
    return SSTable.from_memtable(memtable)


def _rows(sst, pk):
    """Every row a run stores for *pk*."""
    return BlockView(sst.block, range(*sst.offsets[pk])).to_rows()


class TestMemtable:
    def test_upsert_and_sorted_rows(self):
        mt = Memtable()
        for ts in (5.0, 1.0, 3.0):
            mt.append(Batch.of_rows([("pk", _row(ts))]))
        view, pruned = mt.slice_partition_view("pk")
        keys = view.block.clustering
        assert [r.clustering for r in view.to_rows()] == keys
        assert [key[0] for key in keys] == [1.0, 3.0, 5.0]
        assert pruned == 0

    def test_upsert_same_key_merges(self):
        mt = Memtable()
        mt.append(Batch.of_rows([("pk", Row.from_values((1.0, 0), {"a": 1},
                                               write_ts=1))]))
        mt.append(Batch.of_rows([("pk", Row.from_values((1.0, 0), {"b": 2},
                                               write_ts=2))]))
        assert mt.row_count == 2  # the log holds both writes
        (row,) = mt.slice_partition_view("pk")[0].to_rows()
        assert row.as_dict() == {"a": 1, "b": 2}
        assert mt.row_count == 3  # and the row the read merged them into

    def test_the_log_is_the_flush_trigger(self):
        """A key rewritten and read between writes grows the log by the
        write and the merge; the flush trigger counts both, so the store
        flushes and no memtable holds more than the threshold."""
        mt = Memtable()
        for ts in range(1, 50):
            mt.append(Batch.of_rows([("pk", _row(1.0, ts_write=ts, v=ts))]))
            (row,) = mt.slice_partition_view("pk")[0].to_rows()
            assert row.value("v") == ts
        assert mt.row_count == len(mt.clustering) == 1 + 2 * 48
        store = TableStore(flush_threshold=10)
        for ts in range(1, 200):
            store.write_rows(Batch.of_rows([("pk", _row(1.0, ts_write=ts,
                                                        v=ts))]))
            (row,) = store.read_partition_view("pk").to_rows()
            assert row.value("v") == ts
            assert len(store.memtable.clustering) < 10
        assert store.stats.flushes >= 199 // 10

    def test_row_count_across_partitions(self):
        mt = Memtable()
        mt.append(Batch.of_rows([("p1", _row(1.0))]))
        mt.append(Batch.of_rows([("p2", _row(1.0))]))
        mt.append(Batch.of_rows([("p2", _row(2.0))]))
        assert mt.row_count == 3
        assert len(mt) == 3

    def test_missing_partition(self):
        assert Memtable().slice_partition_view("nope") is None

    def test_sorted_keys_cache_invalidation(self):
        mt = Memtable()
        mt.append(Batch.of_rows([("pk", _row(2.0))]))
        assert mt.slice_partition_view("pk")[0].block.clustering == [(2.0, 0)]
        mt.append(Batch.of_rows([("pk", _row(1.0))]))
        assert mt.slice_partition_view("pk")[0].block.clustering == [
            (1.0, 0), (2.0, 0)]

    def test_reads_between_writes_share_one_face(self):
        mt = Memtable()
        for ts in range(10):
            mt.append(Batch.of_rows([("pk", _row(float(ts)))]))
        first, _ = mt.slice_partition_view("pk", ClusteringBound((2.0,)))
        column = first.block.column("v")
        second, pruned = mt.slice_partition_view(
            "pk", upper=ClusteringBound((5.0,), inclusive=False))
        assert second.block is first.block
        assert second.block.column("v") is column  # not transposed again
        assert [r.clustering[0] for r in second.to_rows()] == [
            0.0, 1.0, 2.0, 3.0, 4.0]
        assert pruned == 5

    def test_every_kind_of_write_drops_the_face(self):
        mt = Memtable()
        mt.append(Batch.of_rows([("pk", _row(1.0))]))
        for write in (_row(2.0),                              # new key
                      _row(1.0, ts_write=2, w=7)):            # merge
            before, _ = mt.slice_partition_view("pk")
            mt.append(Batch.of_rows([("pk", write)]))
            after, _ = mt.slice_partition_view("pk")
            assert after.block is not before.block
        assert [r.as_dict() for r in after.to_rows()] == [
            {"v": 1.0, "w": 7}, {"v": 2.0}]

    def test_a_view_taken_before_a_write_keeps_its_rows(self):
        mt = Memtable()
        mt.append(Batch.of_rows([("pk", _row(1.0))]))
        mt.append(Batch.of_rows([("pk", _row(2.0))]))
        view, _ = mt.slice_partition_view("pk")
        mt.append(Batch.of_rows([("pk", _row(0.0))]))
        mt.append(Batch.of_rows([("pk", _row(1.0, ts_write=2, v=-1))]))
        assert [(r.clustering[0], r.value("v")) for r in view.to_rows()] == [
            (1.0, 1.0), (2.0, 2.0)]
        assert view.block.column("v").values == [1.0, 2.0]
        now, _ = mt.slice_partition_view("pk")
        assert [r.value("v") for r in now.to_rows()] == [0.0, -1, 2.0]

    def test_a_flush_builds_no_row_backed_block(self, monkeypatch):
        mt = Memtable()
        for i in range(20):
            mt.append(Batch.of_rows([(f"pk{i % 3}", _row(float(i)))]))
        mt.slice_partition_view("pk0")  # a face a read left behind
        calls = []
        over_rows = ColumnBlock.over_rows

        def counted(rows, clustering=None):
            calls.append(rows)
            return over_rows(rows, clustering)

        monkeypatch.setattr(ColumnBlock, "over_rows", counted)
        sst = SSTable.from_memtable(mt)
        assert calls == []
        assert sst.row_count == 20
        assert not sst.block.row_backed


class TestASealedMemtableIsOnlyRead:
    """The seal resolves every partition — each written out of order,
    each key three times — and then a flush and reads use the sealed
    memtable at the same time, as a store's flush and its readers do.
    Under a tiny switch interval every read and the run answer the last
    writes."""

    PARTITIONS = 24

    def _memtable(self):
        mt = Memtable()
        for rnd in range(3):
            mt.append(Batch.of_rows(
                (f"pk{p}", _row(float(k), ts_write=rnd + 1,
                                v=rnd * 1000 + p * 100 + k))
                for p in range(self.PARTITIONS)
                for k in range(60, -1, -3)))
        mt.seal()
        return mt

    def test_a_flush_and_reads_agree(self):
        def want(p):
            return [(float(k), 2000 + p * 100 + k) for k in range(0, 61, 3)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _trial in range(5):
                mt = self._memtable()
                reads, runs, errors = {}, [], []

                def read(order, mt=mt, reads=reads, errors=errors):
                    try:
                        for p in order:
                            view, _ = mt.slice_partition_view(f"pk{p}")
                            reads[p] = [(r.clustering[0], r.value("v"))
                                        for r in view.to_rows()]
                    except Exception as exc:  # surfaced below
                        errors.append(exc)

                parts = list(range(self.PARTITIONS))
                threads = [threading.Thread(target=read, args=(order,))
                           for order in (parts, parts[::-1],
                                         parts[1::2] + parts[::2])]
                threads.insert(1, threading.Thread(
                    target=lambda mt=mt, runs=runs: runs.append(
                        SSTable.from_memtable(mt))))
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(10.0)
                assert not any(thread.is_alive() for thread in threads)
                assert not errors
                assert reads == {p: want(p) for p in range(self.PARTITIONS)}
                (run,) = runs
                assert {pk: [(r.clustering[0], r.value("v"))
                             for r in _rows(run, pk)] for pk in run.offsets
                        } == {f"pk{p}": want(p)
                              for p in range(self.PARTITIONS)}
        finally:
            sys.setswitchinterval(interval)


class TestSSTable:
    def _sstable(self, n=100):
        mt = Memtable()
        for i in range(n):
            mt.append(Batch.of_rows([(f"pk{i % 5}", _row(float(i)))]))
        return SSTable.from_memtable(mt)

    def test_from_memtable_counts(self):
        sst = self._sstable(100)
        assert sst.row_count == 100
        assert len(sst) == 100
        assert set(sst.partition_keys()) == {f"pk{i}" for i in range(5)}

    def test_rows_sorted_within_partition(self):
        sst = self._sstable(50)
        for pk in sst.offsets:
            keys = [r.clustering for r in _rows(sst, pk)]
            assert keys == sorted(keys)

    def test_get_absent_partition(self):
        sst = self._sstable(10)
        assert sst.slice_partition_view("definitely-absent-partition") is None
        assert sst.offsets.get("definitely-absent-partition") is None


class TestScanPartition:
    def setup_method(self):
        self.rows = [_row(float(i)) for i in range(10)]

    def test_no_bounds(self):
        assert scan_partition(self.rows) == self.rows

    def test_lower_inclusive(self):
        out = scan_partition(self.rows, lower=ClusteringBound((5.0,)))
        assert [r.clustering[0] for r in out] == [5.0, 6.0, 7.0, 8.0, 9.0]

    def test_lower_exclusive(self):
        out = scan_partition(
            self.rows, lower=ClusteringBound((5.0,), inclusive=False)
        )
        assert out[0].clustering[0] == 6.0

    def test_upper_exclusive(self):
        out = scan_partition(
            self.rows, upper=ClusteringBound((3.0,), inclusive=False)
        )
        assert [r.clustering[0] for r in out] == [0.0, 1.0, 2.0]

    def test_window(self):
        out = scan_partition(
            self.rows,
            lower=ClusteringBound((2.0,)),
            upper=ClusteringBound((4.0,)),
        )
        assert [r.clustering[0] for r in out] == [2.0, 3.0, 4.0]

    def test_reverse(self):
        out = scan_partition(self.rows, reverse=True)
        assert [r.clustering[0] for r in out] == [float(i) for i in range(9, -1, -1)]

    def test_empty_rows(self):
        assert scan_partition([]) == []

    def test_prefix_upper_bound_with_seq(self):
        rows = [_row(1.0, seq=s) for s in range(3)] + [_row(2.0)]
        out = scan_partition(rows, upper=ClusteringBound((1.0,)))
        assert len(out) == 3  # all seq values under ts prefix 1.0


class TestMergeSSTables:
    def test_duplicates_reconciled_by_timestamp(self):
        mt1, mt2 = Memtable(), Memtable()
        mt1.append(Batch.of_rows([("pk", Row.from_values((1.0, 0), {"v": "old"},
                                                write_ts=1))]))
        mt2.append(Batch.of_rows([("pk", Row.from_values((1.0, 0), {"v": "new"},
                                                write_ts=2))]))
        merged = merge_sstables(
            [SSTable.from_memtable(mt1), SSTable.from_memtable(mt2)]
        )
        assert _rows(merged, "pk")[0].value("v") == "new"

    def test_union_of_partitions(self):
        mt1, mt2 = Memtable(), Memtable()
        mt1.append(Batch.of_rows([("a", _row(1.0))]))
        mt2.append(Batch.of_rows([("b", _row(1.0))]))
        merged = merge_sstables(
            [SSTable.from_memtable(mt1), SSTable.from_memtable(mt2)]
        )
        assert set(merged.partition_keys()) == {"a", "b"}

    def test_merge_order_independent(self):
        mt1, mt2 = Memtable(), Memtable()
        mt1.append(Batch.of_rows([("pk", Row.from_values((1.0, 0), {"v": "a"},
                                                write_ts=9))]))
        mt2.append(Batch.of_rows([("pk", Row.from_values((1.0, 0), {"v": "b"},
                                                write_ts=3))]))
        s1, s2 = SSTable.from_memtable(mt1), SSTable.from_memtable(mt2)
        assert (
            _rows(merge_sstables([s1, s2]), "pk")[0].value("v")
            == _rows(merge_sstables([s2, s1]), "pk")[0].value("v")
            == "a"
        )
