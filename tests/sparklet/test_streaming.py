"""Tests for the micro-batch streaming layer."""

import pytest

from repro.sparklet import SparkletContext
from repro.sparklet.streaming import StreamingContext


@pytest.fixture
def sc():
    ctx = SparkletContext(2)
    yield ctx
    ctx.stop()


def _push_all(stream, stamped):
    for record, ts in stamped:
        stream.push(record, ts)


class TestBatching:
    def test_records_land_in_their_batch(self, sc):
        ssc = StreamingContext(sc, batch_interval=1.0)
        inp = ssc.input_stream()
        out = []
        inp.collect_batches(out)
        inp.push("a", 0.2)
        inp.push("b", 0.9)
        inp.push("c", 1.1)
        ssc.advance(2)
        assert out == [["a", "b"], ["c"]]

    def test_empty_batches_produce_no_output(self, sc):
        ssc = StreamingContext(sc, batch_interval=1.0)
        inp = ssc.input_stream()
        out = []
        inp.collect_batches(out)
        inp.push("x", 2.5)
        ssc.advance(3)
        assert out == [["x"]]
        assert ssc.batches_run == 3

    def test_custom_interval(self, sc):
        ssc = StreamingContext(sc, batch_interval=0.5)
        inp = ssc.input_stream()
        out = []
        inp.collect_batches(out)
        inp.push("a", 0.1)
        inp.push("b", 0.6)
        ssc.advance(2)
        assert out == [["a"], ["b"]]

    def test_invalid_interval(self, sc):
        with pytest.raises(ValueError):
            StreamingContext(sc, batch_interval=0)

    def test_late_data_folded_forward(self, sc):
        ssc = StreamingContext(sc, batch_interval=1.0)
        inp = ssc.input_stream()
        out = []
        inp.collect_batches(out)
        ssc.advance(2)  # batches 0,1 already gone
        inp.push("late", 0.5)  # timestamp in batch 0
        ssc.advance(1)
        assert out == [["late"]]

    def test_advance_to(self, sc):
        ssc = StreamingContext(sc, batch_interval=1.0)
        inp = ssc.input_stream()
        out = []
        inp.collect_batches(out)
        _push_all(inp, [("a", 0.1), ("b", 1.1), ("c", 2.1)])
        ssc.advance_to(2.0)  # completes batches 0 and 1 only
        assert out == [["a"], ["b"]]

    def test_queue_stream(self, sc):
        ssc = StreamingContext(sc, batch_interval=1.0)
        inp = ssc.queue_stream([[1, 2], [], [3]])
        out = []
        inp.collect_batches(out)
        ssc.advance(3)
        assert out == [[1, 2], [3]]


class TestTransformations:
    def test_map_filter_chain(self, sc):
        ssc = StreamingContext(sc)
        inp = ssc.input_stream()
        out = []
        inp.map(lambda x: x * 2).transform(
            lambda rdd: rdd.filter(lambda x: x > 2)).collect_batches(out)
        _push_all(inp, [(1, 0.1), (2, 0.2), (3, 0.3)])
        ssc.advance(1)
        assert out == [[4, 6]]

    def test_reduce_by_key_per_batch(self, sc):
        ssc = StreamingContext(sc)
        inp = ssc.input_stream()
        out = []
        inp.map(lambda e: (e, 1)).reduceByKey(lambda a, b: a + b).collect_batches(out)
        _push_all(inp, [("a", 0.1), ("a", 0.2), ("b", 0.3), ("a", 1.5)])
        ssc.advance(2)
        assert sorted(out[0]) == [("a", 2), ("b", 1)]
        assert out[1] == [("a", 1)]

    def test_transform_arbitrary(self, sc):
        ssc = StreamingContext(sc)
        inp = ssc.input_stream()
        out = []
        inp.transform(
            lambda rdd: rdd.mapPartitions(sorted)).collect_batches(out)
        _push_all(inp, [(3, 0.1), (1, 0.2), (2, 0.3)])
        ssc.advance(1)
        assert out == [[1, 2, 3]]


class TestWindows:
    def test_sliding_window_union(self, sc):
        ssc = StreamingContext(sc)
        inp = ssc.input_stream()
        out = []
        inp.window(2).collect_batches(out)
        _push_all(inp, [("a", 0.5), ("b", 1.5), ("c", 2.5)])
        ssc.advance(3)
        assert out[0] == ["a"]
        assert sorted(out[1]) == ["a", "b"]
        assert sorted(out[2]) == ["b", "c"]

    def test_window_with_slide(self, sc):
        ssc = StreamingContext(sc)
        inp = ssc.input_stream()
        out = []
        inp.window(2, slide_batches=2).collect_batches(out)
        _push_all(inp, [("a", 0.5), ("b", 1.5), ("c", 2.5), ("d", 3.5)])
        ssc.advance(4)
        # Fires after batches 1 and 3 only.
        assert len(out) == 2
        assert sorted(out[0]) == ["a", "b"]
        assert sorted(out[1]) == ["c", "d"]

    def test_reduce_by_key_and_window(self, sc):
        ssc = StreamingContext(sc)
        inp = ssc.input_stream()
        out = []
        inp.map(lambda e: (e, 1)).window(3).reduceByKey(
            lambda a, b: a + b
        ).collect_batches(out)
        _push_all(inp, [("a", 0.1), ("a", 1.1), ("a", 2.1), ("a", 3.1)])
        ssc.advance(4)
        assert out[2] == [("a", 3)]
        assert out[3] == [("a", 3)]  # first batch fell out of the window

    def test_invalid_window(self, sc):
        ssc = StreamingContext(sc)
        inp = ssc.input_stream()
        with pytest.raises(ValueError):
            inp.window(0)


class TestPushThreadSafety:
    def test_receiver_threads_hammer_push_during_batches(self, sc):
        """Receivers push() concurrently with the driver's batch loop;
        every record must come out exactly once (clamped forward if its
        batch already sealed — never lost, never duplicated)."""
        import threading

        ssc = StreamingContext(sc, batch_interval=1.0)
        inp = ssc.input_stream()
        out = []
        inp.collect_batches(out)

        receivers, per_receiver = 6, 200
        start = threading.Barrier(receivers + 1)

        def receive(rid):
            start.wait()
            for i in range(per_receiver):
                # Timestamps spread over past and future batches to
                # exercise both the clamp and the normal path.
                inp.push((rid, i), timestamp=float(i % 12))

        threads = [threading.Thread(target=receive, args=(r,))
                   for r in range(receivers)]
        for t in threads:
            t.start()
        start.wait()
        # Drive batches while receivers are still pushing.
        for _ in range(12):
            ssc.run_batch()
        for t in threads:
            t.join()
        # Drain whatever clamped past the already-run batches.
        for _ in range(4):
            ssc.run_batch()

        got = [record for batch in out for record in batch]
        assert len(got) == receivers * per_receiver
        assert (sorted(got)
                == sorted((r, i) for r in range(receivers)
                          for i in range(per_receiver)))

    def test_receivers_push_while_the_clock_jumps(self, sc):
        """advance_to() jumps over empty stretches under the same clock
        lock push() clamps under: a record pushed mid-jump lands in a
        bucket the clock has not passed — never lost, never duplicated —
        and the clock never runs ahead of a buffered bucket."""
        import sys
        import threading

        ssc = StreamingContext(sc, batch_interval=1.0)
        inp = ssc.input_stream()
        out = []
        inp.collect_batches(out)

        receivers, per_receiver = 6, 150
        start = threading.Barrier(receivers + 1)

        def receive(rid):
            start.wait()
            for i in range(per_receiver):
                # Sparse stamps: gaps of ~1000 empty batches to jump.
                inp.push((rid, i), timestamp=1_000.0 * i + rid)

        threads = [threading.Thread(target=receive, args=(r,))
                   for r in range(receivers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            start.wait()
            horizon = 0.0
            while any(t.is_alive() for t in threads):
                horizon += 7_000.0
                ssc.advance_to(horizon)
            for t in threads:
                t.join(timeout=30.0)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        ssc.advance_to(max(horizon, 1_000.0 * per_receiver) + 10.0)
        ssc.advance(1)   # late records clamped into the open batch

        got = [record for batch in out for record in batch]
        assert sorted(got) == sorted((r, i) for r in range(receivers)
                                     for i in range(per_receiver))
        assert not inp._buckets
        assert ssc.batches_run == ssc._next_batch

    def test_late_push_lands_in_next_unprocessed_batch(self, sc):
        ssc = StreamingContext(sc, batch_interval=1.0)
        inp = ssc.input_stream()
        out = []
        inp.collect_batches(out)
        ssc.advance(3)  # batches 0-2 already sealed
        inp.push("late", timestamp=0.5)
        ssc.advance(1)
        assert out == [["late"]]


class TestBlockPerBatch:
    """One receiver block per interval: a batch RDD is one partition and
    the keyed shuffles are as wide as the batch they receive."""

    def _widths(self, stream):
        widths = []
        stream.foreachRDD(lambda rdd: widths.append(rdd.num_partitions))
        return widths

    def test_input_and_reduced_batches_are_one_partition(self, sc):
        ssc = StreamingContext(sc)
        inp = ssc.input_stream()
        raw = self._widths(inp)
        reduced = self._widths(
            inp.map(lambda e: (e, 1)).reduceByKey(lambda a, b: a + b))
        _push_all(inp, [(i % 5, 0.01 * i) for i in range(50)])
        ssc.advance(1)
        assert raw == reduced == [1]

    def test_window_union_is_as_wide_as_its_batches(self, sc):
        ssc = StreamingContext(sc)
        inp = ssc.input_stream()
        widths = self._widths(
            inp.map(lambda e: (e, 1)).window(3).reduceByKey(
                lambda a, b: a + b))
        _push_all(inp, [("a", 0.5), ("a", 1.5), ("a", 2.5), ("a", 4.5)])
        ssc.advance(5)
        assert widths == [1, 2, 3, 2, 2]   # batch 3 is empty

    def test_a_window_is_one_map_task_and_one_result_task(self, sc):
        ssc = StreamingContext(sc)
        inp = ssc.input_stream()
        out = []
        inp.map(lambda e: (e % 7, 1)).reduceByKey(
            lambda a, b: a + b).collect_batches(out)
        _push_all(inp, [(i, 0.001 * i) for i in range(100)])
        sc.reset_metrics()
        ssc.advance(1)
        assert sorted(out[0]) == [(k, len(range(k, 100, 7))) for k in range(7)]
        assert (sc.metrics.jobs, sc.metrics.stages, sc.metrics.tasks) == (
            1, 2, 2)


class TestClockJump:
    @staticmethod
    def _count_batches(ssc):
        calls = []
        run_batch = ssc.run_batch

        def counted():
            calls.append(ssc.batches_run)
            return run_batch()

        ssc.run_batch = counted
        return calls

    def test_empty_day_is_jumped_not_walked(self, sc):
        ssc = StreamingContext(sc)
        inp = ssc.input_stream()
        out = []
        inp.collect_batches(out)
        calls = self._count_batches(ssc)
        inp.push("x", 86_400.5)
        ssc.advance_to(86_402.0)
        assert out == [["x"]]
        assert ssc.batches_run == 86_402
        assert calls == [86_400]   # one batch entered, the one with data

    def test_jump_stops_at_every_buffered_bucket(self, sc):
        ssc = StreamingContext(sc)
        inp = ssc.input_stream()
        out = []
        inp.foreachRDD(lambda rdd: out.append((ssc.batches_run,
                                               rdd.collect())))
        calls = self._count_batches(ssc)
        _push_all(inp, [("c", 5_000.2), ("a", 10.5), ("b", 10.7)])
        ssc.advance_to(1e6)
        assert out == [(10, ["a", "b"]), (5_000, ["c"])]
        assert calls == [10, 5_000]
        assert ssc.batches_run == 1_000_000

    def test_window_keeps_stepping_while_an_rdd_is_in_reach(self, sc):
        ssc = StreamingContext(sc)
        inp = ssc.input_stream()
        out = []
        win = inp.window(3)
        win.foreachRDD(lambda rdd: out.append((ssc.batches_run,
                                               rdd.collect())))
        calls = self._count_batches(ssc)
        inp.push("a", 100.5)
        ssc.advance_to(10_000.0)
        assert out == [(100, ["a"]), (101, ["a"]), (102, ["a"])]
        # The union minted at 102 is itself in reach (of a window over
        # this window) for two more batches; then the clock jumps.
        assert calls == [100, 101, 102, 103, 104]
        assert ssc.batches_run == 10_000

    def test_push_after_a_jump_is_late_data(self, sc):
        ssc = StreamingContext(sc)
        inp = ssc.input_stream()
        out = []
        inp.collect_batches(out)
        ssc.advance_to(1_000.0)
        inp.push("late", 12.0)
        ssc.advance(1)
        assert out == [["late"]]
        assert ssc.batches_run == 1_001
