"""The concurrent DAG scheduler: overlap without wrong answers.

Property under test: running jobs concurrently changes *when* work
runs, never *what* it computes — concurrent jobs agree with the same
jobs run one at a time, shared shuffle lineage materializes
exactly once, failures propagate to every sharer and un-stick for
retries, and shuffle outputs are freed when their RDD dies.
"""

import gc
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import obs
from repro.sparklet import SparkletContext


def _word_count(ctx, seed):
    return (ctx.parallelize([(i * seed) % 97 for i in range(500)], 4)
            .map(lambda x: (x % 10, 1))
            .reduceByKey(lambda a, b: a + b, 3)
            .collect())


class TestConcurrentJobs:
    def test_concurrent_jobs_match_serialized_baseline(self):
        with SparkletContext(4) as one_at_a_time, \
                SparkletContext(4) as conc:
            expected = [sorted(_word_count(one_at_a_time, s))
                        for s in range(1, 7)]
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(_word_count, conc, s)
                           for s in range(1, 7)]
                got = [sorted(f.result()) for f in futures]
            assert got == expected

    def test_jobs_actually_overlap(self):
        """Two sleeping jobs on a concurrent context take ~1x the sleep,
        and the overlap counter notices."""
        overlapped = obs.get_registry().counter(
            "sparklet.scheduler.overlapped_jobs")
        before = overlapped.value
        with SparkletContext(4) as sc:
            def job():
                return (sc.parallelize(range(8), 2)
                        .mapPartitions(
                            lambda it: (time.sleep(0.05), list(it))[1])
                        .collect())

            t0 = time.perf_counter()
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(job) for _ in range(2)]
                for f in futures:
                    f.result()
            elapsed = time.perf_counter() - t0
        # Serialized would be >= 0.2s (2 jobs x 2 partitions x 50ms / 2
        # pool threads); overlapped fits well under that.
        assert elapsed < 0.19, elapsed
        assert overlapped.value > before

    def test_shared_lineage_materializes_exactly_once(self):
        with SparkletContext(4) as sc:
            shuffled = (sc.parallelize(range(1000), 4)
                        .map(lambda x: (x % 20, x))
                        .reduceByKey(lambda a, b: a + b, 4))
            before = sc.metrics.shuffles_materialized
            barrier = threading.Barrier(8)

            def action():
                barrier.wait()  # maximize racing on the claim
                return shuffled.map(lambda kv: kv[1]).reduce(
                    lambda a, b: a + b)

            with ThreadPoolExecutor(max_workers=8) as pool:
                results = [f.result()
                           for f in [pool.submit(action) for _ in range(8)]]
            assert len(set(results)) == 1
            assert sc.metrics.shuffles_materialized - before == 1
            assert sc.metrics.shuffles_reused >= 7

    def test_diamond_join_no_deadlock_under_concurrency(self):
        """Both reduce sides of a join, raced by several driver threads."""
        with SparkletContext(4) as one_at_a_time, \
                SparkletContext(4) as sc:
            def diamond(ctx):
                base = ctx.parallelize(range(400), 2)
                left = (base.map(lambda x: (x % 8, x))
                        .reduceByKey(lambda a, b: a + b, 2))
                right = (base.map(lambda x: (x % 8, 1))
                         .reduceByKey(lambda a, b: a + b, 2))
                return sorted(left.join(right, 2).collect())

            expected = diamond(one_at_a_time)
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(diamond, sc) for _ in range(4)]
                results = [f.result(timeout=30) for f in futures]
            assert all(r == expected for r in results)


class TestStageThreadsKeepTheTrace:
    def test_two_shuffle_job_is_one_connected_tree(self):
        """A job over >= 2 shuffles runs every map stage under its job:
        their spans stay in the job's trace."""
        tracer = obs.get_tracer()
        with SparkletContext(2) as ctx, tracer.root_span("test.root"):
            left = ctx.parallelize([(i % 3, i) for i in range(12)], 2)
            right = ctx.parallelize([(i % 3, -i) for i in range(6)], 2)
            joined = (left.reduceByKey(lambda a, b: a + b, 2)
                      .union(right.reduceByKey(lambda a, b: a + b, 2)))
            assert sorted(joined.collect()) == [
                (0, -3), (0, 18), (1, -5), (1, 22), (2, -7), (2, 26)]
        trace = tracer.last_trace()
        (job,) = trace["children"]
        assert job["name"] == "sparklet.job"
        stages = job["children"]
        assert [s["name"] for s in stages] == ["sparklet.stage"] * 3
        assert sorted(s["attrs"]["kind"] for s in stages) == [
            "result", "shuffle_map", "shuffle_map"]
        for stage in stages:
            assert stage["parent_id"] == job["span_id"]
            assert [t["name"] for t in stage["children"]] == (
                ["sparklet.task"] * stage["attrs"]["tasks"])
        # job + 3 stages + (2 + 2 + 4) tasks under one root
        assert trace["spans"] == 1 + 1 + 3 + 8


class TestShuffleLifecycle:
    def test_outputs_freed_when_rdd_dies(self):
        """The outputs live on the ShuffledRDD and the scheduler keeps no
        reference to it, so they go when the RDD does."""
        with SparkletContext(4) as sc:
            shuffled = (sc.parallelize(range(200), 4)
                        .map(lambda x: (x % 5, x))
                        .reduceByKey(lambda a, b: a + b, 2))
            shuffled.collect()
            assert shuffled.outputs is not None
            ref = weakref.ref(shuffled)
            del shuffled
            gc.collect()
            assert ref() is None

    def test_reuse_while_rdd_alive_then_gauge_steps_down(self):
        with SparkletContext(4) as sc:
            shuffled = (sc.parallelize(range(300), 4)
                        .map(lambda x: (x % 6, 1))
                        .reduceByKey(lambda a, b: a + b, 2))
            first = sorted(shuffled.collect())
            materialized = sc.metrics.shuffles_materialized
            reused = sc.metrics.shuffles_reused
            second = sorted(shuffled.collect())
            assert first == second
            # Second action reused the outputs: no new map stage ran.
            assert sc.metrics.shuffles_materialized == materialized
            assert sc.metrics.shuffles_reused == reused + 1


class TestFailurePropagation:
    def test_error_reaches_every_concurrent_sharer(self):
        with SparkletContext(4) as sc:
            def boom(x):
                raise ValueError("map stage failure")

            shuffled = (sc.parallelize(range(50), 2)
                        .map(boom)
                        .map(lambda x: (x, 1))
                        .reduceByKey(lambda a, b: a + b, 2))
            barrier = threading.Barrier(4)

            def action():
                barrier.wait()
                shuffled.collect()

            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(action) for _ in range(4)]
                for f in futures:
                    with pytest.raises(ValueError, match="map stage failure"):
                        f.result(timeout=30)

    def test_failed_shuffle_unsticks_for_retry(self):
        """A shuffle whose map stage failed must not poison later jobs:
        its outputs stay unset so a retry recomputes."""
        with SparkletContext(4) as sc:
            fail = {"on": True}

            def flaky(x):
                if fail["on"]:
                    raise RuntimeError("transient")
                return (x % 4, x)

            shuffled = (sc.parallelize(range(80), 2)
                        .map(flaky)
                        .reduceByKey(lambda a, b: a + b, 2))
            with pytest.raises(RuntimeError, match="transient"):
                shuffled.collect()
            fail["on"] = False
            result = dict(shuffled.collect())
            assert result == {k: sum(x for x in range(80) if x % 4 == k)
                              for k in range(4)}
