"""Unit tests for WorkerPool task placement and fail-fast execution."""

import contextvars
import threading
import time

import pytest

from repro import obs
from repro.chaos import FaultGate, FaultPlan
from repro.chaos.gate import FaultInjected
from repro.chaos.plan import TaskFaults
from repro.sparklet import SparkletContext
from repro.sparklet.executor import WorkerPool


def _tasks(fns):
    return [(fn, None, i) for i, fn in enumerate(fns)]


class TestPlacement:
    def test_locality_honours_preference(self):
        pool = WorkerPool(["w0", "w1", "w2"], placement="locality")
        try:
            assert pool.assign("w1") == "w1"
            # Unknown preference falls back to round-robin over the pool.
            assert pool.assign("elsewhere") in pool.workers
        finally:
            pool.shutdown()

    def test_round_robin_cycles(self):
        pool = WorkerPool(["w0", "w1"], placement="round_robin")
        try:
            assert [pool.assign(None) for _ in range(4)] == [
                "w0", "w1", "w0", "w1"]
        finally:
            pool.shutdown()


class TestRunTasks:
    def test_results_in_task_order(self):
        pool = WorkerPool(["w0", "w1"], max_threads=4)
        try:
            results, contexts = pool.run_tasks(
                _tasks([lambda tc, i=i: i * 10 for i in range(8)]))
            assert results == [i * 10 for i in range(8)]
            assert [tc.partition for tc in contexts] == list(range(8))
        finally:
            pool.shutdown()

    def test_failure_reraises_original_exception(self):
        pool = WorkerPool(["w0"], max_threads=2)

        def boom(tc):
            raise ValueError("task exploded")

        try:
            with pytest.raises(ValueError, match="task exploded"):
                pool.run_tasks(_tasks([lambda tc: 1, boom, lambda tc: 3]))
        finally:
            pool.shutdown()

    def test_early_failure_cancels_queued_tasks(self):
        """With one thread, a failure in the first task must cancel the
        queued tail instead of draining it."""
        pool = WorkerPool(["w0"], max_threads=1)
        ran = []

        def boom(tc):
            raise RuntimeError("first task fails")

        def record(i):
            def fn(tc):
                ran.append(i)
            return fn

        try:
            with pytest.raises(RuntimeError, match="first task fails"):
                pool.run_tasks(_tasks([boom] + [record(i) for i in range(20)]))
            # The single-threaded pool may have started at most one
            # follow-up task before the cancellation landed.
            assert len(ran) <= 1
        finally:
            pool.shutdown()

    def test_failure_reraises_promptly(self):
        """run_tasks must not wait for slow siblings once a task failed."""
        pool = WorkerPool(["w0"], max_threads=2)
        release = threading.Event()

        def slow(tc):
            release.wait(timeout=10.0)

        def boom(tc):
            time.sleep(0.01)
            raise RuntimeError("fast failure")

        try:
            start = time.perf_counter()
            with pytest.raises(RuntimeError, match="fast failure"):
                pool.run_tasks(_tasks([slow, boom]))
            elapsed = time.perf_counter() - start
            assert elapsed < 5.0  # did not drain the 10 s sibling
        finally:
            release.set()
            pool.shutdown()


@pytest.mark.parametrize("n", [1, 3])
class TestOneOrManyTasks:
    """Retry, blacklist, fail-fast and the chaos gate behave the same
    whether the stage's tasks run on pool threads (n > 1) or the single
    task runs on the submitting thread (n == 1)."""

    @staticmethod
    def _flaky(failures):
        """Task failing its first *failures* attempts; records each
        attempt's worker."""
        seen = []

        def fn(tc):
            seen.append(tc.worker)
            if len(seen) <= failures:
                raise RuntimeError(f"attempt {len(seen)} fails")
            return "ok"

        return fn, seen

    def test_retry_lands_on_an_untried_worker(self, n):
        pool = WorkerPool(["w0", "w1", "w2"], max_task_retries=2,
                          blacklist_after=0)
        fn, seen = self._flaky(2)
        retries = obs.get_registry().counter("sparklet.task_retries")
        before = retries.value
        try:
            results, contexts = pool.run_tasks(
                _tasks([fn] + [lambda tc: "ok"] * (n - 1)))
        finally:
            pool.shutdown()
        assert results == ["ok"] * n
        assert len(seen) == len(set(seen)) == 3
        assert contexts[0].worker == seen[-1]
        assert retries.value - before == 2
        assert sum(pool.worker_failures.values()) == 2

    def test_exhausted_retries_reraise_the_last_failure(self, n):
        pool = WorkerPool(["w0", "w1"], max_task_retries=1,
                          blacklist_after=0)
        fn, seen = self._flaky(5)
        try:
            with pytest.raises(RuntimeError, match="attempt 2 fails"):
                pool.run_tasks(_tasks([fn] + [lambda tc: "ok"] * (n - 1)))
        finally:
            pool.shutdown()
        assert len(seen) == 2

    def test_failing_worker_is_blacklisted(self, n):
        pool = WorkerPool(["w0", "w1", "w2"], placement="locality",
                          max_task_retries=1, blacklist_after=1)

        def fn(tc):
            if tc.worker == "w0":
                raise RuntimeError("w0 is broken")
            return tc.worker

        try:
            results, _ = pool.run_tasks([(fn, "w0", i) for i in range(n)])
            assert "w0" not in results
            assert pool.blacklisted == {"w0"}
            assert pool.assign("w0") != "w0"
        finally:
            pool.shutdown()

    def test_chaos_gate_fault_is_retried(self, n):
        pool = WorkerPool(["w0", "w1"], placement="locality",
                          max_task_retries=1, blacklist_after=0)
        gate = FaultGate(FaultPlan(seed=1, tasks=TaskFaults(
            fail_rate=1.0, workers=("w0",))))
        gate.arm(pool=pool)
        try:
            results, contexts = pool.run_tasks(
                [(lambda tc: tc.partition, "w0", i) for i in range(n)])
            assert results == list(range(n))
            assert {tc.worker for tc in contexts} == {"w1"}
            assert pool.worker_failures == {"w0": n}
        finally:
            pool.shutdown()

    def test_chaos_gate_fault_without_retries_fails_fast(self, n):
        pool = WorkerPool(["w0"])
        FaultGate(FaultPlan(seed=1, tasks=TaskFaults(fail_rate=1.0))).arm(
            pool=pool)
        try:
            with pytest.raises(FaultInjected):
                pool.run_tasks(_tasks([lambda tc: 1] * n))
        finally:
            pool.shutdown()

    def test_placement_counters_advance_once_per_task(self, n):
        pool = WorkerPool(["w0", "w1", "w2", "w3"], placement="round_robin")
        try:
            _, contexts = pool.run_tasks(_tasks([lambda tc: None] * n))
            assert [tc.worker for tc in contexts] == pool.workers[:n]
            assert pool.assign(None) == pool.workers[n]
        finally:
            pool.shutdown()


class TestSingleTaskStage:
    def test_one_task_runs_on_the_calling_thread(self):
        pool = WorkerPool(["w0", "w1"])
        try:
            (one,), _ = pool.run_tasks(
                _tasks([lambda tc: threading.get_ident()]))
            many, _ = pool.run_tasks(
                _tasks([lambda tc: threading.get_ident()] * 3))
        finally:
            pool.shutdown()
        assert one == threading.get_ident()
        assert threading.get_ident() not in many

    def test_task_span_is_a_child_of_the_stage_span(self):
        tracer = obs.get_tracer()
        with SparkletContext(2) as sc, tracer.root_span("test.root"):
            assert sc.parallelize([1, 2, 3], 1).map(
                lambda x: x + 1).collect() == [2, 3, 4]
        (job,) = tracer.last_trace()["children"]
        (stage,) = job["children"]
        (task,) = stage["children"]
        assert (job["name"], stage["name"], task["name"]) == (
            "sparklet.job", "sparklet.stage", "sparklet.task")
        assert task["parent_id"] == stage["span_id"]

    def test_context_changes_do_not_leak_out_of_the_task(self):
        var = contextvars.ContextVar("leak", default="outer")
        pool = WorkerPool(["w0"])

        def fn(tc):
            var.set("inner")
            return var.get()

        try:
            assert pool.run_tasks(_tasks([fn]))[0] == ["inner"]
        finally:
            pool.shutdown()
        assert var.get() == "outer"
