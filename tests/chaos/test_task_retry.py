"""Sparklet task retry + executor blacklisting under injected faults."""

import operator

import pytest

from repro.chaos import FaultGate, FaultPlan
from repro.chaos.gate import FaultInjected
from repro.chaos.plan import TaskFaults
from repro.sparklet import SparkletContext


def _armed_context(plan, **kwargs):
    sc = SparkletContext(4, **kwargs)
    FaultGate(plan).arm(pool=sc.pool)
    return sc


class TestTaskRetry:
    def test_failed_tasks_rerun_on_other_workers(self):
        plan = FaultPlan(seed=1, tasks=TaskFaults(
            fail_rate=1.0, workers=("worker01",)))
        with _armed_context(plan, max_task_retries=3) as sc:
            assert sc.parallelize(range(40), 8).map(
                lambda x: x * 2).collect() == [x * 2 for x in range(40)]

    def test_no_retries_means_failfast(self):
        plan = FaultPlan(seed=1, tasks=TaskFaults(
            fail_rate=1.0, workers=("worker01",)))
        with _armed_context(plan, max_task_retries=0) as sc:
            with pytest.raises(FaultInjected):
                sc.parallelize(range(40), 8).map(lambda x: x * 2).collect()

    def test_retries_exhaust_when_every_worker_fails(self):
        plan = FaultPlan(seed=1, tasks=TaskFaults(fail_rate=1.0))
        with _armed_context(plan, max_task_retries=2,
                            blacklist_after=100) as sc:
            with pytest.raises(FaultInjected):
                sc.parallelize(range(8), 4).map(lambda x: x).collect()

    def test_partial_failures_still_yield_ordered_results(self):
        # fail_rate < 1: only some (seed-deterministic) attempts fail;
        # results must come back complete and in partition order.
        plan = FaultPlan(seed=5, tasks=TaskFaults(fail_rate=0.4))
        with _armed_context(plan, max_task_retries=5,
                            blacklist_after=100) as sc:
            data = sc.parallelize(range(100), 10).map(
                lambda x: x + 1).collect()
        assert data == [x + 1 for x in range(100)]


class TestBlacklist:
    def test_flaky_worker_is_blacklisted_and_stops_failing_jobs(self):
        plan = FaultPlan(seed=1, tasks=TaskFaults(
            fail_rate=1.0, workers=("worker01",)))
        with _armed_context(plan, max_task_retries=3,
                            blacklist_after=2) as sc:
            sc.parallelize(range(40), 8).reduce(operator.add)
            assert "worker01" in sc.pool.blacklisted
            assert sc.pool.worker_failures["worker01"] >= 2
            # Once blacklisted, no task lands on worker01: the next job
            # runs clean, with no further injected failures.
            before = dict(sc.pool.worker_failures)
            assert (sc.parallelize(range(40), 8).reduce(operator.add)
                    == sum(range(40)))
            assert sc.pool.worker_failures == before

    def test_at_least_one_worker_stays_eligible(self):
        # Every worker is flaky; blacklisting must stop short of
        # emptying the roster (fail_rate=0 would deadlock otherwise).
        sc = SparkletContext(3, max_task_retries=0, blacklist_after=1)
        try:
            for worker in list(sc.pool.workers):
                sc.pool._note_failure(worker)
            assert len(sc.pool.blacklisted) == len(sc.pool.workers) - 1
            survivor = set(sc.pool.workers) - sc.pool.blacklisted
            assert sc.pool.assign(None) in survivor
        finally:
            sc.stop()

    def test_assign_prefers_non_blacklisted(self):
        sc = SparkletContext(4)
        try:
            sc.pool.blacklisted.add("worker02")
            picks = {sc.pool.assign("worker02") for _ in range(8)}
            assert "worker02" not in picks
        finally:
            sc.stop()
