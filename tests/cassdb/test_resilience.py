"""Resilience layer: RetryPolicy / CircuitBreaker units and the
hardened coordinator's retry, breaker and speculative-read behaviour.
"""

import random
import time

import pytest

from repro import obs
from repro.cassdb import Cluster, Consistency, RetryPolicy, TableSchema
from repro.cassdb.errors import UnavailableError
from repro.cassdb.resilience import BreakerState, CircuitBreaker
from repro.chaos import FaultGate, FaultPlan, FlapSpec
from repro.chaos.plan import LatencySpec

SCHEMA = TableSchema("t", partition_key=("pk",), clustering_key=("ck",))

FAST = dict(base_delay_ms=0.0, max_delay_ms=0.0, jitter=0.0)


def _counter(name):
    return obs.get_registry().counter(name)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)

    @pytest.mark.parametrize("failures", [0, -1])
    def test_breakers_cannot_be_switched_off(self, failures):
        # A threshold of 0 would quietly mean "open on the first failure".
        with pytest.raises(ValueError):
            RetryPolicy(breaker_failures=failures)

    def test_backoff_curve_without_jitter(self):
        p = RetryPolicy(base_delay_ms=2.0, max_delay_ms=10.0, jitter=0.0)
        rng = random.Random(0)
        assert p.delay_ms(1, rng) == 2.0
        assert p.delay_ms(2, rng) == 4.0
        assert p.delay_ms(3, rng) == 8.0
        assert p.delay_ms(4, rng) == 10.0  # capped
        assert p.delay_ms(9, rng) == 10.0

    def test_jitter_bounds_and_reproducibility(self):
        p = RetryPolicy(base_delay_ms=8.0, max_delay_ms=8.0, jitter=0.5)
        delays = [p.delay_ms(1, random.Random(42)) for _ in range(3)]
        assert delays[0] == delays[1] == delays[2]  # seeded => reproducible
        for _ in range(50):
            d = p.delay_ms(1, random.Random())
            assert 6.0 <= d <= 10.0  # nominal 8 +/- 25%


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        b = CircuitBreaker(failure_threshold=3, clock=FakeClock())
        assert b.allow()
        assert b.record_failure() is False
        assert b.record_failure() is False
        assert b.record_failure() is True  # the opening transition
        assert b.state == BreakerState.OPEN
        assert b.opens == 1
        assert not b.allow()

    def test_success_resets_the_failure_streak(self):
        b = CircuitBreaker(failure_threshold=2, clock=FakeClock())
        b.record_failure()
        b.record_success()
        assert b.record_failure() is False
        assert b.state == BreakerState.CLOSED

    def test_cooldown_yields_exactly_one_probe(self):
        clock = FakeClock()
        b = CircuitBreaker(failure_threshold=1, cooldown_s=5.0, clock=clock)
        assert b.record_failure() is True
        clock.t = 4.9
        assert not b.allow()
        clock.t = 5.0
        assert b.allow()  # the HALF_OPEN probe
        assert b.state == BreakerState.HALF_OPEN
        assert not b.allow()  # no second probe while one is in flight

    def test_probe_success_closes(self):
        clock = FakeClock()
        b = CircuitBreaker(failure_threshold=1, cooldown_s=1.0, clock=clock)
        b.record_failure()
        clock.t = 1.0
        assert b.allow()
        b.record_success()
        assert b.state == BreakerState.CLOSED
        assert b.allow()

    def test_probe_failure_reopens_and_restarts_cooldown(self):
        clock = FakeClock()
        b = CircuitBreaker(failure_threshold=3, cooldown_s=1.0, clock=clock)
        for _ in range(3):
            b.record_failure()
        clock.t = 1.0
        assert b.allow()
        assert b.record_failure() is True  # HALF_OPEN probe failed
        assert b.state == BreakerState.OPEN
        assert b.opens == 2
        clock.t = 1.5
        assert not b.allow()  # cooldown restarted at t=1.0


def _fill(cluster, n=20, consistency=Consistency.QUORUM):
    acked = []
    for i in range(n):
        cluster.insert("t", {"pk": f"p{i}", "ck": i, "v": i}, consistency)
        acked.append(i)
    return acked


class TestHardenedCoordinator:
    def test_no_policy_changes_nothing(self):
        # A cluster given no policy runs under the default one, with a
        # closed breaker on every node.
        cluster = Cluster(4, replication_factor=2)
        assert cluster.retry_policy == RetryPolicy()
        for node_id in cluster.nodes:
            assert isinstance(cluster.breaker(node_id), CircuitBreaker)
            assert cluster.breaker(node_id).state == BreakerState.CLOSED
        cluster.create_table(SCHEMA)
        _fill(cluster)
        cluster.close()

    def test_write_retries_through_a_flap(self):
        # All nodes down 3 of every 6 ops, in lockstep: the retry-free
        # coordinator fails every down-phase write; retries walk the
        # logical clock into the up phase and always land.
        policy = RetryPolicy(max_attempts=6, **FAST)
        cluster = Cluster(5, replication_factor=3, retry_policy=policy)
        cluster.create_table(SCHEMA)
        plan = FaultPlan(seed=11, flap=FlapSpec(
            nodes=tuple(sorted(cluster.nodes)), period_ops=6, down_ops=3,
            stagger=False))
        before = _counter("cassdb.retry.write_retries").value
        with FaultGate(plan).arm(cluster=cluster):
            _fill(cluster, n=12)
        assert _counter("cassdb.retry.write_retries").value > before
        # Everything acked must be readable once the flap is gone.
        for i in range(12):
            rows = cluster.select_partition("t", (f"p{i}",),
                                            consistency=Consistency.QUORUM)
            assert [r["ck"] for r in rows] == [i]
        cluster.close()

    def test_retries_exhaust_on_a_permanent_outage(self):
        policy = RetryPolicy(max_attempts=3, **FAST)
        cluster = Cluster(4, replication_factor=3, retry_policy=policy)
        cluster.create_table(SCHEMA)
        # Two of four nodes down: every RF=3 replica set is short.
        cluster.kill_node("node01")
        cluster.kill_node("node02")
        before = _counter("cassdb.retry.exhausted").value
        with pytest.raises(UnavailableError):
            cluster.insert("t", {"pk": "p0", "ck": 0, "v": 0},
                           Consistency.ALL)
        assert _counter("cassdb.retry.exhausted").value == before + 1
        cluster.close()

    def test_request_budget_stops_retries(self):
        # A spent budget ends the op after its first attempt, however
        # many attempts the policy allows.
        policy = RetryPolicy(max_attempts=5, request_timeout_ms=0.0,
                             base_delay_ms=0.0)
        cluster = Cluster(4, replication_factor=3, retry_policy=policy)
        cluster.create_table(SCHEMA)
        cluster.kill_node("node01")
        cluster.kill_node("node02")
        counters = ("cassdb.retry.exhausted", "cassdb.retry.read_retries",
                    "cassdb.retry.write_retries")
        for op in (
            lambda: cluster.insert("t", {"pk": "p0", "ck": 0, "v": 0},
                                   Consistency.ALL),
            lambda: cluster.select_partition("t", ("p0",),
                                             consistency=Consistency.ALL),
        ):
            before = [_counter(name).value for name in counters]
            with pytest.raises(UnavailableError):
                op()
            after = [_counter(name).value for name in counters]
            assert after == [before[0] + 1, before[1], before[2]]
        cluster.close()

    def test_a_probe_goes_to_a_replica_that_is_read(self):
        # A CL=ONE read asks the breakers of its target only.  Asking a
        # spare's breaker past its cooldown hands the spare the probe;
        # a spare is never read, so its breaker stayed HALF_OPEN for good
        # and health reported the node degraded.
        policy = RetryPolicy(breaker_failures=1, breaker_cooldown_s=0.01,
                             **FAST)
        cluster = Cluster(5, replication_factor=3, retry_policy=policy)
        cluster.create_table(SCHEMA)
        victim = "node02"

        def where(position):
            return [f"p{i}" for i in range(200)
                    if cluster.ring.replicas(SCHEMA.partition_key_of(
                        {"pk": f"p{i}"}))[position] == victim]

        leads, second = where(0), where(1)
        for pk in leads + second:
            cluster.insert("t", {"pk": pk, "ck": 0, "v": 0}, Consistency.ALL)
        cluster.crash_node(victim)
        assert cluster.select_partition("t", (leads[0],)) == [
            {"pk": leads[0], "ck": 0, "v": 0}]
        assert cluster.breaker(victim).state == BreakerState.OPEN
        cluster.recover_node(victim)
        time.sleep(0.02)                      # past the cooldown
        cluster.select_partition("t", (second[0],))
        assert cluster.breaker(victim).state == BreakerState.OPEN
        for i, pk in enumerate(leads[:10]):
            if i == 5:
                time.sleep(0.05)
            cluster.select_partition("t", (pk,))
        assert cluster.breaker(victim).state == BreakerState.CLOSED
        cluster.close()

    def test_breaker_opens_on_crashed_replica_and_reads_route_around(self):
        # A crashed (process-down, still routed) replica answers
        # reads with NodeDownError: the breaker opens and later reads
        # deprioritize it, so every read still succeeds.
        policy = RetryPolicy(max_attempts=4, breaker_failures=1,
                             breaker_cooldown_s=60.0, **FAST)
        cluster = Cluster(5, replication_factor=3, retry_policy=policy)
        cluster.create_table(SCHEMA)
        _fill(cluster, n=20)
        cluster.crash_node("node02")
        opens = _counter("cassdb.breaker.opens").value
        skips = _counter("cassdb.breaker.skipped_targets").value
        for i in range(20):
            rows = cluster.select_partition("t", (f"p{i}",),
                                            consistency=Consistency.QUORUM)
            assert [r["ck"] for r in rows] == [i]
        assert cluster.breaker("node02").state == BreakerState.OPEN
        assert _counter("cassdb.breaker.opens").value > opens
        assert _counter("cassdb.breaker.skipped_targets").value > skips
        assert cluster.breaker("node01").state == BreakerState.CLOSED
        cluster.close()

    def test_speculative_read_hedges_a_slow_replica(self):
        policy = RetryPolicy(max_attempts=2, speculative_threshold_ms=1.0,
                             **FAST)
        cluster = Cluster(5, replication_factor=3, retry_policy=policy)
        cluster.create_table(SCHEMA)
        _fill(cluster, n=10)
        spec = _counter("cassdb.retry.speculative_reads").value
        plan = FaultPlan(seed=3,
                         latency=(LatencySpec("node03", delay_ms=30.0),))
        with FaultGate(plan).arm(cluster=cluster):
            for i in range(10):
                rows = cluster.select_partition(
                    "t", (f"p{i}",), consistency=Consistency.QUORUM)
                assert [r["ck"] for r in rows] == [i]
        assert _counter("cassdb.retry.speculative_reads").value > spec
        cluster.close()
