"""Canned chaos scenarios with invariant checkers.

Each scenario builds a small system, arms a seeded
:class:`~repro.chaos.plan.FaultPlan`, drives a workload through the
fault schedule, and checks the *resilience invariants* the paper's
deployment depends on:

* no acknowledged QUORUM write is lost across a node crash;
* hint replay converges a revived replica (anti-entropy ``repair`` is a
  no-op afterwards);
* a retrying coordinator rides out replica flap without losing writes;
* speculative reads answer correctly around a slow replica;
* the streaming path loses no records across a broker drop window;
* task retry + executor blacklisting complete jobs despite a failing
  worker.

Reports are JSON-serializable dicts built exclusively from
deterministic values (logical op counts, row sets, seeded decisions —
never wall-clock measurements), so ``repro chaos run --scenario X
--seed N`` is byte-for-byte reproducible.
"""

from __future__ import annotations

from typing import Callable

from repro import obs
from repro.bus import MessageBus
from repro.cassdb import (
    CassDBError,
    Cluster,
    Consistency,
    RetryPolicy,
    TableSchema,
)
from repro.sparklet import SparkletContext

from .gate import FaultGate
from .plan import (
    BusFaults,
    CrashWindow,
    FaultPlan,
    FlapSpec,
    LatencySpec,
    TaskFaults,
)

__all__ = ["SCENARIOS", "ScenarioRunner", "run_scenarios"]

TABLE = "chaos_events"
_SCHEMA = TableSchema(TABLE, partition_key=("shard",), clustering_key=("seq",))

# Zero-delay policy: retries are immediate (logical time only), so
# scenario wall time stays in milliseconds and reports carry no timing.
_FAST_RETRIES = dict(base_delay_ms=0.0, max_delay_ms=0.0, jitter=0.0)


def _write_workload(cluster: Cluster, n_rows: int, n_shards: int,
                    consistency: Consistency) -> tuple[dict, int]:
    """Write ``seq=i`` into ``shard=p{i % n_shards}``; returns
    (acked rows per shard, failed write count)."""
    acked: dict[str, set[int]] = {f"p{s}": set() for s in range(n_shards)}
    failures = 0
    for i in range(n_rows):
        shard = f"p{i % n_shards}"
        try:
            cluster.insert(TABLE, {"shard": shard, "seq": i, "v": i * 3},
                           consistency)
        except CassDBError:
            failures += 1
        else:
            acked[shard].add(i)
    return acked, failures


def _verify_acked(cluster: Cluster, acked: dict[str, set[int]],
                  consistency: Consistency) -> bool:
    """Every acknowledged row must read back at *consistency*."""
    for shard, seqs in acked.items():
        rows = cluster.select_partition(TABLE, (shard,),
                                        consistency=consistency)
        got = {r["seq"] for r in rows}
        if not seqs <= got:
            return False
    return True


# -- scenarios -------------------------------------------------------------


def scenario_quorum_crash(seed: int, quick: bool) -> dict:
    """Kill a replica mid-stream; QUORUM acks must survive, hint replay
    must converge (repair is a no-op afterwards)."""
    n_rows = 60 if quick else 240
    cluster = Cluster(5, replication_factor=3,
                      retry_policy=RetryPolicy(**_FAST_RETRIES))
    cluster.create_table(_SCHEMA)
    plan = FaultPlan(seed=seed, crashes=(
        CrashWindow("node01", at_op=n_rows // 3,
                    recover_at_op=2 * n_rows // 3, kind="kill"),
    ))
    gate = FaultGate(plan).arm(cluster=cluster)
    try:
        acked, failures = _write_workload(cluster, n_rows, 8,
                                          Consistency.QUORUM)
        repair_noop = cluster.repair(TABLE) == 0
        durable = _verify_acked(cluster, acked, Consistency.QUORUM)
    finally:
        gate.disarm()
        cluster.close()
    invariants = {
        "acked_writes_durable": durable,
        "all_writes_acked": failures == 0,
        "repair_noop_after_hint_replay": repair_noop,
    }
    return {
        "scenario": "quorum-crash",
        "seed": seed,
        "plan": plan.describe(),
        "rows_acked": sum(len(s) for s in acked.values()),
        "writes_failed": failures,
        "injected": gate.injected_snapshot(),
        "invariants": invariants,
        "ok": all(invariants.values()),
    }


def scenario_hint_replay(seed: int, quick: bool) -> dict:
    """ONE-consistency writes while a replica is dead are hinted; after
    revival every row reads back at ALL and repair finds nothing."""
    n_rows = 48 if quick else 200
    cluster = Cluster(4, replication_factor=2,
                      retry_policy=RetryPolicy(**_FAST_RETRIES))
    cluster.create_table(_SCHEMA)
    plan = FaultPlan(seed=seed, crashes=(
        CrashWindow("node02", at_op=n_rows // 4,
                    recover_at_op=3 * n_rows // 4, kind="kill"),
    ))
    gate = FaultGate(plan).arm(cluster=cluster)
    try:
        acked, failures = _write_workload(cluster, n_rows, 6, Consistency.ONE)
        repair_noop = cluster.repair(TABLE) == 0
        converged = _verify_acked(cluster, acked, Consistency.ALL)
    finally:
        gate.disarm()
        cluster.close()
    invariants = {
        "replayed_rows_read_at_all": converged,
        "all_writes_acked": failures == 0,
        "repair_noop_after_hint_replay": repair_noop,
    }
    return {
        "scenario": "hint-replay",
        "seed": seed,
        "plan": plan.describe(),
        "rows_acked": sum(len(s) for s in acked.values()),
        "writes_failed": failures,
        "injected": gate.injected_snapshot(),
        "invariants": invariants,
        "ok": all(invariants.values()),
    }


def scenario_replica_flap(seed: int, quick: bool) -> dict:
    """Three of five replicas flap in lockstep (down 6 of every 10 ops);
    the retrying coordinator must land every QUORUM write anyway."""
    n_rows = 60 if quick else 240
    policy = RetryPolicy(max_attempts=8, **_FAST_RETRIES)
    cluster = Cluster(5, replication_factor=3, retry_policy=policy)
    cluster.create_table(_SCHEMA)
    plan = FaultPlan(seed=seed, flap=FlapSpec(
        nodes=("node01", "node02", "node03"),
        period_ops=10, down_ops=6, stagger=False,
    ))
    retries_before = obs.get_registry().counter(
        "cassdb.retry.write_retries").value
    gate = FaultGate(plan).arm(cluster=cluster)
    try:
        acked, failures = _write_workload(cluster, n_rows, 8,
                                          Consistency.QUORUM)
    finally:
        gate.disarm()  # verification reads run fault-free
    retries = obs.get_registry().counter(
        "cassdb.retry.write_retries").value - retries_before
    try:
        durable = _verify_acked(cluster, acked, Consistency.QUORUM)
    finally:
        cluster.close()
    invariants = {
        "acked_writes_durable": durable,
        "all_writes_acked": failures == 0,
        "retries_exercised": retries > 0,
    }
    return {
        "scenario": "replica-flap",
        "seed": seed,
        "plan": plan.describe(),
        "rows_acked": sum(len(s) for s in acked.values()),
        "writes_failed": failures,
        "write_retries": retries,
        "invariants": invariants,
        "ok": all(invariants.values()),
    }


def scenario_slow_replica(seed: int, quick: bool) -> dict:
    """One replica's reads stall; speculative (hedged) reads must keep
    QUORUM answers fast *and correct*.  The report excludes injection
    counts — how many stalls fire depends on hedge timing."""
    n_rows = 24 if quick else 96
    policy = RetryPolicy(max_attempts=2, speculative_threshold_ms=2.0,
                         **_FAST_RETRIES)
    cluster = Cluster(4, replication_factor=3, retry_policy=policy)
    cluster.create_table(_SCHEMA)
    acked, failures = _write_workload(cluster, n_rows, 4, Consistency.ONE)
    plan = FaultPlan(seed=seed,
                     latency=(LatencySpec("node01", delay_ms=20.0),))
    gate = FaultGate(plan).arm(cluster=cluster)
    try:
        reads_ok = _verify_acked(cluster, acked, Consistency.QUORUM)
    finally:
        gate.disarm()
        cluster.close()
    invariants = {
        "reads_correct_under_stall": reads_ok,
        "all_writes_acked": failures == 0,
    }
    return {
        "scenario": "slow-replica",
        "seed": seed,
        "plan": plan.describe(),
        "rows_acked": sum(len(s) for s in acked.values()),
        "invariants": invariants,
        "ok": all(invariants.values()),
    }


def scenario_broker_drop(seed: int, quick: bool) -> dict:
    """Bus deliveries drop and publishes duplicate; the consumer-group
    offset protocol must deliver every record at least once."""
    n_records = 40 if quick else 160
    topic = "chaos-ingest"
    group = "chaos-group"
    bus = MessageBus()
    bus.create_topic(topic, num_partitions=2)
    plan = FaultPlan(seed=seed,
                     bus=BusFaults(drop_rate=0.5, dup_rate=0.25,
                                   topics=(topic,)))
    gate = FaultGate(plan).arm(bus=bus)
    consumed: list[int] = []
    rounds = 0
    try:
        for i in range(n_records):
            bus.publish(topic, i, key=f"k{i}")
        # Poll each partition until the group has committed past every
        # record; dropped deliveries leave offsets unmoved and are
        # simply fetched again on the next round.
        while bus.lag(group, topic) > 0 and rounds < 10_000:
            rounds += 1
            for part in range(2):
                offset = bus.committed(group, topic, part)
                records = bus.fetch(topic, part, offset, max_records=4)
                if not records:
                    continue
                consumed.extend(r.value for r in records)
                bus.commit(group, topic, part,
                           records[-1].offset + 1)
    finally:
        gate.disarm()
    unique = set(consumed)
    injected = gate.injected_snapshot()
    invariants = {
        "no_record_lost": unique == set(range(n_records)),
        "drops_exercised": injected.get("bus_drops", 0) > 0,
        "duplicates_tolerated":
            len(consumed) >= n_records + injected.get("bus_duplicates", 0),
        "converged": bus.lag(group, topic) == 0,
    }
    return {
        "scenario": "broker-drop",
        "seed": seed,
        "plan": plan.describe(),
        "records_produced": n_records,
        "records_delivered": len(consumed),
        "fetch_rounds": rounds,
        "injected": injected,
        "invariants": invariants,
        "ok": all(invariants.values()),
    }


def scenario_task_storm(seed: int, quick: bool) -> dict:
    """Every task attempt on one worker fails; task retry reruns them
    elsewhere and the pool blacklists the failing executor, so a second
    job never touches it."""
    n = 64 if quick else 256
    ctx = SparkletContext(4, max_task_retries=3, blacklist_after=2)
    plan = FaultPlan(seed=seed, tasks=TaskFaults(
        fail_rate=1.0, workers=("worker01",)))
    gate = FaultGate(plan).arm(pool=ctx.pool)
    try:
        first = sorted(ctx.parallelize(range(n), 8)
                       .map(lambda x: x * 2).collect())
        failures_after_first = gate.injected_snapshot().get(
            "task_failures", 0)
        second = sorted(ctx.parallelize(range(n), 8)
                        .map(lambda x: x * 2).collect())
        failures_after_second = gate.injected_snapshot().get(
            "task_failures", 0)
    finally:
        gate.disarm()
        blacklisted = sorted(ctx.pool.blacklisted)
        ctx.stop()
    expected = sorted(x * 2 for x in range(n))
    invariants = {
        "first_job_correct": first == expected,
        "second_job_correct": second == expected,
        "failing_worker_blacklisted": "worker01" in blacklisted,
        "blacklist_stops_failures":
            failures_after_second == failures_after_first,
        "failures_exercised": failures_after_first > 0,
    }
    return {
        "scenario": "task-storm",
        "seed": seed,
        "plan": plan.describe(),
        "task_failures": failures_after_first,
        "blacklisted": blacklisted,
        "invariants": invariants,
        "ok": all(invariants.values()),
    }


SCENARIOS: dict[str, Callable[[int, bool], dict]] = {
    "quorum-crash": scenario_quorum_crash,
    "hint-replay": scenario_hint_replay,
    "replica-flap": scenario_replica_flap,
    "slow-replica": scenario_slow_replica,
    "broker-drop": scenario_broker_drop,
    "task-storm": scenario_task_storm,
}


class ScenarioRunner:
    """Run chaos scenarios and aggregate a deterministic report."""

    def __init__(self, seed: int = 2017, quick: bool = False):
        self.seed = seed
        self.quick = quick

    def run(self, names: list[str] | None = None) -> dict:
        if names is None:
            names = sorted(SCENARIOS)
        unknown = [n for n in names if n not in SCENARIOS]
        if unknown:
            raise KeyError(f"unknown scenario(s): {unknown}; "
                           f"available: {sorted(SCENARIOS)}")
        reports = [SCENARIOS[name](self.seed, self.quick) for name in names]
        return {
            "seed": self.seed,
            "quick": self.quick,
            "scenarios": reports,
            "ok": all(r["ok"] for r in reports),
        }


def run_scenarios(names: list[str] | None = None, *, seed: int = 2017,
                  quick: bool = False) -> dict:
    """Module-level convenience wrapper around :class:`ScenarioRunner`."""
    return ScenarioRunner(seed=seed, quick=quick).run(names)
