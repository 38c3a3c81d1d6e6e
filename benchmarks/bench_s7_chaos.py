"""S7 — chaos: hardened coordinator vs baseline under injected faults.

PR 4 added ``repro.chaos`` (deterministic fault injection) and hardened
the coordinator (retries with backoff, per-op budgets, speculative
reads, circuit breakers).  This bench measures the resilience claims:

* **flap hardening** — with four of five replicas flapping in lockstep
  (down 7 of every 10 logical ops), a coordinator that retries must
  land at least **2x** more QUORUM writes than the baseline coordinator
  under ``RetryPolicy(max_attempts=1)`` (the deterministic op-indexed
  flap makes both success counts exact, not sampled);
* **durability under flap** — every write the hardened coordinator
  acknowledged must read back at QUORUM after the fault window;
* **unarmed overhead** — an armed-but-empty fault plan (hooks taken,
  nothing injected) must not meaningfully slow the write+read path
  (reported for visibility; the authoritative <5% regression gate is
  the S5/S6 benches, which run with no gate at all);
* **scenario invariants** — the full ``repro.chaos`` scenario suite
  must pass its invariant checks.

Runs standalone for the CI chaos-smoke job::

    PYTHONPATH=src python benchmarks/bench_s7_chaos.py --quick \
        --json BENCH_s7_chaos.json

and as pytest-collected tests.
"""

import argparse
import json
import sys
import time

import pytest

from repro.cassdb import CassDBError, Cluster, Consistency, RetryPolicy, TableSchema
from repro.chaos import FaultGate, FaultPlan, FlapSpec, run_scenarios

SCHEMA = TableSchema("bench_chaos", partition_key=("shard",),
                     clustering_key=("seq",))

# Four of five nodes flap in lockstep: down the first 7 ops of every
# 10-op cycle.  Every RF=3 replica set then holds >= 2 flapping nodes,
# so during the down phase no QUORUM write can succeed without retrying
# into the up phase — the baseline success rate is exactly the up
# fraction (3/10), independent of ring layout.
FLAP = FlapSpec(nodes=("node01", "node02", "node03", "node04"),
                period_ops=10, down_ops=7, stagger=False)


def _flap_run(policy, n_rows, seed):
    """Write *n_rows* QUORUM rows under the flap plan; returns
    (cluster, acked row keys, failure count, wall seconds)."""
    cluster = Cluster(5, replication_factor=3, retry_policy=policy)
    cluster.create_table(SCHEMA)
    gate = FaultGate(FaultPlan(seed=seed, flap=FLAP)).arm(cluster=cluster)
    acked = []
    failures = 0
    t0 = time.perf_counter()
    try:
        for i in range(n_rows):
            shard = f"p{i % 8}"
            try:
                cluster.insert("bench_chaos",
                               {"shard": shard, "seq": i, "v": i},
                               Consistency.QUORUM)
            except CassDBError:
                failures += 1
            else:
                acked.append((shard, i))
    finally:
        elapsed = time.perf_counter() - t0
        gate.disarm()
    return cluster, acked, failures, elapsed


def run_flap_hardening(n_rows=400, seed=7):
    """Baseline (no retries) vs hardened coordinator under replica flap."""
    hardened_policy = RetryPolicy(
        max_attempts=10, base_delay_ms=0.0, max_delay_ms=0.0, jitter=0.0)
    base_cluster, base_acked, base_failures, base_s = _flap_run(
        RetryPolicy(max_attempts=1), n_rows, seed)
    base_cluster.close()
    hard_cluster, hard_acked, hard_failures, hard_s = _flap_run(
        hardened_policy, n_rows, seed)
    # Durability: every acked write must read back at QUORUM once the
    # flap is disarmed.
    durable = True
    try:
        by_shard = {}
        for shard, seq in hard_acked:
            by_shard.setdefault(shard, set()).add(seq)
        for shard, seqs in by_shard.items():
            rows = hard_cluster.select_partition(
                "bench_chaos", (shard,), consistency=Consistency.QUORUM)
            if not seqs <= {r["seq"] for r in rows}:
                durable = False
    finally:
        hard_cluster.close()
    base_rate = len(base_acked) / n_rows
    hard_rate = len(hard_acked) / n_rows
    return {
        "rows": n_rows,
        "baseline_acked": len(base_acked),
        "baseline_failures": base_failures,
        "baseline_success_rate": base_rate,
        "baseline_s": base_s,
        "hardened_acked": len(hard_acked),
        "hardened_failures": hard_failures,
        "hardened_success_rate": hard_rate,
        "hardened_s": hard_s,
        "success_ratio": (hard_rate / base_rate if base_rate
                          else float("inf")),
        "acked_writes_durable": durable,
    }


def run_unarmed_overhead(n_rows=4_000):
    """Write+read workload with no gate vs an armed-but-empty plan."""

    def workload(arm_empty):
        cluster = Cluster(4, replication_factor=2)
        cluster.create_table(SCHEMA)
        gate = None
        if arm_empty:
            gate = FaultGate(FaultPlan(seed=1)).arm(cluster=cluster)
        t0 = time.perf_counter()
        for i in range(n_rows):
            cluster.insert("bench_chaos",
                           {"shard": f"p{i % 16}", "seq": i, "v": i})
        for i in range(n_rows // 4):
            cluster.select_partition("bench_chaos", (f"p{i % 16}",))
        elapsed = time.perf_counter() - t0
        if gate is not None:
            gate.disarm()
        cluster.close()
        return elapsed

    bare = min(workload(False) for _ in range(3))
    armed = min(workload(True) for _ in range(3))
    return {
        "rows": n_rows,
        "bare_s": bare,
        "armed_empty_s": armed,
        "overhead_pct": (armed / bare - 1.0) * 100.0 if bare else 0.0,
    }


def run_all(seed=7, quick=False):
    return {
        "flap_hardening": run_flap_hardening(
            n_rows=200 if quick else 400, seed=seed),
        "unarmed_overhead": run_unarmed_overhead(
            n_rows=1_500 if quick else 4_000),
        "scenarios": run_scenarios(seed=seed, quick=quick),
    }


def _report_all(results):
    from conftest import report

    fh, ov = results["flap_hardening"], results["unarmed_overhead"]
    scen = results["scenarios"]
    report("S7: chaos — hardened coordinator under injected faults", [
        ("experiment", "baseline", "hardened", "ratio / note"),
        (f"QUORUM writes under flap ({fh['rows']} rows)",
         f"{fh['baseline_acked']} acked "
         f"({fh['baseline_success_rate']:.0%})",
         f"{fh['hardened_acked']} acked "
         f"({fh['hardened_success_rate']:.0%})",
         f"{fh['success_ratio']:.2f}x, durable={fh['acked_writes_durable']}"),
        (f"unarmed hook overhead ({ov['rows']} rows)",
         f"{ov['bare_s']:.4f}s no gate",
         f"{ov['armed_empty_s']:.4f}s empty plan armed",
         f"{ov['overhead_pct']:+.1f}%"),
        ("scenario invariants",
         f"{len(scen['scenarios'])} scenarios",
         f"{sum(s['ok'] for s in scen['scenarios'])} passed",
         "ok" if scen["ok"] else "FAILED"),
    ])


# -- pytest entry points -----------------------------------------------------

class TestChaosBench:
    def test_hardened_coordinator_2x_under_flap(self):
        r = run_flap_hardening(n_rows=200)
        assert r["success_ratio"] >= 2.0, r
        assert r["acked_writes_durable"], r
        assert r["hardened_failures"] == 0, r

    def test_scenario_invariants_hold(self):
        r = run_scenarios(seed=7, quick=True)
        assert r["ok"], [s for s in r["scenarios"] if not s["ok"]]


@pytest.fixture(scope="module")
def chaos_results():
    return run_all(quick=True)


def test_report(chaos_results):
    _report_all(chaos_results)


# -- standalone entry point (CI chaos-smoke job) -----------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="small workload (CI smoke)")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--json", dest="json_path",
                    help="write results to this JSON file")
    args = ap.parse_args(argv)

    results = run_all(seed=args.seed, quick=args.quick)
    _report_all(results)
    payload = {"bench": "s7_chaos", "quick": args.quick, "seed": args.seed,
               "results": results}
    if args.json_path:
        with open(args.json_path, "w") as f:
            json.dump(payload, f, indent=2)
        print(f"wrote {args.json_path}")

    fh = results["flap_hardening"]
    ok = (fh["success_ratio"] >= 2.0 and fh["acked_writes_durable"]
          and results["scenarios"]["ok"])
    if not ok:
        print("FAIL: acceptance thresholds not met", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
