"""S9 — query engine: plan-cache overhead on the warm path.

PR 6 replaced the ad-hoc statement dispatcher with a real pipeline
(tokenize → parse → plan → optimize → compile).  This bench holds the
line that keeps that pipeline off the warm path: re-executing a cached
statement must not be slower than re-planning it on every call
(``session.engine.prepare`` then ``engine.execute``), beyond 10 %.

The pipeline's headline optimization, partial-aggregate pushdown, was
last measured against the retired row-shipping plan at 3.8×; see
"Retired baselines" in docs/performance.md.

Runs standalone for the CI bench-smoke job::

    PYTHONPATH=src python benchmarks/bench_s9_query_engine.py --quick \
        --json BENCH_s9_query_engine.json

and as pytest-collected tests against a smaller fixture.
"""

import argparse
import json
import sys
import time

import pytest

from repro.cassdb import Cluster, Session, TableSchema

from conftest import report

POINT_QUERY = ("SELECT ts FROM ev WHERE hour = 0 AND type = 'MCE'"
               " AND ts >= 1.0 LIMIT 5")


def _best(fn, rounds=3):
    """Best-of-N wall time in seconds (min damps scheduler noise)."""
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def build_cluster(hours, rows_per_hour, db_nodes=6):
    cluster = Cluster(db_nodes, replication_factor=2)
    cluster.create_table(TableSchema(
        "ev", partition_key=("hour", "type"), clustering_key=("ts", "seq"),
        key_codecs=(("hour", int),)))
    cluster.insert_many("ev", [
        {"hour": hour, "type": "MCE", "ts": float(i), "seq": i,
         "source": f"n{i % 7}", "amount": i % 100}
        for hour in range(hours) for i in range(rows_per_hour)])
    return cluster


def run_plan_cache_overhead(cluster, *, calls=2000, rounds=3):
    """Warm-path cost of the prepare pipeline: cached vs re-planned."""
    cached = Session(cluster)
    engine = cached.engine

    def drive_cached():
        for _ in range(calls):
            cached.execute(POINT_QUERY)

    def drive_uncached():
        for _ in range(calls):
            engine.execute(engine.prepare(POINT_QUERY), (), cached.consistency)

    drive_cached()  # prime the cache
    t_cached = _best(drive_cached, rounds)
    t_uncached = _best(drive_uncached, rounds)
    return {
        "calls": calls,
        "cached_s": t_cached,
        "uncached_s": t_uncached,
        "cache_hits": cached.plan_cache_len,
        "overhead_pct": (t_cached - t_uncached) / t_uncached * 100.0,
    }


def _report(pc):
    report("S9: query engine", [
        ("experiment", "baseline", "optimized", "note"),
        ("plan cache", f"{pc['uncached_s']:.4f}s re-plan",
         f"{pc['cached_s']:.4f}s cached",
         f"{pc['overhead_pct']:+.2f}% ({pc['calls']} calls)"),
    ])


# -- pytest entry points -----------------------------------------------------

@pytest.fixture(scope="module")
def bench_cluster():
    cluster = build_cluster(hours=6, rows_per_hour=600)
    yield cluster
    cluster.close()


class TestQueryEngineBench:
    def test_plan_cache_not_slower(self, bench_cluster):
        r = run_plan_cache_overhead(bench_cluster, calls=500, rounds=2)
        assert r["overhead_pct"] <= 10.0, r

    def test_report(self, bench_cluster):
        _report(run_plan_cache_overhead(bench_cluster, calls=300, rounds=2))


# -- standalone entry point (CI bench-smoke job) -----------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="small data set / few calls (CI smoke)")
    ap.add_argument("--json", dest="json_path",
                    help="write timing results to this JSON file")
    args = ap.parse_args(argv)

    hours = 8 if args.quick else 16
    rows = 1500 if args.quick else 4000
    cluster = build_cluster(hours, rows)
    try:
        plan_cache = run_plan_cache_overhead(
            cluster, calls=1000 if args.quick else 4000,
            rounds=2 if args.quick else 3)
    finally:
        cluster.close()
    _report(plan_cache)
    results = {"plan_cache": plan_cache}
    payload = {"bench": "s9_query_engine", "quick": args.quick,
               "hours": hours, "rows_per_hour": rows, "results": results}
    if args.json_path:
        with open(args.json_path, "w") as f:
            json.dump(payload, f, indent=2)
        print(f"wrote {args.json_path}")

    ok = plan_cache["overhead_pct"] <= 10.0
    if not ok:
        print("FAIL: acceptance thresholds not met", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
