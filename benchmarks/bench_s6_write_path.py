"""S6 — batched, lock-striped write path: end-to-end ingest throughput.

PR 3 rebuilt the write path: per-(table, partition) striped locks
replace the cluster-wide ``_op_lock``, ``write_batch`` commits rows in
replica-set groups (one store-lock acquisition and one epoch bump per
batch), and memtable flushes build their SSTable outside the writer's
critical section.  This bench measures batched against per-row
commits, three ways:

* **batched vs per-row** — ``write_batch`` over an S2-style event
  workload must be at least 3x faster than the same rows through the
  per-row ``insert`` loop;
* **concurrent disjoint writers** — N threads writing disjoint hour
  partitions with one ``write_batch`` each must beat the same threads
  looping over ``insert`` (pure-Python writes are GIL-bound, so the win
  is fewer lock handoffs, not parallelism; the last measured ratio
  against the retired single global lock is under "Retired baselines"
  in docs/performance.md);
* **model fan-out** — ``LogDataModel.write_events`` (the dual-view
  eight-table fan-out) in one batched call vs per-event calls.

Runs standalone for the CI smoke job::

    PYTHONPATH=src python benchmarks/bench_s6_write_path.py --quick \
        --json BENCH_s6_write_path.json

and as pytest-collected tests against the shared bench fixtures.
"""

import argparse
import json
import sys
import threading
import time

import pytest

from repro.cassdb import Cluster
from repro.core.model import TABLE_SCHEMAS, LogDataModel
from repro.genlog import LogGenerator
from repro.titan import TitanTopology

from conftest import report

BATCH_ROWS = 5_000


def _best(fn, rounds=3):
    """Best-of-N wall time in seconds (min damps scheduler noise)."""
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _event_rows(events):
    """S2-style ``event_by_time`` rows (hour/type partitions, ts
    clustering) prebuilt so row-dict construction is outside the
    measured write loops."""
    rows = []
    for seq, event in enumerate(events):
        rows.append({
            "hour": int(event.ts // 3600),
            "type": event.type,
            "ts": float(event.ts),
            "seq": seq,
            "source": event.component,
            "amount": int(getattr(event, "amount", 1)),
        })
    return rows


def _fresh_cluster() -> Cluster:
    cluster = Cluster(4, replication_factor=2)
    cluster.create_table(TABLE_SCHEMAS["event_by_time"])
    return cluster


def run_batched_vs_per_row(rows, rounds=3):
    """One writer: ``write_batch`` chunks vs the per-row insert loop."""

    def per_row():
        cluster = _fresh_cluster()
        insert = cluster.insert
        for values in rows:
            insert("event_by_time", values)

    def batched():
        cluster = _fresh_cluster()
        for i in range(0, len(rows), BATCH_ROWS):
            cluster.write_batch("event_by_time", rows[i:i + BATCH_ROWS])

    t_row = _best(per_row, rounds)
    t_batch = _best(batched, rounds)
    return {"per_row_s": t_row, "batched_s": t_batch, "rows": len(rows),
            "speedup": t_row / t_batch if t_batch else float("inf")}


def run_concurrent_disjoint(rows, threads=6, rounds=3):
    """N threads, disjoint hour partitions: per-row ``insert`` loops
    vs one ``write_batch`` per thread."""
    # Remap each thread's share onto its own hour so partitions are
    # disjoint by construction (same row count and shape as the input).
    shares = []
    per = len(rows) // threads
    for t in range(threads):
        share = [dict(r, hour=t) for r in rows[t * per:(t + 1) * per]]
        shares.append(share)

    def _run_threads(worker):
        errors = []

        def wrapped(share):
            try:
                worker(share)
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        ts = [threading.Thread(target=wrapped, args=(s,)) for s in shares]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        assert not errors, errors

    def per_row():
        cluster = _fresh_cluster()
        _run_threads(lambda share: [
            cluster.insert("event_by_time", v) for v in share])

    def batched():
        cluster = _fresh_cluster()
        _run_threads(
            lambda share: cluster.write_batch("event_by_time", share))

    t_row = _best(per_row, rounds)
    t_batch = _best(batched, rounds)
    return {
        "per_row_s": t_row, "batched_s": t_batch, "threads": threads,
        "rows": per * threads,
        "speedup": t_row / t_batch if t_batch else float("inf"),
    }


def run_model_fanout(events, rounds=2):
    """End-to-end ``LogDataModel.write_events``: the dual-view fan-out
    as one batched call vs one call per event."""

    def _fresh_model():
        cluster = Cluster(4, replication_factor=2)
        model = LogDataModel(cluster)
        model.create_tables()
        return model

    def per_event():
        model = _fresh_model()
        for event in events:
            model.write_events([event])

    def batched():
        model = _fresh_model()
        model.write_events(events)

    t_event = _best(per_event, rounds)
    t_batch = _best(batched, rounds)
    return {"per_event_s": t_event, "batched_s": t_batch,
            "events": len(events),
            "speedup": t_event / t_batch if t_batch else float("inf")}


def run_all(events, rounds=3):
    rows = _event_rows(events)
    return {
        "batched_vs_per_row": run_batched_vs_per_row(rows, rounds),
        "concurrent_disjoint": run_concurrent_disjoint(rows, rounds=rounds),
        "model_fanout": run_model_fanout(events, rounds=min(2, rounds)),
    }


def _report_all(results):
    bp, cd, mf = (results["batched_vs_per_row"],
                  results["concurrent_disjoint"], results["model_fanout"])
    report("S6: batched, lock-striped write path", [
        ("experiment", "baseline", "optimised", "speedup / note"),
        (f"single writer ({bp['rows']} rows)",
         f"{bp['per_row_s']:.4f}s per-row",
         f"{bp['batched_s']:.4f}s batched", f"{bp['speedup']:.2f}x"),
        (f"{cd['threads']} disjoint writers ({cd['rows']} rows)",
         f"{cd['per_row_s']:.4f}s per-row",
         f"{cd['batched_s']:.4f}s batched", f"{cd['speedup']:.2f}x"),
        (f"model dual-view fan-out ({mf['events']} events)",
         f"{mf['per_event_s']:.4f}s per-event",
         f"{mf['batched_s']:.4f}s batched", f"{mf['speedup']:.2f}x"),
    ])


def _workload(hours, rate, cols=1):
    topo = TitanTopology(rows=1, cols=cols)
    return LogGenerator(topo, seed=2017, rate_multiplier=rate,
                        storms_per_day=4).generate(hours)


# -- pytest entry points -----------------------------------------------------

@pytest.fixture(scope="module")
def workload(events):
    # The shared 12h corpus is plenty; cap it so per-row baselines stay
    # fast enough for the suite.
    return events[:20_000]


class TestWritePath:
    def test_batched_beats_per_row_by_3x(self, workload):
        r = run_batched_vs_per_row(_event_rows(workload), rounds=3)
        assert r["speedup"] >= 3.0, r

    def test_concurrent_batched_beats_per_row(self, workload):
        r = run_concurrent_disjoint(_event_rows(workload), rounds=3)
        assert r["speedup"] > 1.0, r

    def test_model_fanout(self, workload, benchmark):
        events = workload[:4_000]
        r = benchmark.pedantic(lambda: run_model_fanout(events, rounds=1),
                               rounds=1, iterations=1)
        _report_all({
            "batched_vs_per_row": run_batched_vs_per_row(
                _event_rows(workload)),
            "concurrent_disjoint": run_concurrent_disjoint(
                _event_rows(workload)),
            "model_fanout": r,
        })
        assert r["speedup"] > 1.0, r


# -- standalone entry point (CI bench-smoke job) -----------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="small workload / fewer rounds (CI smoke)")
    ap.add_argument("--json", dest="json_path",
                    help="write timing results to this JSON file")
    args = ap.parse_args(argv)

    events = _workload(hours=2 if args.quick else 6, rate=400)
    results = run_all(events, rounds=2 if args.quick else 3)
    _report_all(results)
    payload = {"bench": "s6_write_path", "quick": args.quick,
               "events": len(events), "results": results}
    if args.json_path:
        with open(args.json_path, "w") as f:
            json.dump(payload, f, indent=2)
        print(f"wrote {args.json_path}")

    ok = (results["batched_vs_per_row"]["speedup"] >= 3.0
          and results["concurrent_disjoint"]["speedup"] > 1.0)
    if not ok:
        print("FAIL: acceptance thresholds not met", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
