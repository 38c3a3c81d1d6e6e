#!/usr/bin/env python3
"""End-to-end benchmark of the request path and the ingest path.

    python3 benchmarks/e2e/run.py [--workload W] [--seed N] [--seconds S]
                                  [--trace {0,1}] [--quick] [--json OUT]
                                  [--spans OUT]

With ``--workload`` and ``--trace`` both given this process runs that
one pass of that one workload and prints, after one ``name value unit
n=samples`` line per metric, a last line of JSON with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  Otherwise it runs every selected workload and pass
that way, each in a fresh interpreter, so that no workload sees
another's writes, caches or heap.  The exit code is non-zero when any
operation or correctness check failed.  README.md explains the rest.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
DEFAULT_SEED = 2017
QUICK_SECONDS = 3.0
REFERENCE_SHARE = 0.25      # of a traced run, measured before tracing starts


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _import_program() -> None:
    """Put the program (``src/``) and this directory on the path; a
    checkout without the program cannot be benchmarked."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.exit(f"run.py: no program to measure: {src}/repro is missing")
    for path in (src, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


# -- one pass of one workload -----------------------------------------------


def _op_metrics(result) -> dict[str, tuple[float, int]]:
    from stats import highest_supported_percentile, percentile

    lat = sorted(result.latencies_ms)
    supported = highest_supported_percentile(len(lat))
    if supported < 95.0:
        print(f"note: {len(lat)} operations support p{supported:g} at most; "
              "op_p95_ms has fewer than ten samples beyond it",
              file=sys.stderr)
    work_slowness = result.work_slowness or result.slowness
    return {
        "op_p50_ms": (percentile(lat, 50) / result.slowness, len(lat)),
        "op_p95_ms": (percentile(lat, 95) / result.slowness, len(lat)),
        "throughput_per_s": (result.work / result.work_s * work_slowness,
                             len(lat)),
    }


def run_untraced(workload, seconds: float):
    """(metrics, slowness of the measured phase)."""
    setups = []
    for _ in range(workload.scale.setups):
        began = time.perf_counter()
        workload.deploy()
        setups.append(time.perf_counter() - began)
    result = workload.phase(seconds)
    workload.verify()
    metrics = _op_metrics(result)
    metrics["setup_s"] = (statistics.median(setups), len(setups))
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)
    return metrics, result.slowness


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def run_traced(workload, seconds: float, spans_path: str | None):
    """(metrics, slowness of the traced phase)."""
    import trace
    from stats import percentile, stolen_seconds
    from workloads import registry_counters

    workload.deploy()
    reference = workload.phase(seconds * REFERENCE_SHARE, REFERENCE_SHARE)
    before, stolen_before = registry_counters(), stolen_seconds()
    recorder = trace.install()
    try:
        traced = workload.phase(seconds * (1.0 - REFERENCE_SHARE),
                                1.0 - REFERENCE_SHARE)
    finally:
        recorder.uninstall()
    after, stolen = registry_counters(), stolen_seconds() - stolen_before
    checked = workload.verify()
    if spans_path:
        recorder.dump(spans_path)

    def delta(name: str) -> float:
        return after.get(name, 0.0) - before.get(name, 0.0)

    counts = recorder.counts
    ops = len(traced.latencies_ms)
    extra = traced.extra
    m: dict[str, tuple[float, int]] = {}
    totals = recorder.layer_totals()
    for layer in trace.LAYERS:
        calls, self_s = totals[layer]["calls"], totals[layer]["self_s"]
        m[f"{layer}.calls"] = (calls, calls)
        m[f"{layer}.self_ms_per_op"] = (_ratio(self_s * 1000.0, ops), ops)
        m[f"{layer}.share"] = (self_s / traced.wall_s, calls)

    requests = counts["server.requests"]
    m["server.result_cache_hit_ratio"] = (
        _ratio(counts["server.cache_hits"], requests), int(requests))
    m["framework.rows_per_request"] = (
        _ratio(counts["framework.rows"], requests), int(requests))
    m["model.rows_written_per_event"] = (
        _ratio(counts["store.rows_written"], counts["model.events_written"]),
        int(counts["model.events_written"]))
    plans = delta("cassdb.query.plan_cache_hits") \
        + delta("cassdb.query.plan_cache_misses")
    m["cql.plan_cache_hit_ratio"] = (
        _ratio(delta("cassdb.query.plan_cache_hits"), plans), int(plans))
    m["cql.rows_returned"] = (counts["cql.rows_returned"],
                              totals["cql"]["calls"])
    reads = counts["cluster.read_calls"]
    m["cluster.partitions_per_read"] = (
        _ratio(counts["cluster.partitions_read"], reads), int(reads))
    m["cluster.replica_reads_per_read"] = (
        _ratio(counts["store.reads"], counts["cluster.partitions_read"]),
        int(counts["cluster.partitions_read"]))
    m["cluster.rows_per_write_batch"] = (
        _ratio(counts["cluster.rows_written"],
               counts["cluster.write_batches"]),
        int(counts["cluster.write_batches"]))
    store_reads = counts["store.reads"]
    probes = delta("cassdb.store.sstable_probes")
    skips = delta("cassdb.store.bloom_skips")
    m["store.sstable_probes_per_read"] = (_ratio(probes, store_reads),
                                          int(store_reads))
    m["store.bloom_skip_ratio"] = (_ratio(skips, skips + probes),
                                   int(skips + probes))
    m["store.rows_pruned_per_read"] = (
        _ratio(delta("cassdb.store.rows_pruned"), store_reads),
        int(store_reads))
    m["store.rows_materialized_per_row_returned"] = (
        _ratio(delta("cassdb.vector.rows_materialized"),
               counts["cluster.rows_returned"]),
        int(counts["cluster.rows_returned"]))
    flushes = recorder.durations_ms("SSTable.from_memtable")
    compactions = recorder.durations_ms("TableStore.compact")
    m["store.flushes"] = (delta("cassdb.store.flushes"), len(flushes))
    m["store.compactions"] = (delta("cassdb.store.compactions"),
                              len(compactions))
    m["store.flush_ms"] = (sum(flushes), len(flushes))
    m["store.compact_ms"] = (sum(compactions), len(compactions))

    jobs = recorder.durations_ms("DAGScheduler.run_job")
    # Micro-batches that did something: an empty logical second (and
    # every tick of the alert stream's minute clock) costs microseconds.
    batches = recorder.durations_ms("StreamingContext.run_batch",
                                    parents_only=True)
    m["sparklet.jobs"] = (len(jobs), len(jobs))
    m["sparklet.tasks_per_job"] = (_ratio(delta("sparklet.tasks"), len(jobs)),
                                   len(jobs))
    m["sparklet.job_ms_p50"] = (percentile(jobs, 50) if jobs else 0.0,
                                len(jobs))
    m["sparklet.microbatch_ms_p50"] = (
        percentile(batches, 50) if batches else 0.0, len(batches))
    m["sparklet.shuffle_waits"] = (delta("sparklet.shuffle.waits"), len(jobs))
    m["sparklet.task_retries"] = (delta("sparklet.task_retries"), len(jobs))

    publishes = recorder.durations_ms("MessageBus.publish")
    m["bus.published"] = (delta("bus.published"), len(publishes))
    m["bus.fetched"] = (delta("bus.fetched_records"), len(publishes))
    m["bus.publish_us_per_record"] = (
        _ratio(sum(publishes) * 1000.0, len(publishes)), len(publishes))
    m["bus.lag_max"] = (extra.get("lag_max", 0), ops)

    parses = recorder.durations_ms("LineParser.parse_line")
    windows = delta("ingest.stream.batches")
    m["ingest.parse_us_per_line"] = (
        _ratio(sum(parses) * 1000.0, len(parses)), len(parses))
    m["ingest.parse_failures"] = (checked.get("parse_failures", 0),
                                  len(parses))
    m["ingest.coalesce_ratio"] = (
        _ratio(delta("ingest.stream.polled") + delta("ingest.lines"),
               delta("ingest.records_written")),
        int(delta("ingest.records_written")))
    m["ingest.events_per_window"] = (
        _ratio(delta("ingest.stream.polled"), windows), int(windows))
    m["ingest.windows"] = (windows, int(windows))
    m["ingest.lag_end"] = (checked.get("lag_end", 0), 1)
    ticks = sorted(extra.get("tick_ms", ()))
    m["ingest.window_p50_ms"] = (percentile(ticks, 50) if ticks else 0.0,
                                 len(ticks))
    m["ingest.window_p95_ms"] = (percentile(ticks, 95) if ticks else 0.0,
                                 len(ticks))
    m["ingest.etl_lines_per_s"] = (
        traced.work / traced.work_s if workload.name == "batch_analytics"
        else 0.0,
        int(extra.get("etl_lines", 0)))

    observes = [s for s in recorder.spans if s[4].endswith(".observe")]
    seen = delta("detect.windows")
    m["detect.observe_us_per_window"] = (
        _ratio(sum(s[6] - s[5] for s in observes) * 1e6, seen), int(seen))
    m["detect.alerts"] = (counts["detect.alerts"], int(seen))
    m["detect.storm_recall"] = (checked.get("storm_recall", 0.0),
                                int(checked.get("storms_scored", 0)))
    m["detect.alert_onset_windows"] = (
        checked.get("alert_onset_windows", 0.0),
        int(checked.get("storms_scored", 0)))
    m["detect.state_keys"] = (after.get("detect.state_keys", 0.0), 1)

    gen2 = [ms for generation, ms in recorder.gc_pauses if generation == 2]
    m["runtime.gc_gen2_pauses"] = (len(gen2), len(recorder.gc_pauses))
    m["runtime.gc_gen2_pause_ms_max"] = (max(gen2, default=0.0), len(gen2))
    m["runtime.gc_pause_ms_total"] = (
        sum(ms for _, ms in recorder.gc_pauses), len(recorder.gc_pauses))

    late = sorted(extra.get("late_ms", ()))
    lat = sorted(traced.latencies_ms)
    m["driver.late_p99_ms"] = (percentile(late, 99) if late else 0.0,
                               len(late))
    m["driver.slowness"] = (traced.slowness, ops)
    m["driver.steal_share"] = (stolen / traced.wall_s, ops)
    m["driver.ops_per_s"] = (extra.get("jobs_per_s", ops / traced.wall_s),
                             ops)
    m["driver.op_p99_ms"] = (percentile(lat, 99), ops)
    m["trace.coverage"] = (
        sum(t["self_s"] for t in totals.values()) / traced.wall_s,
        len(recorder.spans))
    # Traced over untraced, as "times slower", each side calibrated by
    # its own stretch of the run: op latency, or for the drain (whose
    # two stretches hold different operations) inverse throughput.
    if workload.name == "stream_ingest":
        overhead = _ratio(
            reference.work / reference.work_s * reference.slowness,
            traced.work / traced.work_s * traced.slowness)
    else:
        overhead = _ratio(
            percentile(lat, 50) / traced.slowness,
            percentile(sorted(reference.latencies_ms), 50)
            / reference.slowness)
    m["trace.overhead_ratio"] = (overhead, len(reference.latencies_ms))
    return m, traced.slowness


def run_leaf(args, contract: dict) -> int:
    _import_program()
    import stats
    stats.pin_to_one_cpu()      # before the program can start a thread
    import inputs
    from workloads import WORKLOADS

    scale = inputs.QUICK if args.quick else inputs.FULL
    workload = WORKLOADS[args.workload](args.seed, scale, args.seconds)
    try:
        if args.trace:
            metrics, slowness = run_traced(workload, args.seconds, args.spans)
            wanted = contract["per_layer"]
        else:
            metrics, slowness = run_untraced(workload, args.seconds)
            wanted = contract["end_to_end"]
    finally:
        workload.close()

    units = {spec["name"]: spec["unit"] for spec in wanted}
    if set(units) != set(metrics):
        sys.exit("run.py: metrics differ from BENCHMARK.json: "
                 f"{sorted(set(units) ^ set(metrics))}")
    for failure in workload.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "comparable": not args.quick, "slowness": slowness,
        "correct": not workload.failures,
        "attempted": workload.attempted,
        "failed": len(workload.failures),
        "metrics": {name: {"value": value, "unit": units[name],
                           "samples": samples}
                    for name, (value, samples) in metrics.items()},
    }
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
    for name, (value, samples) in metrics.items():
        print(f"{name} {value:.6g} {units[name]} n={samples}")
    print(json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _) in metrics.items()},
    }))
    return 0 if record["correct"] else 1


# -- every workload, every pass, each in a fresh interpreter ----------------


def run_all(args, contract: dict) -> int:
    names = [args.workload] if args.workload else \
        [w["name"] for w in contract["workloads"]]
    passes = [args.trace] if args.trace is not None else [0, 1]
    work = os.path.join(HERE, ".work")
    os.makedirs(work, exist_ok=True)
    scratch = tempfile.mkdtemp(dir=work)
    runs, status = [], 0
    for name in names:
        for traced in passes:
            out = os.path.join(scratch, "leaf.json")
            command = [sys.executable, os.path.abspath(__file__),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds),
                       "--trace", str(traced), "--json", out]
            if args.quick:
                command.append("--quick")
            if args.spans and traced:
                command += ["--spans", f"{args.spans}.{name}.jsonl"]
            done = subprocess.run(command, capture_output=True, text=True)
            sys.stderr.write(done.stderr)
            status = status or done.returncode
            if not os.path.exists(out):
                print(f"{name} trace={traced}: no result "
                      f"(exit {done.returncode})")
                status = status or 1
                continue
            with open(out, encoding="utf-8") as fh:
                record = json.load(fh)
            os.remove(out)
            runs.append(record)
            for metric, m in record["metrics"].items():
                print(f"{name} {metric} {m['value']:.6g} {m['unit']} "
                      f"n={m['samples']}")
            print(f"{name} trace={traced} correct={record['correct']} "
                  f"attempted={record['attempted']} "
                  f"failed={record['failed']}")
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        os.rmdir(work)
    except OSError:
        pass                        # another run is using it
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({
                "git_sha": git_sha(), "seed": args.seed,
                "seconds": args.seconds, "nproc": os.cpu_count(),
                "python": platform.python_version(),
                "comparable": not args.quick, "runs": runs,
            }, fh, indent=1)
    return status


def main(argv=None) -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in contract["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the measured phase "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=None,
                        help="1: traced pass (per-layer metrics); "
                             "0: untraced pass (end-to-end metrics); "
                             "omitted: both")
    parser.add_argument("--quick", action="store_true",
                        help="tiny preload and 3 s phases; smoke use only, "
                             "output is stamped comparable=false")
    parser.add_argument("--json", metavar="OUT",
                        help="also write the full record here")
    parser.add_argument("--spans", metavar="OUT",
                        help="write the traced pass's spans here")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick \
            else float(contract["run_seconds"])
    if args.workload and args.trace is not None:
        return run_leaf(args, contract)
    return run_all(args, contract)


if __name__ == "__main__":
    sys.exit(main())
