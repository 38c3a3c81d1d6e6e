"""S13 — continuous profiling overhead: always-on must mean ~free.

The tentpole of the profiling PR is an always-armed wall-clock sampler
(:class:`~repro.obs.profile.SamplingProfiler`).  Always-on is only
honest if the serving path cannot tell it is being watched, and the
closed loop (flame tables → ``profiles_by_time`` → ``profile_flame``)
actually answers "which code is hot?":

* **sampler overhead** — the S5 warm read mix, in bare rounds
  alternating with rounds under the sampler armed at its default
  50 Hz, must stay within 5% (median over the pairs of rounds);
* **hot-frame reproduction** — a planted CPU-bound function must come
  back as the top hot frame *from rows read out of
  ``profiles_by_time``*, not from process memory;
* **exemplar presence** — after a traced request, the Prometheus
  exposition must carry at least one ``trace_id`` exemplar on a
  latency-bucket line;
* **critical path** — per-component exclusive-time shares of a real
  request tree must sum to its root duration within 5%.

Runs standalone for the CI profile-smoke job::

    PYTHONPATH=src python benchmarks/bench_s13_profiling.py --quick \
        --json BENCH_s13_profiling.json

and as pytest-collected tests against a dense fixture.
"""

import argparse
import asyncio
import json
import statistics
import sys
import time

import pytest

from repro import obs
from repro.bus import MessageBus
from repro.core import AnalyticsServer, LogAnalyticsFramework
from repro.genlog import LogGenerator
from repro.obs.export import render_prometheus
from repro.obs.profile import SamplingProfiler, critical_path
from repro.titan import TitanTopology

from conftest import report


def _query_mix(hours):
    """The S5 interactive mix: per-hour context queries."""
    mix = []
    for hour in range(hours):
        mix.append(("SELECT * FROM event_by_time WHERE hour = ? AND"
                    " type = 'MCE'", (hour,)))
        mix.append(("SELECT * FROM event_by_time WHERE hour = ? AND"
                    " type = 'SEDC' LIMIT 50", (hour,)))
    return mix


def run_sampler_overhead(server, hours, *, hz=50.0, passes=100, rounds=20):
    """The S5 warm mix, bare vs with the sampler armed at *hz*.

    Bare and armed rounds alternate, the sampler armed for each armed
    round alone, and the overhead is the median over the pairs of an
    armed round's time against the bare round before it: a stretch of
    box noise falls on both rounds of a pair, and one stalled or lucky
    round moves a median little.  The sampler takes its first sample
    one period after it is armed; a round of 100 passes spans about
    five sampling periods at 50 Hz, and every armed round must draw
    samples."""
    requests = [{"op": "cql", "statement": stmt, "params": list(params)}
                for stmt, params in _query_mix(hours)]

    def one_pass():
        for resp in asyncio.run(server.handle_many(requests)):
            assert resp["ok"], resp

    one_pass()  # prime plan + result caches: the warm mix

    def timed_round():
        t0 = time.perf_counter()
        for _ in range(passes):
            one_pass()
        return time.perf_counter() - t0

    profiler = SamplingProfiler(hz=hz)
    bare, armed, drawn = [], [], []
    for _ in range(rounds):
        bare.append(timed_round())
        before = profiler.samples
        with profiler:
            armed.append(timed_round())
        drawn.append(profiler.samples - before)
    ratio = statistics.median(a / b for a, b in zip(armed, bare))
    return {
        "hz": hz,
        "passes": passes,
        "rounds": rounds,
        "baseline_s": statistics.median(bare),
        "with_sampler_s": statistics.median(armed),
        "overhead_pct": (ratio - 1.0) * 100.0,
        "periods_per_round": statistics.median(armed) * hz,
        "round_samples_min": min(drawn),
        "round_samples_median": statistics.median(drawn),
        "samples": profiler.samples,
        "stacks": profiler.stack_count(),
        "dropped_frames": profiler.dropped_frames,
    }


def _planted_burn(seconds):
    """The known-answer workload: this frame must come back hot."""
    end = time.perf_counter() + seconds
    acc = 0
    while time.perf_counter() < end:
        for i in range(2048):
            acc += i * i
    return acc


def run_hot_frame_reproduction(fw, server, *, hz=200.0, seconds=0.5):
    """Sample a planted burn, self-ingest, read profiles_by_time back."""
    bus = MessageBus()
    profiler = SamplingProfiler(hz=hz)
    pipeline = fw.telemetry_pipeline(bus, profiler=profiler,
                                     group_id="bench-s13-profile")
    tracer = obs.get_tracer()
    t_start = time.time()
    with profiler:
        with tracer.root_span("server.bench_burn"):
            _planted_burn(seconds)
    pipeline.run_once(force=True)
    response = server.handle_sync({
        "op": "profile_flame", "component": "server", "top": 3,
        "t0": t_start - 120.0, "t1": time.time() + 120.0,
    })
    assert response["ok"], response
    result = response["result"]
    hot = result["hot"]
    return {
        "hz": hz,
        "burn_s": seconds,
        "samples": result["samples"],
        "stacks": result["stacks"],
        "top_function": hot[0]["function"] if hot else None,
        "reproduced": bool(hot) and "_planted_burn" in hot[0]["function"],
    }


def run_exemplar_check(server):
    """A traced request must leave a trace_id exemplar in the text
    exposition — the latency-spike-to-trace link, end to end."""
    resp = server.handle_sync({"op": "event_types"})
    assert resp["ok"], resp
    text = render_prometheus(server.registry)
    exemplar_lines = [line for line in text.splitlines()
                      if "_bucket" in line and 'trace_id="' in line]
    return {
        "exemplar_lines": len(exemplar_lines),
        "sample": exemplar_lines[0] if exemplar_lines else None,
        "present": bool(exemplar_lines),
    }


def run_critical_path_check(fw, server, hours):
    """Component shares of a real request must account for the root
    span's duration within 5% (well-nested trees lose nothing)."""
    ctx = fw.context(0.0, hours * 3600.0, event_types=("MCE",)).to_json()
    resp = server.handle_sync({"op": "heatmap", "context": ctx})
    assert resp["ok"], resp
    result = critical_path(obs.get_tracer().last_trace())
    gap_pct = (abs(result["accounted_ms"] - result["total_ms"])
               / result["total_ms"] * 100.0 if result["total_ms"] else 0.0)
    return {
        "root": result["root"],
        "total_ms": result["total_ms"],
        "accounted_ms": result["accounted_ms"],
        "gap_pct": gap_pct,
        "components": {c["component"]: round(c["share"], 4)
                       for c in result["components"]},
        "within_5pct": gap_pct <= 5.0,
    }


def run_all(fw, server, hours, *, passes=100, rounds=20):
    return {
        "sampler_overhead": run_sampler_overhead(
            server, hours, passes=passes, rounds=rounds),
        "hot_frame": run_hot_frame_reproduction(fw, server),
        "exemplars": run_exemplar_check(server),
        "critical_path": run_critical_path_check(fw, server, hours),
    }


def _report_all(results):
    so, hf = results["sampler_overhead"], results["hot_frame"]
    ex, cp = results["exemplars"], results["critical_path"]
    report("S13: continuous profiling", [
        ("experiment", "baseline", "armed", "note"),
        ("warm read mix", f"{so['baseline_s']:.4f}s",
         f"{so['with_sampler_s']:.4f}s",
         f"{so['overhead_pct']:+.2f}% @ {so['hz']:g} Hz,"
         f" >= {so['round_samples_min']} samples a round"),
        ("hot frame", f"{hf['burn_s']:g}s burn",
         f"{hf['samples']} samples",
         "reproduced" if hf["reproduced"] else "MISSED"),
        ("exemplars", "-", f"{ex['exemplar_lines']} lines",
         "present" if ex["present"] else "MISSING"),
        ("critical path", f"{cp['total_ms']:.2f}ms root",
         f"{cp['accounted_ms']:.2f}ms accounted",
         f"gap {cp['gap_pct']:.2f}%"),
    ])


def _build(hours, rate, cols=1):
    obs.reset_observability()
    topo = TitanTopology(rows=1, cols=cols)
    events = LogGenerator(topo, seed=2017, rate_multiplier=rate,
                          storms_per_day=4).generate(hours)
    fw = LogAnalyticsFramework(topo, db_nodes=4, replication_factor=2).setup()
    fw.ingest_events(events)
    server = AnalyticsServer(fw, result_cache_size=512,
                             result_cache_ttl=300.0)
    return fw, server, events


# -- pytest entry points -----------------------------------------------------

@pytest.fixture(scope="module")
def dense():
    fw, server, _events = _build(hours=3, rate=400)
    yield fw, server
    fw.stop()


class TestProfilingOverhead:
    def test_sampler_overhead_within_budget(self, dense):
        _fw, server = dense
        r = run_sampler_overhead(server, hours=3)
        # CI smoke holds the 5% line; under pytest give scheduler noise
        # a little more headroom.
        assert r["overhead_pct"] <= 10.0, r
        assert r["round_samples_min"] > 0, r

    def test_hot_frame_reproduced_from_store(self, dense):
        fw, server = dense
        r = run_hot_frame_reproduction(fw, server, seconds=0.3)
        assert r["reproduced"], r

    def test_exemplar_present(self, dense):
        _fw, server = dense
        r = run_exemplar_check(server)
        assert r["present"], r

    def test_critical_path_accounts_root(self, dense, benchmark):
        fw, server = dense
        r = benchmark.pedantic(run_critical_path_check, args=(fw, server, 3),
                               rounds=1, iterations=1)
        assert r["within_5pct"], r


# -- standalone entry point (CI profile-smoke job) ---------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="small topology / few passes (CI smoke)")
    ap.add_argument("--json", dest="json_path",
                    help="write timing results to this JSON file")
    args = ap.parse_args(argv)

    hours = 3 if args.quick else 6
    fw, server, events = _build(hours=hours, rate=400,
                                cols=1 if args.quick else 2)
    try:
        results = run_all(fw, server, hours)
    finally:
        fw.stop()
    _report_all(results)
    payload = {"bench": "s13_profiling", "quick": args.quick,
               "events": len(events), "hours": hours, "results": results}
    if args.json_path:
        with open(args.json_path, "w") as f:
            json.dump(payload, f, indent=2)
        print(f"wrote {args.json_path}")

    ok = (results["sampler_overhead"]["overhead_pct"] <= 5.0
          and results["sampler_overhead"]["round_samples_min"] > 0
          and results["hot_frame"]["reproduced"]
          and results["exemplars"]["present"]
          and results["critical_path"]["within_5pct"])
    if not ok:
        print("FAIL: acceptance thresholds not met", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
