"""Command-line interface: ``python -m repro <command>``.

A thin operational layer over the library for users who want the
paper's workflow without writing Python:

* ``generate`` — write synthetic raw log files (+ a job history);
* ``ingest``   — batch-ETL raw logs and report ETL health;
* ``analyze``  — one-shot analytics on raw logs: heat map, hot spots,
  temporal map, or storm keywords for a time window;
* ``metrics``  — run a query workload through the analytics server and
  dump the observability picture (metrics snapshot, span tree of the
  last request, slow-query log) as JSON; ``--serve PORT`` keeps a
  Prometheus ``/metrics`` scrape endpoint up afterwards;
* ``profile``  — arm the sampling profiler over a planted CPU-bound
  workload, self-ingest the flame tables through the telemetry loop,
  and read them back out of ``profiles_by_time`` as folded stacks
  (flamegraph.pl-compatible) plus a hot-function table;
* ``top``      — the self-ingestion loop, live: a seeded workload runs
  while its own telemetry streams through the bus into
  ``metrics_by_time``/``spans_by_time``, rendered as a text dashboard
  (``--once``/``--json`` for scripts and CI);
* ``alerts``   — stream a seeded workload (storms included) through the
  anomaly-detection pipeline and tail the alerts that land in
  ``alerts_by_time`` (``--json``/``--since``/``--severity``);
* ``topology`` — inspect the Titan coordinate system;
* ``explain``  — show the optimized query plan for a CQL statement
  against the paper's data model (``--json`` for the raw plan tree);
* ``chaos``    — run the deterministic fault-injection scenarios and
  check their resilience invariants (``chaos list`` names them).

Every command is deterministic given ``--seed``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from typing import Sequence

from repro.core import LogAnalyticsFramework
from repro.genlog import JobGenerator, LogGenerator
from repro.titan import NodeLocation, TitanTopology

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HPC log analytics framework "
                    "(Park et al., CLUSTER 2017 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_machine_args(p):
        p.add_argument("--rows", type=int, default=1,
                       help="cabinet rows (<= 25)")
        p.add_argument("--cols", type=int, default=2,
                       help="cabinet columns (<= 8)")
        p.add_argument("--seed", type=int, default=2017)

    gen = sub.add_parser("generate", help="write synthetic raw logs")
    add_machine_args(gen)
    gen.add_argument("--hours", type=float, default=12.0)
    gen.add_argument("--rate-multiplier", type=float, default=40.0)
    gen.add_argument("--storms-per-day", type=float, default=2.0)
    gen.add_argument("--jobs", action="store_true",
                     help="also write a jobs.json history")
    gen.add_argument("--out", required=True, help="output directory")

    ing = sub.add_parser("ingest", help="batch ETL raw logs, report health")
    add_machine_args(ing)
    ing.add_argument("logs", nargs="+", help="raw log files (globs ok)")
    ing.add_argument("--coalesce", type=float, default=1.0,
                     help="coalescing window seconds (0 = off)")

    ana = sub.add_parser("analyze", help="run one analytic over raw logs")
    add_machine_args(ana)
    ana.add_argument("logs", nargs="+", help="raw log files (globs ok)")
    ana.add_argument("--view", required=True,
                     choices=["heatmap", "hotspots", "temporal",
                              "keywords", "synopsis"])
    ana.add_argument("--event-type", default="MCE")
    ana.add_argument("--t0", type=float, default=0.0)
    ana.add_argument("--t1", type=float, default=None,
                     help="window end seconds (default: all data)")
    ana.add_argument("--json", action="store_true", dest="as_json",
                     help="emit JSON instead of text rendering")

    met = sub.add_parser(
        "metrics",
        help="run a query workload and dump telemetry as JSON")
    add_machine_args(met)
    met.add_argument("logs", nargs="+", help="raw log files (globs ok)")
    met.add_argument("--op", default="heatmap",
                     choices=["heatmap", "hotspots", "histogram",
                              "distribution", "keywords"],
                     help="server op to drive through the span tree")
    met.add_argument("--event-type", default="MCE")
    met.add_argument("--repeat", type=int, default=1,
                     help="issue the op this many times")
    met.add_argument("--slow-ms", type=float, default=0.0,
                     help="slow-query threshold (0 logs everything)")
    met.add_argument("--slow-json", dest="slow_json", default=None,
                     help="also write the slow-query log to this file in "
                          "stable form (no wall clock / timings) so two "
                          "runs of the same workload diff clean in CI")
    met.add_argument("--serve", type=int, default=None, metavar="PORT",
                     help="after the workload, serve Prometheus text "
                          "exposition at /metrics on this port "
                          "(0 = ephemeral) instead of exiting")
    met.add_argument("--serve-seconds", type=float, default=0.0,
                     help="with --serve: stop after this many seconds "
                          "(0 = until interrupted)")

    prof = sub.add_parser(
        "profile",
        help="sample a planted CPU-bound workload, self-ingest the "
             "flame tables, read them back from profiles_by_time")
    add_machine_args(prof)
    prof.add_argument("--hz", type=float, default=50.0,
                      help="sampling rate (wall-clock samples/second)")
    prof.add_argument("--seconds", type=float, default=1.0,
                      help="planted workload duration")
    prof.add_argument("--top", type=int, default=10,
                      help="hot-function table size")
    prof.add_argument("--component", default=None,
                      help="restrict output to one component "
                           "(server/cql/cassdb/sparklet/bus/ingest/detect)")
    prof.add_argument("--once", action="store_true",
                      help="accepted for symmetry with `top` (profile "
                           "always runs one cycle)")
    prof.add_argument("--json", action="store_true", dest="as_json",
                      help="emit the full profile_flame payload as JSON")
    prof.add_argument("--stable-json", dest="stable_json", default=None,
                      help="also write a deterministic summary (top hot "
                           "function of the planted workload) to this "
                           "file so two runs byte-diff clean in CI")

    top = sub.add_parser(
        "top",
        help="live dashboard fed by the system's own self-ingested "
             "telemetry")
    add_machine_args(top)
    top.add_argument("--hours", type=float, default=0.5,
                     help="synthetic workload span")
    top.add_argument("--rate-multiplier", type=float, default=20.0)
    top.add_argument("--storms-per-day", type=float, default=2.0)
    top.add_argument("--storm-events-per-node", type=float, default=4.0)
    top.add_argument("--interval", type=float, default=1.0,
                     help="snapshot + refresh interval seconds")
    top.add_argument("--frames", type=int, default=0,
                     help="stop after N frames (0 = until interrupted)")
    top.add_argument("--once", action="store_true",
                     help="render a single frame and exit")
    top.add_argument("--json", action="store_true", dest="as_json",
                     help="emit machine-readable frames instead of the "
                          "dashboard")

    al = sub.add_parser(
        "alerts",
        help="stream a seeded workload through anomaly detection and "
             "tail the resulting alerts")
    add_machine_args(al)
    al.add_argument("--hours", type=float, default=1.0,
                    help="synthetic workload span")
    al.add_argument("--rate-multiplier", type=float, default=40.0)
    al.add_argument("--storms-per-day", type=float, default=48.0)
    al.add_argument("--storm-events-per-node", type=float, default=20.0)
    al.add_argument("--since", type=float, default=None,
                    help="only alerts at/after this event-time second")
    al.add_argument("--severity", default=None,
                    choices=["info", "warning", "critical"])
    al.add_argument("--tail", type=int, default=20,
                    help="show the newest N alerts (0 = all)")
    al.add_argument("--json", action="store_true", dest="as_json",
                    help="emit the alerts server-op response as JSON")

    topo = sub.add_parser("topology", help="inspect Titan coordinates")
    topo.add_argument("query", help="a cname (c3-17c1s5n2) or node index")

    exp = sub.add_parser(
        "explain",
        help="show the optimized query plan for a CQL statement")
    exp.add_argument("statement",
                     help="a CQL statement (a leading EXPLAIN is optional)")
    exp.add_argument("--json", action="store_true", dest="as_json",
                     help="emit the raw plan JSON instead of the tree")

    chaos = sub.add_parser(
        "chaos", help="deterministic fault injection + invariant checks")
    chaos_sub = chaos.add_subparsers(dest="chaos_command", required=True)
    chaos_sub.add_parser("list", help="name the available scenarios")
    chaos_run = chaos_sub.add_parser(
        "run", help="run scenarios and verify resilience invariants")
    chaos_run.add_argument("--scenario", action="append", default=None,
                           help="scenario name (repeatable; default: all)")
    chaos_run.add_argument("--seed", type=int, default=2017)
    chaos_run.add_argument("--quick", action="store_true",
                           help="smaller workloads (CI smoke)")
    chaos_run.add_argument("--json", dest="json_path", default=None,
                           help="also write the report to this file")

    return parser


def _log_paths(args) -> list[str] | None:
    """The files ``args.logs`` names, globs expanded; None, after one
    line on stderr, when a name matches no file."""
    out: list[str] = []
    for pattern in args.logs:
        matches = sorted(glob.glob(pattern))
        if not matches:
            print(f"{pattern}: no such log file", file=sys.stderr)
            return None
        out.extend(matches)
    return out


def _framework(args) -> LogAnalyticsFramework:
    topo = TitanTopology(rows=args.rows, cols=args.cols)
    return LogAnalyticsFramework(topo, db_nodes=4).setup()


def _cmd_generate(args) -> int:
    topo = TitanTopology(rows=args.rows, cols=args.cols)
    gen = LogGenerator(topo, seed=args.seed,
                       rate_multiplier=args.rate_multiplier,
                       storms_per_day=args.storms_per_day)
    events = gen.generate(args.hours)
    paths = gen.write_log_files(args.out, events)
    print(f"wrote {len(events)} events across "
          f"{len(paths)} files in {args.out}")
    for source, path in sorted(paths.items()):
        print(f"  {source}: {path}")
    truth_path = os.path.join(args.out, "ground_truth.json")
    with open(truth_path, "w", encoding="utf-8") as fh:
        json.dump({
            "hot_nodes": gen.ground_truth.hot_nodes,
            "storms": [
                {"start": s.start, "duration": s.duration, "ost": s.ost,
                 "num_events": s.num_events}
                for s in gen.ground_truth.storms
            ],
            "cascades": gen.ground_truth.cascades,
        }, fh, indent=2)
    print(f"  ground truth: {truth_path}")
    labels_path = os.path.join(args.out, "labels.json")
    with open(labels_path, "w", encoding="utf-8") as fh:
        json.dump([
            {"event_index": idx, "burst_id": burst_id, "kind": kind}
            for idx, burst_id, kind in gen.ground_truth.labels
        ], fh)
    print(f"  labels: {labels_path} "
          f"({len(gen.ground_truth.labels)} injected events)")
    if args.jobs:
        runs = JobGenerator(topo, seed=args.seed).generate(args.hours)
        jobs_path = os.path.join(args.out, "jobs.json")
        with open(jobs_path, "w", encoding="utf-8") as fh:
            json.dump([
                {"apid": r.apid, "app": r.app, "user": r.user,
                 "start": r.start, "end": r.end, "nodes": list(r.nodes),
                 "exit_status": r.exit_status}
                for r in runs
            ], fh)
        print(f"  jobs: {jobs_path} ({len(runs)} runs)")
    return 0


def _cmd_ingest(args) -> int:
    paths = _log_paths(args)
    if paths is None:
        return 2
    fw = _framework(args)
    stats = fw.ingest_batch(paths, coalesce_seconds=args.coalesce or None)
    print(f"lines:     {stats.lines}")
    print(f"parsed:    {stats.parsed}")
    print(f"unparsed:  {stats.unparsed}")
    print(f"written:   {stats.written}")
    print(f"coalesced: {stats.coalesced_away}")
    fw.stop()
    return 0 if stats.unparsed == 0 else 1


def _data_horizon(fw, t0: float) -> float:
    """End of data: latest event time (+1 s) across the full store."""
    (row,) = fw.session.execute("SELECT max(ts) FROM event_by_time")
    return (t0 if row["max_ts"] is None else row["max_ts"]) + 1.0


def _cmd_analyze(args) -> int:
    paths = _log_paths(args)
    if paths is None:
        return 2
    fw = _framework(args)
    fw.ingest_batch(paths, coalesce_seconds=None)
    t1 = args.t1
    if t1 is None:
        t1 = _data_horizon(fw, args.t0)
    ctx = fw.context(args.t0, max(t1, args.t0 + 1.0),
                     event_types=(args.event_type,))
    if args.view == "heatmap":
        counts = fw.heatmap(ctx, "node")
        if args.as_json:
            print(json.dumps(fw.system_map.to_json(counts)))
        else:
            print(fw.render_heatmap(ctx, title=f"{args.event_type} heat map"))
    elif args.view == "hotspots":
        spots = fw.hotspots(ctx)
        payload = [
            {"component": h.component, "count": h.count,
             "expected": round(h.expected, 2),
             "z": round(h.z_score, 2)}
            for h in spots
        ]
        print(json.dumps(payload, indent=None if args.as_json else 2))
    elif args.view == "temporal":
        if args.as_json:
            edges, counts = fw.time_histogram(ctx, 24)
            print(json.dumps({"edges": edges.tolist(),
                              "counts": counts.tolist()}))
        else:
            print(fw.render_temporal_map(ctx, num_bins=24,
                                         title=f"{args.event_type} over time"))
    elif args.view == "keywords":
        terms = fw.keywords(ctx, n=10)
        if args.as_json:
            print(json.dumps(terms))
        else:
            print(fw.render_word_bubbles(ctx, n=10))
    else:  # synopsis
        fw.refresh_synopsis()
        hours = fw.cluster.schema("eventsynopsis").buckets(ctx.t0, ctx.t1)
        rows = [r for h in hours for r in fw.model.synopsis_for_hour(h)]
        print(json.dumps(rows, indent=None if args.as_json else 2))
    fw.stop()
    return 0


def _cmd_metrics(args) -> int:
    """Ingest, serve --repeat requests, print the telemetry picture."""
    import asyncio

    from repro import obs
    from repro.core import AnalyticsServer

    paths = _log_paths(args)
    if paths is None:
        return 2
    fw = _framework(args)
    fw.ingest_batch(paths, coalesce_seconds=None)
    slow_log = obs.SlowQueryLog(threshold_ms=args.slow_ms)
    # --repeat times the op itself: every repeat reads the store.
    server = AnalyticsServer(fw, slow_log=slow_log, result_cache_size=0)
    ctx = fw.context(0.0, _data_horizon(fw, 0.0),
                     event_types=(args.event_type,))
    request = {"op": args.op, "context": ctx.to_json()}

    async def drive():
        for _ in range(max(1, args.repeat)):
            response = await server.handle(request)
            if not response["ok"]:
                raise SystemExit(f"request failed: {response['error']}")
        return await server.handle({"op": "trace"})

    trace = asyncio.run(drive())
    print(json.dumps({
        "op": args.op,
        "requests": server.requests_served,
        "metrics": server.registry.snapshot(),
        "trace": trace["result"],
        "slow_queries": slow_log.entries(),
    }, indent=2))
    if args.slow_json:
        stable = asyncio.run(
            server.handle({"op": "slow_queries", "stable": True}))
        with open(args.slow_json, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(stable["result"], indent=2,
                                sort_keys=True) + "\n")
    if args.serve is not None:
        import time as _time

        from repro.obs.export import MetricsHTTPServer

        scrape = MetricsHTTPServer(server.registry, port=args.serve).start()
        print(f"serving /metrics on http://127.0.0.1:{scrape.port}/metrics",
              flush=True)
        try:
            if args.serve_seconds > 0:
                _time.sleep(args.serve_seconds)
            else:
                while True:
                    _time.sleep(3600.0)
        except KeyboardInterrupt:
            pass
        scrape.stop()
    fw.stop()
    return 0


def _burn_cpu(seconds: float) -> int:
    """The planted hot function: pure-Python arithmetic the sampler must
    attribute — its frame is the known answer ``repro profile`` checks
    after the flame tables round-trip through ``profiles_by_time``."""
    import time as _time

    end = _time.perf_counter() + seconds
    acc = 0
    while _time.perf_counter() < end:
        for i in range(2048):
            acc += i * i
    return acc


def _cmd_profile(args) -> int:
    """Arm the sampler over a planted workload, push the flame-table
    deltas through the self-ingestion loop, and report what came back
    out of ``profiles_by_time`` — the read path is the proof."""
    import time as _time

    from repro import obs
    from repro.bus import MessageBus
    from repro.core import AnalyticsServer
    from repro.obs.profile import SamplingProfiler

    topo = TitanTopology(rows=args.rows, cols=args.cols)
    fw = LogAnalyticsFramework(topo, db_nodes=4).setup(load_nodeinfos=False)
    bus = MessageBus()
    server = AnalyticsServer(fw)
    profiler = SamplingProfiler(hz=args.hz)
    pipeline = fw.telemetry_pipeline(bus, profiler=profiler)
    tracer = obs.get_tracer()
    t_start = _time.time()
    with profiler:
        with tracer.root_span("server.profile_workload"):
            _burn_cpu(args.seconds)
    pipeline.run_once(force=True)
    window = {"t0": t_start - 120.0, "t1": _time.time() + 120.0}
    request = {"op": "profile_flame", "top": args.top, **window}
    if args.component:
        request["component"] = args.component
    response = server.handle_sync(request)
    if not response["ok"]:
        print(f"profile_flame failed: {response['error']}", file=sys.stderr)
        fw.stop()
        return 1
    result = response["result"]
    if args.as_json:
        print(json.dumps({
            "hz": args.hz, "seconds": args.seconds,
            "samples": result["samples"], "stacks": result["stacks"],
            "dropped_frames": profiler.dropped_frames,
            "folded": result["folded"], "hot": result["hot"],
        }))
    else:
        for line in result["folded"]:
            print(line)
        print(f"\n{result['samples']} samples, {result['stacks']} stacks "
              f"@ {args.hz:g} Hz  (dropped {profiler.dropped_frames})")
        print(f"{'HOT FUNCTION':<56} {'SAMPLES':>8}")
        for entry in result["hot"]:
            print(f"{entry['function']:<56} {entry['samples']:>8}")
    if args.stable_json:
        # The planted workload dominates the "server" component, so its
        # top hot frame is the same function every run — a byte-stable
        # witness that sampling, attribution and the round trip work.
        stable = server.handle_sync({
            "op": "profile_flame", "component": "server", "top": 1,
            **window})["result"]
        hot = stable["hot"]
        with open(args.stable_json, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({
                "hot_function": hot[0]["function"] if hot else None,
                "planted_found": any(
                    h["function"].endswith("_burn_cpu") for h in hot),
                "sampled": stable["samples"] > 0,
            }, indent=2, sort_keys=True) + "\n")
    fw.stop()
    return 0


def _stream_with_detection(fw, bus, events):
    """Publish *events* to the bus and drain them through streaming
    ingest with the detection workload attached — the full §III-D
    pipeline plus the watcher, shared by ``alerts`` and ``top``."""
    from repro.ingest import LogProducer
    from repro.ingest.parsers import ParsedEvent

    producer = LogProducer(bus, "events")
    # Producer-side parsing already done (the generator emits structured
    # events); adapt to the wire shape instead of render+reparse.
    producer.publish_events([
        ParsedEvent(ts=e.ts, type=e.type, component=e.component,
                    source=e.source, amount=e.amount, attrs=e.attrs)
        for e in events
    ])
    ingestor = fw.streaming_ingestor(bus, "events")
    detection = fw.attach_detection(ingestor, bus)
    while ingestor.process_available():
        pass
    ingestor.flush()
    return ingestor, detection, detection.drain()


def _fmt_alert(alert: dict) -> str:
    evidence = alert.get("evidence") or {}
    brief = " ".join(
        f"{k}={evidence[k]}" for k in sorted(evidence)
        if not isinstance(evidence[k], (dict, list))
    )[:58]
    return (f"  [{alert['ts']:>9.1f}s] {alert['severity'].upper():<8} "
            f"{alert['detector']:<14} {alert['key']:<24} "
            f"score={alert['score']:<8g} {brief}")


def _cmd_alerts(args) -> int:
    """Stream a seeded workload (storms included) through detection and
    read the alerts back through the server op — the full round trip:
    detector → alerts topic → alerts_by_time → ``alerts`` op."""
    from repro.bus import MessageBus
    from repro.core import AnalyticsServer

    topo = TitanTopology(rows=args.rows, cols=args.cols)
    fw = LogAnalyticsFramework(topo, db_nodes=4).setup()
    gen = LogGenerator(topo, seed=args.seed,
                       rate_multiplier=args.rate_multiplier,
                       storms_per_day=args.storms_per_day,
                       storm_events_per_node=args.storm_events_per_node)
    events = gen.generate(args.hours)
    bus = MessageBus()
    _ingestor, _detection, stats = _stream_with_detection(fw, bus, events)
    server = AnalyticsServer(fw)
    t1 = args.hours * 3600.0 + 120.0
    request = {"op": "alerts", "t0": args.since or 0.0, "t1": t1,
               "limit": args.tail}
    if args.severity:
        request["severity"] = args.severity
    response = server.handle_sync(request)
    if not response["ok"]:
        print(f"alerts op failed: {response['error']}", file=sys.stderr)
        fw.stop()
        return 1
    result = response["result"]
    if args.as_json:
        print(json.dumps(result))
    else:
        summary = server.handle_sync(
            {"op": "alert_summary", "t0": 0.0, "t1": t1})["result"]
        sev = summary["by_severity"]
        print(f"ALERTS — showing {len(result['alerts'])} of "
              f"{result['total']} "
              f"({sev.get('critical', 0)} critical, "
              f"{sev.get('warning', 0)} warning, {sev.get('info', 0)} info; "
              f"{len(gen.ground_truth.storms)} storms injected, "
              f"{stats['windows']} windows watched)")
        for alert in result["alerts"]:
            print(_fmt_alert(alert))
    fw.stop()
    return 0


def _render_top_frame(frame: dict) -> str:
    """One dashboard frame as plain text (no curses: pipe-friendly)."""
    health = frame["health"]
    ring = health["ring"]
    lines = [
        f"repro top — frame {frame['frame']}  "
        f"[{health['status']}]  "
        f"ring {ring['alive']}/{ring['nodes']} up, rf={ring['replication_factor']}",
        f"server: {health['server']['requests_served']} requests, "
        f"{health['server']['errors']} errors   "
        f"telemetry rows: {frame['telemetry']['metrics_rows']} metric, "
        f"{frame['telemetry']['spans_rows']} span, "
        f"{frame['telemetry'].get('profiles_rows', 0)} profile",
    ]
    prof = frame.get("profile")
    if prof is not None:
        hot = ", ".join(
            f"{h['function'].rsplit('.', 1)[-1]} ({h['samples']})"
            for h in prof["hot"][:3]) or "(no samples yet)"
        lines.append(f"profile: {prof['samples']:g} wall-clock samples   "
                     f"hot: {hot}")
    sched = frame.get("scheduler")
    if sched:
        lines.append(
            f"scheduler: {sched['active_jobs']:g} active jobs   "
            f"shuffles {sched['shuffles_materialized']:g} materialized, "
            f"{sched['shuffles_reused']:g} reused")
    ingest = frame.get("ingest")
    if ingest:
        lines.append(
            f"ingest: lag {ingest['lag']:g}   "
            f"{ingest['polled']:g} polled → {ingest['written']:g} written "
            f"({ingest['coalesced_away']:g} coalesced away)")
    alerts = frame.get("alerts")
    if alerts is not None:
        sev = alerts.get("by_severity", {})
        lines.append(
            f"alerts: {alerts['total']} total — "
            f"{sev.get('critical', 0)} critical, "
            f"{sev.get('warning', 0)} warning, "
            f"{sev.get('info', 0)} info")
    lines += [
        "",
        f"{'METRIC':<42} {'KIND':<10} {'VALUE':>12} {'DELTA':>10}",
    ]
    for m in frame["metrics"]:
        delta = m.get("delta")
        lines.append(
            f"{m['name']:<42} {m['kind']:<10} "
            f"{m['value']:>12.6g} {'' if delta is None else f'{delta:>+10.6g}'}")
    lines.append("")
    lines.append("SLOWEST TRACES (self-ingested spans)")
    for i, t in enumerate(frame["slowest"], 1):
        lines.append(
            f"  {i}. {t['name']:<32} {t['duration_ms']:>9.3f} ms  "
            f"trace={t['trace_id']} spans={t['spans']}")
    if frame["slow_queries"]:
        lines.append("")
        lines.append("SLOW QUERIES")
        for e in frame["slow_queries"][-5:]:
            lines.append(f"  {e['op']:<20} {e['outcome']}")
    return "\n".join(lines)


def _cmd_top(args) -> int:
    """The self-ingestion loop, end to end, on a seeded workload: the
    dashboard's every number was exported by the system, published to
    its own bus, streamed back through ingest and read out of its own
    cassdb tables."""
    import asyncio
    import time as _time

    from repro import obs
    from repro.bus import MessageBus
    from repro.core import AnalyticsServer

    topo = TitanTopology(rows=args.rows, cols=args.cols)
    fw = LogAnalyticsFramework(topo, db_nodes=4).setup()
    bus = MessageBus()
    # The continuous profiler rides the same loop: armed before the
    # ingest so the streaming workload itself is sampled, its flame
    # tables land in profiles_by_time and the dashboard's hotspots
    # line reads them back like everything else.
    from repro.obs.profile import SamplingProfiler

    profiler = SamplingProfiler().start()
    # The workload arrives the way production events would: published
    # to the bus, streamed through 1 s micro-batches into the model,
    # with the detection workload watching the same windows.
    _ingestor, _detection, _ = _stream_with_detection(
        fw, bus,
        LogGenerator(topo, seed=args.seed,
                     rate_multiplier=args.rate_multiplier,
                     storms_per_day=args.storms_per_day,
                     storm_events_per_node=args.storm_events_per_node)
        .generate(args.hours))
    slow_log = obs.SlowQueryLog(threshold_ms=0.0, capacity=64)
    server = AnalyticsServer(fw, slow_log=slow_log)
    pipeline = fw.telemetry_pipeline(bus, interval_s=args.interval,
                                     profiler=profiler)
    data_t1 = _data_horizon(fw, 0.0)
    ctx = fw.context(0.0, data_t1).to_json()
    workload = [{"op": "heatmap", "context": ctx},
                {"op": "hotspots", "context": ctx},
                {"op": "synopsis", "hour": 0}]

    async def one_frame(n: int) -> dict:
        for request in workload:
            response = await server.handle(request)
            if not response["ok"]:
                raise SystemExit(f"workload failed: {response['error']}")
        stats = pipeline.run_once(force=True)
        now = _time.time()
        t0, t1 = now - 900.0, now + args.interval + 1.0
        # Latest point per metric, read back from metrics_by_time.
        latest: dict[str, dict] = {}
        table_rows = 0
        for row in fw.cluster.scan_table("metrics_by_time"):
            table_rows += 1
            name = row["metric_name"]
            best = latest.get(name)
            if best is None or (row["ts"], row["seq"]) > (best["ts"],
                                                          best["seq"]):
                latest[name] = row
        metrics = []
        for name, row in sorted(latest.items()):
            # Histogram rows carry count/delta_count instead of a value.
            value = row.get("value", row.get("count"))
            delta = row.get("delta", row.get("delta_count"))
            m = {"name": name, "kind": row["kind"], "ts": row["ts"],
                 "value": value}
            if delta is not None:
                m["delta"] = delta
            if row["kind"] == "histogram":
                m["p95"] = row["p95"]
            metrics.append(m)
        spans = (await server.handle(
            {"op": "telemetry_spans", "t0": t0, "t1": t1, "limit": 5}
        ))["result"]

        def tree_size(node):
            return 1 + sum(tree_size(c) for c in node["children"])

        health = (await server.handle({"op": "health"}))["result"]
        slow = (await server.handle(
            {"op": "slow_queries", "stable": True}))["result"]

        def latest_value(name: str) -> float:
            row = latest.get(name)
            if row is None:
                return 0
            return row.get("value", row.get("count")) or 0

        # Sparklet scheduler/shuffle series, read back (like every
        # other number on the dashboard) from the self-ingested tables.
        scheduler = {
            "active_jobs": latest_value("sparklet.scheduler.active_jobs"),
            "shuffles_materialized":
                latest_value("sparklet.shuffle.materialized"),
            "shuffles_reused": latest_value("sparklet.shuffle.reused"),
        }
        ingest = {
            "lag": latest_value("ingest.stream.lag"),
            "polled": latest_value("ingest.stream.polled"),
            "written": latest_value("ingest.stream.written"),
            "coalesced_away": latest_value("ingest.stream.coalesced_away"),
        }
        alerts = (await server.handle(
            {"op": "alert_summary", "t0": 0.0, "t1": data_t1 + 120.0}
        ))["result"]
        flame = (await server.handle(
            {"op": "profile_flame", "t0": t0, "t1": t1, "top": 3}
        ))["result"]
        return {
            "frame": n,
            "health": health,
            "scheduler": scheduler,
            "ingest": ingest,
            "alerts": alerts,
            "profile": {"samples": flame["samples"], "hot": flame["hot"]},
            "telemetry": dict(stats, metrics_table_rows=table_rows),
            "metrics": metrics,
            "slowest": [
                {"name": t["name"], "duration_ms": t["duration_ms"],
                 "trace_id": t["trace_id"], "spans": tree_size(t)}
                for t in spans["trees"]
            ],
            "slow_queries": slow,
        }

    frames = 1 if args.once else args.frames
    n = 0
    try:
        while True:
            n += 1
            frame = asyncio.run(one_frame(n))
            if args.as_json:
                print(json.dumps(frame))
            else:
                if n > 1:
                    print("\x1b[2J\x1b[H", end="")
                print(_render_top_frame(frame))
            if frames and n >= frames:
                break
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        pass
    profiler.stop()
    fw.stop()
    return 0


def _cmd_explain(args) -> int:
    """Plan a statement against the paper's eight-table data model and
    render the optimized operator tree (or --json for the raw payload)."""
    from repro.cql import CQLError, render_plan_text

    fw = LogAnalyticsFramework(TitanTopology(rows=1, cols=1),
                               db_nodes=2).setup(load_nodeinfos=False)
    try:
        plan = fw.explain(args.statement)
    except CQLError as exc:
        print(json.dumps(exc.payload(), indent=2), file=sys.stderr)
        return 2
    finally:
        fw.stop()
    if args.as_json:
        print(json.dumps(plan, indent=2, sort_keys=True))
    else:
        print(render_plan_text(plan))
    return 0


def _cmd_topology(args) -> int:
    query = args.query
    try:
        loc = (NodeLocation.from_index(int(query)) if query.isdigit()
               else NodeLocation.from_cname(query))
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    print(json.dumps({
        "cname": loc.cname,
        "index": loc.index,
        "cabinet": loc.cabinet,
        "blade": loc.blade,
        "cage": loc.cage,
        "slot": loc.slot,
        "node": loc.node,
        "gemini": loc.gemini_id,
        "router_peer": loc.router_peer().cname,
    }, indent=2))
    return 0


def _cmd_chaos(args) -> int:
    """Fault-injection scenarios.  ``run`` output is deterministic for a
    given (scenario set, seed, quick) — sorted keys, logical-time values
    only — so two runs diff clean, byte for byte."""
    from repro.chaos import SCENARIOS, run_scenarios

    if args.chaos_command == "list":
        for name in sorted(SCENARIOS):
            doc = (SCENARIOS[name].__doc__ or "").strip().split("\n")[0]
            print(f"{name}: {doc}")
        return 0
    try:
        report = run_scenarios(args.scenario, seed=args.seed,
                               quick=args.quick)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    payload = json.dumps(report, indent=2, sort_keys=True)
    print(payload)
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    return 0 if report["ok"] else 1


_COMMANDS = {
    "generate": _cmd_generate,
    "ingest": _cmd_ingest,
    "analyze": _cmd_analyze,
    "metrics": _cmd_metrics,
    "profile": _cmd_profile,
    "top": _cmd_top,
    "alerts": _cmd_alerts,
    "topology": _cmd_topology,
    "explain": _cmd_explain,
    "chaos": _cmd_chaos,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
