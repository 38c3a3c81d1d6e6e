"""Integration: the self-ingestion loop, end to end.

The acceptance story of the telemetry subsystem: a traced request's
metrics and spans are delta-snapshotted, published to the framework's
own bus topic, consumed by the same streaming-ingest machinery that
handles log events, stored in ``metrics_by_time``/``spans_by_time``
with minute-bucket partition keys, and read back out through the
server's ``telemetry_series``/``telemetry_spans`` ops — with every
parent link intact after the round trip.
"""

import time

import pytest

from repro import obs
from repro.bus import MessageBus
from repro.core import AnalyticsServer, LogAnalyticsFramework
from repro.genlog import LogGenerator
from repro.ingest.parsers import ParsedEvent
from repro.titan import TitanTopology
from repro.titan.events import LogSource


@pytest.fixture(scope="module")
def loop():
    from repro.obs.profile import SamplingProfiler

    # The trace ring is process-wide: start from an empty one, so the
    # traces exported here are this loop's, not earlier tests' streams.
    obs.get_tracer().reset()
    topo = TitanTopology(rows=1, cols=1)
    fw = LogAnalyticsFramework(topo, db_nodes=3).setup()
    fw.ingest_events(
        LogGenerator(topo, seed=11, rate_multiplier=20).generate(1))
    slow_log = obs.SlowQueryLog(threshold_ms=0.0)
    server = AnalyticsServer(fw, slow_log=slow_log)
    bus = MessageBus()
    # Deterministic flame-table content (record(), not wall-clock
    # sampling) so the profiles_by_time round trip asserts exact rows.
    profiler = SamplingProfiler()
    profiler.record("server", "main;handle;hot_fn", 40)
    profiler.record("cassdb", "main;node;read", 10)
    pipeline = fw.telemetry_pipeline(bus, interval_s=0.01,
                                     profiler=profiler)
    ctx = fw.context(0.0, 3600.0, event_types=("MCE",)).to_json()
    t_start = time.time()
    for _ in range(3):
        assert server.handle_sync({"op": "heatmap", "context": ctx})["ok"]
    stats = pipeline.run_once(force=True)
    yield {
        "fw": fw, "server": server, "bus": bus, "pipeline": pipeline,
        "profiler": profiler, "slow_log": slow_log,
        "stats": stats, "t0": t_start - 120.0, "t1": time.time() + 120.0,
    }
    fw.stop()


class TestRoundTrip:
    def test_pipeline_moved_rows(self, loop):
        stats = loop["stats"]
        assert stats["metrics_rows"] > 0
        assert stats["spans_rows"] > 0
        assert stats["published"] == stats["ingested"]

    def test_metric_series_comes_back(self, loop):
        response = loop["server"].handle_sync({
            "op": "telemetry_series", "name": "server.requests",
            "t0": loop["t0"], "t1": loop["t1"],
        })
        assert response["ok"]
        points = response["result"]["points"]
        assert points
        assert any(p["kind"] == "counter" and p["delta"] >= 3
                   for p in points)

    def test_minute_bucket_keys_are_correct(self, loop):
        cluster = loop["fw"].cluster
        for table in ("metrics_by_time", "spans_by_time"):
            rows = list(cluster.scan_table(table))
            assert rows, f"{table} is empty"
            for row in rows:
                assert row["minute_bucket"] == int(row["ts"] // 60.0)

    def test_span_trees_reassemble_with_intact_parent_links(self, loop):
        response = loop["server"].handle_sync({
            "op": "telemetry_spans", "t0": loop["t0"], "t1": loop["t1"],
            "limit": 10,
        })
        assert response["ok"]
        trees = response["result"]["trees"]
        assert trees
        request_roots = [t for t in trees if t["name"] == "server.request"]
        assert request_roots

        def verify(node, depth=1):
            deepest = depth
            for child in node["children"]:
                assert child["parent_id"] == node["span_id"]
                assert child["trace_id"] == node["trace_id"]
                deepest = max(deepest, verify(child, depth + 1))
            return deepest

        # The heatmap trace descends server → framework → cassdb, and
        # those layers must have re-linked from flat stored rows.
        assert max(verify(root) for root in request_roots) >= 3

    def test_component_filter_narrows_partitions(self, loop):
        response = loop["server"].handle_sync({
            "op": "telemetry_spans", "t0": loop["t0"], "t1": loop["t1"],
            "component": "server",
        })
        assert response["ok"]
        for tree in response["result"]["trees"]:
            assert tree["component"] == "server"

    def test_health_op(self, loop):
        response = loop["server"].handle_sync({"op": "health"})
        assert response["ok"]
        result = response["result"]
        assert result["status"] == "ok"
        assert result["ring"]["alive"] == result["ring"]["nodes"] == 3
        assert "metrics_by_time" in result["ring"]["tables"]
        assert "spans_by_time" in result["ring"]["tables"]
        for info in result["nodes"].values():
            assert info["process_up"] and info["routing_up"]
            # Every replica has a breaker; on a healthy ring it is closed.
            assert info["breaker"] == "closed"

    def test_second_cycle_does_not_replay_spans(self, loop):
        before = set()
        for rows in [list(loop["fw"].cluster.scan_table("spans_by_time"))]:
            before = {r["span_id"] for r in rows}
        loop["pipeline"].run_once(force=True)
        loop["pipeline"].run_once(force=True)
        rows = list(loop["fw"].cluster.scan_table("spans_by_time"))
        # New cycles may self-observe (the loop's own poll spans) but
        # must never re-ingest a span already stored.
        span_ids = [r["span_id"] for r in rows]
        assert len(span_ids) == len(set(span_ids))
        assert before <= set(span_ids)


class TestTraceContinuation:
    def test_stream_poll_joins_the_publisher_trace(self, loop):
        fw, bus = loop["fw"], loop["bus"]
        bus.ensure_topic("events-cont")
        ingestor = fw.streaming_ingestor(bus, "events-cont")
        tracer = obs.get_tracer()
        event = ParsedEvent(ts=1.0, type="MCE", component="c0-0c0s0n0",
                            source=LogSource.CONSOLE)
        with tracer.root_span("producer.emit") as pub:
            record = bus.publish("events-cont", event,
                                 key=event.component, timestamp=event.ts)
        assert record.trace is not None
        assert record.trace[0] == pub.trace_id
        ingestor.process_available()
        poll_trace = tracer.last_trace()
        assert poll_trace["name"] == "ingest.stream.poll"
        assert poll_trace["trace_id"] == pub.trace_id
        assert poll_trace["parent_id"] == record.trace[1]


class TestProfileRoundTrip:
    def test_pipeline_moved_profile_rows(self, loop):
        assert loop["stats"]["profiles_rows"] >= 2

    def test_flame_comes_back_from_the_store(self, loop):
        response = loop["server"].handle_sync({
            "op": "profile_flame", "t0": loop["t0"], "t1": loop["t1"],
        })
        assert response["ok"]
        result = response["result"]
        assert "server;main;handle;hot_fn 40" in result["folded"]
        assert "cassdb;main;node;read 10" in result["folded"]
        assert result["samples"] == 50
        top = result["hot"][0]
        assert top["function"] == "hot_fn"
        assert top["samples"] == 40
        assert top["components"] == {"server": 40}

    def test_component_filter(self, loop):
        response = loop["server"].handle_sync({
            "op": "profile_flame", "t0": loop["t0"], "t1": loop["t1"],
            "component": "cassdb",
        })
        assert response["ok"]
        assert response["result"]["folded"] == ["cassdb;main;node;read 10"]

    def test_second_cycle_does_not_replay_samples(self, loop):
        loop["pipeline"].run_once(force=True)
        response = loop["server"].handle_sync({
            "op": "profile_flame", "t0": loop["t0"], "t1": loop["t1"],
            "component": "server",
        })
        # The delta discipline holds through profiles_by_time: the
        # unchanged flame table adds no rows, so the windowed sum of
        # sample deltas still equals the cumulative count.
        assert response["result"]["folded"] == [
            "server;main;handle;hot_fn 40"]

    def test_minute_bucket_keys_are_correct(self, loop):
        rows = list(loop["fw"].cluster.scan_table("profiles_by_time"))
        assert rows
        for row in rows:
            assert row["minute_bucket"] == int(row["ts"] // 60.0)


class TestCriticalPathOp:
    def test_latest_trace_attribution(self, loop):
        response = loop["server"].handle_sync({"op": "critical_path"})
        assert response["ok"]
        result = response["result"]
        assert result["root"] == "server.request"
        shares = sum(c["share"] for c in result["components"])
        # Well-nested span trees account for ~all of the root duration
        # (the ±5% acceptance window of the issue).
        assert shares == pytest.approx(1.0, abs=0.05)
        assert result["accounted_ms"] == pytest.approx(
            result["total_ms"], rel=0.05)

    def test_by_trace_id_from_ring(self, loop):
        trace = obs.get_tracer().last_trace()
        response = loop["server"].handle_sync(
            {"op": "critical_path", "trace_id": trace["trace_id"]})
        assert response["ok"]
        assert response["result"]["trace_id"] == trace["trace_id"]

    def test_by_trace_id_from_store_after_ring_ages_out(self, loop):
        # A heatmap trace that was self-ingested in the fixture cycle:
        ingested = {r["trace_id"]
                    for r in loop["fw"].cluster.scan_table("spans_by_time")
                    if r["name"] == "server.request"}
        ring = {t["trace_id"] for t in obs.get_tracer().traces()}
        target = min(ingested)
        if target in ring:
            # Force the store path: the op must not find it in the ring.
            obs.get_tracer().reset()
        response = loop["server"].handle_sync({
            "op": "critical_path", "trace_id": target,
            "t0": loop["t0"], "t1": loop["t1"],
        })
        assert response["ok"]
        result = response["result"]
        assert result["trace_id"] == target
        assert result["root"] == "server.request"
        assert result["components"]
        assert result["accounted_ms"] == pytest.approx(
            result["total_ms"], rel=0.05)

    def test_unknown_trace_id_errors(self, loop):
        response = loop["server"].handle_sync({
            "op": "critical_path", "trace_id": 999_999,
            "t0": loop["t0"], "t1": loop["t1"],
        })
        assert not response["ok"]
        assert "not found" in response["error"]


class TestSlowQueryTraceJoin:
    def test_slow_entry_joins_spans_by_time(self, loop):
        """Satellite regression: a slow-log entry's trace_id must find
        its full span tree in the self-ingested store."""
        server, slow_log = loop["server"], loop["slow_log"]
        ctx = loop["fw"].context(0.0, 3600.0,
                                 event_types=("MCE",)).to_json()
        assert server.handle_sync({"op": "heatmap", "context": ctx})["ok"]
        entry = slow_log.entries()[-1]
        assert entry["op"] == "heatmap"
        assert entry["trace_id"] > 0
        loop["pipeline"].run_once(force=True)
        response = server.handle_sync({
            "op": "telemetry_spans", "t0": loop["t0"],
            "t1": time.time() + 120.0, "limit": 100,
        })
        assert response["ok"]
        match = [t for t in response["result"]["trees"]
                 if t["trace_id"] == entry["trace_id"]]
        assert match, "slow-log trace_id not found in spans_by_time"
        (tree,) = match
        assert tree["name"] == "server.request"
        # The join lands on the same request the slow log recorded.
        import json as _json
        attrs = _json.loads(tree["attrs"])
        assert attrs["op"] == "heatmap"


class TestExemplarsEndToEnd:
    def test_prometheus_exposition_carries_trace_exemplar(self, loop):
        from repro.obs.export import render_prometheus

        text = render_prometheus(loop["server"].registry)
        exemplar_lines = [l for l in text.splitlines()
                          if l.startswith("server_latency_ms_bucket")
                          and 'trace_id="' in l]
        assert exemplar_lines

    def test_telemetry_series_points_carry_exemplars(self, loop):
        loop["pipeline"].run_once(force=True)
        response = loop["server"].handle_sync({
            "op": "telemetry_series", "name": "server.latency_ms",
            "t0": loop["t0"], "t1": time.time() + 120.0,
        })
        assert response["ok"]
        with_exemplars = [p for p in response["result"]["points"]
                          if p.get("exemplars")]
        assert with_exemplars
        ex = with_exemplars[0]["exemplars"][0]
        assert ex["trace_id"] > 0
        assert ex["value"] > 0

    def test_span_duration_histogram_auto_recorded(self, loop):
        """Satellite: span exit records obs.span.duration_ms{component}
        without any per-callsite instrumentation."""
        snapshot = loop["server"].registry.snapshot()
        series = [k for k in snapshot
                  if k.startswith("obs.span.duration_ms")]
        assert any("component=server" in k for k in series)
        assert any("component=cassdb" in k for k in series)
        key = [k for k in series if "component=server" in k][0]
        assert snapshot[key]["count"] >= 3  # the fixture's heatmaps
