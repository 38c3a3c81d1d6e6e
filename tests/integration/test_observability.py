"""Integration: the obs subsystem observed through the server's own ops.

The acceptance story of the subsystem: one ``heatmap`` request exports
as a span tree descending server → framework → cassdb coordinator →
storage node, the ``metrics`` op round-trips the registry snapshot as
JSON, and *every* obs structure stays bounded under 10k requests.
"""

import asyncio
import json

import pytest

from repro import obs
from repro.core import AnalyticsServer, LogAnalyticsFramework
from repro.genlog import LogGenerator
from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS_MS
from repro.titan import TitanTopology


@pytest.fixture(scope="module")
def fw():
    topo = TitanTopology(rows=1, cols=1)
    framework = LogAnalyticsFramework(topo, db_nodes=2).setup()
    framework.ingest_events(
        LogGenerator(topo, seed=3, rate_multiplier=20).generate(3))
    yield framework
    framework.stop()


@pytest.fixture(scope="module")
def server(fw):
    return AnalyticsServer(fw, slow_log=obs.SlowQueryLog(threshold_ms=0.0,
                                                         capacity=64))


def _depth(node):
    return 1 + max((_depth(c) for c in node.get("children", [])), default=0)


def _span_names(node):
    yield node["name"]
    for child in node.get("children", []):
        yield from _span_names(child)


class TestSpanTree:
    def test_heatmap_trace_reaches_storage_nodes(self, server, fw):
        ctx = fw.context(0, 3 * 3600, event_types=("MCE",)).to_json()
        assert server.handle_sync({"op": "heatmap", "context": ctx})["ok"]
        response = server.handle_sync({"op": "trace"})
        assert response["ok"]
        trace = response["result"]
        json.dumps(trace)
        assert trace["name"] == "server.request"
        assert trace["attrs"]["op"] == "heatmap"
        assert _depth(trace) >= 3
        names = set(_span_names(trace))
        assert {"server.request", "framework.heatmap", "cassdb.read",
                "cassdb.node.read"} <= names

    def test_heatmap_moves_cassdb_counters(self, server, fw):
        snap_before = server.registry.snapshot()
        # A context no earlier request sent: a repeat is a cache hit
        # and reads nothing.
        ctx = fw.context(0, 2 * 3600, event_types=("MCE",)).to_json()
        assert server.handle_sync({"op": "heatmap", "context": ctx})["ok"]
        snap = server.handle_sync({"op": "metrics"})["result"]
        reads = snap["cassdb.coordinator.reads"]["value"]
        node_reads = snap["cassdb.node.reads"]["value"]
        assert reads > snap_before.get(
            "cassdb.coordinator.reads", {"value": 0})["value"]
        assert node_reads > 0
        assert snap["cassdb.coordinator.read_latency_ms"]["count"] > 0

    def test_sparklet_layer_appears_for_engine_ops(self, server):
        assert server.handle_sync({"op": "refresh_synopsis"})["ok"]
        trace = server.handle_sync({"op": "trace"})["result"]
        names = set(_span_names(trace))
        assert {"sparklet.job", "sparklet.stage", "sparklet.task"} <= names
        # server → framework → job → stage → task → coordinator → node
        assert _depth(trace) >= 6

    def test_error_requests_are_timed_and_tagged(self, server):
        before = len(server.latencies_ms.get("nodeinfo", []))
        response = server.handle_sync({"op": "nodeinfo"})  # missing cname
        assert not response["ok"]
        assert len(server.latencies_ms["nodeinfo"]) == before + 1
        snap = server.registry.snapshot()
        key = "server.latency_ms{op=nodeinfo,outcome=error}"
        assert snap[key]["count"] >= 1
        trace = server.handle_sync({"op": "trace"})["result"]
        # most recent completed trace is the failed nodeinfo request
        assert trace["attrs"] == {"op": "nodeinfo", "outcome": "error"}
        assert trace["status"] == "error"


class TestObservabilityOps:
    def test_metrics_round_trips_as_json(self, server, fw):
        ctx = fw.context(0, 3600, event_types=("MCE",)).to_json()
        server.handle_sync({"op": "heatmap", "context": ctx})
        response = server.handle_sync({"op": "metrics"})
        assert response["ok"]
        decoded = json.loads(json.dumps(response["result"]))
        assert decoded["server.requests"]["value"] > 0

    def test_metrics_prefix_filter(self, server):
        snap = server.handle_sync(
            {"op": "metrics", "prefix": "cassdb."})["result"]
        assert snap
        assert all(k.startswith("cassdb.") for k in snap)

    def test_slow_queries_op(self, server):
        server.handle_sync({"op": "ping"})
        response = server.handle_sync({"op": "slow_queries"})
        assert response["ok"]
        json.dumps(response["result"])
        # threshold 0: everything is "slow", so ping must be present
        assert any(e["op"] == "ping" for e in response["result"])

    def test_trace_op_before_any_completed_trace(self, fw):
        private = AnalyticsServer(fw, tracer=obs.Tracer())
        response = private.handle_sync({"op": "trace"})
        assert not response["ok"]
        assert "no completed traces" in response["error"]


class TestBoundedUnderLoad:
    def test_10k_requests_stay_bounded(self, fw):
        """The acceptance criterion: no obs structure grows per-request."""
        tracer = obs.Tracer(max_traces=32)
        slow_log = obs.SlowQueryLog(threshold_ms=0.0, capacity=64)
        server = AnalyticsServer(fw, registry=obs.MetricsRegistry(),
                                 tracer=tracer, slow_log=slow_log,
                                 latency_window=256)

        async def hammer(n):
            for i in range(n):
                # mostly cheap ops, a sprinkle of failures
                if i % 100 == 99:
                    await server.handle({"op": "nodeinfo"})
                else:
                    await server.handle({"op": "ping"})

        asyncio.run(hammer(10_000))
        assert server.requests_served == 10_000
        # latency windows are rings, not per-request lists
        for op, samples in server.latencies_ms.items():
            assert len(samples) <= 256, op  # one outcome each here
        assert len(tracer.traces()) <= 32
        assert len(slow_log) <= 64
        hist = server.registry.snapshot()[
            "server.latency_ms{op=ping,outcome=ok}"]
        assert hist["count"] >= 9_900  # buckets keep the full tally
        assert len(hist["buckets"]) == len(DEFAULT_LATENCY_BUCKETS_MS) + 1
