"""End-to-end tests for the detection pipeline: generator → bus →
streaming ingest + DetectionEngine → ``alerts`` topic → ``alerts_by_time``
→ server ops."""

import json
from dataclasses import fields

import pytest

from repro import obs
from repro.bus import MessageBus
from repro.core import AnalyticsServer, LogAnalyticsFramework
from repro.detect import AlertPublisher
from repro.detect.alerts import Alert, AlertIngestor
from repro.genlog import LogGenerator
from repro.ingest import LogProducer
from repro.ingest.parsers import ParsedEvent
from repro.titan import TitanTopology


def _stream(fw, bus, events):
    producer = LogProducer(bus, "events")
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


@pytest.fixture(scope="module")
def topo():
    return TitanTopology(rows=1, cols=2)


@pytest.fixture(scope="module")
def stormy(topo):
    gen = LogGenerator(topo, seed=2017, rate_multiplier=40.0,
                       storms_per_day=96.0, storm_events_per_node=30.0)
    events = gen.generate(0.5)
    fw = LogAnalyticsFramework(topo, db_nodes=4).setup()
    bus = MessageBus()
    windows_before = obs.get_registry().counter("detect.windows").value
    _, detection, stats = _stream(fw, bus, events)
    yield gen, fw, detection, stats, windows_before
    fw.stop()


class TestDetectionPipeline:
    def test_storms_produce_critical_alerts(self, stormy):
        gen, fw, detection, stats, _ = stormy
        assert stats["alerts_emitted"] > 0
        assert stats["alerts_ingested"] == stats["alerts_emitted"]
        assert stats["alert_rows"] == stats["alerts_emitted"]
        assert stats["lag"] == 0
        server = AnalyticsServer(fw)
        resp = server.handle_sync(
            {"op": "alert_summary", "t0": 0.0, "t1": 3600.0})
        assert resp["ok"]
        summary = resp["result"]
        # Every injected storm found by the storm detector.
        assert summary["by_severity"].get("critical", 0) >= len(
            gen.ground_truth.storms)
        assert summary["by_detector"].get("lustre_storm", 0) >= 1

    def test_alerts_op_round_trip(self, stormy):
        gen, fw, detection, stats, _ = stormy
        server = AnalyticsServer(fw)
        resp = server.handle_sync(
            {"op": "alerts", "t0": 0.0, "t1": 3600.0, "limit": 100})
        assert resp["ok"]
        result = resp["result"]
        assert result["total"] == stats["alert_rows"]
        rows = result["alerts"]
        assert rows == sorted(rows, key=lambda r: (r["ts"], r["seq"]))
        for row in rows:
            assert row["severity"] in ("info", "warning", "critical")
            assert isinstance(row.get("evidence", {}), dict)
            # Every field of the typed record is there.
            assert {f.name for f in fields(Alert)} - {"evidence"} <= set(row)

    def test_severity_and_detector_filters(self, stormy):
        _, fw, _, _, _ = stormy
        server = AnalyticsServer(fw)
        resp = server.handle_sync(
            {"op": "alerts", "t0": 0.0, "t1": 3600.0,
             "severity": "critical", "detector": "lustre_storm"})
        assert resp["ok"]
        rows = resp["result"]["alerts"]
        assert rows
        assert all(r["severity"] == "critical"
                   and r["detector"] == "lustre_storm" for r in rows)

    def test_detection_latency_within_windows(self, stormy):
        gen, fw, _, _, _ = stormy
        server = AnalyticsServer(fw)
        rows = server.handle_sync(
            {"op": "alerts", "t0": 0.0, "t1": 3600.0,
             "severity": "critical"})["result"]["alerts"]
        interval = 1.0
        for storm in gen.ground_truth.storms:
            hits = [r for r in rows
                    if storm.start - 3 * interval <= r["window_end"]
                    <= storm.start + storm.duration]
            assert hits, f"storm at {storm.start} undetected"
            first = min(h["window_end"] for h in hits)
            assert first - storm.start <= 3 * interval

    def test_detect_metrics_and_spans_exported(self, stormy):
        _, fw, detection, stats, windows_before = stormy
        registry = obs.get_registry()
        windows = registry.counter("detect.windows").value - windows_before
        assert windows == stats["windows"] > 0
        assert registry.counter(
            "detect.alerts", detector="lustre_storm",
            severity="critical").value >= 1
        assert registry.gauge("detect.state_keys").value > 0
        # detect.window spans nest under the ingest poll trace.
        blob = json.dumps(obs.get_tracer().traces())
        assert "detect.window" in blob

    def test_quiet_traffic_emits_nothing_actionable(self, topo):
        # Quiet = baseline Poisson traffic, nothing injected.  (With
        # the default Weibull burstiness the baseline itself contains
        # real micro-bursts — which the EWMA detector *should* flag.)
        gen = LogGenerator(topo, seed=7, rate_multiplier=40.0,
                           storms_per_day=0.0, hot_node_fraction=0.0,
                           cascade_prob=0.0, weibull_shape=1.0)
        events = gen.generate(0.5)
        fw = LogAnalyticsFramework(topo, db_nodes=2).setup()
        bus = MessageBus()
        _, _, stats = _stream(fw, bus, events)
        server = AnalyticsServer(fw)
        resp = server.handle_sync(
            {"op": "alert_summary", "t0": 0.0, "t1": 3600.0})
        assert resp["ok"]
        by_sev = resp["result"].get("by_severity", {})
        assert by_sev.get("warning", 0) == 0
        assert by_sev.get("critical", 0) == 0
        fw.stop()

    def test_unprovisioned_table_is_a_clean_error(self, topo):
        fw = LogAnalyticsFramework(topo, db_nodes=2).setup()
        server = AnalyticsServer(fw)
        resp = server.handle_sync({"op": "alerts", "t0": 0.0, "t1": 60.0})
        assert not resp["ok"]
        assert "alerts_by_time" in resp["error"]
        fw.stop()


class TestAlertBusPlumbing:
    def test_publisher_ingestor_round_trip(self, topo):
        bus = MessageBus()
        fw = LogAnalyticsFramework(topo, db_nodes=2).setup()
        publisher = AlertPublisher(bus, "alerts-t")
        ingestor = AlertIngestor(bus, "alerts-t", fw.cluster, fw.sc)
        alerts = [
            Alert(ts=61.0, severity="warning", detector="ewma_rate",
                  key="MCE|c0-0", window_start=60.0, window_end=61.0,
                  score=8.5, evidence={"count": 12}),
            Alert(ts=125.0, severity="critical", detector="lustre_storm",
                  key="filesystem", window_start=124.0, window_end=125.0,
                  score=3.0),
        ]
        assert publisher.publish(alerts) == 2
        assert ingestor.process_available() == 2
        ingestor.flush()
        assert ingestor.rows_written == 2
        assert ingestor.lag == 0
        parts = fw.cluster.select_partitions(
            "alerts_by_time", [(1,), (2,)])
        rows = [row for part in parts for row in part]
        assert len(rows) == 2
        got = sorted(rows, key=lambda r: r["ts"])
        assert got[0]["detector"] == "ewma_rate"
        assert json.loads(got[0]["evidence"]) == {"count": 12}
        assert got[1]["severity"] == "critical"
        fw.stop()

    def test_alert_severity_validated(self):
        with pytest.raises(ValueError):
            Alert(ts=1.0, severity="nope", detector="d", key="k",
                  window_start=0.0, window_end=1.0, score=0.0)

    def test_interval_mismatch_rejected(self, topo):
        from repro.detect import DetectionEngine

        bus = MessageBus()
        bus.ensure_topic("events-i")
        fw = LogAnalyticsFramework(topo, db_nodes=2).setup()
        ingestor = fw.streaming_ingestor(bus, "events-i")
        engine = DetectionEngine(topo, bus, interval=2.0)
        with pytest.raises(ValueError):
            engine.attach(ingestor)
        fw.stop()
