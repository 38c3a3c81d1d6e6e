"""Typed alerts and their pipeline: bus topic → ``alerts_by_time``.

An :class:`Alert` is the detection subsystem's unit of output — a
severity-tagged, scored claim about one (detector, key, window).  The
engine publishes alerts to the dedicated ``alerts`` bus topic exactly
like event producers publish occurrences; an :class:`AlertIngestor`
consumer group lands them in the minute-bucketed ``alerts_by_time``
cassdb table via ``write_batch`` — the one streaming-ingest loop
events and self-ingested telemetry ride, so alerts are
queryable (``alerts`` / ``alert_summary`` server ops) the moment the
open micro-batch flushes.

All timestamps are **event time** (the window that produced the
alert), never wall clock: a replayed stream produces byte-identical
alerts, which is what lets CI diff two detection runs.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Mapping, TYPE_CHECKING

from repro import obs
from repro.bus import Producer
from repro.cassdb import TableSchema
from repro.ingest.streaming import TopicIngestor

if TYPE_CHECKING:  # pragma: no cover
    from repro.bus import MessageBus
    from repro.cassdb import Cluster
    from repro.sparklet import SparkletContext

__all__ = [
    "ALERTS_TOPIC",
    "ALERT_SCHEMAS",
    "SEVERITIES",
    "Alert",
    "AlertPublisher",
    "AlertIngestor",
]

ALERTS_TOPIC = "alerts"

# Ordered least to most severe; "info" is structure worth a look
# (lead-lag findings, storm all-clears), "critical" is an incident.
SEVERITIES = ("info", "warning", "critical")

ALERT_SCHEMAS: dict[str, TableSchema] = {
    "alerts_by_time": TableSchema(
        "alerts_by_time",
        partition_key=("minute_bucket",),
        clustering_key=("ts", "seq"),
        time_bucket=("minute_bucket", 60.0),
        description="Detection alerts: partition minute_bucket, "
                    "clustered by (ts, seq)",
    ),
}


@dataclass(frozen=True, slots=True)
class Alert:
    """One detection finding, self-describing and JSON-serializable."""

    ts: float                  # event time (= window_end)
    severity: str              # one of SEVERITIES
    detector: str              # emitting detector's name
    key: str                   # what it is about: "MCE|c0-0", "c1-3", ...
    window_start: float
    window_end: float
    score: float               # detector-specific magnitude (z, lift, ...)
    evidence: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity: {self.severity!r}")

    def to_record(self) -> dict[str, Any]:
        """The bus payload (plain dict; evidence stays structured)."""
        return {
            "ts": self.ts,
            "severity": self.severity,
            "detector": self.detector,
            "key": self.key,
            "window_start": self.window_start,
            "window_end": self.window_end,
            "score": self.score,
            "evidence": dict(self.evidence),
        }


class AlertPublisher:
    """Producer side: alerts onto the ``alerts`` topic.

    Keyed by detector name so one detector's alerts stay ordered within
    a topic partition (the per-key ordering contract every producer in
    the system relies on).
    """

    def __init__(self, bus: "MessageBus", topic: str = ALERTS_TOPIC):
        bus.ensure_topic(topic)
        self.topic = topic
        self._producer = Producer(bus, default_topic=topic)
        self._registry = obs.get_registry()

    def publish(self, alerts: list[Alert]) -> int:
        for alert in alerts:
            self._producer.send(alert.to_record(), key=alert.detector,
                                timestamp=alert.ts)
            self._registry.counter(
                "detect.alerts", detector=alert.detector,
                severity=alert.severity).inc()
        return len(alerts)

    @property
    def published(self) -> int:
        return self._producer.sent


class AlertIngestor(TopicIngestor):
    """Consumer side: the ``alerts`` topic into ``alerts_by_time``.

    The shared streaming-ingest loop with one record→row mapper.  Alert
    timestamps are event time (simulation seconds), so the logical
    clock is not rebased; the batch interval defaults to one minute
    because alerts are sparse and the table is minute-bucketed anyway.
    """

    def __init__(self, bus: "MessageBus", topic: str, cluster: "Cluster",
                 sc: "SparkletContext", *, batch_interval: float = 60.0,
                 group_id: str = "alert-ingest"):
        super().__init__(bus, topic, sc, batch_interval=batch_interval,
                         group_id=group_id)
        self._seq = itertools.count()
        self._land(cluster, ALERT_SCHEMAS.values(), self._to_row)

    def _to_row(self, record: Mapping[str, Any]):
        row = {k: v for k, v in record.items() if k != "evidence"}
        row["seq"] = next(self._seq)
        if record.get("evidence"):
            row["evidence"] = json.dumps(record["evidence"],
                                         sort_keys=True, default=str)
        return "alerts_by_time", row

    def _landed(self, table: str, written: int) -> None:
        super()._landed(table, written)
        obs.get_registry().counter("detect.alerts_ingested").inc(written)

    @property
    def rows_written(self) -> int:
        return self.rows_landed["alerts_by_time"]
