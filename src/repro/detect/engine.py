"""The DetectionEngine: a second workload on the ingest micro-batches.

The streaming ingestor turns each 1 s window into one coalesced RDD and
collects it exactly once, staging it for the poll's sink write
(`§III-D`'s map → reduceByKey graph).  The engine registers a **window observer** on the
ingestor, so every closed window's coalesced events are handed to it —
the same objects the sink writes, with no second collect and no extra
per-window job.  The observer folds the window into per-(event_type,
cabinet) counts with a driver-side loop (a 1 s window is tens of
events; a job launch would cost more than the fold).  The counts are
offered to every detector; resulting alerts go out through an
:class:`~repro.detect.alerts.AlertPublisher` onto the ``alerts`` topic.

Observability: ``detect.windows`` / ``detect.window_events`` /
``detect.alerts{detector, severity}`` counters, a ``detect.state_keys``
gauge (bounded detector state, made visible), and a ``detect.window``
span per window nested under the ingestor's ``ingest.stream.poll``
span — detection shows up in the telemetry pipeline like every other
layer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro import obs
from repro.titan.topology import TitanTopology

from .alerts import ALERTS_TOPIC, Alert, AlertIngestor, AlertPublisher
from .detectors import Detector, cabinet_of, default_detectors

if TYPE_CHECKING:  # pragma: no cover
    from repro.bus import MessageBus
    from repro.cassdb import Cluster
    from repro.ingest.streaming import StreamingIngestor
    from repro.sparklet import SparkletContext

__all__ = ["DetectionEngine", "DetectionPipeline"]


class DetectionEngine:
    """Runs a bank of detectors over the streaming-ingest windows."""

    def __init__(self, topology: TitanTopology, bus: "MessageBus", *,
                 interval: float = 1.0):
        self.topology = topology
        self.interval = interval
        self.detectors: list[Detector] = default_detectors(
            topology, interval=interval)
        self.publisher = AlertPublisher(bus, ALERTS_TOPIC)
        self.windows_seen = 0
        self.alerts_emitted = 0
        self._registry = obs.get_registry()
        self._m_windows = self._registry.counter("detect.windows")
        self._m_events = self._registry.counter("detect.window_events")
        self._g_state = self._registry.gauge("detect.state_keys")

    def attach(self, ingestor: "StreamingIngestor") -> "DetectionEngine":
        """Subscribe to an ingestor's closed coalesced windows."""
        if abs(ingestor.ssc.batch_interval - self.interval) > 1e-9:
            raise ValueError(
                f"engine interval {self.interval} != ingestor batch "
                f"interval {ingestor.ssc.batch_interval}")
        ingestor.add_observer(self._on_window)
        return self

    @staticmethod
    def _fold(events) -> dict[tuple[str, str], int]:
        """Per-(type, cabinet) counts for one window's events."""
        counts: dict[tuple[str, str], int] = {}
        for e in events:
            key = (e.type, cabinet_of(e.component))
            counts[key] = counts.get(key, 0) + e.amount
        return counts

    def _on_window(self, events) -> None:
        with obs.get_tracer().span("detect.window") as span:
            counts = self._fold(events)
            # The ingestor hands windows time-sorted.
            window_start = ((events[0].ts // self.interval)
                            * self.interval)
            alerts: list[Alert] = []
            for detector in self.detectors:
                alerts.extend(detector.observe(window_start, counts))
            if alerts:
                self.publisher.publish(alerts)
                self.alerts_emitted += len(alerts)
            self.windows_seen += 1
            self._m_windows.inc()
            self._m_events.inc(sum(counts.values()))
            self._g_state.set(
                sum(d.tracked_keys for d in self.detectors))
            span.set(window=window_start, keys=len(counts),
                     alerts=len(alerts))


class DetectionPipeline:
    """Engine + alert ingest, composed: the whole alerting loop.

    ``drain()`` after the event ingestor has processed its windows
    moves freshly published alerts through the ``alerts`` topic into
    ``alerts_by_time``, so the server ops see them immediately.
    """

    def __init__(self, engine: DetectionEngine, bus: "MessageBus",
                 cluster: "Cluster", sc: "SparkletContext"):
        self.engine = engine
        self.ingestor = AlertIngestor(bus, ALERTS_TOPIC, cluster, sc)

    def drain(self) -> dict[str, int]:
        """Land every published alert; returns counts for dashboards."""
        polled = self.ingestor.process_available()
        if polled:
            self.ingestor.flush()
        return {
            "windows": self.engine.windows_seen,
            "alerts_emitted": self.engine.alerts_emitted,
            "alerts_ingested": polled,
            "alert_rows": self.ingestor.rows_written,
            "lag": self.ingestor.lag,
        }
