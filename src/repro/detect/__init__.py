"""repro.detect — streaming anomaly detection and alerting.

The workload layer that *watches* the stream the rest of the system
stores and queries: online detectors over the streaming-ingest
micro-batches, typed alerts through the bus into a minute-bucketed
cassdb table, surfaced by the ``alerts``/``alert_summary`` server ops
and the ``repro alerts`` CLI.  See ``docs/detection.md``.
"""

from .alerts import AlertPublisher
from .engine import DetectionEngine, DetectionPipeline

__all__ = [
    "AlertPublisher",
    "DetectionEngine",
    "DetectionPipeline",
]
