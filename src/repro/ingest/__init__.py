"""ingest — ETL from raw logs into the analytics backend (paper §III-D).

Batch mode: regex parsing per event type, engine-parallel, optional
coalescing.  Streaming mode: bus subscription → 1-second micro-batches
→ coalescing → sink.
"""

from .batch import IngestStats, batch_ingest, coalesce_events, serial_ingest
from .parsers import LineParser, ParsedEvent, default_parser
from .sink import ListSink
from .streaming import LogProducer, StreamingIngestor

__all__ = [
    "IngestStats",
    "LineParser",
    "ListSink",
    "LogProducer",
    "ParsedEvent",
    "StreamingIngestor",
    "batch_ingest",
    "coalesce_events",
    "default_parser",
    "serial_ingest",
]
