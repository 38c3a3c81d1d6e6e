"""Batch ETL: raw log files → parsed events → sink (paper §III-D).

"The batch import is a traditional ETL procedure that involves
1) collocation of all data, 2) parsing the data in search for known
patterns for each event type …, and 3) batch upload into the backend
database.  Since such an update may require huge computational
overheads, the analytic framework implements parsing and uploading
using Apache Spark."

Two implementations share one contract:

* :func:`serial_ingest` — the single-threaded baseline (what a site
  script would do);
* :func:`batch_ingest` — the sparklet pipeline: ``textFile`` splits →
  per-partition parsing (one parser instance per task) → optional
  map-side coalescing by (type, component, window) → sink.

Both return :class:`IngestStats` so the S2 benchmark can compare them
like for like.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from repro import obs

from .parsers import ParsedEvent, default_parser
from .sink import EventSink

if TYPE_CHECKING:  # pragma: no cover
    from repro.sparklet import SparkletContext

__all__ = ["IngestStats", "serial_ingest", "batch_ingest", "coalesce_events",
           "merge_events"]


@dataclass
class IngestStats:
    """ETL health metrics."""

    lines: int = 0
    parsed: int = 0
    unparsed: int = 0
    written: int = 0

    @property
    def coalesced_away(self) -> int:
        """Events merged into earlier occurrences by coalescing."""
        return self.parsed - self.written


def _record_ingest(stats: "IngestStats", mode: str, elapsed_s: float) -> None:
    """Fold one ETL run into the process-wide ingest metrics."""
    registry = obs.get_registry()
    registry.counter("ingest.lines", mode=mode).inc(stats.lines)
    registry.counter("ingest.records_written", mode=mode).inc(stats.written)
    registry.counter("ingest.parse_failures", mode=mode).inc(stats.unparsed)
    if elapsed_s > 0:
        registry.gauge("ingest.records_per_sec", mode=mode).set(
            stats.lines / elapsed_s)


def merge_events(a: ParsedEvent, b: ParsedEvent) -> ParsedEvent:
    """The coalescing merge of two occurrences of one (type, component,
    window): amounts add; the merged event keeps the earliest timestamp
    and the first occurrence's attributes."""
    return ParsedEvent(
        ts=min(a.ts, b.ts), type=a.type, component=a.component,
        source=a.source, amount=a.amount + b.amount, attrs=a.attrs,
        raw=a.raw)


def coalesce_events(events: Iterable[ParsedEvent],
                    window_seconds: float = 1.0) -> list[ParsedEvent]:
    """Merge same-(type, component) events within a time window.

    "Event occurrences of the same type and same location are coalesced
    into a single event if they are timestamped the same", with the
    window set to one second (§III-D), by :func:`merge_events`.
    """
    if window_seconds <= 0:
        return list(events)
    merged: dict[tuple, ParsedEvent] = {}
    for event in events:
        key = (event.type, event.component, int(event.ts // window_seconds))
        kept = merged.get(key)
        merged[key] = event if kept is None else merge_events(kept, event)
    return sorted(merged.values(), key=lambda e: (e.ts, e.type, e.component))


def serial_ingest(paths: Sequence[str], sink: EventSink,
                  coalesce_seconds: float | None = None) -> IngestStats:
    """Single-threaded baseline ETL (no engine involved)."""
    start = time.perf_counter()
    parser = default_parser()
    stats = IngestStats()
    events: list[ParsedEvent] = []
    with obs.get_tracer().span("ingest.serial", files=len(paths)):
        for path in paths:
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    stats.lines += 1
                    event = parser.parse_line(line.rstrip("\n"))
                    if event is not None:
                        events.append(event)
        stats.parsed = parser.parsed
        stats.unparsed = parser.unparsed
        if coalesce_seconds:
            events = coalesce_events(events, coalesce_seconds)
        stats.written = sink.write_events(events)
    _record_ingest(stats, "serial", time.perf_counter() - start)
    return stats


def batch_ingest(sc: "SparkletContext", paths: Sequence[str], sink: EventSink,
                 coalesce_seconds: float | None = None) -> IngestStats:
    """Engine-parallel ETL over one or more raw log files."""
    start = time.perf_counter()
    span = obs.get_tracer().span("ingest.batch", files=len(paths))
    with span:
        stats = _batch_ingest_traced(sc, paths, sink, coalesce_seconds)
        span.set(lines=stats.lines, written=stats.written)
    _record_ingest(stats, "batch", time.perf_counter() - start)
    return stats


def _batch_ingest_traced(sc: "SparkletContext", paths: Sequence[str],
                         sink: EventSink, coalesce_seconds: float | None
                         ) -> IngestStats:
    parsed_acc = sc.accumulator(0)
    unparsed_acc = sc.accumulator(0)
    lines_acc = sc.accumulator(0)
    written_acc = sc.accumulator(0)

    def parse_partition(lines):
        parser = default_parser()  # one parser per task, no shared state
        out = [e for e in parser.parse_lines(lines)]
        lines_acc.add(parser.parsed + parser.unparsed)
        parsed_acc.add(parser.parsed)
        unparsed_acc.add(parser.unparsed)
        return out

    def sink_partition(events):
        # Sink-side batching: each task hands its whole partition to the
        # sink as one batch (one Cluster.write_batch per table for the
        # model sink) instead of funnelling everything through a single
        # driver-side collect() + write.  Tasks run concurrently; the
        # batched sink contract requires that to be safe.  Sorting keeps
        # per-batch write order deterministic.
        batch = sorted(events, key=lambda e: (e.ts, e.type, e.component))
        if batch:
            written_acc.add(sink.write_events(batch))
        return ()

    rdds = [sc.textFile(p) for p in paths]
    events_rdd = sc.union(rdds).mapPartitions(parse_partition)

    if coalesce_seconds:
        events_rdd = (
            events_rdd
            .map(lambda e: (
                (e.type, e.component, int(e.ts // coalesce_seconds)), e))
            .reduceByKey(merge_events)
            .values()
        )
    events_rdd.mapPartitions(sink_partition).collect()

    stats = IngestStats(
        lines=lines_acc.value,
        parsed=parsed_acc.value,
        unparsed=unparsed_acc.value,
    )
    stats.written = written_acc.value
    return stats
