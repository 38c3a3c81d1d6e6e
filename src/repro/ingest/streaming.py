"""Streaming ingest: message bus → micro-batches → coalesce → sink.

Models §III-D's real-time pipeline: OLCF event producers publish every
occurrence to Kafka; "the analytic framework places a subscriber that
delivers event messages to Spark streaming module that in turn converts
and places all event occurrences into the right partitions.  Event
occurrences of the same type and same location are coalesced into a
single event if they are timestamped the same.  For this, the time
window of the Spark streaming is set to one second."

Composition::

    LogProducer(parse raw lines) ──publish──▶ MessageBus topic
                                                 │ poll (consumer group)
    StreamingIngestor ◀──────────────────────────┘
        └─ InputDStream → map → reduceByKey (1 s window) → stage
                                            poll lands the stage → sink

The poll → push → advance → land → commit loop is :class:`TopicIngestor`;
coalescing and detection stay per window, the write is one per poll.  The
event stream, self-ingested telemetry (``repro.obs.export``) and
detection alerts (``repro.detect.alerts``) are its three subclasses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro import obs
from repro.bus import ConsumerGroup, MessageBus, Producer
from repro.cassdb.row import columns_of

from .batch import merge_events
from .parsers import LineParser, ParsedEvent, default_parser
from .sink import EventSink

if TYPE_CHECKING:  # pragma: no cover
    from repro.cassdb import Cluster
    from repro.sparklet import SparkletContext

__all__ = ["LogProducer", "TopicIngestor", "StreamingIngestor",
           "StreamStats"]


class LogProducer:
    """An OLCF-style event producer: parses raw lines, publishes events.

    Messages are keyed by component so one source's events stay ordered
    within a topic partition.
    """

    def __init__(self, bus: MessageBus, topic: str,
                 parser: LineParser | None = None):
        bus.ensure_topic(topic)
        self._producer = Producer(bus, default_topic=topic)
        self.parser = parser or default_parser()

    def publish_line(self, line: str) -> ParsedEvent | None:
        event = self.parser.parse_line(line)
        if event is not None:
            self._producer.send(event, key=event.component,
                                timestamp=event.ts)
        return event

    def publish_lines(self, lines: Iterable[str]) -> int:
        n = 0
        for line in lines:
            if self.publish_line(line) is not None:
                n += 1
        return n

    def publish_events(self, events: Iterable[ParsedEvent]) -> int:
        """Publish already-structured events (producer-side parsing done)."""
        n = 0
        for event in events:
            self._producer.send(event, key=event.component,
                                timestamp=event.ts)
            n += 1
        return n

    @property
    def published(self) -> int:
        return self._producer.sent


@dataclass
class StreamStats:
    polled: int = 0
    written: int = 0
    batches: int = 0

    @property
    def coalesced_away(self) -> int:
        return self.polled - self.written


class TopicIngestor:
    """One bus topic drained through sparklet micro-batches (§III-D).

    Owns the loop every stream rides: a consumer group polls the topic,
    records are pushed onto a :class:`~repro.sparklet.streaming.
    StreamingContext` input stream stamped with their bus timestamp, the
    logical clock advances to the latest one seen, what the closed
    batches staged lands, and offsets commit.  What a closed batch
    *stages* is the subclass's business: it registers outputs on
    ``self._input`` that append to ``self._staged`` — or, for a topic
    that lands in time-bucketed tables, calls :meth:`_land` with a
    record→row mapper.  :meth:`_write` persists one poll's stage: one
    ``write_batch`` per :meth:`_land` table, unless a subclass that
    writes elsewhere overrides it.
    """

    def __init__(self, bus: MessageBus, topic: str, sc: "SparkletContext",
                 *, batch_interval: float, group_id: str):
        from repro.sparklet.streaming import StreamingContext

        bus.ensure_topic(topic)
        self._group = ConsumerGroup(bus, group_id, topic)
        self._consumer = self._group.join()
        self.ssc = StreamingContext(sc, batch_interval)
        self._input = self.ssc.input_stream()
        # What the windows a poll closed produced, in window order;
        # landed once per poll (and per flush) by _land_staged.
        self._staged: list = []

    # -- what a subclass may say about its stream ---------------------------

    def _epoch(self, records) -> float:
        """Offset subtracted from bus timestamps before they reach the
        logical clock.  Event-time streams are not rebased: coalescing
        and detector windows are keyed by event time."""
        return 0.0

    def _poll_span(self, records):
        """Context manager (a span) held around one poll's batches."""
        return obs.NULL_SPAN

    def _account(self, polled: int, batches: int) -> None:
        """Called after every poll and flush with what it moved."""

    # -- the loop -----------------------------------------------------------

    def process_available(self, max_records: int = 100_000) -> int:
        """Poll, run every complete batch, land what they staged, commit.
        Returns records polled.

        The logical streaming clock advances to the latest timestamp
        seen, so all batches strictly before it are finalized; records
        in the still-open batch remain buffered for the next call.  A
        partition the poll left unread holds the clock at the latest
        timestamp it delivered.
        """
        records = self._consumer.poll(max_records)
        batches = 0
        if records:
            with self._poll_span(records) as span:
                epoch = self._epoch(records)
                push = self._input.push
                latest: dict[int, float] = {}
                for record in records:
                    ts = record.timestamp - epoch
                    push(record.value, ts)
                    if ts > latest.get(record.partition, 0.0):
                        latest[record.partition] = ts
                # The clock stops at a partition with records still
                # unread: they may belong to the windows it would close.
                clock = max(latest.values(), default=0.0)
                for p in self._consumer.unread():
                    clock = min(clock, latest.get(p, 0.0))
                before = self.ssc.batches_run
                self.ssc.advance_to(clock)
                batches = self.ssc.batches_run - before
                self._land_staged()
                self._consumer.commit()
                span.set(records=len(records), batches=batches)
        self._account(len(records), batches)
        return len(records)

    def flush(self) -> None:
        """Force the open batch out (end of stream, or freshness over
        batching)."""
        before = self.ssc.batches_run
        self.ssc.advance(1)
        self._land_staged()
        self._account(0, self.ssc.batches_run - before)

    def _land_staged(self) -> None:
        # Take the stage before writing: a write that raises leaves it
        # empty and the offsets uncommitted, so nothing lands twice.
        staged, self._staged = self._staged, []
        if staged:
            self._write(staged)

    @property
    def lag(self) -> int:
        return self._group.lag()

    # -- topic → time-bucketed tables ---------------------------------------

    def _land(self, cluster: "Cluster", schemas, to_row) -> None:
        """Land *schemas*' tables (created if absent) from this topic:
        each closed batch stages its rows, and each poll writes them in
        one ``write_batch`` per table.

        ``to_row(record)`` maps a bus record to ``(table, row)``, or
        None to skip it; the row's bucket column is stamped here from
        its ``ts``, so a mapper never knows the bucket width.  Rows
        landed are tallied per table in ``self.rows_landed``.
        """
        by_name = {schema.name: schema for schema in schemas}
        for schema in by_name.values():
            cluster.create_table(schema, if_not_exists=True)
        self.cluster = cluster
        self.rows_landed = dict.fromkeys(by_name, 0)

        def stage(rdd) -> None:
            for record in rdd.collect():
                landed = to_row(record)
                if landed is not None:
                    table, row = landed
                    schema = by_name[table]
                    row[schema.time_bucket[0]] = schema.bucket_of(row["ts"])
                    self._staged.append(landed)

        self._input.foreachRDD(stage)

    def _write(self, staged: list) -> None:
        """Persist one poll's stage of ``(table, row)`` pairs."""
        batch: dict[str, list[dict]] = {name: [] for name in self.rows_landed}
        for table, row in staged:
            batch[table].append(row)
        for table, rows in batch.items():
            if rows:
                self._landed(table, self.cluster.write_batch(
                    table, columns_of(rows)))

    def _landed(self, table: str, written: int) -> None:
        self.rows_landed[table] += written


class StreamingIngestor(TopicIngestor):
    """Subscribes to an event topic and ingests with 1 s coalescing."""

    def __init__(self, bus: MessageBus, topic: str, sink: EventSink,
                 sc: "SparkletContext", *, batch_interval: float = 1.0,
                 group_id: str = "analytics-ingest"):
        super().__init__(bus, topic, sc, batch_interval=batch_interval,
                         group_id=group_id)
        self.sink = sink
        self.stats = StreamStats()
        interval = batch_interval

        # Window observers (repro.detect's DetectionEngine): called with
        # each closed window's coalesced, time-sorted events — the exact
        # list the window stages for the sink, collected once and shared,
        # so a second workload costs no extra per-window job.
        self._observers: list = []
        # Public: downstream subscribers may also register their own
        # outputs on this same stream.
        self.coalesced = (
            self._input
            .map(lambda e: ((e.type, e.component, int(e.ts // interval)), e))
            .reduceByKey(merge_events)
            .map(lambda kv: kv[1])
        )
        self.coalesced.foreachRDD(self._stage_window)

    def _stage_window(self, rdd) -> None:
        events = sorted(rdd.collect(), key=lambda e: (e.ts, e.type,
                                                      e.component))
        if events:
            for observer in self._observers:
                observer(events)
            self._staged.extend(events)

    def _write(self, staged: list) -> None:
        written = self.sink.write_events(staged)
        self.stats.written += written
        registry = obs.get_registry()
        registry.counter(
            "ingest.records_written", mode="stream").inc(written)
        registry.histogram(
            "ingest.stream.batch_rows",
            buckets=(10, 100, 1000, 10_000)).observe(written)

    def add_observer(self, observer) -> None:
        """Register a per-window callback: ``observer(events)`` with the
        closed window's coalesced events (time-sorted), before the poll
        lands them.  Empty windows are never observed."""
        self._observers.append(observer)

    def _poll_span(self, records):
        tracer = obs.get_tracer()
        if tracer.current_span() is not None:
            return tracer.span("ingest.stream.poll")
        # Consumer side of the broker: no active trace here, but the
        # records carry the publishing span's (trace_id, span_id) —
        # continue that trace so both halves export as one tree
        # instead of the poll span orphaning (or vanishing) here.
        link = next((r.trace for r in records if r.trace), None)
        return tracer.root_span(
            "ingest.stream.poll",
            trace_id=link[0] if link else None,
            parent_id=link[1] if link else None,
        )

    def _account(self, polled: int, batches: int) -> None:
        """Fold a poll or flush into :class:`StreamStats` and publish
        lag and the stats picture as ``ingest.stream.*`` series — the
        pipeline's health, readable without a handle on this object
        (``repro top``, Prometheus exposition).  The gauges refresh even
        on an empty poll: a drained stream should read lag 0 on the
        dashboard, not its last nonzero value."""
        self.stats.polled += polled
        self.stats.batches += batches
        registry = obs.get_registry()
        if polled:
            registry.counter("ingest.stream.polled").inc(polled)
            registry.counter("ingest.stream.batches").inc(batches)
        registry.gauge("ingest.stream.lag").set(self._group.lag())
        registry.gauge("ingest.stream.written").set(self.stats.written)
        registry.gauge("ingest.stream.coalesced_away").set(
            self.stats.coalesced_away)
