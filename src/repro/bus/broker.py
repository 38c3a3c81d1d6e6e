"""An in-process message broker (Kafka model).

The OLCF deployment publishes "each event occurrence … to an Apache
Kafka message bus that is available to consumers subscribing to the
corresponding topic" (paper §III-D).  This broker reproduces the parts
that matter to the framework:

* named **topics** divided into **partitions** (append-only offset
  logs), with key-hash partition assignment so all events of one
  source land in one partition (per-key ordering);
* durable **consumer-group offsets** — consumption is decoupled from
  production, a consumer can crash and resume from its last commit,
  and independent groups replay the same log.

Delivery is pull-based (consumers poll), exactly-once *per commit*
from the group's perspective: records between the last commit and a
crash are redelivered (at-least-once), which the ingest tests verify.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any

from repro import obs
from repro.cassdb.hashring import token_for_key

__all__ = ["Record", "Topic", "MessageBus"]

_M_PUBLISHED = obs.get_registry().counter("bus.published")
_M_FETCHED = obs.get_registry().counter("bus.fetched_records")
# Total records retained across every topic of every in-process broker.
_G_QUEUE_DEPTH = obs.get_registry().gauge("bus.queue_depth")


@dataclass(frozen=True, slots=True)
class Record:
    """One message in a topic partition."""

    topic: str
    partition: int
    offset: int
    key: str | None
    value: Any
    timestamp: float
    # Trace continuation link: ``(trace_id, span_id)`` of the publishing
    # span, or None when the producer ran outside any trace.  Consumers
    # that process this record can join the same trace (see
    # ``Tracer.root_span(trace_id=…, parent_id=…)``) so spans on either
    # side of the broker export as one tree instead of orphaning here.
    trace: tuple[int, int] | None = None


class Topic:
    """An append-only log per partition."""

    def __init__(self, name: str, num_partitions: int):
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        self.name = name
        self.partitions: list[list[Record]] = [[] for _ in range(num_partitions)]
        self._rr = 0

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    def partition_for(self, key: str | None) -> int:
        if key is None:
            self._rr += 1
            return self._rr % self.num_partitions
        return token_for_key(key) % self.num_partitions

    def append(self, key: str | None, value: Any, timestamp: float,
               trace: tuple[int, int] | None = None) -> Record:
        part = self.partition_for(key)
        log = self.partitions[part]
        record = Record(self.name, part, len(log), key, value, timestamp,
                        trace)
        log.append(record)
        return record

    def end_offset(self, partition: int) -> int:
        return len(self.partitions[partition])

    def read(self, partition: int, offset: int, max_records: int) -> list[Record]:
        return self.partitions[partition][offset:offset + max_records]


class MessageBus:
    """Broker: topics plus per-group committed offsets."""

    def __init__(self):
        self._topics: dict[str, Topic] = {}
        # (group, topic, partition) -> committed offset
        self._offsets: dict[tuple[str, str, int], int] = {}
        self._lock = threading.RLock()
        # Chaos injection point (repro.chaos FaultGate); None — the
        # permanent default — costs one attribute check per op.
        self.chaos_gate = None

    # -- topic management -------------------------------------------------

    def create_topic(self, name: str, num_partitions: int = 4) -> Topic:
        with self._lock:
            if name in self._topics:
                raise ValueError(f"topic exists: {name!r}")
            topic = Topic(name, num_partitions)
            self._topics[name] = topic
            return topic

    def topic(self, name: str) -> Topic:
        try:
            return self._topics[name]
        except KeyError:
            raise KeyError(f"no such topic: {name!r}") from None

    def topics(self) -> list[str]:
        return sorted(self._topics)

    def ensure_topic(self, name: str, num_partitions: int = 4) -> Topic:
        with self._lock:
            if name not in self._topics:
                return self.create_topic(name, num_partitions)
            return self._topics[name]

    # -- produce / fetch ------------------------------------------------------

    def publish(self, topic: str, value: Any, key: str | None = None,
                timestamp: float = 0.0) -> Record:
        copies = 1
        # Stamp the record with the active trace so consumers on the
        # other side of the broker can continue it; the publish span
        # itself is the cross-broker parent (a no-op outside traces).
        with obs.get_tracer().span("bus.publish", topic=topic) as span:
            trace = None
            if isinstance(span, obs.Span):
                trace = (span.trace_id, span.span_id)
            with self._lock:
                t = self.topic(topic)
                record = t.append(key, value, timestamp, trace)
                gate = self.chaos_gate
                if gate is not None:
                    # Producer-retry duplicates: the same payload appended
                    # again (consumers must dedup by key/content).
                    for _ in range(gate.on_publish(topic)):
                        t.append(key, value, timestamp, trace)
                        copies += 1
        _M_PUBLISHED.inc(copies)
        _G_QUEUE_DEPTH.inc(copies)
        return record

    def fetch(self, topic: str, partition: int, offset: int,
              max_records: int = 1000) -> list[Record]:
        with self._lock:
            records = self.topic(topic).read(partition, offset, max_records)
        gate = self.chaos_gate
        if records and gate is not None and gate.on_fetch(topic, partition):
            # Delivery dropped in the "network".  The log and committed
            # offsets are untouched, so the consumer re-fetches from the
            # same offset: at-least-once, never a lost record.
            return []
        _M_FETCHED.inc(len(records))
        return records

    # -- consumer-group offsets --------------------------------------------------

    def committed(self, group: str, topic: str, partition: int) -> int:
        with self._lock:
            return self._offsets.get((group, topic, partition), 0)

    def commit(self, group: str, topic: str, partition: int, offset: int) -> None:
        with self._lock:
            key = (group, topic, partition)
            if offset < self._offsets.get(key, 0):
                raise ValueError("cannot commit backwards")
            self._offsets[key] = offset
            lag = sum(
                self._topics[topic].end_offset(p)
                - self._offsets.get((group, topic, p), 0)
                for p in range(self._topics[topic].num_partitions)
            )
        obs.get_registry().gauge(
            "bus.consumer_lag", group=group, topic=topic).set(lag)

    def lag(self, group: str, topic: str) -> int:
        """Total records the group has not yet committed past."""
        with self._lock:
            t = self.topic(topic)
            return sum(
                t.end_offset(p) - self.committed(group, topic, p)
                for p in range(t.num_partitions)
            )
