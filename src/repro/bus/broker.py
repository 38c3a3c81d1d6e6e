"""An in-process message broker (Kafka model).

The OLCF deployment publishes "each event occurrence … to an Apache
Kafka message bus that is available to consumers subscribing to the
corresponding topic" (paper §III-D).  This broker reproduces the parts
that matter to the framework:

* named **topics** divided into **partitions** (offset logs retained
  from the slowest subscribed group's committed offset), with key-hash
  partition assignment so all events of one source land in one
  partition (per-key ordering);
* durable **consumer-group offsets** — consumption is decoupled from
  production, a consumer can crash and resume from its last commit,
  and independent groups read the same log.  A group is subscribed
  from the moment it is built (or first commits); offsets stay
  absolute, and a group that arrives after a truncation starts at the
  log start (Kafka's ``auto.offset.reset=earliest``).

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
_M_TRUNCATED = obs.get_registry().counter("bus.truncated")


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
    """A log per partition, retained from the slowest subscribed
    group's committed offset.  ``partitions[p]`` holds the retained
    records, the first at absolute offset ``starts[p]``; ``groups`` maps
    each subscribed group to its committed offset per partition."""

    def __init__(self, name: str, num_partitions: int):
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        self.name = name
        self.partitions: list[list[Record]] = [[] for _ in range(num_partitions)]
        self.starts = [0] * num_partitions
        self.groups: dict[str, list[int]] = {}
        self._rr = 0
        # Records this topic retains (up on append, down on truncation).
        self._depth = obs.get_registry().gauge("bus.queue_depth", topic=name)

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
        record = Record(self.name, part, self.starts[part] + len(log), key,
                        value, timestamp, trace)
        log.append(record)
        self._depth.inc()
        return record

    def end_offset(self, partition: int) -> int:
        return self.starts[partition] + len(self.partitions[partition])

    def read(self, partition: int, offset: int, max_records: int) -> list[Record]:
        """An offset below the log start reads from the start."""
        first = max(offset - self.starts[partition], 0)
        return self.partitions[partition][first:first + max_records]

    def truncate(self, partition: int) -> int:
        """Drop what every subscribed group has committed past; returns
        how many records that was."""
        low = min(offsets[partition] for offsets in self.groups.values())
        log = self.partitions[partition]
        dropped = min(low - self.starts[partition], len(log))
        del log[:dropped]
        self.starts[partition] += dropped
        self._depth.dec(dropped)
        return dropped


class MessageBus:
    """Broker: topics plus per-group committed offsets."""

    def __init__(self):
        self._topics: dict[str, Topic] = {}
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

    def end_offset(self, topic: str, partition: int) -> int:
        with self._lock:
            return self.topic(topic).end_offset(partition)

    # -- consumer-group offsets --------------------------------------------------

    def subscribe(self, group: str, topic: str) -> list[int]:
        """Subscribe *group* to *topic*: from now on its committed
        offsets pin the log.  A new group starts at the log start.
        Returns the group's committed offset per partition."""
        with self._lock:
            t = self.topic(topic)
            return t.groups.setdefault(group, list(t.starts))

    def committed(self, group: str, topic: str, partition: int) -> int:
        with self._lock:
            t = self.topic(topic)
            return t.groups.get(group, t.starts)[partition]

    def commit(self, group: str, topic: str, partition: int, offset: int) -> None:
        """Commit *group*'s offset, then drop what every subscribed
        group has committed past."""
        with self._lock:
            t = self.topic(topic)
            offsets = self.subscribe(group, topic)
            if offset < offsets[partition]:
                raise ValueError("cannot commit backwards")
            offsets[partition] = offset
            dropped = t.truncate(partition)
            lag = sum(t.end_offset(p) - offsets[p]
                      for p in range(t.num_partitions))
        _M_TRUNCATED.inc(dropped)
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
