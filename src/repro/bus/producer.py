"""Producer: publishes keyed event messages to bus topics.

The OLCF "event producers … not only parse real-time streams from log
sources but also publish each event occurrence from the streams"
(§III-D).  A :class:`Producer` is the publishing half; parsing lives in
``repro.ingest.parsers`` and the two are composed by the streaming
ingest pipeline.
"""

from __future__ import annotations

from typing import Any

from .broker import MessageBus, Record

__all__ = ["Producer"]


class Producer:
    """Thin, metric-tracking publishing handle onto a broker."""

    def __init__(self, bus: MessageBus, default_topic: str | None = None):
        self.bus = bus
        self.default_topic = default_topic
        self.sent = 0

    def send(self, value: Any, *, key: str | None = None,
             timestamp: float = 0.0) -> Record:
        """Publish one message; keyed messages preserve per-key order."""
        if self.default_topic is None:
            raise ValueError("no default_topic set")
        record = self.bus.publish(self.default_topic, value, key=key,
                                  timestamp=timestamp)
        self.sent += 1
        return record
