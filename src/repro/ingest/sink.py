"""Event sinks: where ingested events land.

Ingest is decoupled from the database model through this tiny protocol
so the ETL pipelines can be tested against an in-memory list and wired
to the real eight-table model (``repro.core.model.LogDataModel``) by the
framework.
"""

from __future__ import annotations

from typing import Iterable, Protocol, runtime_checkable

__all__ = ["EventSink", "ListSink"]


@runtime_checkable
class EventSink(Protocol):
    """Anything that can persist a batch of structured events.

    Batched contract
    ----------------
    ``write_events`` receives one *batch* — everything an ETL task or a
    streaming poll produced (a poll's closed 1 s windows, in window
    order) — and is expected to persist it as a batch, not row by row
    (the model sink turns one call into one ``Cluster.write_batch`` per
    table).  Implementations must:

    * accept any iterable and consume it at most once;
    * return the number of events actually persisted *by this call*
      (coalescing happens upstream, so normally ``len(batch)``);
    * tolerate concurrent calls from parallel pipeline tasks — the
      engine's per-partition sink writes overlap.
    """

    def write_events(self, events: Iterable) -> int:
        """Persist one batch of events; returns the number written."""
        ...  # pragma: no cover


class ListSink:
    """Collects events in memory (testing / inspection)."""

    def __init__(self):
        self.events: list = []

    def write_events(self, events: Iterable) -> int:
        # One extend per batch (the batched sink contract); the return
        # value is this call's delta, correct even when parallel tasks
        # interleave because list.extend is atomic under the GIL.
        batch = list(events)
        self.events.extend(batch)
        return len(batch)
