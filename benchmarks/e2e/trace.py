"""Spans recorded from outside the program, at each layer's public calls.

``install()`` replaces each layer's public functions (listed there)
with timing wrappers, in this process only, and returns a
:class:`Recorder`.  A span is ``(id, parent, request, layer, name,
start, end)``; the innermost open span travels in a ``ContextVar``, so
it follows ``asyncio.to_thread`` and the scatter/worker pools (which
copy their submitter's context) and child spans find their parent
across the thread hop.  Spans stay in memory until the run ends.

A layer's self time is the duration of its spans minus the union of
the intervals their child spans cover — the union, because children
may run in parallel on pool threads.  Self times are wall-clock: a
span that waits for the GIL or a lock is still open.  With several
requests or tasks in flight the layers' self times add up to more than
the wall time; ``coverage`` is that sum over the wall.

Two gaps: the scheduler starts its own stage threads without copying
the context when one job owns several shuffles, so spans below them
lose their parent; and a generator-returning call (``events_of_type``,
``scan_table``, ...) is timed from its first item to its last, so a
consumer that works between items is counted with it.  Every such
consumer in the program drains the generator at once.
"""

from __future__ import annotations

import contextvars
import functools
import gc
import inspect
import itertools
import json
import time
from collections import defaultdict
from typing import Any, Callable

LAYERS = ("server", "framework", "model", "cql", "cluster", "store",
          "sparklet", "bus", "ingest", "detect")

_current: contextvars.ContextVar[tuple[int, int] | None] = \
    contextvars.ContextVar("e2e_span", default=None)


class Recorder:
    """Spans and boundary counts of one traced phase."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._undo: list[tuple[Any, str, Any]] = []
        self._gc_started = 0.0
        self.gc_pauses: list[tuple[int, float]] = []   # (generation, ms)

    # -- wrapping ---------------------------------------------------------

    def wrap(self, owner: Any, attr: str, layer: str,
             count: Callable[[dict, tuple, dict, Any], None] | None = None
             ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        original = inspect.getattr_static(owner, attr)
        binding = (type(original)
                   if isinstance(original, (staticmethod, classmethod))
                   else None)
        fn = original.__func__ if binding else original
        name = f"{getattr(owner, '__name__', owner)}.{attr}"
        spans, counts, ids = self.spans, self.counts, self._ids
        clock = time.perf_counter

        def enter():
            parent = _current.get()
            sid = next(ids)
            token = _current.set((sid, parent[1] if parent else sid))
            return parent, sid, token, clock()

        def leave(parent, sid, token, start):
            end = clock()
            _current.reset(token)
            spans.append((sid, parent[0] if parent else 0,
                          parent[1] if parent else sid,
                          layer, name, start, end))

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def wrapper(*args, **kwargs):
                state = enter()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    leave(*state)
                if count is not None:
                    count(counts, args, kwargs, result)
                return result
        elif inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                # The span is current only while the wrapped generator
                # itself runs; between items the context is its
                # consumer's.  The interval runs from first to last item.
                parent = _current.get()
                sid, start = next(ids), clock()
                mine = (sid, parent[1] if parent else sid)
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        token = _current.set(mine)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            _current.reset(token)
                        yield item
                finally:
                    spans.append((sid, parent[0] if parent else 0, mine[1],
                                  layer, name, start, clock()))
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                state = enter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    leave(*state)
                if count is not None:
                    count(counts, args, kwargs, result)
                return result

        self._undo.append((owner, attr, original))
        setattr(owner, attr, binding(wrapper) if binding else wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- interpreter pauses -----------------------------------------------

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self.gc_pauses.append(
                (info["generation"],
                 (time.perf_counter() - self._gc_started) * 1000.0))

    def watch_gc(self) -> None:
        gc.callbacks.append(self._on_gc)

    # -- analysis ---------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: ``calls`` and ``self_s``."""
        return layer_totals(self.spans)

    def durations_ms(self, name: str, parents_only: bool = False
                     ) -> list[float]:
        """Ascending durations of the spans called *name*; with
        *parents_only*, of those that have child spans."""
        parents = {s[1] for s in self.spans} if parents_only else None
        return sorted((s[6] - s[5]) * 1000.0 for s in self.spans
                      if s[4] == name
                      and (parents is None or s[0] in parents))

    def dump(self, path: str) -> None:
        """Write the spans out, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, request, layer, name, start, end in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "request": request,
                    "layer": layer, "name": name,
                    "start": start, "end": end}) + "\n")


def covered(intervals: list[tuple[float, float]], lo: float, hi: float
            ) -> float:
    """Length of the union of *intervals*, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_totals(spans: list[tuple]) -> dict[str, dict[str, float]]:
    """Calls and self time per layer for ``(id, parent, request, layer,
    name, start, end)`` spans."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _sid, parent, _req, _layer, _name, start, end in spans:
        if parent:
            children[parent].append((start, end))
    totals: dict[str, dict[str, float]] = {
        layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
    for sid, _parent, _req, layer, _name, start, end in spans:
        entry = totals.setdefault(layer, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - covered(
            children.get(sid, ()), start, end)
    return totals


# -- what is wrapped --------------------------------------------------------


def _sized(value: Any) -> int:
    try:
        return len(value)
    except TypeError:
        return 0


def _count_rows(key: str):
    def count(counts, args, kwargs, result):
        counts[key] += _sized(result)
    return count


def _count_partitions(counts, args, kwargs, result):
    # (self, table, partition_values_list, ...)
    counts["cluster.read_calls"] += 1
    counts["cluster.partitions_read"] += _sized(args[2])
    counts["cluster.rows_returned"] += sum(
        _sized(part) for part in result) if result else 0


def _count_partition(counts, args, kwargs, result):
    counts["cluster.read_calls"] += 1
    counts["cluster.partitions_read"] += 1
    counts["cluster.rows_returned"] += _sized(result)


def _count_aggregate(counts, args, kwargs, result):
    counts["cluster.read_calls"] += 1
    counts["cluster.partitions_read"] += _sized(args[2])


def _count_write_batch(counts, args, kwargs, result):
    counts["cluster.write_batches"] += 1
    counts["cluster.rows_written"] += result or 0


def _count_write_rows(counts, args, kwargs, result):
    counts["store.rows_written"] += _sized(args[1])


def _count_store_read(counts, args, kwargs, result):
    counts["store.reads"] += 1


def _count_write_events(counts, args, kwargs, result):
    counts["model.events_written"] += result or 0


def _count_alerts(counts, args, kwargs, result):
    counts["detect.alerts"] += result or 0


def _count_handle(counts, args, kwargs, result):
    counts["server.requests"] += 1
    if result.get("cache") == "hit":
        counts["server.cache_hits"] += 1


def install() -> Recorder:
    """Wrap every layer's public calls; importing the program's modules
    here keeps ``import trace`` free of side effects."""
    from repro.bus import MessageBus
    from repro.cassdb import Cluster, Session
    from repro.cassdb.sstable import SSTable
    from repro.cassdb.storage import TableStore
    from repro.core import AnalyticsServer, LogAnalyticsFramework
    from repro.core import framework as framework_module
    from repro.core.model import LogDataModel
    from repro.detect import AlertPublisher, DetectionPipeline
    from repro.detect import detectors as detectors_module
    from repro.ingest import LineParser, LogProducer, StreamingIngestor
    from repro.sparklet.scheduler import DAGScheduler
    from repro.sparklet.streaming import StreamingContext

    rec = Recorder()
    wrap = rec.wrap

    wrap(AnalyticsServer, "handle", "server", _count_handle)

    for method in ("events", "runs", "heatmap", "distribution",
                   "distribution_by_application", "time_histogram",
                   "hotspots", "transfer_entropy", "cross_correlation",
                   "keywords", "association_rules", "cql",
                   "refresh_synopsis", "ingest_batch"):
        wrap(LogAnalyticsFramework, method, "framework",
             _count_rows("framework.rows"))

    wrap(LogDataModel, "write_events", "model", _count_write_events)
    for method in ("events_of_type", "events_at_location"):
        wrap(LogDataModel, method, "model")      # lazy generators
    for method in ("runs_in_interval", "synopsis_for_hour", "event_types",
                   "refresh_synopsis"):
        wrap(LogDataModel, method, "model")

    wrap(Session, "plan", "cql")
    wrap(Session, "execute", "cql", _count_rows("cql.rows_returned"))

    wrap(Cluster, "select_partition", "cluster", _count_partition)
    wrap(Cluster, "select_partitions", "cluster", _count_partitions)
    wrap(Cluster, "aggregate_partitions", "cluster", _count_aggregate)
    wrap(Cluster, "read_partition_raw", "cluster", _count_partition)
    wrap(Cluster, "write_batch", "cluster", _count_write_batch)
    for method in ("fold_table_partitions", "scan_table", "insert_many"):
        wrap(Cluster, method, "cluster")

    wrap(TableStore, "read_partition", "store")
    wrap(TableStore, "read_partition_view", "store", _count_store_read)
    wrap(TableStore, "write_rows", "store", _count_write_rows)
    wrap(TableStore, "flush", "store")
    wrap(TableStore, "compact", "store")
    # Automatic flushes never pass through TableStore.flush; the SSTable
    # build is the part of a flush that takes time either way.
    wrap(SSTable, "from_memtable", "store")

    wrap(DAGScheduler, "run_job", "sparklet")
    wrap(StreamingContext, "run_batch", "sparklet")

    for method in ("publish", "fetch", "commit"):
        wrap(MessageBus, method, "bus")

    wrap(LineParser, "parse_line", "ingest")
    wrap(LogProducer, "publish_lines", "ingest")
    wrap(StreamingIngestor, "process_available", "ingest")
    # The facade looks batch_ingest up in its own module at call time.
    wrap(framework_module, "batch_ingest", "ingest")

    for cls in vars(detectors_module).values():
        if (inspect.isclass(cls) and "observe" in vars(cls)
                and issubclass(cls, detectors_module.Detector)
                and cls is not detectors_module.Detector):
            wrap(cls, "observe", "detect")
    wrap(AlertPublisher, "publish", "detect", _count_alerts)
    wrap(DetectionPipeline, "drain", "detect")

    rec.watch_gc()
    return rec
