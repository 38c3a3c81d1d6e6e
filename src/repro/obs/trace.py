"""Hierarchical tracing with ``contextvars`` propagation.

One server request becomes one *trace*: a tree of timed spans rooted at
``server.request`` and descending through the framework facade, the
sparklet job/stage/task machinery, the cassdb coordinator and finally
the per-:class:`~repro.cassdb.node.StorageNode` operations — the Fig-3
layers, observed.

Propagation rides :mod:`contextvars`, so span parentage follows control
flow for free across ``await`` boundaries and ``asyncio.to_thread``
(both copy the context).  The sparklet :class:`~repro.sparklet.executor.
WorkerPool` copies the submitting context explicitly, extending the
same trace into its long-lived task threads.

Cost discipline:

* with no active trace, :meth:`Tracer.span` is a no-op returning a
  shared :data:`NULL_SPAN` — batch ingest and direct library calls pay
  one ContextVar read per call, nothing more.  Roots are opened by the
  server (one per request), by ``repro profile``'s workload and by each
  streaming poll that delivers records (``ingest.stream.poll``): its
  micro-batch jobs, detection windows and landing writes are traced,
  a median of 71 spans per poll on the ``stream_ingest`` benchmark
  workload (156 when each 1 s window wrote its own batch);
* every trace is bounded (*max_spans_per_trace*, *max_children* per
  span, *max_attrs* per span); overflow increments drop counters
  instead of allocating;
* completed traces land in a bounded ring (*max_traces*) as their root
  spans and are exported as plain dicts only when read, by
  :meth:`Tracer.last_trace` / :meth:`Tracer.traces` — the payload of
  the server's ``trace`` op.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from typing import Any

__all__ = ["NULL_SPAN", "NullSpan", "Span", "Tracer"]

import contextvars


class NullSpan:
    """Shared do-nothing span used when tracing is off or over budget."""

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def set(self, **attrs: Any) -> None:
        return None

    def mark_error(self, message: str) -> None:
        return None


NULL_SPAN = NullSpan()


class Span:
    """One timed operation in a trace tree."""

    __slots__ = ("tracer", "name", "attrs", "children", "status", "error",
                 "start", "end", "dropped_children", "dropped_attrs",
                 "_root", "_token", "_span_budget", "_tid", "_prev_thread_span",
                 "trace_id", "span_id", "parent_id", "wall_start")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict[str, Any]):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.children: list[Span] = []
        self.status = "ok"
        self.error: str | None = None
        self.start = time.perf_counter()
        self.end: float | None = None
        self.dropped_children = 0
        self.dropped_attrs = 0
        self._root: Span = self  # overwritten for child spans
        self._token: contextvars.Token | None = None
        self._span_budget = 1  # spans in this trace; meaningful on roots
        self._tid = 0  # thread that entered the span (sampler attribution)
        self._prev_thread_span: Span | None = None
        # Identity (set by the tracer): the trace this span belongs to,
        # its own id, and its parent's id — the parent may live on the
        # *other* side of a message broker (bus continuation links).
        self.trace_id = 0
        self.span_id = 0
        self.parent_id: int | None = None
        # Wall-clock start; set on roots only (children derive theirs
        # from the root's wall clock plus the perf_counter offset).
        self.wall_start: float | None = None

    # -- context-manager protocol --------------------------------------

    def __enter__(self) -> "Span":
        self._token = self.tracer._current.set(self)
        # Best-effort thread attribution for the sampling profiler: the
        # innermost span entered on this thread.  Plain dict ops are
        # atomic under the GIL; interleaved asyncio tasks on one thread
        # can momentarily mis-restore, which only blurs *idle* event-loop
        # samples (real work runs in worker threads, tracked exactly).
        tid = self._tid = threading.get_ident()
        spans = self.tracer._thread_spans
        self._prev_thread_span = spans.get(tid)
        spans[tid] = self
        return self

    def __exit__(self, exc_type, exc, _tb) -> None:
        self.end = time.perf_counter()
        if exc_type is not None:
            self.status = "error"
            self.error = f"{exc_type.__name__}: {exc}"
        spans = self.tracer._thread_spans
        if spans.get(self._tid) is self:
            if self._prev_thread_span is None:
                spans.pop(self._tid, None)
            else:
                spans[self._tid] = self._prev_thread_span
        self._prev_thread_span = None
        if self._token is not None:
            self.tracer._current.reset(self._token)
            self._token = None
        self.tracer._observe_duration(self)
        if self._root is self:
            self.tracer._finish_trace(self)

    # -- mutation -------------------------------------------------------

    def set(self, **attrs: Any) -> None:
        """Attach attributes mid-span (row counts, outcomes, …)."""
        with self.tracer._lock:
            budget = self.tracer.max_attrs - len(self.attrs)
            for i, (key, value) in enumerate(attrs.items()):
                if i < budget:
                    self.attrs[key] = value
                else:
                    self.dropped_attrs += 1

    def mark_error(self, message: str) -> None:
        """Flag the span failed when the exception is handled in-span
        (a server boundary catches before ``__exit__`` can see it)."""
        self.status = "error"
        self.error = message

    # -- export ---------------------------------------------------------

    @property
    def duration_ms(self) -> float:
        end = self.end if self.end is not None else time.perf_counter()
        return (end - self.start) * 1000.0

    @property
    def wall_time(self) -> float:
        """Wall-clock start: the root's wall clock plus this span's
        monotonic offset from the root (one ``time.time`` per trace)."""
        root = self._root
        base = root.wall_start if root.wall_start is not None else 0.0
        return base + (self.start - root.start)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "wall_time": self.wall_time,
            "duration_ms": self.duration_ms,
            "status": self.status,
        }
        if self.parent_id is not None:
            out["parent_id"] = self.parent_id
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.error is not None:
            out["error"] = self.error
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        if self.dropped_children:
            out["dropped_children"] = self.dropped_children
        if self.dropped_attrs:
            out["dropped_attrs"] = self.dropped_attrs
        if self._root is self:
            out["spans"] = self._span_budget
        return out


class Tracer:
    """Produces spans, tracks the current one, rings completed traces."""

    def __init__(self, *, enabled: bool = True, max_traces: int = 32,
                 max_children: int = 128, max_spans_per_trace: int = 2000,
                 max_attrs: int = 32, registry=None):
        self.enabled = enabled
        self.max_children = max_children
        self.max_spans_per_trace = max_spans_per_trace
        self.max_attrs = max_attrs
        # Auto-record an obs.span.duration_ms{component} histogram on
        # every span exit: component latency distributions exist without
        # per-callsite instrumentation.  *registry* is late-bound to the
        # process default when None (avoids an import cycle at load).
        self._registry = registry
        self._duration_hists: dict[str, Any] = {}
        self._lock = threading.Lock()
        self._current: contextvars.ContextVar[Span | None] = (
            contextvars.ContextVar("repro_obs_current_span", default=None)
        )
        # thread id -> innermost active span on that thread, maintained
        # by Span.__enter__/__exit__ for the sampling profiler (which
        # cannot read another thread's contextvars).
        self._thread_spans: dict[int, Span] = {}
        self._traces: deque[Span] = deque(maxlen=max_traces)
        self._trace_ids = itertools.count(1)
        self._span_ids = itertools.count(1)

    # -- span creation ---------------------------------------------------

    def root_span(self, name: str, *, trace_id: int | None = None,
                  parent_id: int | None = None, **attrs: Any
                  ) -> Span | NullSpan:
        """Start a new trace (ignores any currently active span).

        Passing *trace_id*/*parent_id* starts a **continuation** root:
        a span that joins a trace whose earlier spans ran on the other
        side of an async boundary (a bus topic) — both halves share one
        trace id and the parent link crosses the broker.
        """
        if not self.enabled:
            return NULL_SPAN
        span = Span(self, name, dict(list(attrs.items())[:self.max_attrs]))
        span.trace_id = (trace_id if trace_id is not None
                         else next(self._trace_ids))
        span.span_id = next(self._span_ids)
        span.parent_id = parent_id
        span.wall_start = time.time()
        return span

    def span(self, name: str, **attrs: Any) -> Span | NullSpan:
        """A child of the active span; a no-op when no trace is active.

        The no-trace fast path is what keeps bulk paths (per-row writes
        during ingest) unobserved-and-cheap instead of traced-and-slow.
        """
        if not self.enabled:
            return NULL_SPAN
        parent = self._current.get()
        if parent is None:
            return NULL_SPAN
        root = parent._root
        with self._lock:
            if (root._span_budget >= self.max_spans_per_trace
                    or len(parent.children) >= self.max_children):
                parent.dropped_children += 1
                return NULL_SPAN
            root._span_budget += 1
            child = Span(self, name, dict(list(attrs.items())[:self.max_attrs]))
            child._root = root
            child.trace_id = root.trace_id
            child.span_id = next(self._span_ids)
            child.parent_id = parent.span_id
            parent.children.append(child)
        return child

    def current_span(self) -> Span | None:
        return self._current.get()

    def thread_components(self) -> dict[int, str]:
        """Thread id → component of the innermost span active on that
        thread right now (the dotted-name prefix, i.e. the Fig-3 layer).
        The sampling profiler reads this to attribute wall-clock samples
        cross-thread; threads with no active span are absent."""
        return {
            tid: span.name.split(".", 1)[0]
            for tid, span in list(self._thread_spans.items())
        }

    def _observe_duration(self, span: Span) -> None:
        component = span.name.split(".", 1)[0]
        hist = self._duration_hists.get(component)
        if hist is None:
            registry = self._registry
            if registry is None:
                from repro import obs  # late: break the import cycle

                registry = self._registry = obs.get_registry()
            hist = self._duration_hists[component] = registry.histogram(
                "obs.span.duration_ms", component=component)
        hist.observe(span.duration_ms, trace_id=span.trace_id or None)

    # -- completed traces -------------------------------------------------

    def _finish_trace(self, root: Span) -> None:
        with self._lock:
            self._traces.append(root)

    def last_trace(self) -> dict[str, Any] | None:
        """The most recently completed trace (a plain span-tree dict)."""
        with self._lock:
            root = self._traces[-1] if self._traces else None
        return None if root is None else root.to_dict()

    def traces(self, after: int = 0) -> list[dict[str, Any]]:
        """Retained traces with a trace id above *after* (all of them by
        default), oldest first."""
        with self._lock:
            roots = [r for r in self._traces if r.trace_id > after]
        return [root.to_dict() for root in roots]

    def reset(self) -> None:
        with self._lock:
            self._traces.clear()
