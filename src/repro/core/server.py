"""The analytics server: async JSON request routing (paper §III, Fig 3).

"The analytics server consists of a web server, a query processing
engine, and a big data processing engine.  The user queries are
received by the web server, translated by the query engine, and either
forwarded to the backend database, or the big data processing unit
depending on the type of a user query."

This module reproduces that division without a network socket: an
:class:`AnalyticsServer` accepts JSON-shaped requests (dicts) and
answers on the event loop every op the coordinator serves with
partition reads and folds (contexts, heat maps, hot spots, metadata).
Only work for the big-data unit — a sparklet job, or statistics and
mining over what a request read — leaves the loop through
``asyncio.to_thread``, the non-blocking property Tornado gives the real
system for "numerous users, who may require long-lived connections".
Which ops exist, what serves each and whether it leaves the loop is one
table, filled by ``@_op``; a ``cql`` request goes by its prepared plan.

Responses are JSON-serializable dicts: ``{"ok": true, "result": …,
"elapsed_ms": …}`` — "Query results are sent in JSON object format to
avoid data format conversion at the frontend."
"""

from __future__ import annotations

import asyncio
import contextvars
import json
import time
from dataclasses import asdict
from functools import partial
from itertools import chain
from typing import Any, Callable

import numpy as np

from repro import obs
from repro.cql import CQLError, Select, normalize_cql

from .context import Context
from .framework import LogAnalyticsFramework
from .result_cache import ResultCache

__all__ = ["AnalyticsServer"]

# Per-request cache outcome for the response's "cache" field.  A
# ContextVar (not an instance attribute) because handle_many interleaves
# requests on the event loop; each asyncio task sees only its own value.
_CACHE_STATUS: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "server_cache_status", default=None)

# op name -> (handler, offload): the one entry ``handle`` reads for
# whether an op exists, what serves it, and whether it hands its work
# to the big-data unit and so leaves the event loop.
_OPS: dict[str, tuple[Callable, bool]] = {}


def _op(handler: Callable | None = None, *, offload: bool = False):
    """Enter ``_op_<name>`` in the op table; ``@_op(offload=True)`` for
    an op whose work is the big-data unit's."""
    if handler is None:
        return lambda fn: _op(fn, offload=offload)
    _OPS[handler.__name__.removeprefix("_op_")] = (handler, offload)
    return handler


class _PreSerialized:
    """A handler result that already went through :func:`_jsonable`.

    Cached SELECT payloads are stored post-conversion so a cache hit
    skips the O(rows) re-serialization; the payload object is shared
    with the cache, so response consumers must treat it as read-only
    (real transports json-dump it immediately).
    """

    __slots__ = ("payload",)

    def __init__(self, payload: Any):
        self.payload = payload


# Exact types that are JSON as they stand.  Membership is by ``type()``,
# not ``isinstance``: ``np.float64`` subclasses ``float`` and must still
# be converted.
_SCALARS = frozenset({str, int, float, bool, type(None)})
_CONTAINERS = frozenset({dict, list})
_STR = frozenset({str})


def _is_plain(value: Any) -> bool:
    """Whether *value* is JSON as it stands: exact ``dict``/``list``
    containers, string keys, exact scalar types.  Checked one nesting
    level at a time, so a reply of a thousand cells is a few C-speed
    sweeps over their types and no Python call per cell."""
    level = [value]
    while True:
        kinds = set(map(type, level)) - _SCALARS
        if not kinds:
            return True
        if not kinds <= _CONTAINERS:
            return False
        dicts = [v for v in level if type(v) is dict]
        if not _STR.issuperset(map(type, chain.from_iterable(dicts))):
            return False
        level = list(chain(
            chain.from_iterable(map(dict.values, dicts)),
            chain.from_iterable(v for v in level if type(v) is list)))


def _jsonable(value: Any) -> Any:
    """Coerce numpy/containers into plain JSON-serializable types.

    What the store and most handlers return is plain already; it is
    handed back *unchanged*, not copied, so a reply may share structure
    with the handler's result (handlers do not return containers that
    outlive the request).  Anything else is rebuilt.
    """
    return value if _is_plain(value) else _rebuild(value)


def _rebuild(value: Any) -> Any:
    if isinstance(value, _PreSerialized):
        return value.payload
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, dict):
        return {str(k): _rebuild(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rebuild(v) for v in value]
    if isinstance(value, frozenset):
        return sorted(value)
    return value


class AnalyticsServer:
    """JSON-request facade over a :class:`LogAnalyticsFramework`."""

    def __init__(self, framework: LogAnalyticsFramework, *,
                 registry: obs.MetricsRegistry | None = None,
                 tracer: obs.Tracer | None = None,
                 slow_log: obs.SlowQueryLog | None = None,
                 latency_window: int = 512,
                 result_cache_size: int = 256,
                 result_cache_ttl: float = 30.0):
        self.framework = framework
        self.registry = registry if registry is not None else obs.get_registry()
        self.tracer = tracer if tracer is not None else obs.get_tracer()
        self.slow_log = slow_log if slow_log is not None else obs.get_slow_log()
        self.result_cache = ResultCache(
            max_entries=result_cache_size, ttl_seconds=result_cache_ttl,
            registry=self.registry,
        )
        self.requests_served = 0
        self.errors = 0
        self._latency_window = latency_window
        # (op, outcome) -> bounded Histogram; every request is timed,
        # failures included, tagged by outcome.  Private to this server
        # — the registry series is shared across servers, latencies_ms
        # is not.
        self._op_hists: dict[tuple[str, str], obs.Histogram] = {}
        self._registry_hists: dict[tuple[str, str], obs.Histogram] = {}
        self._m_requests = self.registry.counter("server.requests")
        self._m_errors = self.registry.counter("server.errors")

    @property
    def latencies_ms(self) -> dict[str, list[float]]:
        """Per-op recent latencies (ms), bounded by the histogram window.

        The F3 bench reads this; it is a *window*, not the full history
        — the unbounded per-request list it replaces grew forever.
        """
        out: dict[str, list[float]] = {}
        for (op, _outcome), hist in sorted(self._op_hists.items()):
            out.setdefault(op, []).extend(hist.recent())
        return out

    def _observe(self, op: str, outcome: str, elapsed_ms: float,
                 trace_id: int | None = None) -> None:
        key = (op, outcome)
        hist = self._op_hists.get(key)
        if hist is None:
            hist = self._op_hists[key] = obs.Histogram(
                window=self._latency_window)
            self._registry_hists[key] = self.registry.histogram(
                "server.latency_ms", window=self._latency_window,
                op=op, outcome=outcome,
            )
        hist.observe(elapsed_ms, trace_id=trace_id)
        self._registry_hists[key].observe(elapsed_ms, trace_id=trace_id)

    # -- request entry points ------------------------------------------------

    async def handle(self, request: dict[str, Any]) -> dict[str, Any]:
        """Serve one JSON request (any JSON value) asynchronously."""
        start = time.perf_counter()
        op = request.get("op") if isinstance(request, dict) else None
        op_name = op if isinstance(op, str) else "<invalid>"
        outcome = "ok"
        cache_token = _CACHE_STATUS.set(None)
        with self.tracer.root_span("server.request", op=op_name) as span:
            try:
                if not isinstance(request, dict):
                    raise ValueError("request must be a JSON object, not "
                                     f"{type(request).__name__}")
                entry = _OPS.get(op) if isinstance(op, str) else None
                if entry is None:
                    raise ValueError(f"unknown op: {op!r}")
                handler, offload = entry
                if offload:
                    # The big-data unit's work leaves the event loop free
                    # (Tornado's non-blocking I/O property); to_thread
                    # copies the context, so the span tree follows.
                    # Concurrent requests that reach the sparklet engine
                    # run as truly concurrent jobs: the DAG scheduler
                    # admits them in parallel and materializes any
                    # shared shuffle lineage exactly once.
                    result = await asyncio.to_thread(handler, self, request)
                else:
                    result = handler(self, request)
                if isinstance(result, partial):  # a cql sparklet plan's run
                    result = await asyncio.to_thread(result)
                response = {"ok": True, "result": _jsonable(result)}
            except Exception as exc:  # noqa: BLE001 - server boundary
                outcome = "error"
                self.errors += 1
                self._m_errors.inc()
                response = {"ok": False,
                            "error": f"{type(exc).__name__}: {exc}"}
                if isinstance(exc, CQLError):
                    # Structured syntax/planning errors (1-based line/
                    # column + offending token) so frontends can point
                    # at the statement instead of regexing the string.
                    response["error_detail"] = exc.payload()
                span.mark_error(response["error"])
            span.set(outcome=outcome)
        cache_status = _CACHE_STATUS.get()
        _CACHE_STATUS.reset(cache_token)
        if cache_status is not None:
            response["cache"] = cache_status
        elapsed = (time.perf_counter() - start) * 1000.0
        response["elapsed_ms"] = elapsed
        self.requests_served += 1
        self._m_requests.inc()
        # Stamp the request's trace onto its latency observation (the
        # histogram exemplar) and its slow-log entry, so a latency spike
        # or a slow-query row joins against spans_by_time in one hop.
        trace_id = getattr(span, "trace_id", 0) or None
        self._observe(op_name, outcome, elapsed, trace_id=trace_id)
        self.slow_log.record(op_name, elapsed, outcome=outcome,
                             trace_id=trace_id)
        return response

    def handle_sync(self, request: dict[str, Any]) -> dict[str, Any]:
        """Blocking convenience wrapper (tests, benches, scripts)."""
        return asyncio.run(self.handle(request))

    async def handle_many(self, requests: list[dict[str, Any]]
                          ) -> list[dict[str, Any]]:
        """Serve a batch concurrently (long-poll style clients)."""
        return list(await asyncio.gather(*(self.handle(r) for r in requests)))

    # -- helpers --------------------------------------------------------------

    @staticmethod
    def _require(request: dict[str, Any], field: str,
                 source: dict[str, Any] | None = None) -> Any:
        """The required *field* of the request (or of *source*, an
        object nested in it); absent, None or empty is a typed error."""
        value = (request if source is None else source).get(field)
        if value is None or value == "" or value == []:
            raise ValueError(f"{request['op']} requires '{field}'")
        return value

    @staticmethod
    def _given(request: dict[str, Any], *fields: str) -> dict[str, Any]:
        """The optional *fields* the request carries, as keyword
        arguments: an omitted (or null) one is not forwarded, so its
        default is the framework's, declared once."""
        return {f: request[f] for f in fields
                if request.get(f) is not None}

    @staticmethod
    def _count(request: dict[str, Any], field: str,
               default: int | None = None) -> int | None:
        """The optional row-count *field* (``limit``, ``top``): *default*
        when omitted or null, else a non-negative ``int`` — a negative,
        a bool, a string or a float is a typed error naming the field,
        not a wrong slice."""
        value = request.get(field)
        if value is None:
            return default
        if type(value) is not int or value < 0:  # bool subclasses int
            raise ValueError(
                f"{request['op']}: '{field}' must be a non-negative integer")
        return value

    @staticmethod
    def _number(request: dict[str, Any], field: str, value: Any, *,
                integer: bool = False) -> Any:
        """*value* of the numeric *field*: a number (an ``int`` when
        *integer*), else a typed error naming the field — a bool, a
        string, a list or a fractional hour is not silently coerced."""
        if integer:
            ok = type(value) is int  # bool subclasses int
        else:
            ok = (isinstance(value, (int, float))
                  and not isinstance(value, bool))
        if not ok:
            kind = "an integer" if integer else "a number"
            raise ValueError(f"{request['op']}: '{field}' must be {kind}")
        return value

    @classmethod
    def _string(cls, request: dict[str, Any], field: str) -> str:
        """The required string *field* (a CQL statement, a name a key is
        made of), else a typed error naming the field."""
        value = cls._require(request, field)
        if not isinstance(value, str):
            raise ValueError(f"{request['op']}: '{field}' must be a string")
        return value

    def _context(self, request: dict[str, Any]) -> Context:
        payload = request.get("context")
        if not isinstance(payload, dict):
            raise ValueError("request requires a 'context' object")
        return Context.from_json(payload)

    # -- metadata, context reads, CQL ------------------------------------------

    @_op
    def _op_ping(self, request):
        return "pong"

    @_op
    def _op_event_types(self, request):
        return self.framework.model.event_types()

    @_op
    def _op_nodeinfo(self, request):
        cname = self._string(request, "cname")
        info = self.framework.model.nodeinfo(cname)
        if info is None:
            raise KeyError(f"unknown node: {cname}")
        return info

    @_op
    def _op_events(self, request):
        limit = self._count(request, "limit")
        rows = self.framework.events(self._context(request))
        return rows[:limit] if limit else rows

    @_op
    def _op_runs(self, request):
        return self.framework.runs(self._context(request))

    @_op
    def _op_synopsis(self, request):
        hour = self._require(request, "hour")
        return self.framework.model.synopsis_for_hour(
            self._number(request, "hour", hour, integer=True))

    @_op
    def _op_cql(self, request):
        """The cache probe and ``cache`` status stay on the loop (a
        ContextVar set in a thread is lost); a sparklet plan's run
        leaves it as a ``partial``."""
        statement = self._string(request, "statement")
        params = request.get("params")
        if params is None:
            params = ()
        elif not isinstance(params, (list, tuple)):
            raise ValueError("cql: 'params' must be an array")
        params = tuple(params)
        prepared = self.framework.session.prepare(statement)
        plan = prepared.ast
        key = None
        if isinstance(plan, Select) and self.result_cache.enabled:
            try:
                key = (normalize_cql(statement), params)
                hash(key)
            except TypeError:  # unhashable params: serve uncached
                key = None
        if key is None:
            _CACHE_STATUS.set("bypass")
        else:
            epoch_of = self.framework.cluster.table_epoch
            cached = self.result_cache.get(key, epoch_of=epoch_of)
            if cached is not ResultCache.MISSING:
                _CACHE_STATUS.set("hit")
                return _PreSerialized(cached)
            _CACHE_STATUS.set("miss")
            # Read before the run: a write landing while an offloaded
            # scan runs leaves the entry stale, never stamped current.
            epoch = epoch_of(plan.table)

        def execute():
            result = self.framework.cql(statement, params)
            if key is None:
                return result
            payload = _jsonable(result)
            self.result_cache.put(key, payload, tables=(plan.table,),
                                  epoch_of=lambda _table: epoch)
            return _PreSerialized(payload)
        return partial(execute) if prepared.physical.on_sparklet else execute()

    @_op
    def _op_explain(self, request):
        """The optimized plan for a statement as a stable JSON tree
        (works with or without a leading ``EXPLAIN`` keyword)."""
        return self.framework.session.explain(
            self._string(request, "statement"))

    # -- observability ops ----------------------------------------------------

    @_op
    def _op_metrics(self, request):
        """Prometheus-style snapshot of every metric series."""
        prefix = request.get("prefix")
        snapshot = self.registry.snapshot()
        if prefix:
            snapshot = {k: v for k, v in snapshot.items()
                        if k.startswith(prefix)}
        return snapshot

    @_op
    def _op_trace(self, request):
        """The most recently *completed* trace (this request's own trace
        finishes after the handler returns, so it is never included)."""
        if request.get("all"):
            return self.tracer.traces()
        trace = self.tracer.last_trace()
        if trace is None:
            raise LookupError("no completed traces yet")
        return trace

    @_op
    def _op_slow_queries(self, request):
        """The slow-query ring; ``stable: true`` strips the wall-clock,
        timing and trace-id fields (trace ids are process-global
        counters) so two dumps of the same deterministic workload diff
        clean in CI."""
        entries = self.slow_log.entries()
        if request.get("stable"):
            entries = [
                {k: v for k, v in e.items()
                 if k not in ("wall_time", "elapsed_ms", "trace_id")}
                for e in entries
            ]
        return entries

    # -- self-ingested telemetry ops (repro.obs.export) -----------------------

    _TELEMETRY_HINT = ("attach a TelemetryPipeline (repro.obs.export) so "
                       "telemetry self-ingests")

    @classmethod
    def _telemetry_window(cls, request) -> tuple[float, float]:
        t1 = request.get("t1")
        t1 = (time.time() if t1 is None
              else float(cls._number(request, "t1", t1)))
        t0 = request.get("t0")
        t0 = (t1 - 900.0 if t0 is None
              else float(cls._number(request, "t0", t0)))
        if t1 <= t0:
            raise ValueError("telemetry window requires t0 < t1")
        return t0, t1

    def _window_rows(self, request, table: str, rest=None, *,
                     hint: str = _TELEMETRY_HINT
                     ) -> tuple[float, float, list[dict]]:
        """The request's ``[t0, t1)`` and the rows of time-bucketed
        *table* in it (bucket column dropped) — one partition read per
        covered bucket, exactly how event contexts read
        ``event_by_time``.  *rest* as in ``Cluster.window_partitions``."""
        t0, t1 = self._telemetry_window(request)
        cluster = self.framework.cluster
        if table not in cluster.keyspace.tables:
            raise LookupError(f"{table} not provisioned — {hint}")
        bucket = cluster.schema(table).time_bucket[0]
        rows = cluster.select_window(table, t0, t1, rest)
        for row in rows:
            del row[bucket]
        return t0, t1, rows

    @classmethod
    def _component(cls, request) -> tuple[str] | None:
        """The key rest a ``component`` filter names (omitted: all)."""
        if request.get("component") in (None, ""):
            return None
        return (cls._string(request, "component"),)

    @staticmethod
    def _span_forest(rows: list[dict]) -> tuple[int, list[dict]]:
        """Re-link span rows into trees via their parent ids; returns
        (distinct spans, roots) — a root's parent is not among *rows*."""
        by_id: dict[int, dict] = {}
        for row in rows:
            row["children"] = []
            by_id[row["span_id"]] = row
        roots = []
        for node in by_id.values():
            parent = by_id.get(node.get("parent_id"))
            if parent is not None:
                parent["children"].append(node)
            else:
                roots.append(node)
        for node in by_id.values():
            node["children"].sort(key=lambda n: (n["ts"], n["span_id"]))
        return len(by_id), roots

    @_op
    def _op_telemetry_series(self, request):
        """Time-windowed series of one metric from ``metrics_by_time``."""
        name = self._string(request, "name")
        want = request.get("labels") or {}
        if not isinstance(want, dict):
            raise ValueError("telemetry_series: 'labels' must be an object")
        t0, t1, rows = self._window_rows(
            request, "metrics_by_time", (name,))
        points = []
        for point in rows:
            del point["metric_name"]
            labels = json.loads(point.pop("labels", None) or "{}")
            if want and any(labels.get(k) != v for k, v in want.items()):
                continue
            if labels:
                point["labels"] = labels
            if point.get("exemplars"):
                # Stored JSON-encoded; surface as structured objects
                # so dashboards can link straight to the trace.
                point["exemplars"] = json.loads(point["exemplars"])
            points.append(point)
        points.sort(key=lambda p: (p["ts"], p.get("seq", 0)))
        return {"name": name, "t0": t0, "t1": t1, "points": points}

    @_op
    def _op_telemetry_spans(self, request):
        """Slowest spans in a window from ``spans_by_time``,
        reconstructed as trees via their parent links."""
        limit = self._count(request, "limit", 20)
        t0, t1, rows = self._window_rows(
            request, "spans_by_time", self._component(request))
        spans, roots = self._span_forest(rows)
        roots.sort(key=lambda n: -n["duration_ms"])
        return {"t0": t0, "t1": t1, "spans": spans,
                "trees": roots[:limit] if limit else roots}

    @_op
    def _op_profile_flame(self, request):
        """Windowed flame data from ``profiles_by_time``: folded stacks
        (flamegraph.pl-compatible, component-rooted) plus the top hot
        functions by exclusive samples."""
        from repro.obs.profile import hot_functions

        top = self._count(request, "top", 10)
        t0, t1, rows = self._window_rows(
            request, "profiles_by_time", self._component(request))
        by_stack: dict[tuple[str, str], int] = {}
        for row in rows:
            key = (row["component"], row["stack"])
            by_stack[key] = by_stack.get(key, 0) + row["samples"]
        folded = sorted(
            f"{comp};{stack} {count}"
            for (comp, stack), count in by_stack.items()
        )
        return {
            "t0": t0, "t1": t1,
            "samples": sum(by_stack.values()),
            "stacks": len(by_stack),
            "folded": folded,
            "hot": hot_functions(by_stack, top=top),
        }

    @_op
    def _op_critical_path(self, request):
        """Per-component exclusive-time attribution for one request.

        Finds the trace — by ``trace_id`` in the tracer's ring, the
        most recent one when omitted, or reconstructed from
        ``spans_by_time`` rows when it has aged out of the ring — and
        runs :func:`repro.obs.profile.critical_path` over its tree."""
        from repro.obs.profile import critical_path

        trace_id = request.get("trace_id")
        if trace_id is None:
            trace = self.tracer.last_trace()
            if trace is None:
                raise LookupError("no completed traces yet")
            return critical_path(trace)
        trace_id = self._number(request, "trace_id", trace_id, integer=True)
        for trace in reversed(self.tracer.traces()):
            if trace.get("trace_id") == trace_id:
                return critical_path(trace)
        # Aged out of the in-process ring: rebuild the tree from the
        # self-ingested span rows (the same reconstruction
        # telemetry_spans does, filtered to one trace).
        tree = self._trace_from_store(request, trace_id)
        if tree is None:
            raise LookupError(f"trace {trace_id} not found")
        return critical_path(tree)

    def _trace_from_store(self, request, trace_id: int):
        _, _, rows = self._window_rows(request, "spans_by_time")
        _, roots = self._span_forest(
            [row for row in rows if row.get("trace_id") == trace_id])
        return max(roots, key=lambda n: n["duration_ms"], default=None)

    # -- detection alerts (repro.detect) --------------------------------------

    def _alert_rows(self, request) -> tuple[float, float, list[dict]]:
        """Windowed rows of ``alerts_by_time``, with optional
        severity/detector equality filters."""
        t0, t1, rows = self._window_rows(
            request, "alerts_by_time", (),
            hint="attach a DetectionPipeline (repro.detect) so alerts land")
        severity = request.get("severity")
        detector = request.get("detector")
        alerts = []
        for alert in rows:
            if severity and alert.get("severity") != severity:
                continue
            if detector and alert.get("detector") != detector:
                continue
            if alert.get("evidence"):
                alert["evidence"] = json.loads(alert["evidence"])
            alerts.append(alert)
        alerts.sort(key=lambda a: (a["ts"], a.get("seq", 0)))
        return t0, t1, alerts

    @_op
    def _op_alerts(self, request):
        """Tail of the alert stream in a window (newest last)."""
        limit = self._count(request, "limit", 100)
        t0, t1, rows = self._alert_rows(request)
        return {"t0": t0, "t1": t1, "total": len(rows),
                "alerts": rows[-limit:] if limit else rows}

    @_op
    def _op_alert_summary(self, request):
        """Aggregate alert picture for a window: counts by severity and
        detector, the busiest keys, and the newest alert's timestamp."""
        t0, t1, rows = self._alert_rows(request)
        by_severity: dict[str, int] = {}
        by_detector: dict[str, int] = {}
        by_key: dict[str, int] = {}
        for row in rows:
            by_severity[row["severity"]] = (
                by_severity.get(row["severity"], 0) + 1)
            by_detector[row["detector"]] = (
                by_detector.get(row["detector"], 0) + 1)
            by_key[row["key"]] = by_key.get(row["key"], 0) + 1
        top_keys = sorted(by_key.items(), key=lambda kv: (-kv[1], kv[0]))
        return {
            "t0": t0, "t1": t1, "total": len(rows),
            "by_severity": dict(sorted(by_severity.items())),
            "by_detector": dict(sorted(by_detector.items())),
            "top_keys": [{"key": k, "count": n} for k, n in top_keys[:5]],
            "latest_ts": rows[-1]["ts"] if rows else None,
        }

    @_op
    def _op_health(self, request):
        """Per-node liveness/breaker state plus a ring summary — the
        one-op answer to "is the backend healthy right now?"."""
        cluster = self.framework.cluster
        nodes = {}
        degraded = []
        for node_id, node in sorted(cluster.nodes.items()):
            breaker = str(cluster.breaker(node_id).state)
            nodes[node_id] = {
                "process_up": node.process_up,
                "routing_up": node.routing_up,
                "hints_pending": len(node.hints),
                "tables": len(node.tables),
                "breaker": breaker,
            }
            if (breaker != "closed" or not node.routing_up
                    or not node.process_up):
                degraded.append(node_id)
        alive = cluster.alive_nodes()
        return {
            "status": "ok" if not degraded else "degraded",
            "degraded_nodes": sorted(set(degraded)),
            "nodes": nodes,
            "ring": {
                "nodes": len(cluster.nodes),
                "alive": len(alive),
                "replication_factor": cluster.keyspace.replication_factor,
                "tables": sorted(cluster.keyspace.tables),
            },
            "server": {
                "requests_served": self.requests_served,
                "errors": self.errors,
            },
        }

    # -- coordinator folds (on the loop, like the context reads) -------------

    @_op
    def _op_heatmap(self, request):
        return self.framework.heatmap(
            self._context(request), **self._given(request, "granularity"))

    @_op
    def _op_heatmap_grid(self, request):
        counts = self.framework.heatmap(self._context(request), "node")
        return self.framework.system_map.to_json(counts)

    @_op
    def _op_distribution(self, request):
        return self.framework.distribution(
            self._context(request), **self._given(request, "granularity"))

    @_op
    def _op_distribution_by_application(self, request):
        return self.framework.distribution_by_application(
            self._context(request)
        )

    @_op
    def _op_histogram(self, request):
        edges, counts = self.framework.time_histogram(
            self._context(request), **self._given(request, "num_bins"))
        return {"edges": edges, "counts": counts}

    @_op
    def _op_hotspots(self, request):
        hotspots = self.framework.hotspots(
            self._context(request),
            **self._given(request, "granularity", "z_threshold"))
        # Four scalar fields: asdict() would deep-copy each of them.
        return [{"component": h.component, "count": h.count,
                 "expected": h.expected, "z_score": h.z_score}
                for h in hotspots]

    @_op
    def _op_placement(self, request):
        ts = self._require(request, "ts")
        runs = self.framework.model.runs_running_at(
            float(self._number(request, "ts", ts)))
        return [
            {"apid": r["apid"], "app": r["app"], "user": r["user"],
             "nodes": self.framework.model.run_nodes(r)}
            for r in runs
        ]

    # -- the big-data processing unit (off the loop) --------------------------

    @_op(offload=True)
    def _op_transfer_entropy(self, request):
        result = self.framework.transfer_entropy(
            self._context(request),
            self._require(request, "source_type"),
            self._require(request, "target_type"),
            **self._given(request, "bin_seconds", "n_shuffles"))
        return asdict(result)

    @_op(offload=True)
    def _op_cross_correlation(self, request):
        return self.framework.cross_correlation(
            self._context(request),
            self._require(request, "type_a"),
            self._require(request, "type_b"),
            **self._given(request, "bin_seconds", "max_lag"))

    @_op(offload=True)
    def _op_keywords(self, request):
        return self.framework.keywords(
            self._context(request),
            **self._given(request, "n", "use_tf_idf"))

    @_op(offload=True)
    def _op_association_rules(self, request):
        rules = self.framework.association_rules(
            self._context(request),
            **self._given(request, "window_seconds", "min_support",
                          "min_confidence"))
        return [asdict(r) for r in rules]

    @_op(offload=True)
    def _op_refresh_synopsis(self, request):
        return self.framework.refresh_synopsis()

    @_op(offload=True)
    def _op_mine_precursors(self, request):
        rules = self.framework.mine_precursors(
            self._context(request),
            **self._given(request, "lead_window", "min_support"))
        return [asdict(r) for r in rules]

    @_op(offload=True)
    def _op_application_profiles(self, request):
        profiles = self.framework.application_profiles(
            self._context(request))
        return {app: p.as_dict() for app, p in profiles.items()}

    @_op(offload=True)
    def _op_materialize_composites(self, request):
        from .composite import CompositeEventDef

        definitions = [
            CompositeEventDef(
                name=self._require(request, "name", d),
                sequence=tuple(self._require(request, "sequence", d)),
                window=float(self._require(request, "window", d)),
            )
            for d in self._require(request, "definitions")
        ]
        matches = self.framework.materialize_composites(
            self._context(request), definitions)
        return [
            {"type": m.type, "component": m.component, "ts": m.ts,
             "span": m.span}
            for m in matches
        ]
