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
Which ops exist, what serves each, which request fields it takes,
whether it leaves the loop and whether its reply is memoized is one
table, filled by ``@_op``: ``handle`` checks an op's declared fields
before it dispatches and hands the handler typed values; a ``cql``
request goes by its prepared plan.  ``handle`` memoizes every op on the
loop but those marked ``memo=False`` (their replies read process state
or the clock): a reply is served again until a row lands in a
``(table, bucket)`` it read (:mod:`repro.core.result_cache`).

Responses are JSON-serializable dicts: ``{"ok": true, "result": …,
"elapsed_ms": …}`` — "Query results are sent in JSON object format to
avoid data format conversion at the frontend."
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from dataclasses import asdict
from functools import partial
from itertools import chain
from typing import Any, Callable

import numpy as np

from repro import obs
from repro.cql import CQLError, normalize_cql

from .context import Context
from .framework import LogAnalyticsFramework
from .result_cache import ResultCache

__all__ = ["AnalyticsServer"]

_FLOAT_MAX = sys.float_info.max

# A request field's kind -> (the phrase its error names, whether a value
# is of it).  Membership is by ``type()``: ``True`` is not a count.  A
# number is finite — Python's json reads NaN and Infinity (they fail the
# range), and an int too large for a float is no bound.  A ``context``
# is then parsed by ``Context.from_json``.
_KINDS: dict[str, tuple[str, Callable[[Any], bool]]] = {
    "count": ("a non-negative integer",
              lambda v: type(v) is int and v >= 0),
    "integer": ("an integer", lambda v: type(v) is int),
    "number": ("a number", lambda v: type(v) in (int, float)
               and -_FLOAT_MAX <= v <= _FLOAT_MAX),
    "string": ("a string", lambda v: type(v) is str),
    "bool": ("true or false", lambda v: type(v) is bool),
    "object": ("an object", lambda v: type(v) is dict),
    "array": ("an array", lambda v: type(v) is list),
    "strings": ("a list of strings", lambda v: type(v) is list
                and all(type(s) is str for s in v)),
    "objects": ("a list of objects", lambda v: type(v) is list
                and all(type(d) is dict for d in v)),
    "context": ("an object", lambda v: type(v) is dict),
}


def _declared(**specs: str) -> dict[str, tuple[str, bool]]:
    """Field -> (kind, required) from ``field="kind"`` specs, where a
    trailing ``!`` marks a required field."""
    return {field: (spec.removesuffix("!"), spec.endswith("!"))
            for field, spec in specs.items()}


def _typed(op: str, fields: dict[str, tuple[str, bool]],
           source: dict[str, Any]) -> dict[str, Any]:
    """The declared *fields* of *source* (a request, or an object nested
    in it), checked, as keyword arguments.  An absent or null field is
    not passed, so its default is the handler's — or, forwarded, the
    framework's — declared once.  A required field absent, null, ``""``
    or ``[]``, and a field not of its kind, is a ValueError naming it."""
    given = {}
    for field, (kind, required) in fields.items():
        value = source.get(field)
        if value is None or required and (value == "" or value == []):
            if required:
                raise ValueError(f"{op} requires '{field}'")
            continue
        phrase, is_kind = _KINDS[kind]
        if not is_kind(value):
            raise ValueError(f"{op}: '{field}' must be {phrase}")
        given[field] = Context.from_json(value) if kind == "context" else value
    return given


# op name -> (handler, offload, fields, memo): the one entry ``handle``
# reads for whether an op exists, what serves it, the request fields it
# takes, whether it hands its work to the big-data unit and so leaves
# the event loop, and whether its reply is memoized.
_OPS: dict[str, tuple[Callable, bool, dict[str, tuple[str, bool]], bool]] = {}


def _op(handler: Callable | None = None, *, offload: bool = False,
        memo: bool = True, **fields: str):
    """Enter ``_op_<name>`` in the op table with its request fields,
    each declared once as ``field="kind"`` (a kind of :data:`_KINDS`;
    a trailing ``!``: required) and passed to the handler as a keyword
    argument; ``offload=True`` for an op whose work is the big-data
    unit's, never memoized; ``memo=False`` for an op whose reply
    depends on more than its request and the store."""
    if handler is None:
        return lambda fn: _op(fn, offload=offload, memo=memo, **fields)
    _OPS[handler.__name__.removeprefix("_op_")] = (
        handler, offload, _declared(**fields), memo and not offload)
    return handler


# A composite event definition, an object in materialize_composites'
# ``definitions``.
_DEFINITION = _declared(name="string!", sequence="strings!",
                        window="number!")


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
        cache_status = None
        with self.tracer.root_span("server.request", op=op_name) as span:
            try:
                if not isinstance(request, dict):
                    raise ValueError("request must be a JSON object, not "
                                     f"{type(request).__name__}")
                entry = _OPS.get(op) if isinstance(op, str) else None
                if entry is None:
                    raise ValueError(f"unknown op: {op!r}")
                handler, offload, fields, memo = entry
                run = partial(self._run, handler, offload,
                              _typed(op, fields, request))
                key = self._memo_key(op, fields, request) if memo else None
                if key is None:
                    result = await run()
                else:
                    cluster = self.framework.cluster
                    result = self.result_cache.get(key, cluster.epoch)
                    cache_status = "hit"
                    if result is ResultCache.MISSING:
                        cache_status = "miss"
                        with cluster.recording_reads() as read:
                            result = await run()
                        if read:  # a reply that read nothing is not kept
                            self.result_cache.put(key, result, read)
                response = {"ok": True, "result": result}
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

    async def _run(self, handler: Callable, offload: bool,
                   given: dict[str, Any]) -> Any:
        """The handler's reply, as JSON.  The big-data unit's work
        leaves the event loop free (Tornado's non-blocking I/O
        property); to_thread copies the context, so the span tree and
        the read recording follow."""
        if offload:
            result = await asyncio.to_thread(handler, self, **given)
        else:
            result = handler(self, **given)
        if isinstance(result, partial):  # a cql sparklet plan's run
            result = await asyncio.to_thread(result)
        return _jsonable(result)

    def _memo_key(self, op: str, fields: dict[str, tuple[str, bool]],
                  request: dict[str, Any]) -> tuple[str, str] | None:
        """A memoized request's cache key: the op and its declared
        fields as canonical JSON, a cql statement whitespace-normalized;
        None — served uncached, with no ``cache`` field — with the cache
        off or a value that is not JSON."""
        if not self.result_cache.enabled:
            return None
        declared = {f: request[f] for f in fields
                    if request.get(f) is not None}
        if op == "cql":
            declared["statement"] = normalize_cql(declared["statement"])
            declared["params"] = request.get("params") or []
        try:
            return op, json.dumps(declared, sort_keys=True)
        except (TypeError, ValueError):
            return None

    def handle_sync(self, request: dict[str, Any]) -> dict[str, Any]:
        """Blocking convenience wrapper (tests, benches, scripts)."""
        return asyncio.run(self.handle(request))

    async def handle_many(self, requests: list[dict[str, Any]]
                          ) -> list[dict[str, Any]]:
        """Serve a batch concurrently (long-poll style clients)."""
        return list(await asyncio.gather(*(self.handle(r) for r in requests)))

    # -- metadata, context reads, CQL ------------------------------------------

    @_op(memo=False)
    def _op_ping(self):
        return "pong"

    @_op
    def _op_event_types(self):
        return self.framework.model.event_types()

    @_op(cname="string!")
    def _op_nodeinfo(self, cname):
        info = self.framework.model.nodeinfo(cname)
        if info is None:
            raise LookupError(f"unknown node: {cname}")
        return info

    @_op(limit="count", context="context!")
    def _op_events(self, context, limit=None):
        return self.framework.events(context)[:limit or None]

    @_op(context="context!")
    def _op_runs(self, context):
        return self.framework.runs(context)

    @_op(hour="integer!")
    def _op_synopsis(self, hour):
        return self.framework.model.synopsis_for_hour(hour)

    @_op(statement="string!", params="array")
    def _op_cql(self, statement, params=()):
        """A sparklet plan's run leaves the loop as a ``partial``."""
        run = partial(self.framework.cql, statement, tuple(params))
        on_sparklet = self.framework.session.prepare(
            statement).physical.on_sparklet
        return run if on_sparklet else run()

    @_op(memo=False, statement="string!")
    def _op_explain(self, statement):
        """The optimized plan for a statement as a stable JSON tree
        (works with or without a leading ``EXPLAIN`` keyword)."""
        return self.framework.session.explain(statement)

    # -- observability ops ----------------------------------------------------

    @_op(memo=False, prefix="string")
    def _op_metrics(self, prefix=""):
        """Prometheus-style snapshot of every metric series."""
        snapshot = self.registry.snapshot()
        if prefix:
            snapshot = {k: v for k, v in snapshot.items()
                        if k.startswith(prefix)}
        return snapshot

    @_op(memo=False, all="bool")
    def _op_trace(self, all=False):
        """The most recently *completed* trace (this request's own trace
        finishes after the handler returns, so it is never included)."""
        if all:
            return self.tracer.traces()
        trace = self.tracer.last_trace()
        if trace is None:
            raise LookupError("no completed traces yet")
        return trace

    @_op(memo=False, stable="bool")
    def _op_slow_queries(self, stable=False):
        """The slow-query ring; ``stable: true`` strips the wall-clock,
        timing and trace-id fields (trace ids are process-global
        counters) so two dumps of the same deterministic workload diff
        clean in CI."""
        entries = self.slow_log.entries()
        if stable:
            entries = [
                {k: v for k, v in e.items()
                 if k not in ("wall_time", "elapsed_ms", "trace_id")}
                for e in entries
            ]
        return entries

    # -- self-ingested telemetry ops (repro.obs.export) -----------------------

    _TELEMETRY_HINT = ("attach a TelemetryPipeline (repro.obs.export) so "
                       "telemetry self-ingests")

    def _window_rows(self, t0: float | None, t1: float | None, table: str,
                     rest=None, *, hint: str = _TELEMETRY_HINT
                     ) -> tuple[float, float, list[dict]]:
        """The window ``[t0, t1)`` — by default the last 15 wall-clock
        minutes, telemetry being stamped in wall time — and the rows of
        time-bucketed *table* in it (bucket column dropped): one
        partition read per covered bucket, exactly how event contexts
        read ``event_by_time``.  *rest* as in
        ``Cluster.window_partitions``."""
        t1 = time.time() if t1 is None else float(t1)
        t0 = t1 - 900.0 if t0 is None else float(t0)
        if t1 <= t0:
            raise ValueError("telemetry window requires t0 < t1")
        cluster = self.framework.cluster
        if table not in cluster.keyspace.tables:
            raise LookupError(f"{table} not provisioned — {hint}")
        bucket = cluster.schema(table).time_bucket[0]
        rows = cluster.select_window(table, t0, t1, rest)
        for row in rows:
            del row[bucket]
        return t0, t1, rows

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

    @_op(memo=False, name="string!", labels="object", t0="number",
         t1="number")
    def _op_telemetry_series(self, name, labels=None, t0=None, t1=None):
        """Time-windowed series of one metric from ``metrics_by_time``."""
        t0, t1, rows = self._window_rows(t0, t1, "metrics_by_time", (name,))
        points = []
        for point in rows:
            del point["metric_name"]
            stored = json.loads(point.pop("labels", None) or "{}")
            if labels and any(stored.get(k) != v for k, v in labels.items()):
                continue
            if stored:
                point["labels"] = stored
            if point.get("exemplars"):
                # Stored JSON-encoded; surface as structured objects
                # so dashboards can link straight to the trace.
                point["exemplars"] = json.loads(point["exemplars"])
            points.append(point)
        points.sort(key=lambda p: (p["ts"], p.get("seq", 0)))
        return {"name": name, "t0": t0, "t1": t1, "points": points}

    @_op(memo=False, limit="count", component="string", t0="number",
         t1="number")
    def _op_telemetry_spans(self, limit=20, component="", t0=None, t1=None):
        """Slowest spans in a window from ``spans_by_time``,
        reconstructed as trees via their parent links."""
        t0, t1, rows = self._window_rows(
            t0, t1, "spans_by_time", (component,) if component else None)
        spans, roots = self._span_forest(rows)
        roots.sort(key=lambda n: -n["duration_ms"])
        return {"t0": t0, "t1": t1, "spans": spans,
                "trees": roots[:limit or None]}

    @_op(memo=False, top="count", component="string", t0="number",
         t1="number")
    def _op_profile_flame(self, top=10, component="", t0=None, t1=None):
        """Windowed flame data from ``profiles_by_time``: folded stacks
        (flamegraph.pl-compatible, component-rooted) plus the top hot
        functions by exclusive samples."""
        from repro.obs.profile import hot_functions

        t0, t1, rows = self._window_rows(
            t0, t1, "profiles_by_time", (component,) if component else None)
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

    @_op(memo=False, trace_id="integer", t0="number", t1="number")
    def _op_critical_path(self, trace_id=None, t0=None, t1=None):
        """Per-component exclusive-time attribution for one request.

        Finds the trace — by ``trace_id`` in the tracer's ring, the
        most recent one when omitted, or reconstructed from
        ``spans_by_time`` rows when it has aged out of the ring — and
        runs :func:`repro.obs.profile.critical_path` over its tree."""
        from repro.obs.profile import critical_path

        if trace_id is None:
            trace = self.tracer.last_trace()
            if trace is None:
                raise LookupError("no completed traces yet")
            return critical_path(trace)
        for trace in reversed(self.tracer.traces()):
            if trace.get("trace_id") == trace_id:
                return critical_path(trace)
        # Aged out of the in-process ring: rebuild the tree from the
        # self-ingested span rows (the same reconstruction
        # telemetry_spans does, filtered to one trace).
        _, _, rows = self._window_rows(t0, t1, "spans_by_time")
        _, roots = self._span_forest(
            [row for row in rows if row.get("trace_id") == trace_id])
        if not roots:
            raise LookupError(f"trace {trace_id} not found")
        return critical_path(max(roots, key=lambda n: n["duration_ms"]))

    # -- detection alerts (repro.detect) --------------------------------------

    def _alert_rows(self, t0: float, t1: float, severity: str = "",
                    detector: str = "") -> tuple[float, float, list[dict]]:
        """Rows of ``alerts_by_time`` in ``[t0, t1)`` — a window the
        request names, alerts being stamped in event time — with
        optional severity/detector equality filters."""
        t0, t1, rows = self._window_rows(
            t0, t1, "alerts_by_time", (),
            hint="attach a DetectionPipeline (repro.detect) so alerts land")
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

    @_op(limit="count", t0="number!", t1="number!", severity="string",
         detector="string")
    def _op_alerts(self, limit=100, **window):
        """Tail of the alert stream in a window (newest last)."""
        t0, t1, rows = self._alert_rows(**window)
        return {"t0": t0, "t1": t1, "total": len(rows),
                "alerts": rows[-limit:] if limit else rows}

    @_op(t0="number!", t1="number!", severity="string", detector="string")
    def _op_alert_summary(self, **window):
        """Aggregate alert picture for a window: counts by severity and
        detector, the busiest keys, and the newest alert's timestamp."""
        t0, t1, rows = self._alert_rows(**window)
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

    @_op(memo=False)
    def _op_health(self):
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

    @_op(context="context!", granularity="string")
    def _op_heatmap(self, **given):
        return self.framework.heatmap(**given)

    @_op(context="context!")
    def _op_heatmap_grid(self, context):
        counts = self.framework.heatmap(context, "node")
        return self.framework.system_map.to_json(counts)

    @_op(context="context!", granularity="string")
    def _op_distribution(self, **given):
        return self.framework.distribution(**given)

    @_op(context="context!")
    def _op_distribution_by_application(self, context):
        return self.framework.distribution_by_application(context)

    @_op(context="context!", num_bins="count")
    def _op_histogram(self, **given):
        edges, counts = self.framework.time_histogram(**given)
        return {"edges": edges, "counts": counts}

    @_op(context="context!", granularity="string", z_threshold="number")
    def _op_hotspots(self, **given):
        # Four scalar fields: asdict() would deep-copy each of them.
        return [{"component": h.component, "count": h.count,
                 "expected": h.expected, "z_score": h.z_score}
                for h in self.framework.hotspots(**given)]

    @_op(ts="number!")
    def _op_placement(self, ts):
        runs = self.framework.model.runs_running_at(float(ts))
        return [
            {"apid": r["apid"], "app": r["app"], "user": r["user"],
             "nodes": self.framework.model.run_nodes(r)}
            for r in runs
        ]

    # -- the big-data processing unit (off the loop) --------------------------

    @_op(offload=True, context="context!", source_type="string!",
         target_type="string!", bin_seconds="number", n_shuffles="count")
    def _op_transfer_entropy(self, **given):
        return asdict(self.framework.transfer_entropy(**given))

    @_op(offload=True, context="context!", type_a="string!",
         type_b="string!", bin_seconds="number", max_lag="count")
    def _op_cross_correlation(self, **given):
        return self.framework.cross_correlation(**given)

    @_op(offload=True, context="context!", n="count", use_tf_idf="bool")
    def _op_keywords(self, **given):
        return self.framework.keywords(**given)

    @_op(offload=True, context="context!", window_seconds="number",
         min_support="number", min_confidence="number")
    def _op_association_rules(self, **given):
        return [asdict(r) for r in self.framework.association_rules(**given)]

    @_op(offload=True)
    def _op_refresh_synopsis(self):
        return self.framework.refresh_synopsis()

    @_op(offload=True, context="context!", lead_window="number",
         min_support="number")
    def _op_mine_precursors(self, **given):
        return [asdict(r) for r in self.framework.mine_precursors(**given)]

    @_op(offload=True, context="context!")
    def _op_application_profiles(self, context):
        profiles = self.framework.application_profiles(context)
        return {app: p.as_dict() for app, p in profiles.items()}

    @_op(offload=True, definitions="objects!", context="context!")
    def _op_materialize_composites(self, definitions, context):
        from .composite import CompositeEventDef

        composites = []
        for d in definitions:
            d = _typed("materialize_composites", _DEFINITION, d)
            composites.append(CompositeEventDef(
                name=d["name"], sequence=tuple(d["sequence"]),
                window=float(d["window"])))
        matches = self.framework.materialize_composites(context, composites)
        return [
            {"type": m.type, "component": m.component, "ts": m.ts,
             "span": m.span}
            for m in matches
        ]
