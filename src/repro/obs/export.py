"""Telemetry export and self-ingestion: the system analyzes itself.

PR 1 gave every layer an in-process observability picture
(:class:`~repro.obs.metrics.MetricsRegistry`, :class:`~repro.obs.trace.
Tracer`, :class:`~repro.obs.slowlog.SlowQueryLog`) — but that picture
lives in process memory and vanishes at exit.  This module closes the
paper's loop on our own telemetry, the move the EAST tokamak system
(arXiv:1806.08489) makes with its access logs and BiDAl (arXiv:1410.
1309) makes with cluster traces: telemetry is *just another event
stream*, parsed into typed records, published to a bus topic, consumed
by the streaming-ingest machinery and stored in time-partitioned
cassdb tables — queryable exactly like Titan events.

Three groups of moving parts:

* **Exporters** — :func:`render_prometheus` (text exposition of the
  full registry: ``_total`` counters, gauges, histograms with
  cumulative ``_bucket``/``_sum``/``_count`` plus derived
  p50/p95/p99), :func:`render_spans_jsonl` (one JSON object per span,
  trace/span/parent ids preserved), and :class:`TelemetrySnapshotter`
  (interval-gated *delta* snapshots: typed metric records since the
  last export, plus every newly completed trace flattened to span
  records).
* **Self-ingestion** — :class:`TelemetryPublisher` puts the records on
  a dedicated bus topic; :class:`TelemetryIngestor` consumes them
  through the one :class:`~repro.ingest.streaming.TopicIngestor`
  micro-batch loop the event stream rides into ``metrics_by_time``
  (partition ``(minute_bucket, metric_name)``) and ``spans_by_time``
  (partition ``(minute_bucket, component)``) — the paper's
  ``(hour, type)`` partition scheme at telemetry's natural cadence.
* **Wiring** — :class:`TelemetryPipeline` composes the three; one
  ``run_once()`` per refresh tick is the whole operational surface.

The dogfooding is the point: every export exercises bus → streaming
ingest → cassdb write path, and every ``telemetry_series`` /
``telemetry_spans`` server op exercises the partition-read path.
"""

from __future__ import annotations

import itertools
import json
import time
from typing import Any, Iterable, Iterator, Mapping, TYPE_CHECKING

from repro.cassdb import TableSchema
from repro.ingest.streaming import TopicIngestor

from .metrics import MetricsRegistry
from .trace import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.bus import MessageBus
    from repro.cassdb import Cluster
    from repro.sparklet import SparkletContext

__all__ = [
    "TELEMETRY_TOPIC",
    "TELEMETRY_SCHEMAS",
    "prometheus_name",
    "render_prometheus",
    "iter_spans",
    "render_spans_jsonl",
    "MetricsHTTPServer",
    "TelemetrySnapshotter",
    "TelemetryPublisher",
    "TelemetryIngestor",
    "TelemetryPipeline",
]

TELEMETRY_TOPIC = "telemetry"

# Telemetry's own tables, mirroring the event tables' partition scheme
# (§II-B: hash by (time bucket, type), cluster by timestamp) at the
# minute granularity dashboards read.  ``seq``/``span_id`` disambiguate
# identical timestamps inside a partition, the same role ``seq`` plays
# in ``event_by_time``.
TELEMETRY_SCHEMAS: dict[str, TableSchema] = {
    "metrics_by_time": TableSchema(
        "metrics_by_time",
        partition_key=("minute_bucket", "metric_name"),
        clustering_key=("ts", "seq"),
        time_bucket=("minute_bucket", 60.0),
        description="Self-ingested metric deltas: partition "
                    "(minute_bucket, metric_name)",
    ),
    "spans_by_time": TableSchema(
        "spans_by_time",
        partition_key=("minute_bucket", "component"),
        clustering_key=("ts", "span_id"),
        time_bucket=("minute_bucket", 60.0),
        description="Self-ingested trace spans: partition "
                    "(minute_bucket, component)",
    ),
    "profiles_by_time": TableSchema(
        "profiles_by_time",
        partition_key=("minute_bucket", "component"),
        clustering_key=("ts", "seq"),
        time_bucket=("minute_bucket", 60.0),
        description="Self-ingested profiler flame-table deltas: "
                    "partition (minute_bucket, component)",
    ),
}


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------

_NAME_OK = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:")


def prometheus_name(name: str) -> str:
    """Map a dotted series name onto the Prometheus grammar
    (``[a-zA-Z_:][a-zA-Z0-9_:]*``): invalid characters become ``_``."""
    out = "".join(c if c in _NAME_OK else "_" for c in name)
    if not out or out[0].isdigit():
        out = "_" + out
    return out


def _escape_label_value(value: Any) -> str:
    return (str(value)
            .replace("\\", r"\\")
            .replace('"', r'\"')
            .replace("\n", r"\n"))


def _render_labels(labels: Mapping[str, Any],
                   extra: tuple[str, str] | None = None) -> str:
    pairs = [(k, _escape_label_value(labels[k])) for k in sorted(labels)]
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    return "{" + ",".join(f'{k}="{v}"' for k, v in pairs) + "}"


def _fmt(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def render_prometheus(registry: MetricsRegistry) -> str:
    """The full registry in Prometheus text exposition format.

    * counters export as ``<name>_total``;
    * gauges export under their own name;
    * histograms export **cumulative** ``_bucket{le=…}`` series (the
      registry keeps per-bucket tallies; the running sum here is what
      makes the ``le`` semantics hold), ``_sum``/``_count``, and the
      window-derived quantiles as ``_p50``/``_p95``/``_p99`` gauges;
    * series dropped by the label-cardinality cap surface as
      ``obs_dropped_series_total{name=…}`` — capped cardinality is
      visible, never silent.
    """
    groups: dict[str, list[tuple[dict[str, Any], dict[str, Any]]]] = {}
    for name, labels, metric in registry.collect():
        groups.setdefault(name, []).append((labels, metric.snapshot()))

    lines: list[str] = []
    for name in sorted(groups):
        pname = prometheus_name(name)
        series = groups[name]
        kind = series[0][1]["type"]
        if kind == "counter":
            lines.append(f"# TYPE {pname}_total counter")
            for labels, snap in series:
                lines.append(f"{pname}_total{_render_labels(labels)} "
                             f"{_fmt(snap['value'])}")
        elif kind == "gauge":
            lines.append(f"# TYPE {pname} gauge")
            for labels, snap in series:
                lines.append(f"{pname}{_render_labels(labels)} "
                             f"{_fmt(snap['value'])}")
        else:  # histogram
            lines.append(f"# TYPE {pname} histogram")
            for labels, snap in series:
                exemplars = {e["bucket"]: e
                             for e in snap.get("exemplars", ())}
                cumulative = 0
                for bound, count in snap["buckets"].items():
                    cumulative += count
                    le = _render_labels(labels, ("le", bound
                                                 if bound == "+Inf"
                                                 else _fmt(float(bound))))
                    line = f"{pname}_bucket{le} {cumulative}"
                    exemplar = exemplars.get(bound)
                    if exemplar is not None:
                        # OpenMetrics-style exemplar: the slow
                        # observation's trace_id rides the bucket line,
                        # so a latency spike links to a concrete trace.
                        line += (f' # {{trace_id="{exemplar["trace_id"]}"}}'
                                 f' {_fmt(exemplar["value"])}'
                                 f' {exemplar["ts"]:.3f}')
                    lines.append(line)
                rendered = _render_labels(labels)
                lines.append(f"{pname}_sum{rendered} {_fmt(snap['sum'])}")
                lines.append(f"{pname}_count{rendered} {snap['count']}")
            for q in ("p50", "p95", "p99"):
                lines.append(f"# TYPE {pname}_{q} gauge")
                for labels, snap in series:
                    lines.append(f"{pname}_{q}{_render_labels(labels)} "
                                 f"{_fmt(snap[q])}")
    dropped = registry.dropped_series()
    if dropped:
        lines.append("# TYPE obs_dropped_series_total counter")
        for name in sorted(dropped):
            rendered = _render_labels({"name": name})
            lines.append(f"obs_dropped_series_total{rendered} "
                         f"{dropped[name]}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Span export
# ---------------------------------------------------------------------------

def _component_of(span_name: str) -> str:
    """The Fig-3 layer a span belongs to: its dotted-name prefix
    (``cassdb.node.read`` → ``cassdb``)."""
    return span_name.split(".", 1)[0]


def iter_spans(trace: Mapping[str, Any]) -> Iterator[dict[str, Any]]:
    """Flatten one exported trace tree into flat per-span records.

    Parent/child structure is preserved through ``parent_id`` links
    (ids are assigned by the tracer, unique process-wide), so the tree
    can be reconstructed from any unordered set of these records —
    which is exactly what ``telemetry_spans`` does after a round trip
    through the bus and the store.
    """
    stack: list[Mapping[str, Any]] = [trace]
    while stack:
        node = stack.pop()
        record = {
            "trace_id": node.get("trace_id", 0),
            "span_id": node.get("span_id", 0),
            "parent_id": node.get("parent_id"),
            "name": node["name"],
            "component": _component_of(node["name"]),
            "ts": node.get("wall_time", 0.0),
            "duration_ms": node["duration_ms"],
            "status": node["status"],
        }
        if node.get("attrs"):
            record["attrs"] = dict(node["attrs"])
        yield record
        stack.extend(node.get("children", ()))


def render_spans_jsonl(traces: Iterable[Mapping[str, Any]]) -> str:
    """One JSON object per span, one span per line (JSONL)."""
    lines = [
        json.dumps(record, sort_keys=True, default=str)
        for trace in traces
        for record in iter_spans(trace)
    ]
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Delta snapshotting
# ---------------------------------------------------------------------------

class TelemetrySnapshotter:
    """Turns the registry and tracer into typed telemetry records.

    *Delta* discipline: each export cycle emits only what changed since
    the previous one — counter increments, gauge movements, histogram
    count/sum deltas (with the current window percentiles and any
    exemplars attached), flame-table sample deltas from an attached
    :class:`~repro.obs.profile.SamplingProfiler`, and traces completed
    since the last cycle.  Two consecutive cycles with no activity in
    between therefore emit nothing the second time (idempotence), and
    re-ingesting an export never double-counts.
    """

    def __init__(self, registry: MetricsRegistry | None = None,
                 tracer: Tracer | None = None, *,
                 interval_s: float = 1.0, profiler=None):
        from repro import obs  # late: keep module import light

        self.registry = registry if registry is not None else obs.get_registry()
        self.tracer = tracer if tracer is not None else obs.get_tracer()
        self.profiler = profiler
        self.interval_s = interval_s
        self.exports = 0
        self._last_export: float | None = None
        self._last_counts: dict[str, Any] = {}
        self._last_profile: dict[tuple[str, str], int] = {}
        self._last_trace_id = 0

    @staticmethod
    def _series_id(name: str, labels: Mapping[str, Any]) -> str:
        if not labels:
            return name
        rendered = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
        return f"{name}{{{rendered}}}"

    def collect(self, now: float | None = None
                ) -> tuple[list[dict[str, Any]], list[dict[str, Any]]]:
        """One unconditional export cycle → (metric records, span records)."""
        now = time.time() if now is None else now
        metric_records: list[dict[str, Any]] = []
        for name, labels, metric in self.registry.collect():
            snap = metric.snapshot()
            sid = self._series_id(name, labels)
            kind = snap["type"]
            if kind == "counter":
                last = self._last_counts.get(sid, 0)
                delta = snap["value"] - last
                if delta:
                    self._last_counts[sid] = snap["value"]
                    metric_records.append({
                        "rtype": "metric", "kind": "counter", "name": name,
                        "labels": labels, "ts": now,
                        "value": snap["value"], "delta": delta,
                    })
            elif kind == "gauge":
                last = self._last_counts.get(sid)
                if snap["value"] != last:
                    self._last_counts[sid] = snap["value"]
                    metric_records.append({
                        "rtype": "metric", "kind": "gauge", "name": name,
                        "labels": labels, "ts": now, "value": snap["value"],
                    })
            else:  # histogram
                last_count, last_sum = self._last_counts.get(sid, (0, 0.0))
                delta = snap["count"] - last_count
                if delta:
                    self._last_counts[sid] = (snap["count"], snap["sum"])
                    record = {
                        "rtype": "metric", "kind": "histogram", "name": name,
                        "labels": labels, "ts": now,
                        "count": snap["count"], "sum": snap["sum"],
                        "delta_count": delta,
                        "delta_sum": snap["sum"] - last_sum,
                        "p50": snap["p50"], "p95": snap["p95"],
                        "p99": snap["p99"],
                    }
                    if snap.get("exemplars"):
                        record["exemplars"] = snap["exemplars"]
                    metric_records.append(record)
        if self.profiler is not None:
            for component, stacks in self.profiler.tables().items():
                for stack, count in stacks.items():
                    key = (component, stack)
                    last = self._last_profile.get(key, 0)
                    if count != last:
                        self._last_profile[key] = count
                        metric_records.append({
                            "rtype": "profile", "component": component,
                            "stack": stack, "ts": now,
                            "samples": count - last, "total": count,
                        })
        span_records: list[dict[str, Any]] = []
        newest = self._last_trace_id
        for trace in self.tracer.traces(after=self._last_trace_id):
            newest = max(newest, trace["trace_id"])
            span_records.extend(iter_spans(trace))
        self._last_trace_id = newest
        self.exports += 1
        self._last_export = now
        return metric_records, span_records

    def maybe_collect(self, now: float | None = None
                      ) -> tuple[list[dict[str, Any]], list[dict[str, Any]]]:
        """Interval-gated :meth:`collect`: empty until *interval_s* has
        elapsed since the previous export."""
        now = time.time() if now is None else now
        if (self._last_export is not None
                and now - self._last_export < self.interval_s):
            return [], []
        return self.collect(now)


# ---------------------------------------------------------------------------
# Self-ingestion: publish → consume → store
# ---------------------------------------------------------------------------

class TelemetryPublisher:
    """Puts telemetry records on a dedicated bus topic.

    Metric records are keyed by metric name and span records by
    component, so each series/layer stays ordered within one topic
    partition — the same per-key ordering contract event producers get.
    """

    def __init__(self, bus: "MessageBus", topic: str = TELEMETRY_TOPIC):
        from repro.bus import Producer

        bus.ensure_topic(topic)
        self.topic = topic
        self._producer = Producer(bus, default_topic=topic)

    def publish(self, metric_records: Iterable[Mapping[str, Any]],
                span_records: Iterable[Mapping[str, Any]] = ()) -> int:
        n = 0
        for record in metric_records:
            # Profile records ride the metric stream but carry no
            # metric name; their component keys them instead.
            key = record.get("name") or record["component"]
            self._producer.send(dict(record), key=key,
                                timestamp=record["ts"])
            n += 1
        for record in span_records:
            payload = {"rtype": "span", **record}
            self._producer.send(payload, key=record["component"],
                                timestamp=record["ts"])
            n += 1
        return n

    @property
    def published(self) -> int:
        return self._producer.sent


class TelemetryIngestor(TopicIngestor):
    """Consumes the telemetry topic into the three telemetry tables.

    The shared streaming-ingest loop (§III-D) with telemetry's own
    parts: the record→row mapper per record type, and a rebased clock.
    """

    def __init__(self, bus: "MessageBus", topic: str, cluster: "Cluster",
                 sc: "SparkletContext", *, batch_interval: float = 1.0,
                 group_id: str = "telemetry-ingest"):
        super().__init__(bus, topic, sc, batch_interval=batch_interval,
                         group_id=group_id)
        self._seq = itertools.count()
        self._first_ts: float | None = None
        self._land(cluster, TELEMETRY_SCHEMAS.values(), self._to_row)

    def _epoch(self, records) -> float:
        # Record timestamps are wall clock (~1.7e9 s) but the streaming
        # clock starts at batch 0 and advances one batch at a time —
        # rebase to the first timestamp seen so the clock never has
        # billions of empty batches to grind through.
        if self._first_ts is None:
            self._first_ts = float(int(min(r.timestamp for r in records)))
        return self._first_ts

    def _to_row(self, record: Mapping[str, Any]):
        rtype = record.get("rtype")
        if rtype == "metric":
            row = {k: v for k, v in record.items()
                   if k not in ("rtype", "labels", "name", "exemplars")}
            row["metric_name"] = record["name"]
            row["seq"] = next(self._seq)
            if record.get("labels"):
                row["labels"] = json.dumps(record["labels"], sort_keys=True)
            if record.get("exemplars"):
                row["exemplars"] = json.dumps(record["exemplars"],
                                              sort_keys=True)
            return "metrics_by_time", row
        if rtype == "span":
            row = {k: v for k, v in record.items()
                   if k not in ("rtype", "attrs")}
            if record.get("attrs"):
                row["attrs"] = json.dumps(record["attrs"], sort_keys=True,
                                          default=str)
            return "spans_by_time", row
        if rtype == "profile":
            row = {k: v for k, v in record.items() if k != "rtype"}
            row["seq"] = next(self._seq)
            return "profiles_by_time", row
        return None


class TelemetryPipeline:
    """Snapshotter → bus topic → streaming ingest → cassdb, composed.

    One ``run_once()`` per refresh tick does an interval-gated export,
    publishes the records, drains the topic through the micro-batch
    pipeline and flushes the open batch, so freshly exported telemetry
    is immediately queryable through ``telemetry_series`` /
    ``telemetry_spans``.  Because exports are at least *interval_s*
    apart and the ingest clock is flushed past each batch, a later
    export can never land in an already-finalized micro-batch.
    """

    def __init__(self, bus: "MessageBus", cluster: "Cluster",
                 sc: "SparkletContext", *,
                 registry: MetricsRegistry | None = None,
                 tracer: Tracer | None = None,
                 topic: str = TELEMETRY_TOPIC,
                 interval_s: float = 1.0,
                 group_id: str = "telemetry-ingest",
                 profiler=None):
        self.snapshotter = TelemetrySnapshotter(
            registry, tracer, interval_s=interval_s, profiler=profiler)
        self.publisher = TelemetryPublisher(bus, topic)
        self.ingestor = TelemetryIngestor(
            bus, topic, cluster, sc,
            batch_interval=min(1.0, max(interval_s, 0.01)),
            group_id=group_id,
        )

    def run_once(self, now: float | None = None, *,
                 force: bool = False) -> dict[str, int]:
        """One export+ingest cycle; returns counts for dashboards."""
        now = time.time() if now is None else now
        if force:
            metrics, spans = self.snapshotter.collect(now)
        else:
            metrics, spans = self.snapshotter.maybe_collect(now)
        published = self.publisher.publish(metrics, spans)
        polled = self.ingestor.process_available()
        if polled:
            self.ingestor.flush()
        landed = self.ingestor.rows_landed
        return {
            "metric_records": len(metrics),
            "span_records": len(spans),
            "published": published,
            "ingested": polled,
            "metrics_rows": landed["metrics_by_time"],
            "spans_rows": landed["spans_by_time"],
            "profiles_rows": landed["profiles_by_time"],
        }


# ---------------------------------------------------------------------------
# Prometheus scrape endpoint
# ---------------------------------------------------------------------------

class MetricsHTTPServer:
    """Minimal stdlib scrape endpoint: ``GET /metrics`` renders the
    registry in Prometheus text exposition format.

    Serves from a daemon thread so arming it costs the caller nothing;
    ``port=0`` binds an ephemeral port (the bound port is readable via
    :attr:`port` after :meth:`start`).  Anything but ``/metrics`` is a
    404 — this is a scrape target, not a web server.
    """

    CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

    def __init__(self, registry: MetricsRegistry | None = None, *,
                 host: str = "127.0.0.1", port: int = 0):
        from repro import obs  # late: keep module import light

        self.registry = (registry if registry is not None
                         else obs.get_registry())
        self._host = host
        self._port = port
        self._httpd = None
        self._thread = None
        self.scrapes = 0

    @property
    def port(self) -> int:
        """The bound port (meaningful after :meth:`start`)."""
        if self._httpd is not None:
            return self._httpd.server_address[1]
        return self._port

    def start(self) -> "MetricsHTTPServer":
        """Bind and serve from a daemon thread (idempotent)."""
        if self._httpd is not None:
            return self
        import http.server
        import threading

        server = self

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (stdlib name)
                if self.path.split("?", 1)[0] != "/metrics":
                    self.send_error(404, "only /metrics is served")
                    return
                body = render_prometheus(server.registry).encode("utf-8")
                server.scrapes += 1
                self.send_response(200)
                self.send_header("Content-Type", server.CONTENT_TYPE)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args) -> None:  # quiet: no stderr spam
                return None

        self._httpd = http.server.ThreadingHTTPServer(
            (self._host, self._port), Handler)
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-obs-metrics-http", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
        self._httpd = None
        self._thread = None

    def __enter__(self) -> "MetricsHTTPServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
