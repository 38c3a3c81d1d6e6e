"""Bounded, thread-safe metrics primitives (prometheus model, in-process).

The subsystem the paper's platform itself lacks words for: the
reproduction must *observe itself* before any scalability claim can be
trusted.  Three instrument kinds cover every need the other packages
have:

* :class:`Counter` — monotonically increasing event counts (reads,
  writes, flushes, parse failures);
* :class:`Gauge` — instantaneous levels (queue depth, consumer lag);
* :class:`Histogram` — fixed-bucket latency/size distributions with a
  bounded recent-sample window for exact p50/p95/p99 over the tail.

All state is bounded: buckets are fixed at construction, the sample
window is a ``deque(maxlen=…)``, and the registry caps the number of
labelled series per metric name, collapsing the excess into a single
overflow series rather than growing without limit.

Series live in a :class:`MetricsRegistry` keyed by
``name{label=value,…}`` and export to one plain JSON-serializable dict
(:meth:`MetricsRegistry.snapshot`) — the payload of the analytics
server's ``metrics`` op and the CLI's ``metrics`` command.
"""

from __future__ import annotations

import bisect
import math
import threading
import time
from collections import deque
from typing import Any, Mapping

__all__ = [
    "DEFAULT_LATENCY_BUCKETS_MS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

# Upper bounds (ms) spanning sub-ms context reads to multi-second
# transfer-entropy jobs; +Inf is implicit.
DEFAULT_LATENCY_BUCKETS_MS: tuple[float, ...] = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def _reset(self) -> None:
        with self._lock:
            self._value = 0

    def snapshot(self) -> dict[str, Any]:
        return {"type": "counter", "value": self._value}


class Gauge:
    """An instantaneous level that can go up and down."""

    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value

    def _reset(self) -> None:
        self.set(0.0)

    def snapshot(self) -> dict[str, Any]:
        return {"type": "gauge", "value": self._value}


class Histogram:
    """Fixed-bucket distribution plus a bounded recent-sample window.

    Buckets give the coarse shape at O(len(buckets)) memory forever;
    the window gives exact percentiles over the most recent *window*
    observations (the compromise the F3 bench relies on: per-op
    latencies stay readable without per-request growth).

    **Exemplars** (OpenMetrics model): an observation made inside a
    traced request may carry its ``trace_id``; the histogram keeps the
    latest exemplar *per bucket* — O(len(buckets)) memory — so a spike
    in a high bucket links straight to a concrete trace instead of an
    anonymous count.
    """

    __slots__ = ("_lock", "_bounds", "_bucket_counts", "_count", "_sum",
                 "_min", "_max", "_recent", "_exemplars")

    def __init__(self, buckets: tuple[float, ...] | None = None,
                 window: int = 512):
        bounds = tuple(sorted(buckets or DEFAULT_LATENCY_BUCKETS_MS))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self._lock = threading.Lock()
        self._bounds = bounds
        self._bucket_counts = [0] * (len(bounds) + 1)  # last = +Inf
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._recent: deque[float] = deque(maxlen=window)
        # bucket index -> (value, trace_id, wall_ts); bounded by the
        # bucket count, latest observation wins within a bucket.
        self._exemplars: dict[int, tuple[float, int, float]] = {}

    def observe(self, value: float, *, trace_id: int | None = None) -> None:
        with self._lock:
            idx = bisect.bisect_left(self._bounds, value)
            self._bucket_counts[idx] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            self._recent.append(value)
            if trace_id:
                self._exemplars[idx] = (value, trace_id, time.time())

    def exemplars(self) -> list[dict[str, Any]]:
        """Latest exemplar per bucket, ascending by bucket bound."""
        with self._lock:
            items = sorted(self._exemplars.items())
        out = []
        for idx, (value, trace_id, ts) in items:
            bound = ("+Inf" if idx >= len(self._bounds)
                     else str(self._bounds[idx]))
            out.append({"bucket": bound, "value": value,
                        "trace_id": trace_id, "ts": ts})
        return out

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def recent(self) -> list[float]:
        """The bounded window of most recent observations (oldest first)."""
        with self._lock:
            return list(self._recent)

    def percentile(self, p: float) -> float:
        """Exact percentile over the recent window (0 when empty)."""
        if not 0.0 <= p <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        with self._lock:
            if not self._recent:
                return 0.0
            ordered = sorted(self._recent)
        rank = max(0, math.ceil(p / 100.0 * len(ordered)) - 1)
        return ordered[rank]

    def _reset(self) -> None:
        with self._lock:
            self._bucket_counts = [0] * (len(self._bounds) + 1)
            self._count = 0
            self._sum = 0.0
            self._min = math.inf
            self._max = -math.inf
            self._recent.clear()
            self._exemplars.clear()

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            buckets = {str(b): c
                       for b, c in zip(self._bounds, self._bucket_counts)}
            buckets["+Inf"] = self._bucket_counts[-1]
            count, total = self._count, self._sum
            lo = self._min if count else 0.0
            hi = self._max if count else 0.0
            has_exemplars = bool(self._exemplars)
        out = {
            "type": "histogram",
            "count": count,
            "sum": total,
            "min": lo,
            "max": hi,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "buckets": buckets,
        }
        if has_exemplars:
            out["exemplars"] = self.exemplars()
        return out


def _series_key(name: str, labels: Mapping[str, Any]) -> str:
    if not labels:
        return name
    rendered = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{rendered}}}"


class MetricsRegistry:
    """Named, optionally labelled series with bounded cardinality.

    ``counter/gauge/histogram`` are get-or-create: the first call for a
    ``(name, labels)`` pair creates the series, later calls return the
    same instance, so callers may cache handles on the hot path or
    re-fetch each time interchangeably.  At most *max_series_per_name*
    labelled series exist per metric name; further label combinations
    share one ``{overflow=true}`` series instead of growing the map.
    """

    def __init__(self, max_series_per_name: int = 64):
        self._lock = threading.Lock()
        self._series: dict[str, Any] = {}
        self._per_name: dict[str, int] = {}
        self._max_series_per_name = max_series_per_name
        # key -> (name, labels) so exporters can recover the structured
        # identity of a series without re-parsing the composed key.
        self._meta: dict[str, tuple[str, dict[str, Any]]] = {}
        # name -> get-or-create calls redirected to the overflow series
        # by the cardinality cap (bounded: one slot per metric name).
        self._dropped: dict[str, int] = {}

    def _get_or_create(self, name: str, labels: Mapping[str, Any],
                       factory) -> Any:
        key = _series_key(name, labels)
        with self._lock:
            metric = self._series.get(key)
            if metric is not None:
                return metric
            if (labels
                    and self._per_name.get(name, 0)
                    >= self._max_series_per_name):
                self._dropped[name] = self._dropped.get(name, 0) + 1
                labels = {"overflow": "true"}
                key = _series_key(name, labels)
                metric = self._series.get(key)
                if metric is not None:
                    return metric
            metric = factory()
            self._series[key] = metric
            self._meta[key] = (name, dict(labels))
            self._per_name[name] = self._per_name.get(name, 0) + 1
            return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get_or_create(name, labels, Counter)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get_or_create(name, labels, Gauge)

    def histogram(self, name: str, *, buckets: tuple[float, ...] | None = None,
                  window: int = 512, **labels: Any) -> Histogram:
        return self._get_or_create(
            name, labels, lambda: Histogram(buckets=buckets, window=window)
        )

    def collect(self) -> list[tuple[str, dict[str, Any], Any]]:
        """Structured export: sorted ``(name, labels, metric)`` triples.

        The exporters (:mod:`repro.obs.export`) build on this instead of
        re-parsing the composed ``name{k=v,…}`` snapshot keys.
        """
        with self._lock:
            items = sorted(self._meta.items())
            return [(name, dict(labels), self._series[key])
                    for key, (name, labels) in items]

    def dropped_series(self) -> dict[str, int]:
        """Per-name count of series requests the cardinality cap
        redirected into the ``{overflow=true}`` series."""
        with self._lock:
            return dict(self._dropped)

    def __len__(self) -> int:
        return len(self._series)

    def reset(self) -> None:
        """Zero every series in place (cached handles stay valid)."""
        with self._lock:
            metrics = list(self._series.values())
        for metric in metrics:
            metric._reset()
        with self._lock:
            self._dropped.clear()

    def clear(self) -> None:
        """Drop every series (isolated-registry tests only: cached
        handles become detached from future snapshots)."""
        with self._lock:
            self._series.clear()
            self._per_name.clear()
            self._meta.clear()
            self._dropped.clear()

    def snapshot(self) -> dict[str, Any]:
        """One plain JSON-serializable dict of every series."""
        with self._lock:
            items = sorted(self._series.items())
        return {key: metric.snapshot() for key, metric in items}
