"""repro.obs — the framework's own observability (metrics, traces, slow log).

The paper builds a platform for understanding *other* systems at
extreme scale; this package is how the reproduction understands
*itself*.  Three bounded, thread-safe primitives:

* :class:`MetricsRegistry` of :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` series — every layer (cassdb, sparklet, bus,
  ingest, server) records its operational counters and latency
  distributions here;
* :class:`Tracer` — hierarchical spans with ``contextvars``
  propagation, so one server request exports as one span tree that
  descends server → framework → sparklet job/stage/task → cassdb
  coordinator → storage node;
* :class:`SlowQueryLog` — a ring buffer of the worst requests.

Process-wide defaults (the prometheus_client pattern) are what the
instrumented packages use; isolated instances can be constructed for
tests.  ``reset_observability()`` zeroes the defaults **in place**, so
handles cached by long-lived components stay wired.

Quick use::

    from repro import obs

    reqs = obs.get_registry().counter("server.requests")
    with obs.get_tracer().root_span("server.request", op="heatmap"):
        ...
    print(obs.get_registry().snapshot())
"""

from .metrics import Histogram, MetricsRegistry
from .slowlog import SlowQueryLog
from .trace import NULL_SPAN, Span, Tracer

__all__ = [
    "NULL_SPAN",
    "Histogram",
    "MetricsRegistry",
    "SlowQueryLog",
    "Span",
    "Tracer",
    "get_registry",
    "get_slow_log",
    "get_tracer",
    "reset_observability",
]

_DEFAULT_REGISTRY = MetricsRegistry()
_DEFAULT_TRACER = Tracer()
_DEFAULT_SLOW_LOG = SlowQueryLog()


def get_registry() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _DEFAULT_REGISTRY


def get_tracer() -> Tracer:
    """The process-wide tracer."""
    return _DEFAULT_TRACER


def get_slow_log() -> SlowQueryLog:
    """The process-wide slow-query log."""
    return _DEFAULT_SLOW_LOG


def reset_observability() -> None:
    """Zero the default registry/tracer/slow log in place (test isolation)."""
    _DEFAULT_REGISTRY.reset()
    _DEFAULT_TRACER.reset()
    _DEFAULT_SLOW_LOG.clear()
