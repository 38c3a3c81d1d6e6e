"""Always-on sampling wall-clock profiler: *where does the time go?*

The paper's thesis is that a system at extreme scale must explain where
time goes, not merely count events.  Metrics (PR 1) count; traces
(PR 5) time individual requests; this module closes the remaining gap
— **which code is hot right now?** — with the standard low-overhead
answer: a dedicated sampler thread walks ``sys._current_frames()`` at
a configurable rate (default 50 Hz), counts each thread's Python stack
as its tuple of code objects in bounded per-component flame tables,
and a read of the tables names and joins each stack into a
flamegraph-style ``root;...;leaf`` string.

Attribution rides the existing :class:`~repro.obs.trace.Tracer`: spans
register themselves per thread on entry (``Tracer.thread_components``),
so every sample lands under the Fig-3 layer that was executing —
server / cql / cassdb / sparklet / bus / ingest / detect — and threads
outside any trace fold under :data:`IDLE_COMPONENT`.

Cost and boundedness discipline (the MetricsRegistry rules):

* sampling cost is independent of request volume — one
  ``sys._current_frames()`` call and a walk of each stack's code
  objects per tick, whatever the load; naming happens at read;
* flame tables are cardinality-capped (*max_components* components,
  *max_stacks_per_component* distinct stacks each); overflow folds
  into an ``(overflow)`` bucket and increments the
  ``obs.profile.dropped_frames`` counter — bounded memory, visible
  loss, conserved sample totals;
* ``folded()`` output is deterministic given the recorded samples
  (sorted lines, flamegraph.pl-compatible ``stack count`` form).

:func:`critical_path` is the per-request counterpart: given one
exported span tree it computes per-component **exclusive** time (a
span's duration minus its children's), so "for this slow request,
which component dominated?" is one function call over PR 5 data.
"""

from __future__ import annotations

import sys
import threading
from types import CodeType
from typing import Any, Iterable, Mapping

__all__ = [
    "IDLE_COMPONENT",
    "OVERFLOW_KEY",
    "SamplingProfiler",
    "component_of",
    "critical_path",
    "hot_functions",
]

#: Component assigned to samples of threads with no active span.
IDLE_COMPONENT = "idle"

#: Reserved flame-table key absorbing samples past the cardinality cap.
OVERFLOW_KEY = "(overflow)"

# Root-side frame of a stack cut to ``max_depth``.
_TRUNCATED = "(truncated)"

# Code objects whose module is noted before the map is pruned to those
# the flame tables hold.
_MAX_CODES = 4096


def component_of(span_name: str) -> str:
    """The Fig-3 layer a span belongs to: its dotted-name prefix
    (``cassdb.node.read`` → ``cassdb``)."""
    return span_name.split(".", 1)[0]


class SamplingProfiler:
    """Low-overhead wall-clock sampler over ``sys._current_frames()``.

    ``start()`` spawns a daemon sampler thread ticking at *hz*;
    ``sample_once()`` is the same walk taken synchronously (tests,
    deterministic workloads).  ``record()`` is the fold primitive both
    use — public so boundedness tests can drive synthetic load without
    timing dependence.
    """

    def __init__(self, *, hz: float = 50.0, tracer=None, registry=None,
                 max_components: int = 16,
                 max_stacks_per_component: int = 512,
                 max_depth: int = 64):
        if hz <= 0:
            raise ValueError("sampling rate must be positive")
        from repro import obs  # late: keep module import light

        self.hz = hz
        self.max_components = max_components
        self.max_stacks_per_component = max_stacks_per_component
        self.max_depth = max_depth
        self.tracer = tracer if tracer is not None else obs.get_tracer()
        self.registry = (registry if registry is not None
                         else obs.get_registry())
        self._m_samples = self.registry.counter("obs.profile.samples")
        self._m_dropped = self.registry.counter("obs.profile.dropped_frames")
        self._lock = threading.Lock()
        # component -> stack (code objects, or a folded string) ->
        # cumulative sample count
        self._tables: dict[str, dict[tuple | str, int]] = {}
        # code object -> the ``__name__`` of its frame's globals, taken
        # the first time the code is sampled; pruned to the code objects
        # the tables hold once it passes ``_codes_cap``.
        self._modules: dict[CodeType, str] = {}
        self._codes_cap = _MAX_CODES
        self.samples = 0
        self.dropped_frames = 0
        self._thread: threading.Thread | None = None
        self._sampler_tid: int | None = None
        self._stop = threading.Event()

    # -- lifecycle -------------------------------------------------------

    @property
    def armed(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "SamplingProfiler":
        """Arm the sampler thread (idempotent)."""
        if self.armed:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-obs-sampler", daemon=True)
        self._thread.start()
        return self

    def stop(self, timeout: float = 2.0) -> None:
        """Disarm; waits for the sampler thread to exit."""
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout)
        self._thread = None
        self._sampler_tid = None

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def _run(self) -> None:
        self._sampler_tid = threading.get_ident()
        period = 1.0 / self.hz
        while not self._stop.wait(period):
            try:
                self.sample_once()
            except Exception:  # pragma: no cover - sampling must not kill
                pass

    # -- sampling --------------------------------------------------------

    def sample_once(self) -> int:
        """Walk every thread's stack once; returns samples recorded.

        A sample is its code objects, leaf first, cut to ``max_depth``
        on the leaf side (a ``(truncated)`` marker stands for the rest):
        nothing is named until a table is read (:meth:`tables`); a code
        object seen for the first time has its module noted."""
        components = self.tracer.thread_components()
        frames = sys._current_frames()
        depth = self.max_depth
        modules = self._modules
        recorded = 0
        for tid, frame in frames.items():
            if tid == self._sampler_tid:
                continue
            codes: list = []
            while frame is not None:
                if len(codes) == depth:
                    codes.append(_TRUNCATED)
                    break
                code = frame.f_code
                if code not in modules:
                    modules[code] = frame.f_globals.get("__name__", "?")
                codes.append(code)
                frame = frame.f_back
            self.record(components.get(tid, IDLE_COMPONENT), tuple(codes))
            recorded += 1
        if len(modules) > self._codes_cap:
            self._forget_codes()
        return recorded

    def _forget_codes(self) -> None:
        """Keep the modules of the code objects the tables hold; the map
        may grow to twice that before the next pass."""
        with self._lock:
            held = {code for stacks in self._tables.values()
                    for stack in stacks if not isinstance(stack, str)
                    for code in stack}
        self._modules = {code: module for code, module
                         in self._modules.items() if code in held}
        self._codes_cap = max(_MAX_CODES, 2 * len(self._modules))

    def record(self, component: str, stack: tuple | str, n: int = 1) -> bool:
        """Count *n* samples of one stack — code objects leaf first, or
        an already folded ``root;...;leaf`` string — in a component's
        flame table.

        Returns False when a cardinality cap redirected the samples
        into an ``(overflow)`` bucket (they are still counted there —
        totals are conserved — and ``obs.profile.dropped_frames``
        ticks once per redirected call).
        """
        with self._lock:
            table = self._tables.get(component)
            if table is None:
                # The cap counts the (overflow) table itself: one slot
                # stays reserved for it so the map never exceeds
                # max_components entries.
                limit = self.max_components - 1 + (
                    OVERFLOW_KEY in self._tables)
                if len(self._tables) >= limit:
                    self.dropped_frames += n
                    self._m_dropped.inc(n)
                    table = self._tables.setdefault(OVERFLOW_KEY, {})
                    table[OVERFLOW_KEY] = table.get(OVERFLOW_KEY, 0) + n
                    self.samples += n
                    self._m_samples.inc(n)
                    return False
                table = self._tables[component] = {}
            if stack not in table:
                # Same reservation per table: distinct stacks plus the
                # overflow bucket never exceed max_stacks_per_component.
                limit = self.max_stacks_per_component - 1 + (
                    OVERFLOW_KEY in table)
                if len(table) >= limit:
                    self.dropped_frames += n
                    self._m_dropped.inc(n)
                    table[OVERFLOW_KEY] = table.get(OVERFLOW_KEY, 0) + n
                    self.samples += n
                    self._m_samples.inc(n)
                    return False
            table[stack] = table.get(stack, 0) + n
            self.samples += n
            self._m_samples.inc(n)
            return True

    # -- export ----------------------------------------------------------

    def tables(self) -> dict[str, dict[str, int]]:
        """Cumulative flame tables: component → folded stack → samples.
        Stacks that name alike (two code objects of one function, or
        stacks alike below a truncation) add up."""
        with self._lock:
            held = [(comp, list(stacks.items()))
                    for comp, stacks in self._tables.items()]
        out: dict[str, dict[str, int]] = {}
        names: dict[CodeType | str, str] = {_TRUNCATED: _TRUNCATED}
        for comp, stacks in held:
            table = out[comp] = {}
            for stack, count in stacks:
                if not isinstance(stack, str):
                    for code in stack:
                        if code not in names:
                            names[code] = self._name(code)
                    stack = ";".join(map(names.__getitem__, reversed(stack)))
                table[stack] = table.get(stack, 0) + count
        return out

    def _name(self, code: CodeType) -> str:
        """``module.qualname`` of a sampled code object."""
        return f"{self._modules.get(code, '?')}.{code.co_qualname}"

    def stack_count(self) -> int:
        """Distinct stacks currently held (the boundedness witness)."""
        with self._lock:
            return sum(len(stacks) for stacks in self._tables.values())

    def folded(self, component: str | None = None) -> list[str]:
        """flamegraph.pl-compatible lines, sorted: ``comp;stack count``.

        The component is prefixed as the root frame so one flamegraph
        shows the per-layer split at its base.  Output is byte-stable
        for a given set of recorded samples.
        """
        lines = []
        for comp, stacks in self.tables().items():
            if component is not None and comp != component:
                continue
            for stack, count in stacks.items():
                lines.append(f"{comp};{stack} {count}")
        return sorted(lines)

    def reset(self) -> None:
        with self._lock:
            self._tables.clear()
            self.samples = 0
            self.dropped_frames = 0


# ---------------------------------------------------------------------------
# Flame-table analysis helpers
# ---------------------------------------------------------------------------

def hot_functions(stack_samples: Mapping[tuple[str, str], int] |
                  Iterable[tuple[tuple[str, str], int]],
                  top: int = 10) -> list[dict[str, Any]]:
    """Top functions by **exclusive** samples (leaf-frame occurrences).

    *stack_samples* maps ``(component, folded_stack)`` to sample
    counts — the shape both :meth:`SamplingProfiler.tables` flattens to
    and the ``profiles_by_time`` read path aggregates to.
    """
    items = (stack_samples.items()
             if isinstance(stack_samples, Mapping) else stack_samples)
    by_leaf: dict[str, dict[str, Any]] = {}
    for (component, stack), samples in items:
        leaf = stack.rsplit(";", 1)[-1]
        entry = by_leaf.get(leaf)
        if entry is None:
            entry = by_leaf[leaf] = {
                "function": leaf, "samples": 0, "components": {}}
        entry["samples"] += samples
        entry["components"][component] = (
            entry["components"].get(component, 0) + samples)
    ranked = sorted(by_leaf.values(),
                    key=lambda e: (-e["samples"], e["function"]))
    for entry in ranked:
        entry["components"] = dict(sorted(entry["components"].items()))
    return ranked[:top] if top else ranked


def critical_path(trace: Mapping[str, Any]) -> dict[str, Any]:
    """Per-component exclusive-time attribution for one span tree.

    Exclusive time of a span is its duration minus the sum of its
    children's durations (clamped at zero); summed per component it
    answers "which layer dominated this request?".  For well-nested
    trees the accounted total equals the root's duration; the
    ``accounted_ms`` field makes any clock skew visible.
    """
    exclusive: dict[str, float] = {}

    def walk(node: Mapping[str, Any]) -> None:
        duration = float(node.get("duration_ms", 0.0))
        child_sum = 0.0
        for child in node.get("children", ()):
            child_sum += float(child.get("duration_ms", 0.0))
            walk(child)
        comp = component_of(node["name"])
        exclusive[comp] = (exclusive.get(comp, 0.0)
                           + max(0.0, duration - child_sum))

    walk(trace)
    total = float(trace.get("duration_ms", 0.0))
    accounted = sum(exclusive.values())
    components = [
        {
            "component": comp,
            "exclusive_ms": ms,
            "share": (ms / total) if total > 0 else 0.0,
        }
        for comp, ms in sorted(exclusive.items(),
                               key=lambda kv: (-kv[1], kv[0]))
    ]
    return {
        "trace_id": trace.get("trace_id", 0),
        "root": trace.get("name", ""),
        "total_ms": total,
        "accounted_ms": accounted,
        "components": components,
    }
