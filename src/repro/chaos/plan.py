"""Declarative fault plans: *what* goes wrong, *when*, deterministically.

A :class:`FaultPlan` is pure data — a seeded schedule of faults against
the simulated system.  Time is **logical**: crash windows and flap
phases are indexed by the coordinator's operation count, not the wall
clock, so the same plan against the same workload injects the same
faults at the same points on every run, on any machine.  Probabilistic
faults (bus drops/duplicates, task failures) are decided
by hashing ``(seed, stable key, sequence number)`` with CRC32 — never
by ``random`` state shared with the system under test, and never by
Python's per-process-salted ``hash()``.

The plan is inert until a :class:`~repro.chaos.gate.FaultGate` arms it
against live components.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "CrashWindow",
    "FlapSpec",
    "LatencySpec",
    "BusFaults",
    "TaskFaults",
    "FaultPlan",
]


@dataclass(frozen=True)
class CrashWindow:
    """One node goes down at a logical op index, optionally coming back.

    ``kind="kill"`` models an acknowledged failure: the process dies
    *and* the cluster sees it immediately (hint buffering starts), and
    recovery goes through ``revive_node`` (hint replay).  ``kind="crash"``
    models a silent process death: coordinators keep routing to the node
    (its breaker opens on the failures), and recovery restarts only the
    process.
    """

    node: str
    at_op: int
    recover_at_op: int | None = None
    kind: str = "kill"

    def __post_init__(self):
        if self.kind not in ("kill", "crash"):
            raise ValueError(f"unknown crash kind: {self.kind!r}")
        if self.recover_at_op is not None and self.recover_at_op <= self.at_op:
            raise ValueError("recover_at_op must be after at_op")


@dataclass(frozen=True)
class FlapSpec:
    """Nodes that cycle down/up on a logical-op period (network flap).

    Each affected node is *suppressed* (the coordinator treats it as
    down, hints its writes) for the first ``down_ops`` ops of every
    ``period_ops``-op cycle.  With ``stagger=True`` each node's cycle is
    phase-shifted by a hash of its id so outages overlap only partially;
    with ``stagger=False`` all nodes flap in lockstep (the worst case a
    retrying coordinator must outlast).
    """

    nodes: tuple[str, ...]
    period_ops: int = 10
    down_ops: int = 6
    stagger: bool = True

    def __post_init__(self):
        if self.period_ops < 1:
            raise ValueError("period_ops must be >= 1")
        if not (0 <= self.down_ops <= self.period_ops):
            raise ValueError("down_ops must be in [0, period_ops]")


@dataclass(frozen=True)
class LatencySpec:
    """A replica whose reads stall for ``delay_ms`` (slow-disk model)."""

    node: str
    delay_ms: float


@dataclass(frozen=True)
class BusFaults:
    """Message-bus faults.

    * ``drop_rate`` — fraction of non-empty fetches whose delivery is
      dropped.  The log and consumer offsets are untouched, so a dropped
      delivery is re-fetched: at-least-once, never lost.
    * ``dup_rate`` — fraction of publishes appended twice (the producer
      -retry duplicate consumers must tolerate).
    * ``topics`` — restrict to these topics (None = all).
    """

    drop_rate: float = 0.0
    dup_rate: float = 0.0
    topics: tuple[str, ...] | None = None


@dataclass(frozen=True)
class TaskFaults:
    """Sparklet task failures: each (worker, partition) attempt fails
    with probability ``fail_rate``, optionally only on ``workers``."""

    fail_rate: float = 0.0
    workers: tuple[str, ...] | None = None


@dataclass(frozen=True)
class FaultPlan:
    """A complete, seeded fault schedule across every layer."""

    seed: int = 2017
    crashes: tuple[CrashWindow, ...] = ()
    flap: FlapSpec | None = None
    latency: tuple[LatencySpec, ...] = ()
    bus: BusFaults | None = None
    tasks: TaskFaults | None = None

    def describe(self) -> dict:
        """JSON-friendly summary (CLI/report output; deterministic)."""
        out: dict = {"seed": self.seed}
        if self.crashes:
            out["crashes"] = [
                {"node": c.node, "at_op": c.at_op,
                 "recover_at_op": c.recover_at_op, "kind": c.kind}
                for c in self.crashes
            ]
        if self.flap is not None:
            out["flap"] = {
                "nodes": list(self.flap.nodes),
                "period_ops": self.flap.period_ops,
                "down_ops": self.flap.down_ops,
                "stagger": self.flap.stagger,
            }
        if self.latency:
            out["latency"] = [
                {"node": s.node, "delay_ms": s.delay_ms} for s in self.latency
            ]
        if self.bus is not None:
            out["bus"] = {"drop_rate": self.bus.drop_rate,
                          "dup_rate": self.bus.dup_rate,
                          "topics": list(self.bus.topics or ())}
        if self.tasks is not None:
            out["tasks"] = {"fail_rate": self.tasks.fail_rate,
                            "workers": list(self.tasks.workers or ())}
        return out
