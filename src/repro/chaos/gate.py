"""The fault gate: where a plan meets the live system.

Every hookable component carries a ``chaos_gate`` attribute that is
``None`` by default — the hook costs one attribute check when no plan
is armed, and the production code paths are otherwise untouched.
:meth:`FaultGate.arm` installs the gate on a cluster, bus and/or worker
pool; :meth:`FaultGate.disarm` restores every ``None``.

Determinism contract: every injection decision is a pure function of
``(plan.seed, a stable content key, a per-key sequence number)`` via
CRC32, and every *scheduled* fault (crash windows, flap phases) is
indexed by the gate's logical op counter, which only coordinator
operations advance.  Thread scheduling can reorder *when* a decision is
evaluated, never *what* it decides.
"""

from __future__ import annotations

import threading
import time
import zlib
from typing import TYPE_CHECKING

from repro import obs

from .plan import CrashWindow, FaultPlan

if TYPE_CHECKING:  # pragma: no cover
    from repro.cassdb.cluster import Cluster

__all__ = ["FaultInjected", "FaultGate"]

_M_INJECTED = obs.get_registry().counter("chaos.injected")
_M_CRASHES = obs.get_registry().counter("chaos.crashes")
_M_RECOVERIES = obs.get_registry().counter("chaos.recoveries")
_M_BUS_DROPS = obs.get_registry().counter("chaos.bus_drops")
_M_BUS_DUPS = obs.get_registry().counter("chaos.bus_duplicates")
_M_TASK_FAILURES = obs.get_registry().counter("chaos.task_failures")

# Crash-window lifecycle states.
_PENDING, _DOWN, _RECOVERED = 0, 1, 2


class FaultInjected(RuntimeError):
    """An artificial failure raised by the fault gate."""


class FaultGate:
    """Armed instance of a :class:`~repro.chaos.plan.FaultPlan`."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._lock = threading.Lock()
        self.op = 0  # logical clock: coordinator operations observed
        self._crash_state = [_PENDING] * len(plan.crashes)
        self._latency = {s.node: s.delay_ms for s in plan.latency}
        self._flap_offsets: dict[str, int] = {}
        if plan.flap is not None:
            for node in plan.flap.nodes:
                self._flap_offsets[node] = (
                    zlib.crc32(f"{plan.seed}:flap:{node}".encode())
                    % plan.flap.period_ops
                    if plan.flap.stagger else 0
                )
        # Per-key sequence numbers feeding the CRC32 decisions.
        self._seq: dict[tuple, int] = {}
        # What actually got injected (deterministic for scheduled and
        # count-keyed faults; reports should only include keys whose
        # call pattern is itself deterministic).
        self.injected: dict[str, int] = {}
        self._armed: list[tuple[str, object]] = []

    # -- deterministic decisions -------------------------------------------

    def _next_seq(self, key: tuple) -> int:
        with self._lock:
            n = self._seq.get(key, 0)
            self._seq[key] = n + 1
            return n

    def _chance(self, key: str, rate: float) -> bool:
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        h = zlib.crc32(f"{self.plan.seed}:{key}".encode()) & 0xFFFFFFFF
        return h < int(rate * 2**32)

    def _inject(self, what: str, metric=None) -> None:
        with self._lock:
            self.injected[what] = self.injected.get(what, 0) + 1
        _M_INJECTED.inc()
        if metric is not None:
            metric.inc()

    def injected_snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(sorted(self.injected.items()))

    # -- cassdb hooks -------------------------------------------------------

    def on_coordinator_op(self, cluster: "Cluster") -> None:
        """Advance the logical clock and apply any due crash windows.

        Called once per coordinated read/write *attempt* — retries tick
        the clock too, which is what lets a retrying coordinator walk
        out of a flap window deterministically.
        """
        due: list[tuple[str, CrashWindow]] = []
        with self._lock:
            self.op += 1
            op = self.op
            for i, cw in enumerate(self.plan.crashes):
                state = self._crash_state[i]
                if state == _PENDING and op >= cw.at_op:
                    self._crash_state[i] = _DOWN
                    due.append(("down", cw))
                elif (state == _DOWN and cw.recover_at_op is not None
                        and op >= cw.recover_at_op):
                    self._crash_state[i] = _RECOVERED
                    due.append(("up", cw))
        for action, cw in due:
            if action == "down":
                if cw.kind == "kill":
                    cluster.kill_node(cw.node)
                else:
                    cluster.crash_node(cw.node)
                self._inject("crashes", _M_CRASHES)
            else:
                if cw.kind == "kill":
                    cluster.revive_node(cw.node)
                else:
                    cluster.recover_node(cw.node)
                self._inject("recoveries", _M_RECOVERIES)

    def replica_down(self, node_id: str) -> bool:
        """Is *node_id* inside its flap-down phase at the current op?"""
        flap = self.plan.flap
        if flap is None or node_id not in self._flap_offsets:
            return False
        phase = (self.op + self._flap_offsets[node_id]) % flap.period_ops
        return phase < flap.down_ops

    def before_replica_read(self, node_id: str) -> None:
        """Latency injection point on the replica read path."""
        delay = self._latency.get(node_id)
        if delay:
            self._inject("latency_stalls")
            time.sleep(delay / 1000.0)

    # -- bus hooks ----------------------------------------------------------

    def _bus_topic_applies(self, topic: str) -> bool:
        bus = self.plan.bus
        return bus is not None and (bus.topics is None or topic in bus.topics)

    def on_publish(self, topic: str) -> int:
        """Extra copies to append for this publish (producer-retry dups)."""
        if not self._bus_topic_applies(topic):
            return 0
        n = self._next_seq(("pub", topic))
        if self._chance(f"pub:{topic}:{n}", self.plan.bus.dup_rate):
            self._inject("bus_duplicates", _M_BUS_DUPS)
            return 1
        return 0

    def on_fetch(self, topic: str, partition: int) -> bool:
        """True → drop this (non-empty) delivery.  Offsets are never
        advanced for a dropped delivery, so the records are re-fetched:
        the fault weakens latency, never durability."""
        if not self._bus_topic_applies(topic):
            return False
        n = self._next_seq(("fetch", topic, partition))
        if self._chance(f"fetch:{topic}:{partition}:{n}",
                        self.plan.bus.drop_rate):
            self._inject("bus_drops", _M_BUS_DROPS)
            return True
        return False

    # -- sparklet hook ------------------------------------------------------

    def on_task(self, worker: str, partition: int) -> None:
        """Raise :class:`FaultInjected` when this task attempt fails."""
        tasks = self.plan.tasks
        if tasks is None or tasks.fail_rate <= 0.0:
            return
        if tasks.workers is not None and worker not in tasks.workers:
            return
        n = self._next_seq(("task", worker, partition))
        if self._chance(f"task:{worker}:{partition}:{n}", tasks.fail_rate):
            self._inject("task_failures", _M_TASK_FAILURES)
            raise FaultInjected(
                f"injected task failure (worker={worker}, "
                f"partition={partition}, attempt={n})"
            )

    # -- arming -------------------------------------------------------------

    def arm(self, *, cluster=None, bus=None, pool=None) -> "FaultGate":
        """Install this gate on the given components (returns self)."""
        if cluster is not None:
            cluster.chaos_gate = self
            self._armed.append(("chaos_gate", cluster))
        if bus is not None:
            bus.chaos_gate = self
            self._armed.append(("chaos_gate", bus))
        if pool is not None:
            pool.chaos_gate = self
            self._armed.append(("chaos_gate", pool))
        return self

    def disarm(self) -> None:
        """Remove the gate everywhere it was armed (idempotent)."""
        for attr, target in self._armed:
            setattr(target, attr, None)
        self._armed.clear()

    def __enter__(self) -> "FaultGate":
        return self

    def __exit__(self, *exc) -> None:
        self.disarm()
