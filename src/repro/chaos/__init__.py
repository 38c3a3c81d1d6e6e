"""repro.chaos — deterministic fault injection and resilience scenarios.

Chaos engineering for the in-process reproduction: a seeded
:class:`FaultPlan` schedules node crashes, replica flap, slow reads,
bus drops/duplicates and task failures; a :class:`FaultGate` arms the
plan against a cluster, bus and worker pool (which all carry a
``chaos_gate = None`` attribute, so an unarmed system pays one
attribute check per operation); and the scenario runner drives
canned workloads through fault schedules while checking the resilience
invariants (no acked QUORUM write lost, hint replay converges, streams
lose nothing across drop windows, jobs finish despite failing workers).

Quick use::

    from repro.chaos import run_scenarios

    report = run_scenarios(["quorum-crash"], seed=7)
    assert report["ok"]

Everything is reproducible: the same seed and workload produce the same
injected faults, the same retries and the same report, byte for byte.
"""

from .gate import FaultGate
from .plan import FaultPlan, FlapSpec
from .scenarios import SCENARIOS, run_scenarios

__all__ = [
    "FaultGate",
    "FaultPlan",
    "FlapSpec",
    "SCENARIOS",
    "run_scenarios",
]
