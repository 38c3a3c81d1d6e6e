"""Failure prediction from precursor events (paper §IV / §V).

The related-work section points at models that "leverage the spatial
and temporal correlation between historical failures, or trends of
non-fatal events preceding failures" (Liang et al. [22], Gainaru et
al. [23]); the conclusion lists prediction as the framework's next
step.  This module adds that step on top of the data model:

* :func:`mine_precursors` — for every fatal event type, measure how
  often each non-fatal type precedes it on the same component within a
  lead window vs its base rate (precision/lift of the precursor rule);
* :class:`PrecursorPredictor` — an online predictor: when a mined
  precursor fires, it raises a failure warning for that component with
  a validity window;
* :func:`evaluate_predictor` — replay a labelled window and score
  precision / recall / median lead time, the standard metrics of the
  cited prediction literature.

On generator data the injected cascade (DRAM_UE → KERNEL_PANIC →
HEARTBEAT_FAULT) is exactly the structure such predictors exploit.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .context import Context
    from .model import LogDataModel

__all__ = [
    "PrecursorRule",
    "mine_precursors",
    "Warning_",
    "PrecursorPredictor",
    "PredictionScore",
    "evaluate_predictor",
]

FATAL_TYPES = ("KERNEL_PANIC", "HEARTBEAT_FAULT", "DRAM_UE", "GPU_DBE",
               "GPU_OFF_BUS", "LBUG")
# A mined rule must clear both: P(target within window | precursor),
# and that precision over the target's base rate.
MIN_PRECISION = 0.2
MIN_LIFT = 5.0


@dataclass(frozen=True, slots=True)
class PrecursorRule:
    """``precursor`` on a component predicts ``target`` within
    ``lead_window`` seconds."""

    precursor: str
    target: str
    lead_window: float
    support: int        # precursor occurrences followed by the target
    precision: float    # P(target within window | precursor)
    lift: float         # precision / P(target in any window of that size)

    def __str__(self) -> str:  # pragma: no cover - display helper
        return (f"{self.precursor} -> {self.target} within "
                f"{self.lead_window:.0f}s (precision {self.precision:.2f}, "
                f"lift {self.lift:.0f}, n={self.support})")


def _events_by_component(events: Iterable[dict], type_: str
                         ) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for row in events:
        if row["type"] == type_:
            out.setdefault(row["source"], []).append(row["ts"])
    for times in out.values():
        times.sort()
    return out


def mine_precursors(
    model: "LogDataModel",
    context: "Context",
    *,
    lead_window: float = 120.0,
    min_support: int = 3,
) -> list[PrecursorRule]:
    """Mine (precursor → fatal) rules from a historical window."""
    if lead_window <= 0:
        raise ValueError("lead_window must be positive")
    events = context.events(model)
    duration = context.duration
    # A fatal event may itself herald another (DRAM_UE precedes the
    # panic it causes), so fatal types stay eligible as precursors;
    # only the target itself is excluded (below).
    candidate_types = sorted({e["type"] for e in events})
    rules: list[PrecursorRule] = []
    for target in FATAL_TYPES:
        target_times = _events_by_component(events, target)
        n_targets = sum(len(v) for v in target_times.values())
        if n_targets == 0:
            continue
        # Baseline: probability a random window of lead_window seconds on
        # a random component contains the target.
        components = {e["source"] for e in events}
        base = min(1.0, n_targets * lead_window
                   / (duration * max(1, len(components))))
        for cand in candidate_types:
            if cand == target:
                continue
            cand_events = _events_by_component(events, cand)
            hits = 0
            total = 0
            for comp, times in cand_events.items():
                targets = target_times.get(comp, [])
                for t in times:
                    total += 1
                    lo = bisect_right(targets, t)
                    hi = bisect_right(targets, t + lead_window)
                    if hi > lo:
                        hits += 1
            if total == 0 or hits < min_support:
                continue
            precision = hits / total
            lift = precision / max(base, 1e-12)
            if precision >= MIN_PRECISION and lift >= MIN_LIFT:
                rules.append(PrecursorRule(
                    precursor=cand, target=target,
                    lead_window=lead_window, support=hits,
                    precision=precision, lift=lift,
                ))
    rules.sort(key=lambda r: (-r.precision * r.lift, r.precursor))
    return rules


@dataclass(frozen=True, slots=True)
class Warning_:
    """A raised failure warning."""

    component: str
    target: str
    raised_at: float
    valid_until: float
    rule: PrecursorRule


class PrecursorPredictor:
    """Online predictor: feed events in time order, collect warnings."""

    def __init__(self, rules: Sequence[PrecursorRule]):
        self.rules = list(rules)
        self._by_precursor: dict[str, list[PrecursorRule]] = {}
        for rule in self.rules:
            self._by_precursor.setdefault(rule.precursor, []).append(rule)
        self.warnings: list[Warning_] = []

    def observe(self, event: dict) -> list[Warning_]:
        """Process one event row; returns warnings raised by it."""
        raised = []
        for rule in self._by_precursor.get(event["type"], ()):
            warning = Warning_(
                component=event["source"],
                target=rule.target,
                raised_at=event["ts"],
                valid_until=event["ts"] + rule.lead_window,
                rule=rule,
            )
            self.warnings.append(warning)
            raised.append(warning)
        return raised

    def replay(self, events: Iterable[dict]) -> list[Warning_]:
        for event in events:
            self.observe(event)
        return self.warnings


@dataclass
class PredictionScore:
    """Standard prediction metrics over a labelled replay."""

    true_positives: int = 0
    false_negatives: int = 0
    raised_warnings: int = 0
    useful_warnings: int = 0
    lead_times: list[float] = field(default_factory=list)

    @property
    def recall(self) -> float:
        total = self.true_positives + self.false_negatives
        return self.true_positives / total if total else 0.0

    @property
    def precision(self) -> float:
        return (self.useful_warnings / self.raised_warnings
                if self.raised_warnings else 0.0)

    @property
    def median_lead_time(self) -> float:
        return float(np.median(self.lead_times)) if self.lead_times else 0.0


def evaluate_predictor(
    predictor: PrecursorPredictor,
    events: Sequence[dict],
) -> PredictionScore:
    """Replay *events* (time-ordered rows) and score the predictor.

    A failure is *covered* if a matching warning for its component and
    type was active when it happened; a warning is *useful* if some
    matching failure falls inside its validity window.
    """
    ordered = sorted(events, key=lambda e: e["ts"])
    predictor.replay(ordered)
    warnings = predictor.warnings
    score = PredictionScore(raised_warnings=len(warnings))
    # Index warnings per (component, target), sorted by raise time.
    index: dict[tuple[str, str], list[Warning_]] = {}
    for warning in warnings:
        index.setdefault((warning.component, warning.target),
                         []).append(warning)
    useful: set[int] = set()
    predicted_types = {r.target for r in predictor.rules}
    for event in ordered:
        if event["type"] not in FATAL_TYPES:
            continue
        if event["type"] not in predicted_types:
            continue  # no rule could have fired: out of model scope
        candidates = index.get((event["source"], event["type"]), [])
        covering = [
            w for w in candidates
            if w.raised_at < event["ts"] <= w.valid_until
        ]
        if covering:
            score.true_positives += 1
            first = min(covering, key=lambda w: w.raised_at)
            score.lead_times.append(event["ts"] - first.raised_at)
            useful.update(id(w) for w in covering)
        else:
            score.false_negatives += 1
    score.useful_warnings = sum(
        1 for w in warnings if id(w) in useful
    )
    return score
