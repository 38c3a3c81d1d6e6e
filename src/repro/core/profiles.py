"""Application profiles (paper §V, future work item 2).

"Second, the framework will need to develop application profiles in
terms of event occurred during its runs.  This will help understand
correlations between application runtime characteristics and variations
observed in the system on account of faults and errors."

An :class:`ApplicationProfile` summarizes an application's historical
runs as per-event-type rates normalized to **node-hours** (so runs of
different sizes and durations are comparable).  Given a profile,
:func:`score_run` flags runs whose event exposure deviates from the
application's norm — the "performance anomaly" tie-in of §I — using a
Poisson tail bound on the expected count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from .context import Context
    from .model import LogDataModel

__all__ = ["ApplicationProfile", "build_profiles", "RunAnomaly", "score_run"]

# A run's event count is anomalous at a Poisson tail of 10^-3 or less.
MAX_LOG10_P = -3.0


@dataclass
class ApplicationProfile:
    """Event exposure statistics of one application."""

    app: str
    runs: int = 0
    node_hours: float = 0.0
    event_counts: dict[str, int] = field(default_factory=dict)
    failed_runs: int = 0

    def rate(self, event_type: str) -> float:
        """Events per node-hour of this type across the app's history."""
        if self.node_hours <= 0:
            return 0.0
        return self.event_counts.get(event_type, 0) / self.node_hours

    @property
    def failure_fraction(self) -> float:
        return self.failed_runs / self.runs if self.runs else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "app": self.app,
            "runs": self.runs,
            "node_hours": round(self.node_hours, 2),
            "failure_fraction": round(self.failure_fraction, 4),
            "rates_per_node_hour": {
                t: round(self.rate(t), 6) for t in sorted(self.event_counts)
            },
        }


def _run_events(model: "LogDataModel", run: dict) -> list[dict]:
    events: list[dict] = []
    for cname in model.run_nodes(run):
        events.extend(
            model.events_at_location(cname, run["start"], run["end"])
        )
    return events


def build_profiles(model: "LogDataModel", context: "Context"
                   ) -> dict[str, ApplicationProfile]:
    """Profile every application with runs in the context."""
    profiles: dict[str, ApplicationProfile] = {}
    for run in context.runs(model):
        profile = profiles.get(run["app"])
        if profile is None:
            profile = profiles[run["app"]] = ApplicationProfile(run["app"])
        profile.runs += 1
        profile.node_hours += run["num_nodes"] * (
            (run["end"] - run["start"]) / 3600.0
        )
        if run["exit_status"] != "OK":
            profile.failed_runs += 1
        for event in _run_events(model, run):
            profile.event_counts[event["type"]] = (
                profile.event_counts.get(event["type"], 0)
                + int(event.get("amount", 1))
            )
    return profiles


@dataclass(frozen=True, slots=True)
class RunAnomaly:
    """One event type whose count in a run is off-profile."""

    apid: int
    app: str
    event_type: str
    observed: int
    expected: float
    log10_p: float  # log10 of the Poisson upper-tail probability


def _poisson_tail_log10(observed: int, expected: float) -> float:
    """log10 of the Chernoff bound on P[X >= observed], X ~ Poisson(λ).

    P[X >= k] <= exp(-λ) (eλ/k)^k  →  log10 = (k - λ + k ln(λ/k)) / ln 10.
    A bound (not the exact tail) is fine here: it is conservative, never
    underflows, and is monotone in the right direction.
    """
    if observed <= expected:
        return 0.0
    expected = max(expected, 1e-12)
    k = observed
    log_p = (k - expected + k * math.log(expected / k)) / math.log(10.0)
    return min(0.0, log_p)


def score_run(model: "LogDataModel", run: dict,
              profile: ApplicationProfile, *,
              min_observed: int = 3) -> list[RunAnomaly]:
    """Flag event types whose count in *run* is anomalously high
    relative to the app's profiled per-node-hour rates."""
    node_hours = run["num_nodes"] * (run["end"] - run["start"]) / 3600.0
    counts: dict[str, int] = {}
    for event in _run_events(model, run):
        counts[event["type"]] = (
            counts.get(event["type"], 0) + int(event.get("amount", 1))
        )
    anomalies: list[RunAnomaly] = []
    for event_type, observed in counts.items():
        if observed < min_observed:
            continue
        expected = profile.rate(event_type) * node_hours
        log_p = _poisson_tail_log10(observed, expected)
        if log_p <= MAX_LOG10_P:
            anomalies.append(RunAnomaly(
                apid=run["apid"], app=run["app"], event_type=event_type,
                observed=observed, expected=expected, log10_p=log_p,
            ))
    anomalies.sort(key=lambda a: a.log10_p)
    return anomalies
