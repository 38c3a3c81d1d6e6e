"""Spatial/temporal statistics: heat maps, distributions, hot spots.

Implements §III-B/C's "basic statistics about event occurrences":

* **heat map** of an event type's occurrences over the physical system
  map for a selected interval (Fig 5 bottom), at node, blade or cabinet
  granularity;
* **distributions** "of the event occurrences over cabinets, blades,
  nodes, and applications";
* **event histograms** over the temporal map;
* **hot-spot detection** — which components saw "unusually higher (or
  lower)" counts than the rest of the system, scored against a Poisson
  model of the system-wide mean.

Heavy aggregations run as sparklet jobs over the event tables (that is
the paper's division of labour: "the heat map representation and
various distributions … are computed by the big data processing");
light ones fold the two or three columns they need straight off the
context's column read (:meth:`Context.columns`) — no event is built.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .context import Context
from .model import LogDataModel, event_amounts

if TYPE_CHECKING:  # pragma: no cover
    from repro.sparklet import SparkletContext

__all__ = [
    "group_key",
    "heatmap",
    "heatmap_engine",
    "distribution_by",
    "distribution_by_application",
    "time_histogram",
    "Hotspot",
    "detect_hotspots",
]

_GRANULARITIES = ("node", "blade", "cabinet")


def _check_granularity(granularity: str) -> None:
    if granularity not in _GRANULARITIES:
        raise ValueError(f"granularity must be one of {_GRANULARITIES}")


def _cabinet_of(component: str) -> str:
    """Cabinet prefix of any component id (``c3-17…`` → ``c3-17``)."""
    m = re.match(r"^(c\d+-\d+)", component)
    return m.group(1) if m else component


def _blade_of(component: str) -> str:
    """Blade prefix of any component id (node cname or Gemini id)."""
    m = re.match(r"^(c\d+-\d+c\d+s\d+)", component)
    return m.group(1) if m else component


def group_key(component: str, granularity: str) -> str:
    """Map a component id to its aggregation key.

    Works for node cnames and for Gemini ids (``…g0``); unrecognized
    formats aggregate under themselves.
    """
    _check_granularity(granularity)
    if granularity == "node":
        return component
    if granularity == "cabinet":
        return _cabinet_of(component)
    return _blade_of(component)


def heatmap(model: "LogDataModel", context: Context,
            granularity: str = "node") -> dict[str, int]:
    """Occurrence counts per component for the context (driver-side).

    Sums event ``amount`` so coalesced events weigh correctly.
    """
    _check_granularity(granularity)  # before any read: empty contexts too
    sources, amounts = context.columns(model, "source", "amount")
    per_source: dict[str, int] = {}
    count_of = per_source.get
    for source, amount in zip(sources, event_amounts(amounts)):
        per_source[source] = count_of(source, 0) + amount
    if granularity == "node":
        return per_source
    # One key computation per distinct source, not per event.
    counts: Counter[str] = Counter()
    for source, count in per_source.items():
        counts[group_key(source, granularity)] += count
    return dict(counts)


def heatmap_engine(sc: "SparkletContext", event_type: str,
                   t0: float, t1: float,
                   granularity: str = "node") -> dict[str, int]:
    """Same heat map as an engine job over the full ``event_by_time``
    table (the big-data path for long intervals)."""
    _check_granularity(granularity)

    def keyer(row):
        if granularity == "node":
            return row["source"]
        if granularity == "cabinet":
            return _cabinet_of(row["source"])
        return group_key(row["source"], "blade")

    rows = (
        sc.cassandraTable(
            "event_by_time",
            where=lambda r: (r["type"] == event_type
                             and t0 <= r["ts"] < t1),
        )
        .map(lambda r: (keyer(r), int(r.get("amount", 1))))
        .reduceByKey(lambda a, b: a + b)
        .collect()
    )
    return dict(rows)


def distribution_by(model: "LogDataModel", context: Context,
                    granularity: str) -> list[tuple[str, int]]:
    """Counts per cabinet/blade/node, descending (Fig 5's distributions)."""
    counts = heatmap(model, context, granularity)
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


def distribution_by_application(model: "LogDataModel", context: Context
                                ) -> list[tuple[str, int]]:
    """Event counts attributed to the application running on the event's
    node at the event's time — the "over … applications" distribution.

    Events on nodes with no active run land under ``"(idle)"``.
    """
    runs = model.runs_in_interval(context.t0, context.t1)
    # Interval index: node -> list of (start, end, app), few runs per node.
    per_node: dict[str, list[tuple[float, float, str]]] = {}
    for run in runs:
        for cname in model.run_nodes(run):
            per_node.setdefault(cname, []).append(
                (run["start"], run["end"], run["app"])
            )
    sources, stamps, amounts = context.columns(
        model, "source", "ts", "amount")
    counts: Counter[str] = Counter()
    for source, ts, amount in zip(sources, stamps, event_amounts(amounts)):
        app = "(idle)"
        for start, end, name in per_node.get(source, ()):
            if start <= ts < end:
                app = name
                break
        counts[app] += amount
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


def time_histogram(model: "LogDataModel", context: Context,
                   num_bins: int = 48) -> tuple[np.ndarray, np.ndarray]:
    """Occurrences over time for the temporal map.

    Returns ``(bin_edges, counts)`` with ``len(edges) == num_bins + 1``.
    """
    if num_bins < 1:
        raise ValueError("num_bins must be >= 1")
    edges = np.linspace(context.t0, context.t1, num_bins + 1)
    counts = np.zeros(num_bins, dtype=np.int64)
    width = (context.t1 - context.t0) / num_bins
    stamps, amounts = context.columns(model, "ts", "amount")
    if stamps:
        # The row loop's ``min(int((ts - t0) / width), num_bins - 1)``,
        # one array at a time: same IEEE division, same truncation.
        idx = ((np.array(stamps, dtype=float) - context.t0)
               / width).astype(np.int64)
        np.minimum(idx, num_bins - 1, out=idx)
        np.add.at(counts, idx,
                  np.array(event_amounts(amounts), dtype=np.int64))
    return edges, counts


@dataclass(frozen=True, slots=True)
class Hotspot:
    """A component whose count is anomalously high for the interval."""

    component: str
    count: int
    expected: float
    z_score: float


def detect_hotspots(counts: dict[str, int], num_components: int,
                    z_threshold: float = 4.0) -> list[Hotspot]:
    """Flag components with "unusually higher" counts (Fig 5, bottom).

    Under a homogeneous system, per-component counts are ~Poisson(λ)
    with λ = total/num_components; a component is flagged when its
    normal-approximation z-score exceeds ``z_threshold``.  The robust
    part: λ is estimated from the *median*-ish trimmed mean so that the
    hot spots themselves do not inflate the baseline.

    ``num_components`` must be the number of components that *could*
    have reported (quiet components count as zeros).
    """
    if num_components < 1:
        raise ValueError("num_components must be >= 1")
    values = sorted(counts.values())
    zeros = num_components - len(values)
    if zeros < 0:
        raise ValueError("more reporting components than num_components")
    # Trimmed mean over the lower 90% (zeros included) resists hot spots.
    padded = [0] * zeros + values
    keep = max(1, int(len(padded) * 0.9))
    lam = sum(padded[:keep]) / keep
    lam = max(lam, 1e-9)
    sigma = math.sqrt(lam)
    out = [
        Hotspot(component=comp, count=count, expected=lam,
                z_score=(count - lam) / sigma)
        for comp, count in counts.items()
        if (count - lam) / sigma >= z_threshold
    ]
    out.sort(key=lambda h: -h.z_score)
    return out
