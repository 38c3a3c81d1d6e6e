"""Online anomaly detectors over per-window event counts.

Each detector is a small, independently testable class observing one
1 s micro-batch at a time: the engine folds a closed streaming window
into ``{(event_type, cabinet): count}`` and hands it to every detector
with the window's start time.  All detector state is in memory and
bounded — TTL eviction plus a hard key cap, the same discipline
``repro.obs``'s registry applies to label cardinality.

Windows with no events are never observed (the streaming graph skips
empty batches), so every detector reconstructs the gap from the jump in
``window_start``: EWMA baselines decay through the missed zero-count
windows in closed form, the storm detector's sustain run is broken, and
the lead–lag history is zero-filled.

The four detectors mirror the paper's analytics, turned online:

* :class:`EWMARateDetector` — Fig 5's hot-spot heat map as a streaming
  baseline: per-(type, cabinet) EWMA mean/variance with a robust
  z-score threshold and warm-up suppression.
* :class:`SpatialBurstDetector` — Fig 6's spatial-distribution view:
  per-minute counts folded over the cabinet grid, flagging surges
  concentrated in one cabinet neighbourhood.
* :class:`LustreStormDetector` — Fig 7 (bottom)'s filesystem storms:
  sustained multi-cabinet elevation of filesystem event types.
* :class:`LeadLagDetector` — Fig 7 (top)'s directional coupling:
  windowed cross-correlation between event-type indicator series,
  surfacing "A precedes B" structure as informational alerts.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from collections import deque
from typing import Mapping

from repro.titan.topology import TitanTopology

from .alerts import Alert

__all__ = [
    "cabinet_of",
    "Detector",
    "EWMARateDetector",
    "SpatialBurstDetector",
    "LustreStormDetector",
    "LeadLagDetector",
    "default_detectors",
]

_CABINET_PREFIX = re.compile(r"^(c\d+-\d+)")

# After this many zero-count EWMA updates the remaining mass is below
# (1-alpha)^50 ~ 1e-8 of the old mean for any alpha >= 0.3 — close
# enough to a reset that longer gaps need no more arithmetic.
_MAX_GAP_UPDATES = 50


def cabinet_of(component: str) -> str:
    """The owning cabinet of a component id.

    Works for node cnames (``c3-17c1s5n2``) and Gemini router ids
    (``c3-17c1s5g0``) alike — both carry the ``c{col}-{row}`` prefix.
    Components outside the Cray coordinate system map to themselves.
    """
    m = _CABINET_PREFIX.match(component)
    return m.group(1) if m else component


class Detector:
    """Base class: the engine-facing contract.

    ``observe(window_start, counts)`` sees one closed micro-batch and
    returns zero or more :class:`~repro.detect.alerts.Alert` records.
    """

    name = "detector"

    def __init__(self, *, interval: float = 1.0):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.interval = interval

    def observe(self, window_start: float,
                counts: Mapping[tuple[str, str], int]) -> list[Alert]:
        raise NotImplementedError

    @property
    def tracked_keys(self) -> int:
        """How many per-key state entries the detector currently holds."""
        return 0

    # -- helpers shared by subclasses ---------------------------------------

    def _window_index(self, window_start: float) -> int:
        return int(round(window_start / self.interval))

    def _alert(self, *, severity: str, key: str, window_start: float,
               score: float, evidence: dict) -> Alert:
        return Alert(
            ts=window_start + self.interval,
            severity=severity,
            detector=self.name,
            key=key,
            window_start=window_start,
            window_end=window_start + self.interval,
            score=score,
            evidence=evidence,
        )


class EWMARateDetector(Detector):
    """Per-(event_type, cabinet) rate baseline with robust z-scores.

    For every key the detector maintains an exponentially weighted mean
    and variance of the per-window count::

        mean <- (1 - alpha) * mean + alpha * x
        var  <- (1 - alpha) * (var + alpha * (x - mean_old)^2)

    and alerts when the standardized surprise

        z = (x - mean) / max(sigma, sqrt(max(mean, 1)))

    crosses ``threshold``.  The denominator floor is the robustness
    knob: a Poisson-ish count with mean m has sigma ~ sqrt(m), so keys
    whose EWMA variance collapsed (long constant streaks) cannot
    produce infinite z-scores, and quiet keys (mean < 1) are measured
    against a floor of 1 count.

    Suppression: no alerts before ``min_samples`` observed windows per
    key (warm-up) or below ``min_count`` events in the window (quiet
    traffic never alerts on 1-vs-0 noise).  Keys idle longer than
    ``ttl_windows`` are evicted; the key set is hard-capped at
    ``max_keys`` (oldest-idle evicted first), mirroring the obs
    registry's cardinality cap.
    """

    name = "ewma_rate"
    alpha = 0.3
    threshold = 6.0

    def __init__(self, *, interval: float = 1.0, min_samples: int = 30,
                 min_count: int = 8, ttl_windows: int = 900,
                 max_keys: int = 4096):
        super().__init__(interval=interval)
        if min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        self.min_samples = min_samples
        self.min_count = min_count
        self.ttl_windows = ttl_windows
        self.max_keys = max_keys
        self.evicted = 0
        # key -> [mean, var, samples, last_seen_window_index]
        self._keys: dict[tuple[str, str], list] = {}
        self._last_sweep: int | None = None

    @property
    def tracked_keys(self) -> int:
        return len(self._keys)

    def _update(self, entry: list, x: float) -> None:
        mean, var = entry[0], entry[1]
        delta = x - mean
        mean += self.alpha * delta
        var = (1.0 - self.alpha) * (var + self.alpha * delta * delta)
        entry[0], entry[1] = mean, var
        entry[2] += 1

    def observe(self, window_start: float,
                counts: Mapping[tuple[str, str], int]) -> list[Alert]:
        widx = self._window_index(window_start)
        alerts: list[Alert] = []
        for key, count in counts.items():
            entry = self._keys.get(key)
            if entry is None:
                entry = self._keys[key] = [0.0, 0.0, 0, widx]
            else:
                # Decay through the zero-count windows the engine never
                # saw (empty batches are skipped upstream).
                gap = widx - entry[3] - 1
                for _ in range(min(gap, _MAX_GAP_UPDATES)):
                    self._update(entry, 0.0)
                if gap > 0:
                    entry[2] += max(0, gap - _MAX_GAP_UPDATES)
            mean, var, samples = entry[0], entry[1], entry[2]
            sigma = max(math.sqrt(var), math.sqrt(max(mean, 1.0)))
            z = (count - mean) / sigma
            if (samples >= self.min_samples and count >= self.min_count
                    and z >= self.threshold):
                alerts.append(self._alert(
                    severity="warning",
                    key=f"{key[0]}|{key[1]}",
                    window_start=window_start,
                    score=round(z, 3),
                    evidence={"count": count, "mean": round(mean, 3),
                              "sigma": round(sigma, 3),
                              "samples": samples},
                ))
            self._update(entry, float(count))
            entry[3] = widx
        self._evict(widx)
        return alerts

    def _evict(self, widx: int) -> None:
        if self._last_sweep is None:
            self._last_sweep = widx
        # TTL sweep at most once per ttl_windows: O(keys) amortized away.
        if widx - self._last_sweep >= self.ttl_windows:
            stale = [k for k, e in self._keys.items()
                     if widx - e[3] > self.ttl_windows]
            for key in stale:
                del self._keys[key]
            self.evicted += len(stale)
            self._last_sweep = widx
        while len(self._keys) > self.max_keys:
            oldest = min(self._keys, key=lambda k: (self._keys[k][3], k))
            del self._keys[oldest]
            self.evicted += 1


class SpatialBurstDetector(Detector):
    """Spatially concentrated surges over the cabinet grid.

    Accumulates per-cabinet counts per minute; when a minute closes, a
    cabinet's *neighbourhood* (itself plus grid-adjacent cabinets,
    north/south/east/west on the §II-B 25x8 layout) is compared against
    the machine-wide total.  The score is the concentration **lift**::

        lift = (neighbourhood events / total events)
             / (neighbourhood cabinets / total cabinets)

    i.e. how many times more than its fair share of the machine's
    events the neighbourhood absorbed.  An alert fires when the minute
    has at least ``min_events`` machine-wide, the neighbourhood holds
    at least ``min_share`` of them, and the lift clears
    ``lift_threshold`` — so a machine-wide storm (every cabinet
    elevated, lift ~ 1) is *not* spatial, and a topology too small for
    a neighbourhood to be a minority cannot false-positive.

    One alert per (cabinet, surge): re-alerting is suppressed for
    ``cooldown_minutes``.
    """

    name = "spatial_burst"
    min_share = 0.5
    lift_threshold = 4.0

    def __init__(self, topology: TitanTopology, *, interval: float = 1.0,
                 min_events: int = 30, cooldown_minutes: int = 10):
        super().__init__(interval=interval)
        self.topology = topology
        self.min_events = min_events
        self.cooldown_minutes = cooldown_minutes
        self._minute: int | None = None
        self._cab_counts: dict[str, int] = {}
        self._cab_types: dict[str, dict[str, int]] = {}
        self._last_alert: dict[str, int] = {}

    @property
    def tracked_keys(self) -> int:
        return len(self._cab_counts)

    def _neighbourhood(self, cabinet: str) -> list[str]:
        col, row = self.topology.parse_cabinet(cabinet)
        out = [cabinet]
        for dc, dr in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            c, r = col + dc, row + dr
            if 0 <= c < self.topology.cols and 0 <= r < self.topology.rows:
                out.append(f"c{c}-{r}")
        return out

    def observe(self, window_start: float,
                counts: Mapping[tuple[str, str], int]) -> list[Alert]:
        minute = int(window_start // 60.0)
        alerts: list[Alert] = []
        if self._minute is not None and minute > self._minute:
            alerts = self._close_minute(self._minute)
            self._cab_counts = {}
            self._cab_types = {}
        self._minute = minute
        for (etype, cabinet), count in counts.items():
            self._cab_counts[cabinet] = (
                self._cab_counts.get(cabinet, 0) + count)
            per_type = self._cab_types.setdefault(cabinet, {})
            per_type[etype] = per_type.get(etype, 0) + count
        return alerts

    def _close_minute(self, minute: int) -> list[Alert]:
        total = sum(self._cab_counts.values())
        if total < self.min_events:
            return []
        num_cabinets = self.topology.num_cabinets
        alerts: list[Alert] = []
        for cabinet in sorted(self._cab_counts):
            try:
                hood = self._neighbourhood(cabinet)
            except ValueError:
                continue  # component outside the Cray grid
            share = sum(self._cab_counts.get(c, 0) for c in hood) / total
            fair = len(hood) / num_cabinets
            lift = share / fair
            last = self._last_alert.get(cabinet)
            if (share >= self.min_share and lift >= self.lift_threshold
                    and (last is None
                         or minute - last >= self.cooldown_minutes)):
                top_types = sorted(
                    self._cab_types.get(cabinet, {}).items(),
                    key=lambda kv: (-kv[1], kv[0]))[:3]
                alerts.append(Alert(
                    ts=(minute + 1) * 60.0,
                    severity="warning",
                    detector=self.name,
                    key=cabinet,
                    window_start=minute * 60.0,
                    window_end=(minute + 1) * 60.0,
                    score=round(lift, 3),
                    evidence={"events": self._cab_counts[cabinet],
                              "neighbourhood_share": round(share, 3),
                              "machine_events": total,
                              "top_types": [
                                  {"type": t, "count": n}
                                  for t, n in top_types]},
                ))
                self._last_alert[cabinet] = minute
        return alerts


class LustreStormDetector(Detector):
    """Onset detection for filesystem storms (Fig 7, bottom).

    Tracks the machine-wide per-window rate of the filesystem event
    types (LUSTRE_ERR, DVS_ERR, LBUG by default) and a slow EWMA
    baseline of it.  A storm *onset* fires when ``sustain`` consecutive
    windows each clear ``max(min_rate, rate_multiple * baseline)``
    **and** the elevation spans at least ``min_cabinets`` distinct
    cabinets — the paper's storm signature: "afflicting most of compute
    nodes", not one bad client.  While a storm is in progress the
    baseline freezes (a storm must not teach the detector that storms
    are normal) and no further onsets fire; ``clear`` consecutive calm
    windows end the storm and emit an informational all-clear.
    """

    name = "lustre_storm"
    fs_types = frozenset(("LUSTRE_ERR", "DVS_ERR", "LBUG"))
    baseline_alpha = 0.05
    rate_multiple = 4.0
    min_rate = 4.0
    min_samples = 30
    sustain = 2

    def __init__(self, *, interval: float = 1.0, min_cabinets: int = 2,
                 clear: int = 30):
        super().__init__(interval=interval)
        self.min_cabinets = min_cabinets
        self.clear = clear
        self.storms_opened = 0
        self._baseline = 0.0
        self._samples = 0
        self._elevated: deque[tuple[float, frozenset[str]]] = deque(
            maxlen=self.sustain)
        self._in_storm = False
        self._storm_start: float | None = None
        self._calm_run = 0
        self._last_window: int | None = None

    def _threshold(self) -> float:
        return max(self.min_rate, self.rate_multiple * self._baseline)

    def _observe_zero_gap(self, gap: int) -> None:
        """Fold the skipped empty windows in: they break any sustain
        run, count toward calm, and decay the baseline."""
        if gap <= 0:
            return
        self._elevated.clear()
        for _ in range(min(gap, _MAX_GAP_UPDATES)):
            if not self._in_storm:
                self._baseline *= (1.0 - self.baseline_alpha)
        self._samples += gap
        if self._in_storm:
            self._calm_run += gap

    def observe(self, window_start: float,
                counts: Mapping[tuple[str, str], int]) -> list[Alert]:
        widx = self._window_index(window_start)
        if self._last_window is not None:
            self._observe_zero_gap(widx - self._last_window - 1)
        self._last_window = widx
        rate = 0
        cabinets: set[str] = set()
        per_type: dict[str, int] = {}
        for (etype, cabinet), count in counts.items():
            if etype in self.fs_types:
                rate += count
                cabinets.add(cabinet)
                per_type[etype] = per_type.get(etype, 0) + count
        alerts: list[Alert] = []
        threshold = self._threshold()
        elevated = (self._samples >= self.min_samples
                    and rate >= threshold)
        if elevated:
            self._elevated.append((float(rate), frozenset(cabinets)))
        else:
            self._elevated.clear()
        if not self._in_storm:
            if len(self._elevated) >= self.sustain:
                spread = set().union(
                    *(cabs for _, cabs in self._elevated))
                if len(spread) >= self.min_cabinets:
                    self._in_storm = True
                    self._calm_run = 0
                    self.storms_opened += 1
                    self._storm_start = (
                        window_start - (self.sustain - 1) * self.interval)
                    dominant = max(sorted(per_type),
                                   key=lambda t: per_type[t],
                                   default="")
                    alerts.append(self._alert(
                        severity="critical",
                        key="filesystem",
                        window_start=window_start,
                        score=round(rate / max(threshold, 1e-9), 3),
                        evidence={"rate": rate,
                                  "baseline": round(self._baseline, 3),
                                  "cabinets": len(spread),
                                  "dominant_type": dominant,
                                  "onset": self._storm_start},
                    ))
        else:
            if elevated:
                self._calm_run = 0
            else:
                self._calm_run += 1
                if self._calm_run >= self.clear:
                    self._in_storm = False
                    alerts.append(self._alert(
                        severity="info",
                        key="filesystem",
                        window_start=window_start,
                        score=0.0,
                        evidence={"cleared_after": self._calm_run,
                                  "onset": self._storm_start},
                    ))
                    self._storm_start = None
        if not self._in_storm:
            self._baseline += self.baseline_alpha * (rate - self._baseline)
        self._samples += 1
        return alerts

    @property
    def in_storm(self) -> bool:
        return self._in_storm


class LeadLagDetector(Detector):
    """Online "type A precedes type B" structure (Fig 7, top).

    Keeps a ring buffer of per-window machine-wide counts for each
    active event type (``history`` windows, zero-filled through gaps)
    and, every ``check_every`` windows, evaluates the windowed
    cross-correlation between each ordered pair of sufficiently active
    types: the Pearson correlation between A's indicator series and
    "any B within the next ``max_lag`` windows".  Pairs whose peak
    correlation clears ``min_corr`` produce *informational* alerts with
    the estimated lag — structure worth a look, not an incident.

    The type set is capped at ``max_types`` (first-seen wins, exactly
    the obs overflow rule) and a reported pair is silenced for
    ``cooldown_checks`` evaluation rounds.
    """

    name = "lead_lag"
    min_corr = 0.6

    def __init__(self, *, interval: float = 1.0, history: int = 300,
                 max_lag: int = 30, check_every: int = 60,
                 min_occurrences: int = 10,
                 max_types: int = 32, cooldown_checks: int = 10):
        super().__init__(interval=interval)
        if max_lag >= history:
            raise ValueError("max_lag must be < history")
        self.history = history
        self.max_lag = max_lag
        self.check_every = check_every
        self.min_occurrences = min_occurrences
        self.max_types = max_types
        self.cooldown_checks = cooldown_checks
        self._series: dict[str, deque[int]] = {}
        self._windows_seen = 0
        self._checks = 0
        self._last_reported: dict[tuple[str, str], int] = {}
        self._last_window: int | None = None

    @property
    def tracked_keys(self) -> int:
        return len(self._series)

    def _append_all(self, totals: Mapping[str, int]) -> None:
        for etype in totals:
            if (etype not in self._series
                    and len(self._series) < self.max_types):
                self._series[etype] = deque(
                    [0] * min(self._windows_seen, self.history),
                    maxlen=self.history)
        for etype, series in self._series.items():
            series.append(totals.get(etype, 0))

    def observe(self, window_start: float,
                counts: Mapping[tuple[str, str], int]) -> list[Alert]:
        widx = self._window_index(window_start)
        if self._last_window is not None:
            gap = widx - self._last_window - 1
            for _ in range(min(gap, self.history)):
                self._append_all({})
                self._windows_seen += 1
        self._last_window = widx
        totals: dict[str, int] = {}
        for (etype, _cabinet), count in counts.items():
            totals[etype] = totals.get(etype, 0) + count
        self._append_all(totals)
        self._windows_seen += 1
        if self._windows_seen % self.check_every != 0:
            return []
        self._checks += 1
        return self._evaluate(window_start)

    def _evaluate(self, window_start: float) -> list[Alert]:
        active = sorted(
            etype for etype, series in self._series.items()
            if sum(1 for x in series if x > 0) >= self.min_occurrences
        )
        indicators = {etype: [1 if x > 0 else 0 for x in self._series[etype]]
                      for etype in active}
        follows = {etype: self._follows(sb)
                   for etype, sb in indicators.items()}
        alerts: list[Alert] = []
        for a in active:
            sa = indicators[a]
            for b in active:
                if a == b:
                    continue
                last = self._last_reported.get((a, b))
                if (last is not None
                        and self._checks - last < self.cooldown_checks):
                    continue
                corr, lag = self._precedence(sa, indicators[b], follows[b])
                if corr >= self.min_corr:
                    alerts.append(self._alert(
                        severity="info",
                        key=f"{a}->{b}",
                        window_start=window_start,
                        score=round(corr, 3),
                        evidence={"lag_windows": lag,
                                  "lag_seconds": lag * self.interval,
                                  "leader_occurrences": sum(sa)},
                    ))
                    self._last_reported[(a, b)] = self._checks
        return alerts

    def _follows(self, sb: list[int]) -> list[int]:
        """``follows[t] = 1`` iff any B fires in ``(t, t + max_lag]``,
        for every ``t`` with a full look-ahead — a property of the
        follower alone, so one running count per type and evaluation
        serves every leader it is paired with."""
        fired = list(itertools.accumulate(sb, initial=0))
        lag = self.max_lag
        return [1 if fired[t + 1 + lag] > fired[t + 1] else 0
                for t in range(len(sb) - lag)]

    def _precedence(self, sa: list[int], sb: list[int], follows: list[int]
                    ) -> tuple[float, int]:
        """Peak windowed cross-correlation of A's indicator against
        "B within (0, lag]", and the median observed lead time."""
        n = min(len(sa), len(sb)) - self.max_lag
        if n < 2 * self.min_occurrences:
            return 0.0, 0
        lead = sa[:n]
        corr = self._phi(lead, follows[:n])
        if corr < self.min_corr:
            return corr, 0
        lags = []
        for t in range(n):
            if not lead[t]:
                continue
            for lag in range(1, self.max_lag + 1):
                if sb[t + lag]:
                    lags.append(lag)
                    break
        lags.sort()
        median = lags[len(lags) // 2] if lags else 0
        return corr, median

    @staticmethod
    def _phi(x: list[int], y: list[int]) -> float:
        n = len(x)
        sx, sy = sum(x), sum(y)
        sxy = sum(map(operator.mul, x, y))
        num = n * sxy - sx * sy
        den = math.sqrt(sx * (n - sx)) * math.sqrt(sy * (n - sy))
        if den == 0:
            return 0.0
        return num / den


def default_detectors(topology: TitanTopology, *,
                      interval: float = 1.0) -> list[Detector]:
    """The bank of detectors the engine runs."""
    return [
        EWMARateDetector(interval=interval),
        SpatialBurstDetector(topology, interval=interval),
        LustreStormDetector(interval=interval),
        LeadLagDetector(interval=interval),
    ]
