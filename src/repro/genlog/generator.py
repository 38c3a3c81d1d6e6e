"""Spatio-temporal synthetic event generation (the Titan-log substitute).

Layers, each motivated by a phenomenon the paper's analytics are shown
finding:

1. **Baseline noise** — every event type arrives as a bursty Weibull
   renewal process (shape < 1) at its registry base rate, spread over
   nodes (or Gemini routers for network types).
2. **Hot components** — a few nodes get a multiplied rate for selected
   types, e.g. weak DIMMs throwing DRAM/MCE errors.  Fig 5 (bottom)
   shows exactly this: "MCE errors occurred abnormally high in some
   compute nodes over a selected time period."  The injected hot set is
   recorded as ground truth so the heat-map bench can verify recovery.
3. **Lustre storms** — system-wide filesystem events "afflicting most
   of compute nodes" for several minutes (Fig 7, bottom), every message
   naming the same failing OST; text mining must surface that OST.
4. **Causal cascades** — DRAM_UE → KERNEL_PANIC → HEARTBEAT_FAULT on
   the same node within seconds.  This plants the directional coupling
   transfer entropy (Fig 7, top) is supposed to detect.

Everything is driven by one seeded ``numpy`` Generator: same seed, same
logs, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from repro.titan.events import EventRegistry, LogSource, default_registry
from repro.titan.topology import TitanTopology

from .processes import hotspot_weights, poisson_arrivals, weibull_arrivals
from .templates import render_line

__all__ = ["GeneratedEvent", "StormInfo", "GroundTruth", "LogGenerator"]

_XID_CODES = np.array([13, 31, 32, 43, 48, 62, 79])
_LUSTRE_RCS = np.array([-110, -107, -5, -30, -19])


@dataclass(frozen=True, slots=True)
class GeneratedEvent:
    """One structured synthetic event occurrence."""

    ts: float            # seconds since simulation start
    type: str
    component: str       # node cname, or gemini id for network events
    source: LogSource
    amount: int = 1
    attrs: dict = field(default_factory=dict)

    @property
    def hour(self) -> int:
        return int(self.ts // 3600)


@dataclass(frozen=True, slots=True)
class StormInfo:
    """Ground truth for one injected Lustre storm."""

    start: float
    duration: float
    ost: str
    num_events: int


@dataclass
class GroundTruth:
    """What the generator injected — used by benches to verify recovery."""

    hot_nodes: dict[str, list[str]] = field(default_factory=dict)
    storms: list[StormInfo] = field(default_factory=list)
    cascades: list[tuple[str, float]] = field(default_factory=list)
    # Per-event injection labels: (event_index, burst_id, kind), where
    # event_index points into the sorted list generate() returned,
    # burst_id is the injection's index within its kind (storm i /
    # cabinet burst j) and kind is "storm" or "cabinet_burst".  Lets
    # detection benches score precision/recall without re-deriving
    # which events were injected.
    labels: list[tuple[int, int, str]] = field(default_factory=list)


class LogGenerator:
    """Generates the synthetic event stream for a (possibly shrunk) Titan.

    Parameters
    ----------
    topology:
        The machine to generate for.
    registry:
        Event-type catalogue (defaults to the Titan registry).
    seed:
        RNG seed; generation is fully deterministic given it.
    rate_multiplier:
        Scales every base rate (use >1 to densify small experiments).
    hot_node_fraction:
        Fraction of nodes boosted ``hot_multiplier``-fold, for the
        hot-spot types (MCE, DRAM_CE, GPU_SBE).
    storms_per_day / storm_events_per_node:
        Lustre-storm schedule and intensity; a storm afflicts
        ``storm_node_fraction`` of the nodes.
    cascade_prob:
        Probability a DRAM_UE develops into the panic/heartbeat cascade.
    weibull_shape:
        Burstiness of baseline arrivals (1.0 = Poisson).
    """

    HOT_TYPES = ("MCE", "DRAM_CE", "GPU_SBE")
    hot_multiplier = 25.0
    storm_node_fraction = 0.8

    def __init__(
        self,
        topology: TitanTopology,
        registry: EventRegistry | None = None,
        *,
        seed: int = 2017,
        rate_multiplier: float = 1.0,
        hot_node_fraction: float = 0.02,
        storms_per_day: float = 1.0,
        storm_events_per_node: float = 4.0,
        cascade_prob: float = 0.6,
        weibull_shape: float = 0.7,
        diurnal_amplitude: float = 0.0,
        cabinet_burst_rate_per_day: float = 0.0,
        cabinet_burst_links: int = 12,
    ):
        if rate_multiplier <= 0:
            raise ValueError("rate_multiplier must be positive")
        if not (0.0 <= hot_node_fraction <= 1.0):
            raise ValueError("hot_node_fraction must be in [0, 1]")
        self.topology = topology
        self.registry = registry or default_registry()
        self.seed = seed
        self.rate_multiplier = rate_multiplier
        self.hot_node_fraction = hot_node_fraction
        self.storms_per_day = storms_per_day
        self.storm_events_per_node = storm_events_per_node
        self.cascade_prob = cascade_prob
        self.weibull_shape = weibull_shape
        if not (0.0 <= diurnal_amplitude <= 1.0):
            raise ValueError("diurnal_amplitude must be in [0, 1]")
        # Application-driven types follow the day/night job cycle:
        # rate(t) = base * (1 + A sin(2π (t - 6h)/24h)), peaking mid-day.
        self.diurnal_amplitude = diurnal_amplitude
        self.cabinet_burst_rate_per_day = cabinet_burst_rate_per_day
        self.cabinet_burst_links = cabinet_burst_links

        self._cnames = [loc.cname for loc in topology.nodes()]
        # Network events are reported per Gemini router (one per node pair).
        self._geminis = sorted(
            {loc.gemini_id for loc in topology.nodes()}
        )
        self.ground_truth = GroundTruth()
        self._injection_tags: dict[int, tuple[int, str]] = {}

    # -- public API ----------------------------------------------------------

    def generate(self, hours: float) -> list[GeneratedEvent]:
        """All synthetic events for ``hours`` of operation, time-sorted."""
        if hours <= 0:
            raise ValueError("hours must be positive")
        rng = np.random.default_rng(self.seed)
        horizon = hours * 3600.0
        self.ground_truth = GroundTruth()
        # Injected events tagged by object identity while every event is
        # still alive in `events`; resolved to sorted indices below.
        self._injection_tags: dict[int, tuple[int, str]] = {}
        events: list[GeneratedEvent] = []
        events.extend(self._baseline(rng, horizon))
        events.extend(self._storms(rng, horizon))
        events.extend(self._cabinet_bursts(rng, horizon))
        events.extend(self._cascades(rng, events, horizon))
        events.sort(key=lambda e: (e.ts, e.type, e.component))
        for index, event in enumerate(events):
            tag = self._injection_tags.get(id(event))
            if tag is not None:
                self.ground_truth.labels.append((index, tag[0], tag[1]))
        self._injection_tags = {}
        return events

    def raw_lines(self, events: Iterable[GeneratedEvent]) -> Iterator[str]:
        """Render events as unstructured log lines (ETL input)."""
        return (render_line(e) for e in events)

    def write_log_files(self, directory, events: Iterable[GeneratedEvent]
                        ) -> dict[str, str]:
        """Write one raw log file per source stream (console/netwatch/app).

        Returns ``{source_name: path}`` — the batch-ETL entry point.
        """
        import os

        handles = {}
        paths = {}
        names = {
            LogSource.CONSOLE: "console.log",
            LogSource.NETWORK: "netwatch.log",
            LogSource.APPLICATION: "apps.log",
        }
        os.makedirs(directory, exist_ok=True)
        try:
            for source, fname in names.items():
                path = os.path.join(directory, fname)
                handles[source] = open(path, "w", encoding="utf-8")
                paths[source.value] = path
            for event in events:
                handles[event.source].write(render_line(event) + "\n")
        finally:
            for fh in handles.values():
                fh.close()
        return paths

    # -- layers ---------------------------------------------------------------

    def _components_for(self, source_type) -> list[str]:
        if source_type.category == "network":
            return self._geminis
        return self._cnames

    # Event categories that track the application workload, i.e. follow
    # the diurnal job cycle when diurnal_amplitude > 0.
    _DIURNAL_CATEGORIES = ("application", "software", "filesystem")

    def _diurnal_thin(self, times: np.ndarray, rng: np.random.Generator
                      ) -> np.ndarray:
        """Thin a (peak-rate) arrival stream to the diurnal profile.

        Standard thinning for inhomogeneous processes: keep an arrival
        at time t with probability rate(t)/rate_max.
        """
        if self.diurnal_amplitude == 0.0 or times.size == 0:
            return times
        amp = self.diurnal_amplitude
        phase = 2.0 * np.pi * (times - 6 * 3600.0) / 86_400.0
        accept = (1.0 + amp * np.sin(phase)) / (1.0 + amp)
        return times[rng.random(times.size) < accept]

    def _baseline(self, rng: np.random.Generator, horizon: float
                  ) -> list[GeneratedEvent]:
        out: list[GeneratedEvent] = []
        for etype in sorted(self.registry, key=lambda t: t.name):
            comps = self._components_for(etype)
            # Aggregate arrival rate over all components, events/second.
            agg_rate = (
                etype.base_rate * self.rate_multiplier * len(comps) / 3600.0
            )
            diurnal = (self.diurnal_amplitude > 0
                       and etype.category in self._DIURNAL_CATEGORIES)
            if diurnal:
                # Generate at the peak rate, then thin to the profile.
                agg_rate *= (1.0 + self.diurnal_amplitude)
            times = weibull_arrivals(
                agg_rate, self.weibull_shape, 0.0, horizon, rng
            )
            if diurnal:
                times = self._diurnal_thin(times, rng)
            if times.size == 0:
                continue
            if etype.name in self.HOT_TYPES and self.hot_node_fraction > 0:
                num_hot = max(1, int(len(comps) * self.hot_node_fraction))
                weights, hot_idx = hotspot_weights(
                    len(comps), num_hot, self.hot_multiplier, rng
                )
                self.ground_truth.hot_nodes[etype.name] = [
                    comps[i] for i in hot_idx
                ]
            else:
                weights = None
            placed = rng.choice(len(comps), size=times.size, p=weights)
            for ts, comp_idx in zip(times, placed):
                out.append(self._make_event(etype, float(ts),
                                            comps[int(comp_idx)], rng))
        return out

    def _make_event(self, etype, ts: float, component: str,
                    rng: np.random.Generator) -> GeneratedEvent:
        attrs: dict = {}
        amount = 1
        name = etype.name
        if name == "MCE":
            attrs = {"bank": int(rng.integers(0, 6)),
                     "cpu": int(rng.integers(0, 16)),
                     "status": int(rng.integers(1 << 60, 1 << 63))}
        elif name in ("DRAM_CE", "DRAM_UE"):
            attrs = {"mc": int(rng.integers(0, 4)),
                     "addr": int(rng.integers(1 << 30, 1 << 38)),
                     "row": int(rng.integers(0, 64)),
                     "channel": int(rng.integers(0, 2))}
            if name == "DRAM_CE":
                amount = int(rng.geometric(0.6))
        elif name == "GPU_XID":
            attrs = {"xid": int(rng.choice(_XID_CODES)),
                     "gpc": int(rng.integers(0, 4))}
        elif name in ("GPU_DBE", "GPU_SBE"):
            attrs = {"addr": int(rng.integers(1 << 20, 1 << 32))}
            if name == "GPU_SBE":
                amount = int(rng.geometric(0.5))
        elif name == "LUSTRE_ERR":
            attrs = {"ost": f"atlas-OST{int(rng.integers(0, 1008)):04x}",
                     "rc": int(rng.choice(_LUSTRE_RCS)),
                     "pid": int(rng.integers(1000, 65000))}
        elif name == "DVS_ERR":
            attrs = {"server": f"dvs{int(rng.integers(1, 9)):02d}"}
        elif name in ("NET_LINK_FAIL", "NET_LANE_DEGRADE"):
            attrs = {"gemini": component,
                     "lcb": f"{int(rng.integers(0, 48)):03d}",
                     "ber": f"{rng.uniform(1, 9):.1f}e-{int(rng.integers(6, 9))}"}
        elif name == "NET_THROTTLE":
            attrs = {"watermark": int(rng.integers(60, 100))}
        elif name == "OOM":
            attrs = {"pid": int(rng.integers(1000, 65000)),
                     "proc": "xhpl", "score": int(rng.integers(500, 1000))}
        elif name == "SEGFAULT":
            attrs = {"pid": int(rng.integers(1000, 65000)),
                     "proc": "a.out",
                     "addr": int(rng.integers(0, 1 << 32)),
                     "ip": int(rng.integers(1 << 22, 1 << 24)),
                     "sp": int(rng.integers(1 << 30, 1 << 32))}
        elif name == "APP_ABORT":
            attrs = {"apid": int(rng.integers(5_000_000, 6_000_000)),
                     "exit_code": int(rng.choice([1, 134, 137, 139, 255]))}
        elif name == "KERNEL_PANIC":
            attrs = {"rip": int(rng.integers(1 << 62, 1 << 63))}
        elif name == "HEARTBEAT_FAULT":
            attrs = {"alert": int(rng.integers(1, 1 << 12))}
        return GeneratedEvent(
            ts=ts, type=name, component=component,
            source=etype.source, amount=amount, attrs=attrs,
        )

    def _storms(self, rng: np.random.Generator, horizon: float
                ) -> list[GeneratedEvent]:
        out: list[GeneratedEvent] = []
        if self.storms_per_day <= 0:
            return out
        etype = self.registry.get("LUSTRE_ERR")
        triggers = poisson_arrivals(
            self.storms_per_day / 86_400.0, 0.0, horizon, rng
        )
        if triggers.size == 0 and self.storms_per_day * horizon >= 43_200.0:
            # The Poisson draw can legitimately produce zero storms, but
            # experiments sized for "at least half an expected storm"
            # (Fig 7 reproductions) need one to exist; inject a single
            # deterministic-position storm in that case.
            triggers = np.array([float(rng.uniform(0.2, 0.8)) * horizon])
        n_nodes = len(self._cnames)
        for storm_id, start in enumerate(triggers):
            duration = float(rng.uniform(120.0, 600.0))
            ost = f"atlas-OST{int(rng.integers(0, 1008)):04x}"
            afflicted = rng.choice(
                n_nodes,
                size=max(1, int(n_nodes * self.storm_node_fraction)),
                replace=False,
            )
            counts = rng.poisson(self.storm_events_per_node, size=afflicted.size)
            total = 0
            for node_idx, count in zip(afflicted, counts):
                if count == 0:
                    continue
                offsets = rng.uniform(0.0, duration, size=count)
                for off in offsets:
                    ts = float(start + off)
                    if ts >= horizon:
                        continue
                    event = GeneratedEvent(
                        ts=ts, type="LUSTRE_ERR",
                        component=self._cnames[int(node_idx)],
                        source=etype.source,
                        attrs={"ost": ost,
                               "rc": int(rng.choice(_LUSTRE_RCS)),
                               "pid": int(rng.integers(1000, 65000))},
                    )
                    out.append(event)
                    self._injection_tags[id(event)] = (storm_id, "storm")
                    total += 1
            self.ground_truth.storms.append(
                StormInfo(float(start), duration, ost, total)
            )
        return out

    def _cabinet_bursts(self, rng: np.random.Generator, horizon: float
                        ) -> list[GeneratedEvent]:
        """Spatially-correlated network failures: a cabinet-level event
        (power glitch, mezzanine fault) degrades many Gemini links of
        one cabinet within a minute.  Off by default
        (``cabinet_burst_rate_per_day = 0``)."""
        out: list[GeneratedEvent] = []
        if self.cabinet_burst_rate_per_day <= 0:
            return out
        etype = self.registry.get("NET_LANE_DEGRADE")
        triggers = poisson_arrivals(
            self.cabinet_burst_rate_per_day / 86_400.0, 0.0, horizon, rng
        )
        # Group Gemini links by owning cabinet ("c{col}-{row}" prefix).
        import re as _re

        by_cabinet: dict[str, list[str]] = {}
        for gemini in self._geminis:
            m = _re.match(r"^(c\d+-\d+)", gemini)
            by_cabinet.setdefault(m.group(1) if m else gemini,
                                  []).append(gemini)
        cab_names = sorted(by_cabinet)
        for burst_id, start in enumerate(triggers):
            cab = cab_names[int(rng.integers(0, len(cab_names)))]
            links = by_cabinet[cab]
            chosen = rng.choice(
                len(links),
                size=min(self.cabinet_burst_links, len(links)),
                replace=False,
            )
            for link_idx in chosen:
                ts = float(start + rng.uniform(0.0, 60.0))
                if ts >= horizon:
                    continue
                event = GeneratedEvent(
                    ts=ts, type="NET_LANE_DEGRADE",
                    component=links[int(link_idx)],
                    source=etype.source,
                    attrs={"gemini": links[int(link_idx)],
                           "ber": f"{rng.uniform(1, 9):.1f}e-6"},
                )
                out.append(event)
                self._injection_tags[id(event)] = (burst_id, "cabinet_burst")
        return out

    def _cascades(self, rng: np.random.Generator,
                  events: list[GeneratedEvent],
                  horizon: float) -> list[GeneratedEvent]:
        out: list[GeneratedEvent] = []
        panic = self.registry.get("KERNEL_PANIC")
        heartbeat = self.registry.get("HEARTBEAT_FAULT")
        for event in events:
            if event.type != "DRAM_UE":
                continue
            if rng.random() >= self.cascade_prob:
                continue
            panic_ts = event.ts + float(rng.uniform(1.0, 20.0))
            hb_ts = panic_ts + float(rng.uniform(5.0, 60.0))
            if hb_ts >= horizon:
                # A cascade straddling the horizon would be partially
                # observed; keep generate()'s contract (all events within
                # the window, ground truth = complete cascades only).
                continue
            out.append(GeneratedEvent(
                ts=panic_ts, type="KERNEL_PANIC", component=event.component,
                source=panic.source,
                attrs={"rip": int(rng.integers(1 << 62, 1 << 63))},
            ))
            out.append(GeneratedEvent(
                ts=hb_ts, type="HEARTBEAT_FAULT", component=event.component,
                source=heartbeat.source,
                attrs={"alert": int(rng.integers(1, 1 << 12))},
            ))
            self.ground_truth.cascades.append((event.component, event.ts))
        return out
