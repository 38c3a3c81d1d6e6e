"""Seeded inputs of the end-to-end benchmark, and the plain-Python
reference its correctness checks compare the program's answers with.

Everything here is derived from the ``--seed`` argument alone: the
preloaded history, the request lists, the live line stream and the ETL
files.  The program under test receives only these inputs (events to
preload, request dicts, raw log lines, file paths) — never the seed.
"""

from __future__ import annotations

import bisect
import dataclasses
import hashlib
import itertools
import json
import random
import re
from collections import Counter, defaultdict
from typing import Any, Iterator

from repro.genlog import JobGenerator, LogGenerator, render_line
from repro.titan import TitanTopology
from repro.titan.events import default_registry

# Distinct generator seeds per input, so no two inputs of one run (or
# of neighbouring --seed values) are the same event list.
_LIVE_SALT = 1_000_003
_STORM_SALT = 2_000_003
_ETL_SALT = 3_000_003

ZIPF_S = 1.1
_CABINET = re.compile(r"^(c\d+-\d+)")


@dataclasses.dataclass(frozen=True)
class Scale:
    """Input sizes.  ``FULL`` is the benchmark; ``QUICK`` is a smoke
    size whose numbers are not comparable with anything."""

    name: str
    hours: int                  # preloaded history; live data starts here
    preload_rate: float         # LogGenerator rate_multiplier of the history
    live_rate: float            # ... of the live stream (~10 lines/logical s)
    live_hours_per_second: float  # stream_ingest input per second of run
    history_storms: int         # Lustre storms in the preloaded history
    storm_period_s: float       # live stream: one storm starts every ...
    storm_duration_s: float     # ... and lasts this long
    storm_events_per_node: float
    etl_sets: int               # ETL file sets, each ingested by one call
    etl_hours_per_set: float
    etl_rate: float
    warm_requests: int
    setups: int                 # set-ups timed per run (median reported)


# Live storms: 15 events on each of 80 % of the nodes in 150 s is the
# ~30 lines/s over a ~1.4 lines/s filesystem baseline that bench_s12's
# storms are (30 per node over 120-600 s).  Twelve ETL sets: the
# collector's third full pass comes in the 10th or 11th, its fourth
# would come in the 14th or 15th (see workloads.BatchAnalytics).
FULL = Scale("full", hours=24, preload_rate=100.0, live_rate=3000.0,
             live_hours_per_second=0.085, history_storms=4,
             storm_period_s=600.0, storm_duration_s=150.0,
             storm_events_per_node=15.0, etl_sets=12, etl_hours_per_set=0.15,
             etl_rate=1500.0, warm_requests=200, setups=2)
QUICK = Scale("quick", hours=6, preload_rate=40.0, live_rate=3000.0,
              live_hours_per_second=0.065, history_storms=1,
              storm_period_s=240.0, storm_duration_s=60.0,
              storm_events_per_node=6.0, etl_sets=3, etl_hours_per_set=0.1,
              etl_rate=1500.0, warm_requests=40, setups=1)


def topology() -> TitanTopology:
    return TitanTopology(rows=1, cols=4)  # 384 nodes, 192 Gemini routers


def _rng(seed: int, purpose: str) -> random.Random:
    # str seeds hash through SHA-512, so the stream does not depend on
    # PYTHONHASHSEED.
    return random.Random(f"e2e:{seed}:{purpose}")


# -- preloaded history ------------------------------------------------------


def preload(seed: int, scale: Scale):
    """(events, runs) of the preloaded history, hours [0, scale.hours):
    baseline traffic plus ``scale.history_storms`` Lustre storms of the
    generator's default intensity, one in each equal part of the day."""
    topo = topology()
    events = LogGenerator(topo, seed=seed, rate_multiplier=scale.preload_rate,
                          storms_per_day=0.0).generate(scale.hours)
    rng = _rng(seed, "history-storms")
    part = scale.hours * 3600.0 / scale.history_storms
    for k, storm in enumerate(
            _labelled_storms(seed, scale.history_storms, 4.0, None)):
        start = (k + rng.uniform(0.1, 0.7)) * part
        events.extend(dataclasses.replace(e, ts=start + rel)
                      for e, rel in storm)
    events.sort(key=lambda e: (e.ts, e.type, e.component))
    runs = JobGenerator(topo, seed=seed).generate(scale.hours)
    return events, runs


# -- request lists ----------------------------------------------------------

# (kind, weight): the frontend mix.  Only the two cql kinds go through
# the server's result cache.
READ_MIX = (("events", 30), ("heatmap", 20), ("histogram", 10),
            ("hotspots", 10), ("cql_window", 12), ("cql_group", 10),
            ("runs", 4), ("synopsis", 4))

CQL_WINDOW = ("SELECT * FROM event_by_time WHERE hour = ? AND type = ?"
              " AND ts >= ? LIMIT 50")
CQL_GROUP = ("SELECT source, count(*) FROM event_by_time"
             " WHERE hour = ? AND type = ? GROUP BY source")
# Unrouted (no partition key): compiles to a sparklet full-scan job.
CQL_BY_TYPE = "SELECT type, count(*) FROM event_by_time GROUP BY type"
CQL_BY_TYPE_SINCE = ("SELECT type, count(*) FROM event_by_time"
                     " WHERE ts >= ? GROUP BY type")


def types_by_rate() -> list[str]:
    """Event types, commonest first (the registry's base rates)."""
    return [t.name for t in sorted(default_registry(),
                                   key=lambda t: (-t.base_rate, t.name))]


def _zipf_weights(n: int) -> list[float]:
    """Weight of rank r (0 = hottest): 1 / (r + 1) ** ZIPF_S."""
    return [1.0 / (rank + 1) ** ZIPF_S for rank in range(n)]


def _schedule(weighted: list[tuple[Any, float]], length: int) -> list:
    """*length* items in the proportions of *weighted* (largest
    remainder), in an order that is fixed across seeds.

    Request kinds (and, for the few hundred jobs of a batch run, event
    types) cycle through such a schedule: a kind's cost differs from
    another's tenfold, so drawing kinds at random would make one
    seed's run heavier than the next seed's by chance alone.  The seed
    picks where in the cycle a client starts and everything else.
    """
    total = sum(w for _, w in weighted)
    shares = [(item, w / total * length) for item, w in weighted]
    out = [item for item, share in shares for _ in range(int(share))]
    by_remainder = sorted(shares, key=lambda s: s[1] - int(s[1]),
                          reverse=True)
    out.extend(item for item, _ in by_remainder[:length - len(out)])
    random.Random("e2e:schedule").shuffle(out)
    return out


def _hour_context(hour: int, etype: str | None = None,
                  span_hours: int = 1) -> dict[str, Any]:
    return {"t0": max(0, hour + 1 - span_hours) * 3600.0,
            "t1": (hour + 1) * 3600.0,
            "event_types": [etype] if etype else None}


def build_request(kind: str, hour: int, etype: str, quarter: int
                  ) -> tuple[tuple, dict[str, Any]]:
    """One frontend request and the key that identifies it."""
    if kind == "events":
        return (kind, hour, etype), {
            "op": "events", "context": _hour_context(hour, etype),
            "limit": 200}
    if kind == "heatmap":
        return (kind, hour, etype), {
            "op": "heatmap", "context": _hour_context(hour, etype)}
    if kind == "histogram":
        return (kind, hour, etype), {
            "op": "histogram", "num_bins": 48,
            "context": _hour_context(hour, etype, span_hours=6)}
    if kind == "hotspots":
        return (kind, hour, etype), {
            "op": "hotspots", "context": _hour_context(hour, etype)}
    if kind == "cql_window":
        return (kind, hour, etype, quarter), {
            "op": "cql", "statement": CQL_WINDOW,
            "params": [hour, etype, hour * 3600.0 + quarter * 900.0]}
    if kind == "cql_group":
        return (kind, hour, etype), {
            "op": "cql", "statement": CQL_GROUP, "params": [hour, etype]}
    if kind == "runs":
        return (kind, hour), {"op": "runs", "context": _hour_context(hour)}
    if kind == "synopsis":
        return (kind, hour), {"op": "synopsis", "hour": hour}
    raise ValueError(f"unknown request kind: {kind}")


def read_requests(seed: int, scale: Scale, *, live_share: float = 0.0
                  ) -> Iterator[tuple[tuple, dict[str, Any]]]:
    """The endless frontend request list of one client.

    Hour and event type are Zipf-skewed: the newest preloaded hour and
    the commonest type are hottest.  With ``live_share`` > 0 that share
    of requests instead lands on the two hours around the live edge
    (the last preloaded hour and the hour being ingested).
    """
    rng = _rng(seed, f"requests:{live_share}")
    kinds = _schedule(list(READ_MIX), 100)
    types = types_by_rate()
    # Newest preloaded hour first.
    hours = range(scale.hours - 1, -1, -1)
    hour_weights = _zipf_weights(scale.hours)
    type_weights = _zipf_weights(len(types))
    for turn in itertools.count(rng.randrange(len(kinds))):
        kind = kinds[turn % len(kinds)]
        if rng.random() < live_share:
            hour = scale.hours - 1 + rng.randrange(2)
        else:
            hour = rng.choices(hours, hour_weights)[0]
        etype = rng.choices(types, type_weights)[0]
        yield build_request(kind, hour, etype, rng.randrange(4))


# (kind, weight) of the analytics jobs; every one is a server op.
JOB_MIX = (("heatmap_day", 22), ("by_application", 14),
           ("transfer_entropy", 14), ("cross_correlation", 12),
           ("keywords", 12), ("association_rules", 10),
           ("cql_by_type", 6), ("refresh_synopsis", 4))


def job_requests(seed: int, scale: Scale
                 ) -> Iterator[tuple[tuple, dict[str, Any]]]:
    """The endless job list of the batch client."""
    rng = _rng(seed, "jobs")
    names = types_by_rate()
    zipf = list(zip(names, _zipf_weights(len(names))))
    # One slot per unit of weight, each kind's slots spread over the
    # event types in Zipf proportion: a few hundred jobs are too few to
    # leave either to chance, so every run cycles through the same
    # (kind, type) pairs and the seed picks where it starts.
    pairs = _schedule([((kind, etype), 1.0) for kind, weight in JOB_MIX
                       for etype in _schedule(zipf, weight)],
                      sum(w for _, w in JOB_MIX))
    whole = {"t0": 0.0, "t1": scale.hours * 3600.0}
    half = {"t0": whole["t1"] / 2, "t1": whole["t1"]}
    for turn in itertools.count(rng.randrange(len(pairs))):
        kind, etype = pairs[turn % len(pairs)]
        other = names[rng.randrange(4)]
        hour = rng.randrange(scale.hours)
        if kind == "heatmap_day":
            yield (kind, etype), {
                "op": "heatmap", "granularity": "cabinet",
                "context": {**whole, "event_types": [etype]}}
        elif kind == "by_application":
            yield (kind, etype, hour), {
                "op": "distribution_by_application",
                "context": _hour_context(hour, etype, span_hours=6)}
        elif kind == "transfer_entropy":
            yield (kind, etype, other), {
                "op": "transfer_entropy", "source_type": etype,
                "target_type": other, "n_shuffles": 50,
                "context": {**half, "event_types": None}}
        elif kind == "cross_correlation":
            yield (kind, etype, other), {
                "op": "cross_correlation", "type_a": etype, "type_b": other,
                "context": {**half, "event_types": None}}
        elif kind == "keywords":
            yield (kind, etype, hour), {
                "op": "keywords", "n": 10,
                "context": _hour_context(hour, etype, span_hours=6)}
        elif kind == "association_rules":
            yield (kind, hour), {
                "op": "association_rules", "context": _hour_context(hour)}
        elif kind == "cql_by_type":
            # A fresh bound every time, so the result cache never has it.
            since = round(rng.uniform(0.0, whole["t1"]), 1)
            yield (kind, since), {"op": "cql", "statement": CQL_BY_TYPE_SINCE,
                                  "params": [since]}
        else:
            yield (kind,), {"op": "refresh_synopsis"}


# -- live line stream -------------------------------------------------------


@dataclasses.dataclass
class LineStream:
    """Raw log lines in time order, with what the checks need to know
    about them (the program sees only ``lines``)."""

    ts: list[float]
    lines: list[str]
    amounts: list[int]
    storms: list[tuple[float, float]]   # labelled (start, end), merged

    def upto(self, start: int, ts_limit: float) -> int:
        """Index of the first line at or after *ts_limit*."""
        return bisect.bisect_left(self.ts, ts_limit, lo=start)


def _labelled_storms(seed: int, count: int, events_per_node: float,
                     duration: float | None):
    """*count* labelled Lustre storms, each a list of (event, seconds
    after the storm's start), rescaled to last *duration* seconds when
    one is given.

    The generator places storms as a Poisson process, so one seed's
    day would carry two storms and the next seed's seven, and data
    volume, lines/s and tail latency would follow the storm share
    rather than the program.  The benchmark instead lifts whole
    labelled storms out of a storm-only pool and places a fixed number
    itself; the seed decides which storms and when.
    """
    pool_hours = max(2.0, count / 4.0 * 1.5 + 1.0)
    gen = LogGenerator(topology(), seed=seed + _STORM_SALT,
                       rate_multiplier=0.01, storms_per_day=96.0,
                       storm_events_per_node=events_per_node)
    events = gen.generate(pool_hours)
    by_storm: dict[int, list] = defaultdict(list)
    for index, storm_id, kind in gen.ground_truth.labels:
        if kind == "storm":
            by_storm[storm_id].append(events[index])
    whole = [
        (info, by_storm[i])
        for i, info in enumerate(gen.ground_truth.storms)
        if info.start + info.duration < pool_hours * 3600.0 and by_storm[i]
    ]
    if not whole:
        raise RuntimeError("storm pool holds no complete storm")
    out = []
    for k in range(count):
        info, storm_events = whole[k % len(whole)]
        stretch = duration / info.duration if duration else 1.0
        out.append([(e, (e.ts - info.start) * stretch) for e in storm_events])
    return out


def live_stream(seed: int, scale: Scale, hours: float, *, storms: bool
                ) -> LineStream:
    """The live stream: *hours* of dense traffic starting at
    ``scale.hours``, rendered to raw lines."""
    offset = scale.hours * 3600.0
    horizon = hours * 3600.0
    base = LogGenerator(topology(), seed=seed + _LIVE_SALT,
                        rate_multiplier=scale.live_rate,
                        storms_per_day=0.0).generate(hours)
    # Timestamps are cut to the millisecond the rendered line carries,
    # so the reference and the parser agree on every event's second.
    shifted = [dataclasses.replace(e, ts=round(e.ts + offset, 3))
               for e in base]
    labelled: list[tuple[float, float]] = []
    if storms:
        # Not in the first minutes: the storm detector is still
        # learning its baseline, and an early false onset that runs
        # into a real storm swallows that storm's alert.
        phase = _rng(seed, "storm-phase").uniform(0.5, 0.75) \
            * scale.storm_period_s
        starts = []
        while phase + scale.storm_duration_s < horizon:
            starts.append(phase)
            phase += scale.storm_period_s
        for start, storm in zip(
                starts, _labelled_storms(seed, len(starts),
                                         scale.storm_events_per_node,
                                         scale.storm_duration_s)):
            shifted.extend(
                dataclasses.replace(e, ts=round(offset + start + rel, 3))
                for e, rel in storm)
            labelled.append((offset + start,
                             offset + start + scale.storm_duration_s))
    shifted.sort(key=lambda e: (e.ts, e.type, e.component))
    return LineStream(
        ts=[e.ts for e in shifted],
        lines=[render_line(e) for e in shifted],
        amounts=[e.amount for e in shifted],
        storms=labelled,
    )


def etl_file_sets(seed: int, scale: Scale, directory: str
                  ) -> list[tuple[list[str], list[str]]]:
    """``scale.etl_sets`` sets of raw log files under *directory*;
    returns, per set, (paths, lines).  Events sit at hour
    ``2 * scale.hours`` and later so they touch no partition the jobs
    read."""
    gen = LogGenerator(topology(), seed=seed + _ETL_SALT,
                       rate_multiplier=scale.etl_rate, storms_per_day=0.0)
    events = gen.generate(scale.etl_sets * scale.etl_hours_per_set)
    offset = 2 * scale.hours * 3600.0
    span = scale.etl_hours_per_set * 3600.0
    sets = []
    for k in range(scale.etl_sets):
        subset = [dataclasses.replace(e, ts=e.ts + offset) for e in events
                  if k * span <= e.ts < (k + 1) * span]
        paths = gen.write_log_files(f"{directory}/set{k}", subset)
        sets.append((sorted(paths.values()),
                     [render_line(e) for e in subset]))
    return sets


def digest(items) -> str:
    """SHA-256 over the canonical JSON of each item (self-test)."""
    h = hashlib.sha256()
    for item in items:
        h.update(json.dumps(item, sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


# -- plain-Python reference -------------------------------------------------


class Reference:
    """Expected answers over the preloaded history, computed from the
    generated event and run lists with plain Python."""

    def __init__(self, events, runs, scale: Scale):
        self.hours = scale.hours
        self.runs = runs
        self.by_hour_type: dict[tuple[int, str], list] = defaultdict(list)
        for e in events:   # generate() returns them time-sorted
            self.by_hour_type[(int(e.ts // 3600), e.type)].append(e)

    CHECKED = frozenset({"events", "heatmap", "hotspots", "histogram",
                         "cql_window", "cql_group", "runs", "synopsis",
                         "heatmap_day"})

    def covers(self, key: tuple) -> bool:
        """Whether :meth:`check` has an answer for the request: a
        checked kind that reads only preloaded (immutable) hours."""
        hour = key[1] if len(key) > 1 and isinstance(key[1], int) else None
        return key[0] in self.CHECKED and (hour is None or hour < self.hours)

    def _events(self, hour: int, etype: str, span_hours: int = 1):
        out = []
        for h in range(max(0, hour + 1 - span_hours), hour + 1):
            out.extend(self.by_hour_type.get((h, etype), ()))
        return out

    def check(self, key: tuple, request: dict, result: Any) -> str | None:
        """None when *result* is right, else what is wrong with it."""
        kind = key[0]
        if kind == "events":
            want = self._events(key[1], key[2])
            if len(result) != min(200, len(want)):
                return f"{len(result)} rows, want {min(200, len(want))}"
            if result and result[0]["ts"] != want[0].ts:
                return "first row is not the earliest event"
        elif kind in ("heatmap", "hotspots"):
            cells = Counter()
            for e in self._events(key[1], key[2]):
                cells[e.component] += e.amount
            if kind == "heatmap":
                if result != dict(cells):
                    return "heat-map cells differ"
            elif any(h["count"] != cells[h["component"]] for h in result):
                return "hot-spot count differs from the heat map"
        elif kind == "histogram":
            ctx = request["context"]
            bins = request["num_bins"]
            width = (ctx["t1"] - ctx["t0"]) / bins
            want_counts = [0] * bins
            for e in self._events(key[1], key[2], span_hours=6):
                idx = min(int((e.ts - ctx["t0"]) / width), bins - 1)
                want_counts[idx] += e.amount
            if list(result["counts"]) != want_counts:
                return "histogram counts differ"
        elif kind == "cql_window":
            floor = request["params"][2]
            want_n = sum(1 for e in self._events(key[1], key[2])
                         if e.ts >= floor)
            if len(result) != min(50, want_n):
                return f"{len(result)} rows, want {min(50, want_n)}"
        elif kind == "cql_group":
            want_groups = Counter(
                e.component for e in self._events(key[1], key[2]))
            got = {r["source"]: r["count"] for r in result}
            if got != dict(want_groups):
                return "GROUP BY source counts differ"
        elif kind == "runs":
            t0, t1 = key[1] * 3600.0, (key[1] + 1) * 3600.0
            want_n = sum(1 for r in self.runs if r.start < t1 and r.end > t0)
            if len(result) != want_n:
                return f"{len(result)} runs, want {want_n}"
        elif kind == "synopsis":
            want_syn = {}
            for (hour, etype), evs in self.by_hour_type.items():
                if hour == key[1]:
                    want_syn[etype] = (len(evs), sum(e.amount for e in evs))
            got = {r["type"]: (r["occurrences"], r["total_amount"])
                   for r in result}
            if got != want_syn:
                return "synopsis differs"
        elif kind == "heatmap_day":
            cells = Counter()
            for e in self._events(self.hours - 1, key[1],
                                  span_hours=self.hours):
                cells[_CABINET.match(e.component).group(1)] += e.amount
            if result != dict(cells):
                return "day heat-map cells differ"
        return None

    def type_counts(self) -> Counter:
        """Rows of ``event_by_time`` per event type (one per event)."""
        counts: Counter = Counter()
        for (_, etype), evs in self.by_hour_type.items():
            counts[etype] += len(evs)
        return counts
