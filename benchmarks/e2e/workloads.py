"""The four workloads: set-up, measured phase, correctness checks.

Every workload drives the shipped defaults of ``LogAnalyticsFramework``
+ ``AnalyticsServer`` through their public calls only.  A workload
object is used as::

    w = WORKLOADS[name](seed, scale, seconds)   # generates the inputs
    w.deploy()          # one set-up, warm-up included (timed by run.py)
    result = w.phase(seconds)                   # measured
    w.verify()                                  # fills w.failures
    w.close()

``phase`` may be called again and continues where the inputs stopped,
which is how a traced run measures an untraced reference stretch first.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import math
import os
import shutil
import tempfile
import threading
import time
from collections import Counter
from typing import Any, Iterator

from repro import obs
from repro.bus import MessageBus
from repro.core import AnalyticsServer, LogAnalyticsFramework
from repro.ingest import LogProducer, coalesce_events, default_parser

import inputs
from inputs import Scale
from stats import Speedometer, percentile

WORK_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".work")

ITERATION_LOGICAL_S = 10.0      # stream_ingest: logical seconds per op
TICK_S = 0.05                   # mixed_live: ingest tick
LINES_PER_TICK = 25             # ... 500 lines/s
MIXED_REQUEST_HZ = 100.0
MIXED_LIVE_SHARE = 0.6
READ_BACK_EVERY = 40            # mixed_live: ticks between read-back checks
MIN_STORM_RECALL = 0.8          # the gate bench_s12 uses
ONSET_SLACK_S = 3.0


@dataclasses.dataclass
class PhaseResult:
    wall_s: float
    latencies_ms: list[float]       # one per completed operation
    work: float                     # numerator of throughput_per_s
    work_s: float                   # its denominator
    slowness: float                 # machine slowness while the ops ran
    work_slowness: float | None = None  # ... while the work ran, if apart
    extra: dict[str, Any] = dataclasses.field(default_factory=dict)


class Workload:
    """Shared plumbing: deployment, request bookkeeping, checks."""

    name = ""
    streaming = False               # attach bus + streaming ingest + detect

    def __init__(self, seed: int, scale: Scale, seconds: float):
        self.seed, self.scale = seed, scale
        self.events, self.runs = inputs.preload(seed, scale)
        self.reference = inputs.Reference(self.events, self.runs, scale)
        self.fw: LogAnalyticsFramework | None = None
        self.attempted = 0          # operations and checks
        self.failures: list[str] = []
        self.first_seen: dict[tuple, tuple[dict, Any]] = {}
        self.speed = Speedometer()

    # -- set-up -----------------------------------------------------------

    def deploy(self) -> None:
        """Build the system from nothing, preload it, warm it up."""
        self._stop()
        fw = LogAnalyticsFramework(inputs.topology(), db_nodes=4,
                                   replication_factor=2).setup()
        self.fw = fw
        fw.ingest_events(self.events)
        fw.ingest_applications(self.runs)
        fw.cluster.flush_all()
        fw.refresh_synopsis()
        self.server = AnalyticsServer(fw)
        if self.streaming:
            self.bus = MessageBus()
            self.producer = LogProducer(self.bus, "events")
            self.ingestor = fw.streaming_ingestor(self.bus, "events")
            self.pipeline = fw.attach_detection(self.ingestor, self.bus)
        self.warm_up()
        # Set-up leaves the collector owing a full pass over a heap it
        # has just built (and, on a repeated set-up, over the previous
        # deployment's garbage); paying it here keeps that pause out of
        # whichever operation would have happened to trigger it.
        gc.collect()

    def warm_up(self) -> None:
        raise NotImplementedError

    def _stop(self) -> None:
        if self.fw is not None:
            self.fw.stop()
            self.fw = None

    def close(self) -> None:
        self._stop()

    # -- bookkeeping ------------------------------------------------------

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def note(self, key: tuple, request: dict, response: dict) -> None:
        """Count one reply; keep each distinct request's first answer
        for the reference comparison after the clock stops."""
        self.attempted += 1
        if not response["ok"]:
            self.failures.append(f"{key}: {response.get('error')}")
        elif key not in self.first_seen and self.reference.covers(key):
            self.first_seen[key] = (request, response["result"])

    def verify_first_seen(self) -> None:
        for key, (request, result) in self.first_seen.items():
            wrong = self.reference.check(key, request, result)
            self.check(wrong is None, f"{key}: {wrong}")

    async def _between_requests(self) -> None:
        """Hook: driver work a client does outside the timed region."""

    async def _client(self, requests: Iterator, seconds: float,
                      latencies: list[float], pace_hz: float | None = None
                      ) -> None:
        """One closed-loop client: the next request goes out when the
        previous reply is in (and, if paced, not before its slot)."""
        handle, clock = self.server.handle, time.perf_counter
        start = clock()
        deadline = start + seconds
        sent = 0
        while True:
            now = clock()
            if pace_hz is not None:
                slot = start + sent / pace_hz
                if slot > now:
                    await asyncio.sleep(slot - now)
                    now = clock()
            if now >= deadline:
                return
            key, request = next(requests)
            began = clock()
            response = await handle(request)
            now = clock()
            latencies.append((now - began) * 1000.0)
            self.note(key, request, response)
            self.speed.sample(now)
            await self._between_requests()
            sent += 1

    def _warm_requests(self, requests: Iterator, count: int) -> None:
        async def warm():
            for _ in range(count):
                key, request = next(requests)
                response = await self.server.handle(request)
                if not response["ok"]:
                    raise RuntimeError(f"warm-up {key}: {response}")
        asyncio.run(warm())

    # -- streaming helpers ------------------------------------------------

    def _tick(self, first: int, last: int) -> None:
        """Publish lines[first:last], make them readable, land alerts."""
        if last > first:
            self.producer.publish_lines(self.stream.lines[first:last])
        self.ingestor.process_available()
        self.pipeline.drain()

    def _amount_by_view(self, first_hour: int, last_hour: int
                        ) -> tuple[int, int]:
        """Summed ``amount`` of the live hours in each event view."""
        cluster = self.fw.cluster
        hours = range(first_hour, last_hour + 1)
        topo = inputs.topology()
        sources = sorted({loc.cname for loc in topo.nodes()}
                         | {loc.gemini_id for loc in topo.nodes()})

        def total(table, keys):
            return sum(
                row["amount"]
                for part in cluster.select_partitions(
                    table, keys, columns=("amount",))
                for row in part)

        by_time = total("event_by_time", [
            (h, t) for h in hours for t in inputs.types_by_rate()])
        by_location = total("event_by_location", [
            (h, s) for h in hours for s in sources])
        return by_time, by_location

    def verify_stream(self, published: int) -> dict[str, float]:
        """End-of-stream checks shared by the two streaming workloads."""
        self.ingestor.flush()
        self.pipeline.drain()
        stream = self.stream
        want = sum(stream.amounts[:published])
        last_hour = int(stream.ts[max(0, published - 1)] // 3600)
        by_time, by_location = self._amount_by_view(self.scale.hours,
                                                    last_hour)
        self.check(by_time == want,
                   f"event_by_time holds amount {by_time}, published {want}")
        self.check(by_location == want,
                   f"event_by_location holds amount {by_location}, "
                   f"published {want}")
        unparsed = self.producer.parser.unparsed
        self.check(unparsed == 0, f"{unparsed} lines failed to parse")
        lag = self.ingestor.lag + self.pipeline.ingestor.lag
        self.check(lag == 0, f"bus lag {lag} after flush")
        return {"parse_failures": unparsed, "lag_end": lag}


class FrontendRead(Workload):
    """One closed-loop client, no think time, read-only flushed store."""

    name = "frontend_read"

    def __init__(self, seed, scale, seconds):
        super().__init__(seed, scale, seconds)
        self.requests = inputs.read_requests(seed, scale)

    def warm_up(self) -> None:
        self._warm_requests(inputs.read_requests(self.seed + 1, self.scale),
                            self.scale.warm_requests)

    def phase(self, seconds: float, share: float = 1.0) -> PhaseResult:
        latencies: list[float] = []
        self.speed.take()
        start = time.perf_counter()
        asyncio.run(self._client(self.requests, seconds, latencies))
        wall = time.perf_counter() - start
        return PhaseResult(wall, latencies, len(latencies), wall,
                           self.speed.take())

    def verify(self) -> dict[str, float]:
        self.verify_first_seen()
        return {}


class StreamIngest(Workload):
    """Closed-loop drain of a fixed stretch of the live stream, no
    readers: each operation publishes the next ten logical seconds of
    raw lines and returns when their rows are readable and their alerts
    have landed.  The input, not the clock, ends the run (it is sized to
    take about ``seconds`` on the seed commit), so every run of a seed
    sees the same storms, the same number of collector passes and the
    same final heap."""

    name = "stream_ingest"
    streaming = True
    PATIENCE = 6.0      # give up after this many times the nominal length

    def __init__(self, seed, scale, seconds):
        super().__init__(seed, scale, seconds)
        self.horizon = seconds * scale.live_hours_per_second * 3600.0
        self.stream = inputs.live_stream(seed, scale, self.horizon / 3600.0,
                                         storms=True)
        self.position = 0
        self.origin = self.logical = scale.hours * 3600.0

    def warm_up(self) -> None:
        # The first record makes the streaming clock walk every empty
        # logical second before the live hour; that is set-up, not load.
        self._tick(0, 1)
        self.position = 1

    def phase(self, seconds: float, share: float = 1.0) -> PhaseResult:
        stream, clock = self.stream, time.perf_counter
        latencies: list[float] = []
        lag_max = lines = 0
        stop = min(self.origin + self.horizon,
                   self.logical + share * self.horizon)
        self.speed.take()
        start = clock()
        deadline = start + self.PATIENCE * seconds
        while self.logical < stop and clock() < deadline:
            self.logical += ITERATION_LOGICAL_S
            nxt = stream.upto(self.position, self.logical)
            began = clock()
            self._tick(self.position, nxt)
            now = clock()
            latencies.append((now - began) * 1000.0)
            self.speed.sample(now)
            lag_max = max(lag_max, self.ingestor.lag)
            lines += nxt - self.position
            self.position = nxt
            self.attempted += 1
        wall = clock() - start
        return PhaseResult(wall, latencies, lines, wall, self.speed.take(),
                           extra={"lag_max": lag_max})

    def verify(self) -> dict[str, float]:
        out = self.verify_stream(self.position)
        out.update(self._score_storms())
        return out

    def _score_storms(self) -> dict[str, float]:
        """Recall and onset delay of the storm detector against the
        labelled storms that were streamed in full.

        A storm counts as caught when a critical ``lustre_storm`` alert
        was open while it ran.  On a stream this dense the detector now
        and then opens on a baseline burst and is still open when the
        next real storm arrives; that storm raises no alert of its own,
        but the operator is looking at an open one.  Onset delay is
        taken over the storms that did raise their own."""
        covered_to = self.stream.ts[self.position - 1]
        storms = [s for s in self.stream.storms if s[1] <= covered_to]
        response = self.server.handle_sync({
            "op": "alerts", "t0": self.origin, "t1": covered_to + 3600.0,
            "limit": 0, "detector": "lustre_storm"})
        self.check(response["ok"], f"alerts op: {response.get('error')}")
        alerts = response["result"]["alerts"] if response["ok"] else []
        open_spans: list[list[float]] = []      # [opened, cleared]
        for alert in alerts:
            if alert["severity"] == "critical":
                open_spans.append([alert["window_end"], math.inf])
            elif open_spans and open_spans[-1][1] == math.inf:
                open_spans[-1][1] = alert["window_end"]
        caught, onsets = 0, []
        for start, end in storms:
            if any(opened <= end and cleared >= start
                   for opened, cleared in open_spans):
                caught += 1
            own = [opened for opened, _ in open_spans
                   if start - ONSET_SLACK_S <= opened <= end]
            if own:
                onsets.append(min(own) - start)
        recall = caught / len(storms) if storms else 0.0
        self.check(bool(storms), "no labelled storm was streamed in full")
        self.check(recall >= MIN_STORM_RECALL,
                   f"storm recall {recall:.2f} < {MIN_STORM_RECALL}")
        return {"storm_recall": recall,
                "alert_onset_windows":
                    sum(onsets) / len(onsets) if onsets else 0.0,
                "storms_scored": len(storms)}


class MixedLive(Workload):
    """Reads beside writes, both paced below saturation: an ingest
    thread publishes 500 lines/s in 50 ms ticks into the live hour while
    one closed-loop client issues the read mix at a fixed rate, most of
    it on the two hours around the live edge."""

    name = "mixed_live"
    streaming = True

    def __init__(self, seed, scale, seconds):
        super().__init__(seed, scale, seconds)
        # 500 lines/s of a ~10 lines/logical-second stream, twice over.
        hours = max(0.05, seconds * 2 * LINES_PER_TICK / TICK_S / 36_000.0)
        self.stream = inputs.live_stream(seed, scale, hours, storms=False)
        self.requests = inputs.read_requests(seed, scale,
                                             live_share=MIXED_LIVE_SHARE)
        self.position = 0
        self.read_backs = 0
        self.read_back_at: int | None = None
        self.late_ms: list[float] = []

    def warm_up(self) -> None:
        self._warm_requests(
            inputs.read_requests(self.seed + 1, self.scale,
                                 live_share=MIXED_LIVE_SHARE),
            self.scale.warm_requests)
        self._tick(0, 1)
        self.position = 1

    def _ingest_loop(self, seconds: float, out: dict) -> None:
        stream, clock = self.stream, time.perf_counter
        end = len(stream.lines)
        base = self.position
        start = clock()
        tick = 0
        try:
            while True:
                due = start + tick * TICK_S
                if due >= start + seconds or self.position >= end:
                    break
                delay = due - clock()
                if delay > 0:
                    time.sleep(delay)
                began = clock()
                out["late_ms"].append((began - due) * 1000.0)
                # Whole logical seconds until this tick's line quota.
                nxt = self.position
                quota = base + (tick + 1) * LINES_PER_TICK
                while nxt < min(quota, end):
                    nxt = stream.upto(nxt, math.floor(stream.ts[nxt]) + 1.0)
                self._tick(self.position, nxt)
                done = clock()
                out["tick_ms"].append((done - due) * 1000.0)
                out["lines"] += nxt - self.position
                out["lag_max"] = max(out["lag_max"], self.ingestor.lag)
                self.position = nxt
                self.attempted += 1
                tick += 1
                if tick % READ_BACK_EVERY == 0:
                    self.read_back_at = nxt     # the reader picks it up
        except BaseException as exc:  # noqa: BLE001 - reported by the caller
            out["error"] = exc

    async def _between_requests(self) -> None:
        """A read issued after a tick returned sees that tick's closed
        windows: the last five closed logical seconds hold exactly the
        lines published for them.  The reader issues it, so that it
        delays no tick."""
        position, self.read_back_at = self.read_back_at, None
        if position is None:
            return
        stream = self.stream
        closed = math.floor(stream.ts[position - 1])
        lo = closed - 5.0
        first = stream.upto(0, lo)
        want = sum(stream.amounts[first:stream.upto(first, closed)])
        response = await self.server.handle({
            "op": "events", "context": {"t0": lo, "t1": float(closed)}})
        got = (sum(r["amount"] for r in response["result"])
               if response["ok"] else None)
        self.check(got == want,
                   f"read after tick saw amount {got} in [{lo}, {closed}),"
                   f" published {want}")
        self.read_backs += 1

    def phase(self, seconds: float, share: float = 1.0) -> PhaseResult:
        latencies: list[float] = []
        out: dict[str, Any] = {"late_ms": [], "tick_ms": [], "lines": 0,
                               "lag_max": 0}
        writer = threading.Thread(target=self._ingest_loop,
                                  args=(seconds, out), name="e2e-ingest")
        self.speed.take()
        start, cpu_start = time.perf_counter(), time.process_time()
        writer.start()
        try:
            asyncio.run(self._client(self.requests, seconds, latencies,
                                     pace_hz=MIXED_REQUEST_HZ))
        finally:
            writer.join()
        wall = time.perf_counter() - start
        cpu_s = time.process_time() - cpu_start
        if "error" in out:
            raise out["error"]
        self.late_ms.extend(out["late_ms"])
        # Both sides are paced, so every wall-clock rate is a constant of
        # the schedule; what the schedule costs is processor time.
        return PhaseResult(wall, latencies, out["lines"], cpu_s,
                           self.speed.take(), extra=out)

    def verify(self) -> dict[str, float]:
        self.verify_first_seen()
        self.check(self.read_backs > 0, "no read-back check ran")
        # The generator shares the process with the program, so one of
        # the program's collector pauses makes a few ticks late and that
        # is load.  A tenth of all ticks starting a whole tick late is a
        # generator that cannot keep its schedule: invalid, not slow.
        late_p90 = percentile(sorted(self.late_ms), 90)
        self.check(late_p90 <= TICK_S * 1000.0,
                   f"paced driver ran {late_p90:.1f} ms late at p90")
        return self.verify_stream(self.position)


class BatchAnalytics(Workload):
    """Batch ETL of raw log files, then one closed-loop client issuing
    analytics jobs that leave the event loop for the DAG engine.

    The ETL step allocates a heap's worth of rows, so full collections
    of a quarter second each fall inside it, one every ~9 k lines; its
    size (``Scale.etl_sets``) puts its end half-way between two of them
    on the seed commit, so that the same number falls inside on every
    seed."""

    name = "batch_analytics"

    def __init__(self, seed, scale, seconds):
        super().__init__(seed, scale, seconds)
        os.makedirs(WORK_DIR, exist_ok=True)
        self.directory = tempfile.mkdtemp(dir=WORK_DIR)
        self.etl_sets = inputs.etl_file_sets(seed, scale, self.directory)
        self.etl_done: list[tuple[list[str], Any]] = []
        self.jobs = inputs.job_requests(seed, scale)

    def warm_up(self) -> None:
        self._warm_requests(inputs.job_requests(self.seed + 1, self.scale),
                            max(8, self.scale.warm_requests // 10))

    def phase(self, seconds: float, share: float = 1.0) -> PhaseResult:
        clock = time.perf_counter
        start = clock()
        # A full run ingests every file set; a split run's parts take
        # their share of them.
        pending = len(self.etl_sets) - len(self.etl_done)
        etl_lines = 0
        etl_s = 0.0
        self.speed.take()
        with self.speed.background():
            for _ in range(min(pending,
                               max(1, round(len(self.etl_sets) * share)))):
                paths, lines = self.etl_sets[len(self.etl_done)]
                began = clock()
                stats = self.fw.ingest_batch(paths)
                etl_s += clock() - began
                etl_lines += stats.lines
                self.etl_done.append((lines, stats))
                self.attempted += 1
        etl_slowness = self.speed.take()
        remaining = max(0.0, seconds - (clock() - start))
        latencies: list[float] = []
        jobs_start = clock()
        asyncio.run(self._client(self.jobs, remaining, latencies))
        jobs_wall = clock() - jobs_start
        return PhaseResult(
            clock() - start, latencies, etl_lines, etl_s, self.speed.take(),
            etl_slowness,
            {"jobs_per_s": len(latencies) / jobs_wall if jobs_wall else 0.0,
             "etl_lines": etl_lines})

    def verify(self) -> dict[str, float]:
        self.verify_first_seen()
        parser = default_parser()
        etl_types: Counter = Counter()
        unparsed = 0
        for lines, stats in self.etl_done:
            merged = coalesce_events(parser.parse_lines(lines), 1.0)
            etl_types.update(e.type for e in merged)
            self.check(stats.written == len(merged),
                       f"ingest_batch wrote {stats.written} rows, "
                       f"coalesce_events gives {len(merged)}")
            self.check(stats.unparsed == 0,
                       f"{stats.unparsed} ETL lines failed to parse")
            unparsed += stats.unparsed
        response = self.server.handle_sync(
            {"op": "cql", "statement": inputs.CQL_BY_TYPE})
        got = ({r["type"]: r["count"] for r in response["result"]}
               if response["ok"] else None)
        want = dict(self.reference.type_counts() + etl_types)
        self.check(got == want, "unrouted GROUP BY type differs from a "
                                "Counter over the events")
        return {"parse_failures": unparsed}

    def close(self) -> None:
        super().close()
        shutil.rmtree(self.directory, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass                    # another run's files are still there


WORKLOADS = {w.name: w for w in
             (FrontendRead, StreamIngest, MixedLive, BatchAnalytics)}


def registry_counters() -> dict[str, float]:
    """Counter and gauge values of the program's own metrics registry —
    used only for what no public call reveals (bloom skips, plan-cache
    hits, shuffle waits...)."""
    out: dict[str, float] = Counter()
    for key, series in obs.get_registry().snapshot().items():
        if series["type"] in ("counter", "gauge"):
            out[key.split("{", 1)[0]] += series["value"]
    return out
