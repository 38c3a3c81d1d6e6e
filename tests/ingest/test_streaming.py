"""Tests for the streaming ingest pipeline (bus → DStream → sink)."""

import pytest

from repro.bus import MessageBus
from repro.cassdb import Cluster
from repro.core import LogAnalyticsFramework
from repro.core.model import LogDataModel
from repro.genlog import LogGenerator
from repro.ingest import (
    ListSink,
    LogProducer,
    ParsedEvent,
    StreamingIngestor,
    coalesce_events,
    serial_ingest,
)
from repro.sparklet import SparkletContext
from repro.titan import LogSource, TitanTopology


def _ev(ts, type_="MCE", comp="c0-0c0s0n0", amount=1):
    return ParsedEvent(ts=ts, type=type_, component=comp,
                       source=LogSource.CONSOLE, amount=amount)


@pytest.fixture
def pipeline():
    bus = MessageBus()
    producer = LogProducer(bus, "events")
    sink = ListSink()
    sc = SparkletContext(2)
    ingestor = StreamingIngestor(bus, "events", sink, sc)
    return bus, producer, sink, ingestor


class TestLogProducer:
    def test_publish_lines_parses_and_publishes(self, pipeline):
        bus, producer, _, _ = pipeline
        line = ("2017-03-01T00:00:05.000 c0-0c0s0n0 console: "
                "NVRM: GPU has fallen off the bus. GPU is not accessible")
        n = producer.publish_lines([line, "garbage"])
        assert n == 1
        assert producer.published == 1
        assert sum(map(len, bus.topic("events").partitions)) == 1

    def test_publish_events(self, pipeline):
        _, producer, _, _ = pipeline
        assert producer.publish_events([_ev(1.0), _ev(2.0)]) == 2

    def test_keyed_by_component(self, pipeline):
        bus, producer, _, _ = pipeline
        producer.publish_events([_ev(float(i), comp="same") for i in range(5)])
        parts = {
            r.partition
            for p in bus.topic("events").partitions for r in p
        }
        assert len(parts) == 1


class TestStreamingIngestor:
    def test_coalesces_same_second(self, pipeline):
        _, producer, sink, ingestor = pipeline
        producer.publish_events([
            _ev(10.1), _ev(10.6), _ev(10.9),   # same second, same key
            _ev(11.2),                          # next second
            _ev(10.3, comp="c0-0c0s0n1"),       # other node
        ])
        ingestor.process_available()
        ingestor.flush()
        assert ingestor.stats.polled == 5
        assert ingestor.stats.written == 3
        merged = [e for e in sink.events if e.component == "c0-0c0s0n0"
                  and int(e.ts) == 10]
        assert len(merged) == 1
        assert merged[0].amount == 3
        assert merged[0].ts == 10.1

    def test_incremental_processing(self, pipeline):
        _, producer, sink, ingestor = pipeline
        producer.publish_events([_ev(1.5)])
        ingestor.process_available()
        # Batch 1 is still open (only events < latest batch are final).
        producer.publish_events([_ev(5.5)])
        ingestor.process_available()
        ingestor.flush()
        assert ingestor.stats.written == 2
        assert ingestor.lag == 0

    def test_empty_poll(self, pipeline):
        _, _, _, ingestor = pipeline
        assert ingestor.process_available() == 0
        assert ingestor.stats.batches == 0

    def test_matches_serial_etl(self, tmp_path):
        topo = TitanTopology(rows=1, cols=1)
        gen = LogGenerator(topo, seed=31, rate_multiplier=60)
        events = gen.generate(3)
        paths = gen.write_log_files(tmp_path, events)

        serial_sink = ListSink()
        serial_stats = serial_ingest(
            sorted(paths.values()), serial_sink, coalesce_seconds=1.0
        )

        bus = MessageBus()
        producer = LogProducer(bus, "events")
        stream_sink = ListSink()
        ingestor = StreamingIngestor(bus, "events", stream_sink,
                                     SparkletContext(2))
        for path in sorted(paths.values()):
            with open(path, encoding="utf-8") as fh:
                producer.publish_lines(line.rstrip("\n") for line in fh)
        ingestor.process_available()
        ingestor.flush()

        assert ingestor.stats.written == serial_stats.written
        key = lambda e: (round(e.ts, 3), e.type, e.component, e.amount)
        assert sorted(map(key, stream_sink.events)) == sorted(
            map(key, serial_sink.events)
        )

    def test_storm_compresses_heavily(self):
        """A storm generates many same-node same-second Lustre events;
        coalescing must shrink them substantially."""
        bus = MessageBus()
        producer = LogProducer(bus, "events")
        sink = ListSink()
        ingestor = StreamingIngestor(bus, "events", sink, SparkletContext(2))
        # 50 nodes x 20 events within the same 2 seconds.
        events = [
            _ev(100.0 + (i % 2) + j / 100.0, type_="LUSTRE_ERR",
                comp=f"c0-0c0s{j % 8}n{j % 4}")
            for j in range(50) for i in range(20)
        ]
        producer.publish_events(events)
        ingestor.process_available()
        ingestor.flush()
        assert ingestor.stats.polled == 1000
        assert ingestor.stats.written < 150
        assert sum(e.amount for e in sink.events) == 1000

    def test_window_costs_two_tasks_and_an_idle_day_costs_none(self):
        """The fixed cost of a window, counted: one map task plus one
        result task per closed window, and a day with no events between
        two windows enters ``run_batch`` for neither of its seconds."""
        bus = MessageBus()
        producer = LogProducer(bus, "events")
        sink = ListSink()
        sc = SparkletContext(4)
        ingestor = StreamingIngestor(bus, "events", sink, sc)
        entered = []
        run_batch = ingestor.ssc.run_batch
        ingestor.ssc.run_batch = lambda: entered.append(run_batch())

        day = 86_400.0
        producer.publish_events(
            [_ev(day + w + 0.01 * i, comp=f"c0-0c0s0n{i % 3}")
             for w in range(100) for i in range(17)])
        ingestor.process_available()
        ingestor.flush()
        assert entered == [int(day) + w for w in range(100)]
        assert ingestor.stats.batches == int(day) + 100
        assert ingestor.stats.written == 300
        assert sc.metrics.jobs == 100
        assert sc.metrics.tasks == 2 * sc.metrics.jobs

        producer.publish_events([_ev(3 * day + 0.5)])
        ingestor.process_available()
        ingestor.flush()
        assert entered[100:] == [int(3 * day)]
        assert ingestor.stats.batches == int(3 * day) + 1

    def test_a_capped_poll_closes_no_window_an_unread_partition_feeds(self):
        """Keys ``a`` and ``c`` land on partitions 0 and 1.  A poll capped
        at ten records drains partition 0 alone; the clock may not pass
        partition 1's unread records, so every window holds both keys."""
        bus = MessageBus()
        bus.create_topic("events", num_partitions=2)
        ingestor = StreamingIngestor(bus, "events", ListSink(),
                                     SparkletContext(2))
        windows = []
        ingestor.add_observer(
            lambda events: windows.append({e.component for e in events}))
        LogProducer(bus, "events").publish_events(
            [_ev(s + 0.5, comp=key) for key in "ac" for s in range(10)])
        assert {r.partition for p in bus.topic("events").partitions
                for r in p if r.key == "c"} == {1}
        ingestor.process_available(max_records=10)
        ingestor.process_available(max_records=10)
        ingestor.flush()
        assert windows == [{"a", "c"}] * 10


# -- one contract, three ingestors ------------------------------------------

STAMPS = (3.25, 61.0, 125.5)


def _events(bus, sc, cluster, base, stamps=STAMPS):
    model = LogDataModel(cluster)
    model.create_tables()
    ingestor = StreamingIngestor(bus, "t", model, sc)
    LogProducer(bus, "t").publish_events(
        [_ev(base + ts, comp=f"c0-0c0s0n{i}") for i, ts in enumerate(stamps)])
    return ingestor, lambda: len(cluster.select_window(
        "event_by_time", base, base + 200.0, ("MCE",)))


def _telemetry(bus, sc, cluster, base, stamps=STAMPS):
    from repro.obs.export import TelemetryIngestor, TelemetryPublisher

    ingestor = TelemetryIngestor(bus, "t", cluster, sc)
    TelemetryPublisher(bus, "t").publish([
        {"rtype": "metric", "kind": "gauge", "name": "m", "labels": {},
         "ts": base + ts, "value": 1.0} for ts in stamps])
    return ingestor, lambda: len(cluster.select_window(
        "metrics_by_time", base, base + 200.0, ("m",)))


def _alerts(bus, sc, cluster, base, stamps=STAMPS):
    from repro.detect import AlertPublisher
    from repro.detect.alerts import Alert, AlertIngestor

    ingestor = AlertIngestor(bus, "t", cluster, sc)
    AlertPublisher(bus, "t").publish([
        Alert(ts=base + ts, severity="info", detector="d", key="k",
              window_start=base + ts - 1.0, window_end=base + ts, score=1.0)
        for ts in stamps])
    return ingestor, lambda: len(cluster.select_window(
        "alerts_by_time", base, base + 200.0, ()))


# The tables each stream's rows land in.
LANDS = {_events: {"event_by_time", "event_by_location"},
         _alerts: {"alerts_by_time"},
         _telemetry: {"metrics_by_time"}}


class TestIngestorContract:
    """The poll → push → advance → land → commit loop is one class;
    each stream must honour the same contract through it."""

    # (builder, timestamp base, rebased?) — only telemetry is wall clock.
    CASES = [(_events, 0.0, False), (_alerts, 0.0, False),
             (_telemetry, 1.7e9, True)]

    @pytest.mark.parametrize("build,base,rebased", CASES,
                             ids=["events", "alerts", "telemetry"])
    def test_contract(self, build, base, rebased):
        ingestor, readable = build(
            MessageBus(), SparkletContext(2), Cluster(2), base)
        assert ingestor.lag == len(STAMPS)
        assert ingestor.process_available() == len(STAMPS)
        ingestor.flush()
        assert readable() == len(STAMPS)
        assert ingestor.lag == 0
        assert ingestor.process_available() == 0
        # An event-time stream is not rebased: its clock ran every batch
        # from 0 to the latest event; the wall-clock one started at its
        # first record (then one flush each).
        interval = ingestor.ssc.batch_interval
        from_zero = int((base + STAMPS[-1]) // interval) + 1
        from_first = int((STAMPS[-1] - int(STAMPS[0])) // interval) + 1
        assert ingestor.ssc.batches_run == (
            from_first if rebased else from_zero)

    @pytest.mark.parametrize("build,base,rebased", CASES,
                             ids=["events", "alerts", "telemetry"])
    def test_a_poll_lands_once(self, build, base, rebased, monkeypatch):
        """A poll that closes three windows (the fourth stamp keeps one
        open) makes one write_batch per table with rows, and bumps each
        such table's epoch by one."""
        cluster, sc = Cluster(2), SparkletContext(2)
        ingestor, readable = build(MessageBus(), sc, cluster, base,
                                   stamps=STAMPS + (190.0,))
        tables = LANDS[build]
        written = []
        write_batch = cluster.write_batch
        monkeypatch.setattr(
            cluster, "write_batch",
            lambda table, rows, *a, **kw: written.append(table)
            or write_batch(table, rows, *a, **kw))
        epochs = {table: cluster.table_epoch(table) for table in tables}
        jobs = sc.metrics.jobs

        ingestor.process_available()
        assert sc.metrics.jobs - jobs == len(STAMPS)   # windows closed
        assert sorted(written) == sorted(tables)
        assert {table: cluster.table_epoch(table) - epochs[table]
                for table in tables} == dict.fromkeys(tables, 1)
        assert readable() == len(STAMPS)

        ingestor.flush()                   # the open window lands alone
        assert sorted(written) == sorted(list(tables) * 2)
        assert readable() == len(STAMPS) + 1


class _RecordingSink(ListSink):
    """A ListSink that keeps each ``write_events`` call's batch, and can
    be told to fail the next one."""

    def __init__(self):
        super().__init__()
        self.calls: list[list] = []
        self.fail = False

    def write_events(self, events):
        if self.fail:
            self.fail = False
            raise RuntimeError("sink down")
        batch = list(events)
        self.calls.append(batch)
        return super().write_events(batch)


class TestAPollLandsOnce:
    """Coalescing and detection stay per 1 s window; the write is one
    per poll."""

    def _pipeline(self):
        bus = MessageBus()
        sink = _RecordingSink()
        ingestor = StreamingIngestor(bus, "events", sink, SparkletContext(2))
        return LogProducer(bus, "events"), sink, ingestor

    def test_one_write_events_per_poll_in_window_order(self):
        producer, sink, ingestor = self._pipeline()
        observed = []
        ingestor.add_observer(
            lambda events: observed.append((len(sink.calls), list(events))))
        producer.publish_events(
            [_ev(w + 0.1 * i, comp=f"c0-0c0s0n{i % 3}")
             for w in (5, 2, 9, 3, 7) for i in range(4)]
            + [_ev(20.5)])
        ingestor.process_available()
        # Observers saw each closed window on its own, in window order,
        # before anything landed.
        assert [int(events[0].ts) for _, events in observed] == [2, 3, 5, 7, 9]
        assert all(landed == 0 for landed, _ in observed)
        assert all(len({int(e.ts) for e in events}) == 1
                   for _, events in observed)
        # The poll landed them in one call, window after window.
        assert len(sink.calls) == 1
        (batch,) = sink.calls
        assert batch == [e for _, events in observed for e in events]
        assert batch == sorted(
            batch, key=lambda e: (int(e.ts), e.ts, e.type, e.component))
        assert ingestor.stats.written == len(batch) == 5 * 3

        assert ingestor.process_available() == 0       # nothing closed
        assert len(sink.calls) == 1
        ingestor.flush()                               # the open window
        assert len(sink.calls) == 2 and len(sink.calls[1]) == 1

    def test_a_failed_landing_propagates_uncommitted_and_lands_nothing_twice(
            self):
        producer, sink, ingestor = self._pipeline()
        first = [_ev(w + 0.5, comp=f"c0-0c0s0n{w % 2}") for w in range(1, 6)]
        producer.publish_events(first + [_ev(6.5)])
        sink.fail = True
        with pytest.raises(RuntimeError, match="sink down"):
            ingestor.process_available()
        assert ingestor.lag == len(first) + 1          # nothing committed
        assert sink.events == []

        producer.publish_events([_ev(w + 0.5) for w in range(7, 10)])
        assert ingestor.process_available() == 3
        ingestor.flush()
        assert ingestor.lag == 0
        keys = [(e.ts, e.type, e.component) for e in sink.events]
        assert len(keys) == len(set(keys))
        # The failed poll's windows are gone with its stage; the window
        # it left open and everything after it landed once.
        assert [e.ts for e in sink.events] == [6.5, 7.5, 8.5, 9.5]

    def test_a_framework_drain_stores_what_window_by_window_writes(self):
        """A seeded drain through ``fw.streaming_ingestor`` with capped
        polls stores the same rows, ``seq`` included, in both event views
        as one ``write_events`` per 1 s window of the coalesced stream."""
        topo = TitanTopology(rows=1, cols=1)
        gen = LogGenerator(topo, seed=34, rate_multiplier=40)
        lines = list(gen.raw_lines(gen.generate(2)))

        fw = LogAnalyticsFramework(topo, db_nodes=2).setup()
        bus = MessageBus()
        producer = LogProducer(bus, "events")
        ingestor = fw.streaming_ingestor(bus, "events")
        for first in range(0, len(lines), 1500):
            producer.publish_lines(lines[first:first + 1500])
            while ingestor.process_available(max_records=400):
                pass
        ingestor.flush()
        assert ingestor.lag == 0

        ref = LogAnalyticsFramework(topo, db_nodes=2).setup()
        parser = producer.parser
        windows: dict[int, list] = {}
        for event in coalesce_events(
                filter(None, map(parser.parse_line, lines))):
            windows.setdefault(int(event.ts), []).append(event)
        for second in sorted(windows):
            ref.model.write_events(windows[second])

        for table in ("event_by_time", "event_by_location"):
            got = sorted(fw.cluster.scan_table(table), key=lambda r: r["seq"])
            want = sorted(ref.cluster.scan_table(table),
                          key=lambda r: r["seq"])
            assert len(got) == ingestor.stats.written > 100
            assert got == want
        fw.stop()
        ref.stop()
