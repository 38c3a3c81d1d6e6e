"""End-to-end integration: generate → ETL → store → analyze → serve.

These tests exercise the full Fig-3 architecture in one process:
synthetic raw logs through batch or streaming ETL into the replicated
backend, analytics through the engine, results out through the server —
including node-failure tolerance, which is the point of the Cassandra
design.
"""

import pytest

from repro import obs
from repro.bus import MessageBus
from repro.core import AnalyticsServer, LogAnalyticsFramework
from repro.genlog import JobGenerator, LogGenerator
from repro.ingest import LogProducer
from repro.titan import TitanTopology


@pytest.fixture(scope="module")
def topo():
    return TitanTopology(rows=1, cols=1)


@pytest.fixture(scope="module")
def generator(topo):
    return LogGenerator(topo, seed=77, rate_multiplier=40, storms_per_day=4)


@pytest.fixture(scope="module")
def events(generator):
    return generator.generate(6)


@pytest.fixture(scope="module")
def log_dir(tmp_path_factory, generator, events):
    directory = tmp_path_factory.mktemp("rawlogs")
    generator.write_log_files(directory, events)
    return directory


class TestBatchPipeline:
    def test_files_to_analytics(self, topo, events, log_dir):
        fw = LogAnalyticsFramework(topo, db_nodes=4).setup()
        import glob

        stats = fw.ingest_batch(sorted(glob.glob(f"{log_dir}/*.log")),
                                coalesce_seconds=None)
        assert stats.parsed == len(events)
        assert stats.unparsed == 0
        # Analytics over the ETL'd data match the generator's truth.
        ctx = fw.context(0, 6 * 3600, event_types=("MCE",))
        hm = fw.heatmap(ctx)
        assert sum(hm.values()) == sum(
            e.amount for e in events if e.type == "MCE"
        )
        fw.stop()

    def test_coalesced_batch_preserves_amounts(self, topo, events, log_dir):
        fw = LogAnalyticsFramework(topo, db_nodes=2).setup()
        import glob

        stats = fw.ingest_batch(sorted(glob.glob(f"{log_dir}/*.log")),
                                coalesce_seconds=1.0)
        assert stats.written <= stats.parsed
        ctx = fw.context(0, 6 * 3600)
        total = sum(r["amount"] for r in fw.events(ctx))
        assert total == sum(e.amount for e in events)
        fw.stop()


class TestStreamingPipeline:
    def test_bus_to_analytics(self, topo, generator, events):
        fw = LogAnalyticsFramework(topo, db_nodes=4).setup()
        bus = MessageBus()
        producer = LogProducer(bus, "titan-events")
        ingestor = fw.streaming_ingestor(bus, "titan-events")
        # Producer parses the raw stream and publishes (OLCF layout).
        n = producer.publish_lines(generator.raw_lines(events))
        assert n == len(events)
        ingestor.process_available()
        ingestor.flush()
        assert ingestor.lag == 0
        ctx = fw.context(0, 6 * 3600, event_types=("GPU_XID",))
        got = sum(r["amount"] for r in fw.events(ctx))
        want = sum(e.amount for e in events if e.type == "GPU_XID")
        assert got == want
        fw.stop()

    def test_incremental_stream_chunks(self, topo, generator, events):
        fw = LogAnalyticsFramework(topo, db_nodes=2).setup()
        bus = MessageBus()
        producer = LogProducer(bus, "t")
        ingestor = fw.streaming_ingestor(bus, "t")
        lines = list(generator.raw_lines(events))
        third = len(lines) // 3
        for chunk in (lines[:third], lines[third:2 * third],
                      lines[2 * third:]):
            producer.publish_lines(chunk)
            ingestor.process_available()
        ingestor.flush()
        ctx = fw.context(0, 6 * 3600)
        assert sum(r["amount"] for r in fw.events(ctx)) == sum(
            e.amount for e in events
        )
        fw.stop()

    def test_a_drain_leaves_the_bus_holding_nothing(self, topo, generator,
                                                    events):
        """The bus forgets what it delivered: after a capped, chunked
        drain with detection attached, every partition of every topic
        retains exactly its lag, which is zero, and every record
        published was truncated."""
        registry = obs.get_registry()
        published = registry.counter("bus.published")
        truncated = registry.counter("bus.truncated")
        published_before, truncated_before = published.value, truncated.value
        fw = LogAnalyticsFramework(topo, db_nodes=2).setup()
        bus = MessageBus()
        producer = LogProducer(bus, "events")
        ingestor = fw.streaming_ingestor(bus, "events")
        detection = fw.attach_detection(ingestor, bus)
        lines = list(generator.raw_lines(events))
        for first in range(0, len(lines), 2000):
            producer.publish_lines(lines[first:first + 2000])
            while ingestor.process_available(max_records=500):
                pass
        ingestor.flush()
        assert detection.drain()["lag"] == 0
        retained = 0
        for name in bus.topics():
            topic = bus.topic(name)
            assert topic.groups
            for p in range(topic.num_partitions):
                kept = len(topic.partitions[p])
                for group in topic.groups:
                    lag = topic.end_offset(p) - bus.committed(group, name, p)
                    assert kept == lag == 0
                retained += kept
        sent = published.value - published_before
        assert sent >= len(events)
        assert sent == truncated.value - truncated_before + retained
        fw.stop()


class TestFaultTolerance:
    def test_analytics_survive_node_failure(self, topo, events):
        """RF=2: killing one DB node must not lose query results —
        the high-availability claim of §II-A."""
        fw = LogAnalyticsFramework(topo, db_nodes=4,
                                   replication_factor=2).setup()
        fw.ingest_events(events)
        ctx = fw.context(0, 6 * 3600, event_types=("MCE",))
        before = fw.heatmap(ctx)
        fw.cluster.kill_node("node01")
        after = fw.heatmap(ctx)
        assert after == before
        fw.cluster.revive_node("node01")
        fw.stop()

    def test_writes_continue_through_failure(self, topo, events):
        fw = LogAnalyticsFramework(topo, db_nodes=4,
                                   replication_factor=2).setup()
        half = len(events) // 2
        fw.ingest_events(events[:half])
        fw.cluster.kill_node("node02")
        fw.ingest_events(events[half:])  # hinted handoff buffers for node02
        fw.cluster.revive_node("node02")
        ctx = fw.context(0, 6 * 3600)
        assert len(fw.events(ctx)) == len(events)
        fw.stop()

    def test_engine_scan_with_node_down(self, topo, events):
        fw = LogAnalyticsFramework(topo, db_nodes=4,
                                   replication_factor=2).setup()
        fw.ingest_events(events)
        fw.cluster.kill_node("node00")
        count = fw.sc.cassandraTable("event_by_time").count()
        assert count == len(events)
        fw.stop()


class TestServerOverFullStack:
    def test_investigation_workflow(self, topo, generator, events):
        """The §III-B workflow: wide context → temporal map → narrowed
        sub-interval → heat map → hot nodes → raw logs of one node."""
        fw = LogAnalyticsFramework(topo, db_nodes=4).setup()
        fw.ingest_events(events)
        fw.ingest_applications(JobGenerator(topo, seed=1).generate(6))
        server = AnalyticsServer(fw)

        wide = fw.context(0, 6 * 3600, event_types=("MCE",))
        r = server.handle_sync({"op": "histogram",
                                "context": wide.to_json(), "num_bins": 6})
        assert r["ok"]
        counts = r["result"]["counts"]
        edges = r["result"]["edges"]
        # Zoom into the busiest bin.
        busiest = max(range(len(counts)), key=counts.__getitem__)
        narrow = wide.narrow_time(edges[busiest], edges[busiest + 1])
        r = server.handle_sync({"op": "hotspots",
                                "context": narrow.to_json(),
                                "z_threshold": 3.0})
        assert r["ok"]
        if r["result"]:
            node = r["result"][0]["component"]
            per_node = narrow.with_sources(node)
            r = server.handle_sync({"op": "events",
                                    "context": per_node.to_json()})
            assert r["ok"] and r["result"]
            assert all(row["source"] == node for row in r["result"])
        fw.stop()
