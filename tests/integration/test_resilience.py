"""Integration: node failure handling and anti-entropy repair under the
full framework."""

import pytest

from repro.core import LogAnalyticsFramework
from repro.genlog import LogGenerator
from repro.titan import TitanTopology


@pytest.fixture(scope="module")
def topo():
    return TitanTopology(rows=1, cols=1)


@pytest.fixture(scope="module")
def events(topo):
    return LogGenerator(topo, seed=64, rate_multiplier=40,
                        storms_per_day=0).generate(6)


class TestNodeFailureAndRepair:
    def test_detected_failure_then_recovery_preserves_analytics(
            self, topo, events):
        fw = LogAnalyticsFramework(topo, db_nodes=4,
                                   replication_factor=2).setup()

        half = len(events) // 2
        fw.ingest_events(events[:half])
        ctx = fw.context(0, 6 * 3600)
        baseline = len(fw.events(ctx))

        # A node silently dies and stays routed until it is killed;
        # ingestion continues (hints buffer); the node is revived and
        # hints replay.
        fw.cluster.crash_node("node02")
        assert fw.cluster.nodes["node02"].up
        fw.cluster.kill_node("node02")
        assert not fw.cluster.nodes["node02"].up
        fw.ingest_events(events[half:])
        fw.cluster.revive_node("node02")
        assert fw.cluster.nodes["node02"].up

        assert len(fw.events(ctx)) == len(events)
        # The revived node serves its replicas directly.
        fw.cluster.kill_node("node00")
        fw.cluster.kill_node("node01")
        fw.cluster.kill_node("node03")
        partial = fw.cluster.partitions_by_node("event_by_time")["node02"]
        assert partial  # it owns primaries again
        fw.cluster.revive_node("node00")
        fw.cluster.revive_node("node01")
        fw.cluster.revive_node("node03")
        fw.stop()

    def test_repair_heals_unhinted_divergence_end_to_end(self, topo,
                                                         events):
        fw = LogAnalyticsFramework(topo, db_nodes=4,
                                   replication_factor=2).setup()
        fw.ingest_events(events)
        # Corrupt one node's copy of one table partition silently.
        victim = "node01"
        store = fw.cluster.nodes[victim].tables.get("event_by_time")
        assert store is not None
        dropped = 0
        for pk in list(store.memtable.partitions)[:3]:
            dropped += len(store.memtable.partitions.pop(pk))
        assert dropped > 0
        repaired = fw.cluster.repair("event_by_time")
        assert repaired >= 1
        # ALL-consistency reads now agree everywhere.
        from repro.cassdb import Consistency

        ctx = fw.context(0, 6 * 3600)
        rows = fw.events(ctx)
        assert len(rows) == len(events)
        fw.stop()


class TestStreamingThroughFailure:
    def test_node_loss_mid_stream(self, topo, events):
        from repro.bus import MessageBus
        from repro.ingest import LogProducer

        fw = LogAnalyticsFramework(topo, db_nodes=4,
                                   replication_factor=2).setup()
        gen = LogGenerator(topo, seed=64, rate_multiplier=40,
                           storms_per_day=0)
        lines = list(gen.raw_lines(events))
        bus = MessageBus()
        producer = LogProducer(bus, "t")
        ingestor = fw.streaming_ingestor(bus, "t")

        third = len(lines) // 3
        producer.publish_lines(lines[:third])
        ingestor.process_available()
        fw.cluster.kill_node("node03")          # fails mid-stream
        producer.publish_lines(lines[third:2 * third])
        ingestor.process_available()            # hinted handoff
        fw.cluster.revive_node("node03")
        producer.publish_lines(lines[2 * third:])
        ingestor.process_available()
        ingestor.flush()

        total = sum(
            r["amount"]
            for r in fw.events(fw.context(0, 6 * 3600))
        )
        assert total == sum(e.amount for e in events)
        fw.stop()
