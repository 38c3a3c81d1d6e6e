"""Tests for the Kafka-model message bus."""

import pytest

from repro.bus import ConsumerGroup, MessageBus, Producer


@pytest.fixture
def bus():
    b = MessageBus()
    b.create_topic("events", num_partitions=4)
    return b


class TestTopics:
    def test_create_duplicate_rejected(self, bus):
        with pytest.raises(ValueError):
            bus.create_topic("events")

    def test_unknown_topic(self, bus):
        with pytest.raises(KeyError):
            bus.topic("nope")

    def test_ensure_topic_idempotent(self, bus):
        t1 = bus.ensure_topic("events")
        t2 = bus.ensure_topic("other", 2)
        assert t1.name == "events"
        assert t2.num_partitions == 2
        assert "other" in bus.topics()

    def test_invalid_partition_count(self):
        with pytest.raises(ValueError):
            MessageBus().create_topic("t", 0)

    def test_offsets_monotonic_per_partition(self, bus):
        for i in range(20):
            bus.publish("events", i, key="same-source")
        t = bus.topic("events")
        p = t.partition_for("same-source")
        assert [r.offset for r in t.partitions[p]] == list(range(20))

    def test_keyed_messages_colocate(self, bus):
        recs = [bus.publish("events", i, key="c0-0c0s0n1") for i in range(5)]
        assert len({r.partition for r in recs}) == 1

    def test_unkeyed_messages_spread(self, bus):
        recs = [bus.publish("events", i) for i in range(40)]
        assert len({r.partition for r in recs}) == 4

    def test_total_records(self, bus):
        for i in range(7):
            bus.publish("events", i)
        assert sum(map(len, bus.topic("events").partitions)) == 7


class TestProducer:
    def test_send_with_default_topic(self, bus):
        prod = Producer(bus, default_topic="events")
        rec = prod.send({"type": "MCE"}, key="n1", timestamp=3.5)
        assert rec.value == {"type": "MCE"}
        assert rec.timestamp == 3.5
        assert prod.sent == 1

    def test_send_requires_topic(self, bus):
        with pytest.raises(ValueError):
            Producer(bus).send("x")


class TestConsumerGroups:
    def test_single_consumer_gets_everything(self, bus):
        for i in range(10):
            bus.publish("events", i)
        group = ConsumerGroup(bus, "g1", "events")
        consumer = group.join()
        got = [r.value for r in consumer.poll()]
        assert sorted(got) == list(range(10))

    def test_assignment_partitions_disjoint_and_complete(self, bus):
        group = ConsumerGroup(bus, "g1", "events")
        c1, c2 = group.join(), group.join()
        assigned = c1.assignment + c2.assignment
        assert sorted(assigned) == [0, 1, 2, 3]
        assert set(c1.assignment).isdisjoint(c2.assignment)

    def test_commit_prevents_redelivery(self, bus):
        for i in range(5):
            bus.publish("events", i)
        group = ConsumerGroup(bus, "g1", "events")
        c = group.join()
        assert len(c.poll()) == 5
        c.commit()
        assert c.poll() == []
        assert group.lag() == 0

    def test_uncommitted_records_redelivered_after_crash(self, bus):
        for i in range(5):
            bus.publish("events", i)
        group = ConsumerGroup(bus, "g1", "events")
        c1 = group.join()
        assert len(c1.poll()) == 5
        group.leave(c1)  # crash without commit
        c2 = group.join()
        assert len(c2.poll()) == 5  # at-least-once

    def test_independent_groups_replay(self, bus):
        for i in range(3):
            bus.publish("events", i)
        g1 = ConsumerGroup(bus, "g1", "events")
        g2 = ConsumerGroup(bus, "g2", "events")
        c1, c2 = g1.join(), g2.join()
        assert len(c1.poll()) == 3
        c1.commit()
        assert len(c2.poll()) == 3  # unaffected by g1's commit

    def test_poll_respects_max_records(self, bus):
        for i in range(100):
            bus.publish("events", i, key="k")
        group = ConsumerGroup(bus, "g1", "events")
        c = group.join()
        first = c.poll(max_records=30)
        assert len(first) == 30
        rest = c.poll(max_records=1000)
        assert len(rest) == 70

    def test_commit_backwards_rejected(self, bus):
        bus.publish("events", 1, key="k")
        bus.commit("g", "events", 0, 5)
        with pytest.raises(ValueError):
            bus.commit("g", "events", 0, 2)

    def test_rebalance_count(self, bus):
        group = ConsumerGroup(bus, "g1", "events")
        c1 = group.join()
        c2 = group.join()
        c2.close()
        assert group.rebalances == 3
        assert group.members == [c1]
        assert c1.assignment == [0, 1, 2, 3]

    def test_lag_tracks_unconsumed(self, bus):
        for i in range(6):
            bus.publish("events", i)
        group = ConsumerGroup(bus, "g1", "events")
        assert group.lag() == 6
        c = group.join()
        c.poll()
        assert group.lag() == 6  # poll alone doesn't commit
        c.commit()
        assert group.lag() == 0


class TestTracePropagation:
    def test_publish_stamps_active_trace(self, bus):
        from repro import obs

        tracer = obs.get_tracer()
        with tracer.root_span("producer.emit") as root:
            record = bus.publish("events", {"v": 1}, key="k", timestamp=1.0)
        assert record.trace is not None
        trace_id, span_id = record.trace
        assert trace_id == root.trace_id
        # The stamp is the bus.publish child span, not the root itself.
        assert span_id != root.span_id

    def test_publish_outside_trace_leaves_no_stamp(self, bus):
        record = bus.publish("events", {"v": 1}, key="k", timestamp=1.0)
        assert record.trace is None

    def test_chaos_duplicates_share_the_stamp(self, bus):
        from repro import obs

        class DupGate:
            def on_publish(self, topic):
                return 1

            def on_fetch(self, topic, partition):
                return False

        bus.chaos_gate = DupGate()
        with obs.get_tracer().root_span("producer.emit"):
            bus.publish("events", {"v": 2}, key="k", timestamp=1.0)
        topic = bus.topic("events")
        copies = [r for part in topic.partitions for r in part
                  if r.value == {"v": 2}]
        assert len(copies) == 2
        assert copies[0].trace == copies[1].trace is not None


class TestRedeliveryMetric:
    """``bus.consumer.redelivered`` counts exactly the records a consumer
    fetched *again* after an earlier delivery (crash/rebalance replay) —
    not first deliveries, and not chaos-dropped fetches that never
    reached a consumer."""

    def _counter(self, group, topic="events"):
        from repro import obs

        return obs.get_registry().counter(
            "bus.consumer.redelivered", group=group, topic=topic)

    def test_first_delivery_counts_zero(self, bus):
        for i in range(5):
            bus.publish("events", i)
        group = ConsumerGroup(bus, "rm-first", "events")
        c = group.join()
        before = self._counter("rm-first").value
        assert len(c.poll()) == 5
        c.commit()
        assert self._counter("rm-first").value == before

    def test_crash_replay_counts_uncommitted_records(self, bus):
        for i in range(5):
            bus.publish("events", i)
        group = ConsumerGroup(bus, "rm-crash", "events")
        c1 = group.join()
        assert len(c1.poll()) == 5
        group.leave(c1)  # crash without commit
        before = self._counter("rm-crash").value
        c2 = group.join()
        assert len(c2.poll()) == 5
        assert self._counter("rm-crash").value - before == 5

    def test_committed_prefix_not_counted(self, bus):
        for i in range(4):
            bus.publish("events", i, key="k")  # one partition
        group = ConsumerGroup(bus, "rm-prefix", "events")
        c1 = group.join()
        assert len(c1.poll()) == 4
        c1.commit()
        for i in range(3):
            bus.publish("events", 10 + i, key="k")
        assert len(c1.poll()) == 3  # delivered but not committed
        group.leave(c1)
        before = self._counter("rm-prefix").value
        c2 = group.join()
        # Only the 3 uncommitted records replay; the committed 4 do not.
        assert len(c2.poll()) == 3
        assert self._counter("rm-prefix").value - before == 3

    def test_chaos_dropped_fetch_is_not_a_redelivery(self, bus):
        class DropFirstFetch:
            def __init__(self):
                self.dropped = 0

            def on_publish(self, topic):
                return 0

            def on_fetch(self, topic, partition):
                if self.dropped == 0:
                    self.dropped += 1
                    return True
                return False

        for i in range(5):
            bus.publish("events", i, key="k")
        group = ConsumerGroup(bus, "rm-chaos", "events")
        c = group.join()
        before = self._counter("rm-chaos").value
        bus.chaos_gate = DropFirstFetch()
        assert c.poll() == []  # dropped in the "network"
        records = c.poll()  # re-fetch from the same offset succeeds
        assert len(records) == 5
        # The records were fetched twice from the broker's view, but the
        # consumer only ever saw them once: zero redeliveries.
        assert self._counter("rm-chaos").value == before
        # ...whereas an actual replay of the same records does count.
        group.leave(c)
        c2 = group.join()
        assert len(c2.poll()) == 5
        assert self._counter("rm-chaos").value - before == 5
