"""A topic partition is retained from the slowest subscribed group's
committed offset; offsets stay absolute."""

import sys
import threading

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro import obs
from repro.bus import ConsumerGroup, MessageBus


@pytest.fixture
def bus():
    b = MessageBus()
    b.create_topic("events", num_partitions=1)
    return b


def _drain(consumer):
    got = []
    while records := consumer.poll():
        got.extend(records)
    consumer.commit()
    return got


class TestRetention:
    def test_the_slowest_group_pins_the_log(self, bus):
        fast = ConsumerGroup(bus, "fast", "events").join()
        slow = ConsumerGroup(bus, "slow", "events").join()
        for i in range(10):
            bus.publish("events", i)
        assert len(_drain(fast)) == 10
        topic = bus.topic("events")
        assert len(topic.partitions[0]) == 10  # slow never committed
        assert len(slow.poll(max_records=4)) == 4
        slow.commit()
        assert [r.offset for r in topic.partitions[0]] == list(range(4, 10))
        assert topic.starts == [4]
        assert topic.end_offset(0) == 10

    def test_a_late_group_starts_at_the_log_start(self, bus):
        first = ConsumerGroup(bus, "first", "events").join()
        for i in range(6):
            bus.publish("events", i)
        first.poll(max_records=4)
        first.commit()
        assert [r.offset for r in bus.fetch("events", 0, 0)] == [4, 5]
        late = ConsumerGroup(bus, "late", "events")
        assert bus.committed("late", "events", 0) == 4
        got = late.join().poll()
        assert [(r.offset, r.value) for r in got] == [(4, 4), (5, 5)]
        bus.publish("events", 6)
        assert bus.publish("events", 7).offset == 7

    def test_lag_after_truncation_counts_from_the_log_start(self, bus):
        group = ConsumerGroup(bus, "g", "events")
        consumer = group.join()
        for i in range(8):
            bus.publish("events", i)
        consumer.poll(max_records=5)
        consumer.commit()
        assert bus.topic("events").starts == [5]
        assert group.lag() == 3
        assert bus.lag("never-joined", "events") == 3
        assert bus.committed("never-joined", "events", 0) == 5

    def test_no_commit_no_truncation(self, bus):
        """Publish before anyone subscribes: the log keeps everything
        until a group commits, so a group built afterwards reads it all."""
        for i in range(5):
            bus.publish("events", i)
        consumer = ConsumerGroup(bus, "g", "events").join()
        assert [r.value for r in _drain(consumer)] == list(range(5))
        assert bus.topic("events").partitions == [[]]

    def test_a_bare_commit_subscribes_its_group(self, bus):
        for i in range(3):
            bus.publish("events", i)
        bus.commit("bare", "events", 0, 2)
        assert bus.topic("events").starts == [2]
        group = ConsumerGroup(bus, "pinned", "events")  # starts at 2
        bus.commit("bare", "events", 0, 3)
        assert bus.topic("events").starts == [2]
        assert group.lag() == 1

    def test_uncommitted_records_survive_a_crash(self, bus):
        group = ConsumerGroup(bus, "g", "events")
        first = group.join()
        for i in range(6):
            bus.publish("events", i)
        first.poll(max_records=2)
        first.commit()
        first.poll()
        group.leave(first)  # crash without commit
        replay = group.join().poll()
        assert [r.offset for r in replay] == [2, 3, 4, 5]

    def test_queue_depth_counts_retained_records_per_topic(self):
        registry = obs.get_registry()
        bus = MessageBus()
        bus.create_topic("depth-probe", num_partitions=2)
        depth = registry.gauge("bus.queue_depth", topic="depth-probe")
        truncated = registry.counter("bus.truncated")
        before, cut = depth.value, truncated.value
        consumer = ConsumerGroup(bus, "g", "depth-probe").join()
        for i in range(9):
            bus.publish("depth-probe", i)
        assert depth.value - before == 9
        _drain(consumer)
        assert depth.value == before
        assert truncated.value - cut == 9

    def test_a_publisher_and_two_draining_groups_lose_nothing(self):
        """Publishes, polls, commits and truncations interleave on three
        threads; each group still gets every record once, in key order,
        and the drained log retains nothing."""
        bus = MessageBus()
        bus.create_topic("events", num_partitions=2)
        consumers = [ConsumerGroup(bus, g, "events").join() for g in "xy"]
        published = threading.Event()
        got = {c: [] for c in consumers}

        def publish():
            for i in range(3000):
                bus.publish("events", i, key=str(i % 7))
            published.set()

        def drain(consumer):
            while True:
                finished = published.is_set()
                records = consumer.poll(max_records=40)
                got[consumer].extend(r.value for r in records)
                consumer.commit()
                if finished and not records:
                    return

        threads = [threading.Thread(target=publish)] + [
            threading.Thread(target=drain, args=(c,)) for c in consumers]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for values in got.values():
            assert sorted(values) == list(range(3000))
            for key in range(7):
                mine = [v for v in values if v % 7 == key]
                assert mine == sorted(mine)
        assert bus.topic("events").partitions == [[], []]


# -- generated histories against a no-retention model ------------------------

KEYS = ("a", "b", "c", "d", "e")
PARTITIONS = 3


class DupOnce:
    """Chaos gate: one producer-retry duplicate per publish."""

    def on_publish(self, topic):
        return 1

    def on_fetch(self, topic, partition):
        return False


class BusHistory(RuleBasedStateMachine):
    """Publish (with and without duplicates), poll, commit, leave
    without commit, join, and groups arriving late, compared with a
    model that keeps every record forever."""

    def __init__(self):
        super().__init__()
        self.bus = MessageBus()
        self.topic = self.bus.create_topic("t", PARTITIONS)
        self.log = [[] for _ in range(PARTITIONS)]   # model: never truncated
        self.groups = {}        # name -> ConsumerGroup
        self.committed = {}     # name -> committed offset per partition
        self.first = {}         # name -> log start when it subscribed
        self.delivered = {}     # name -> set of (partition, offset)
        self.positions = {}     # consumer -> next offset per partition
        self.next_value = 0

    @property
    def consumers(self):
        return [c for g in self.groups.values() for c in g.members]

    def _start(self, p):
        if not self.committed:
            return 0
        return min(offsets[p] for offsets in self.committed.values())

    def _rebalanced(self, group):
        for consumer in group.members:
            self.positions[consumer] = {}

    @rule(key=st.sampled_from(KEYS), duplicate=st.booleans())
    def publish(self, key, duplicate):
        value, self.next_value = self.next_value, self.next_value + 1
        self.bus.chaos_gate = DupOnce() if duplicate else None
        try:
            record = self.bus.publish("t", value, key=key)
        finally:
            self.bus.chaos_gate = None
        log = self.log[record.partition]
        assert record.offset == len(log)
        log.extend([value] * (2 if duplicate else 1))

    @precondition(lambda self: len(self.groups) < 3)
    @rule()
    def new_group(self):
        name = f"g{len(self.groups)}"
        starts = [self._start(p) for p in range(PARTITIONS)]
        self.groups[name] = ConsumerGroup(self.bus, name, "t")
        self.committed[name] = list(starts)
        self.first[name] = list(starts)
        self.delivered[name] = set()

    @precondition(lambda self: self.groups)
    @rule(data=st.data())
    def join(self, data):
        group = self.groups[data.draw(st.sampled_from(sorted(self.groups)))]
        group.join()
        self._rebalanced(group)

    @precondition(lambda self: self.consumers)
    @rule(data=st.data(), max_records=st.integers(1, 6))
    def poll(self, data, max_records):
        consumer = data.draw(st.sampled_from(self.consumers))
        name = consumer.group.group_id
        positions = self.positions[consumer]
        records = consumer.poll(max_records)
        assert len(records) <= max_records
        for record in records:
            p = record.partition
            assert p in consumer.assignment
            assert record.offset == positions.get(p, self.committed[name][p])
            assert record.value == self.log[p][record.offset]
            positions[p] = record.offset + 1
            self.delivered[name].add((p, record.offset))

    @precondition(lambda self: self.consumers)
    @rule(data=st.data())
    def commit(self, data):
        consumer = data.draw(st.sampled_from(self.consumers))
        consumer.commit()
        offsets = self.committed[consumer.group.group_id]
        for p, pos in self.positions[consumer].items():
            offsets[p] = pos

    @precondition(lambda self: self.consumers)
    @rule(data=st.data())
    def leave_without_commit(self, data):
        consumer = data.draw(st.sampled_from(self.consumers))
        del self.positions[consumer]
        consumer.close()
        self._rebalanced(consumer.group)

    @invariant()
    def retained_is_end_minus_slowest_commit(self):
        for p in range(PARTITIONS):
            end = len(self.log[p])
            assert self.topic.end_offset(p) == end
            assert self.topic.starts[p] == self._start(p)
            assert len(self.topic.partitions[p]) == end - self._start(p)
            assert [r.offset for r in self.topic.partitions[p]] == list(
                range(self._start(p), end))

    @invariant()
    def committed_and_lag_match_the_model(self):
        for name, offsets in self.committed.items():
            for p in range(PARTITIONS):
                assert self.bus.committed(name, "t", p) == offsets[p]
            assert self.bus.lag(name, "t") == sum(
                len(self.log[p]) - offsets[p] for p in range(PARTITIONS))

    @invariant()
    def every_committed_record_was_delivered(self):
        """At least once: a group has received every record from where
        it subscribed up to its committed offset."""
        for name, offsets in self.committed.items():
            for p in range(PARTITIONS):
                want = {(p, o) for o in range(self.first[name][p], offsets[p])}
                assert want <= self.delivered[name]

    def teardown(self):
        """Drain every group with a member: each then holds every record
        from where it subscribed, and the log retains nothing."""
        for name, group in self.groups.items():
            if not group.members:
                continue
            for consumer in group.members:
                for record in _drain(consumer):
                    self.delivered[name].add((record.partition, record.offset))
            assert group.lag() == 0
            for p in range(PARTITIONS):
                assert {(p, o) for o in range(self.first[name][p],
                                              len(self.log[p]))} \
                    <= self.delivered[name]
        if all(g.members for g in self.groups.values()) and self.groups:
            assert all(not part for part in self.topic.partitions)


TestBusHistory = BusHistory.TestCase
TestBusHistory.settings = settings(max_examples=150, stateful_step_count=40,
                                   deadline=None)
