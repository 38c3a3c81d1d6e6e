"""Consumer groups with partition assignment and offset commits.

Mirrors Kafka's consumer-group contract: the partitions of a topic are
divided among the group's live members (range assignment); each member
polls records from its partitions starting at the group's committed
offset and commits after processing.  Members joining or leaving
trigger a rebalance.  Records processed but not committed before a
"crash" are redelivered to the next assignee — the at-least-once
behaviour the streaming ingest pipeline has to coalesce away.
"""

from __future__ import annotations

from repro import obs

from .broker import MessageBus, Record

__all__ = ["ConsumerGroup", "Consumer"]


class ConsumerGroup:
    """Coordinates partition assignment for one (group, topic) pair."""

    def __init__(self, bus: MessageBus, group_id: str, topic: str):
        self.bus = bus
        self.group_id = group_id
        self.topic = topic
        # Subscribed from here on: until it commits, the group pins the
        # log at its start.
        bus.subscribe(group_id, topic)
        self._members: list["Consumer"] = []
        self.rebalances = 0
        # Per-partition delivery high-water mark (offset + 1 of the
        # newest record any member has polled).  Group-level, not
        # member-level, so it survives crash/rebalance — which is
        # exactly when uncommitted records come back.  A fetch below
        # this mark is a redelivery; a chaos-dropped fetch (records
        # never returned) is not, because the mark never advanced.
        self._delivered: dict[int, int] = {}
        self._m_redelivered = obs.get_registry().counter(
            "bus.consumer.redelivered", group=group_id, topic=topic)

    def join(self) -> "Consumer":
        consumer = Consumer(self)
        self._members.append(consumer)
        self._rebalance()
        return consumer

    def leave(self, consumer: "Consumer") -> None:
        self._members.remove(consumer)
        consumer._assigned = []
        self._rebalance()

    def _rebalance(self) -> None:
        self.rebalances += 1
        n = self.bus.topic(self.topic).num_partitions
        members = self._members
        for member in members:
            member._assigned = []
            member._positions = {}
        if not members:
            return
        for p in range(n):
            members[p % len(members)]._assigned.append(p)

    @property
    def members(self) -> list["Consumer"]:
        return list(self._members)

    def lag(self) -> int:
        return self.bus.lag(self.group_id, self.topic)


class Consumer:
    """One group member: polls its assigned partitions, commits offsets."""

    def __init__(self, group: ConsumerGroup):
        self.group = group
        self._assigned: list[int] = []
        # Uncommitted read positions (reset to committed on rebalance).
        self._positions: dict[int, int] = {}

    @property
    def assignment(self) -> list[int]:
        return list(self._assigned)

    def poll(self, max_records: int = 1000) -> list[Record]:
        """Fetch up to *max_records* across assigned partitions, in
        partition order, advancing the in-memory (uncommitted) position."""
        bus = self.group.bus
        out: list[Record] = []
        budget = max_records
        for p in self._assigned:
            if budget <= 0:
                break
            pos = self._positions.get(
                p, bus.committed(self.group.group_id, self.group.topic, p)
            )
            records = bus.fetch(self.group.topic, p, pos, budget)
            if records:
                high = self.group._delivered.get(p, 0)
                replayed = sum(1 for r in records if r.offset < high)
                if replayed:
                    self.group._m_redelivered.inc(replayed)
                self.group._delivered[p] = max(high,
                                               records[-1].offset + 1)
                self._positions[p] = records[-1].offset + 1
                out.extend(records)
                budget -= len(records)
        return out

    def unread(self) -> list[int]:
        """Assigned partitions whose log runs past this member's
        position: records left there by a capped or dropped fetch."""
        bus, group = self.group.bus, self.group
        return [p for p in self._assigned
                if self._positions.get(
                    p, bus.committed(group.group_id, group.topic, p))
                < bus.end_offset(group.topic, p)]

    def commit(self) -> None:
        """Commit every polled position (post-processing acknowledgment)."""
        for p, pos in self._positions.items():
            self.group.bus.commit(self.group.group_id, self.group.topic, p, pos)

    def close(self) -> None:
        self.group.leave(self)
