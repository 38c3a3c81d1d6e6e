"""The batch commit: route by replica set, apply by node.

Every write is a batch: ``insert`` is a ``write_batch`` of one row and
``delete_row`` commits one tombstone marker the same way.
``Cluster._commit_groups`` is the one place their rows reach a replica,
acks are counted and hints are buffered; hint replay and repair land a
replica's rows with one ``StorageNode.write_rows`` too.  What a caller
can observe of it:

* hints sit on a replica that *applied* the write — never on the
  replica they are for, where no revival would replay them;
* a fault matrix: multi-group batches × {kill, crash, flap window} ×
  {ONE, QUORUM, ALL} × the victim first or second in its replica lists;
* one ``write_batch`` enters ``StorageNode.write_rows`` at most once per
  node, whatever the batch size;
* generated histories of writes, deletes, batches, flushes, reads,
  repairs and node failures agree with a dict of last-write-wins: at
  every read whose level overlaps every write's acks (R + W > N), and
  on every replica once every node is back.
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.cassdb import (
    CassDBError,
    Cluster,
    Consistency,
    RetryPolicy,
    TableSchema,
)
from repro.cassdb.errors import (
    BatchUnavailableError,
    BatchWriteTimeoutError,
    NodeDownError,
    ReadTimeoutError,
    UnavailableError,
    WriteTimeoutError,
)
from repro.cassdb.memtable import Batch
from repro.cassdb.node import StorageNode
from repro.cassdb.row import Row, columns_of
from repro.chaos import FaultGate, FaultPlan, FlapSpec

SCHEMA = TableSchema("t", partition_key=("pk",), clustering_key=("ck",))
NODES = [f"node{i:02d}" for i in range(4)]
VICTIM = "node00"


def make_cluster(**kw) -> Cluster:
    cluster = Cluster(4, replication_factor=2, **kw)
    cluster.create_table(SCHEMA)
    return cluster


def ring_key(pk: str) -> str:
    return SCHEMA.ring_key((pk,))


def partitions_with_victim_at(cluster: Cluster, position: int | None,
                              count: int) -> list[str]:
    """*count* partition names whose replica list has VICTIM at
    *position* (None: not at all)."""
    out = []
    for i in range(400):
        pk = f"p{i}"
        replicas = cluster.ring.replicas(ring_key(pk))
        if (VICTIM not in replicas if position is None
                else replicas[position] == VICTIM):
            out.append(pk)
            if len(out) == count:
                return out
    raise AssertionError("ring gave too few matching partitions")


def held_by(cluster: Cluster, node_id: str, pk: str) -> set[int]:
    """Clustering values of *pk* in *node_id*'s own store."""
    store = cluster.nodes[node_id].tables.get("t")
    if store is None:
        return set()
    return {row.clustering[0]
            for row in store.read_partition_view((pk,)).to_rows()}


def hints_by_holder(cluster: Cluster) -> dict[str, list]:
    return {nid: list(node.hints)
            for nid, node in cluster.nodes.items() if node.hints}


class TestHintHolder:
    """A hint must sit on a replica that applied the write.  The parent
    commit picked the holder from *routing* liveness, so a silently
    crashed first replica buffered its own hints and never got them."""

    @pytest.mark.parametrize("position", [0, 1], ids=["first", "second"])
    @pytest.mark.parametrize("op", ["write_batch", "insert"])
    def test_crashed_replica_catches_up_on_revival(self, op, position):
        cluster = make_cluster()
        pks = partitions_with_victim_at(cluster, position, 12)
        cluster.crash_node(VICTIM)
        rows = [{"pk": pk, "ck": 0, "v": pk} for pk in pks]
        if op == "write_batch":
            cluster.write_batch("t", columns_of(rows), Consistency.ONE)
        else:
            for values in rows:
                cluster.insert("t", values, Consistency.ONE)
        assert cluster.hinted_writes == len(pks)
        assert not cluster.nodes[VICTIM].hints
        for holder, hints in hints_by_holder(cluster).items():
            for hint in hints:
                assert hint.target_node == VICTIM
                assert holder in cluster.ring.replicas(
                    SCHEMA.ring_key(hint.partition_key))
        cluster.recover_node(VICTIM)
        cluster.revive_node(VICTIM)
        assert not hints_by_holder(cluster)
        for pk in pks:
            assert held_by(cluster, VICTIM, pk) == {0}
        # Served by the revived replica alone, the row is there.
        for nid in NODES:
            if nid != VICTIM:
                cluster.kill_node(nid)
        for pk in pks:
            assert cluster.select_partition("t", (pk,)) == [
                {"pk": pk, "ck": 0, "v": pk}]
        for nid in NODES:
            cluster.revive_node(nid)
        assert cluster.repair("t") == 0

    def test_group_nobody_applied_buffers_no_hints(self):
        cluster = make_cluster()
        pk = partitions_with_victim_at(cluster, 0, 1)[0]
        for nid in cluster.ring.replicas(ring_key(pk)):
            cluster.crash_node(nid)
        with pytest.raises(WriteTimeoutError) as raised:
            cluster.insert("t", {"pk": pk, "ck": 0})
        assert raised.value.received == 0
        assert cluster.hinted_writes == 0
        assert not hints_by_holder(cluster)
        assert cluster.table_epoch("t") == 0


def _inject(cluster: Cluster, fault: str):
    """Apply *fault* to VICTIM; returns the undo that brings it back
    (hint replay included)."""
    if fault == "kill":
        cluster.kill_node(VICTIM)
        return lambda: cluster.revive_node(VICTIM)
    if fault == "crash":
        cluster.crash_node(VICTIM)

        def heal():
            cluster.recover_node(VICTIM)
            cluster.revive_node(VICTIM)
        return heal
    # A flap window: the coordinator sees VICTIM as down for the next
    # thousand ops although its process is fine.
    gate = FaultGate(FaultPlan(seed=1, flap=FlapSpec(
        nodes=(VICTIM,), period_ops=2_000, down_ops=1_000, stagger=False)))
    gate.arm(cluster=cluster)

    def heal():
        gate.disarm()
        cluster.revive_node(VICTIM)
    return heal


class TestFaultMatrix:
    """Multi-group batches under one faulty node: which error, what it
    says, what is readable, and that revival converges every replica."""

    @pytest.mark.parametrize("position", [0, 1], ids=["first", "second"])
    @pytest.mark.parametrize("level", [Consistency.ONE, Consistency.QUORUM,
                                       Consistency.ALL],
                             ids=lambda c: c.value)
    @pytest.mark.parametrize("fault", ["kill", "crash", "flap"])
    def test_batch(self, fault, level, position):
        routed = fault == "crash"       # coordinator still routes to it
        strict = level is not Consistency.ONE
        # A retry re-sends a short group and re-buffers its hints: the
        # counts below are those of one attempt.
        cluster = make_cluster(retry_policy=(
            RetryPolicy(max_attempts=1) if routed and strict
            else RetryPolicy()))
        # Interleave partitions that replicate on the victim with ones
        # that do not: several replica-set groups of either sort.
        hit = partitions_with_victim_at(cluster, position, 8)
        clear = partitions_with_victim_at(cluster, None, 8)
        pks = [pk for pair in zip(clear, hit) for pk in pair]
        rows = [{"pk": pk, "ck": ck, "v": ck} for pk in pks for ck in (0, 1)]
        groups: dict[tuple, list] = {}
        for values in rows:
            replicas = tuple(cluster.ring.replicas(ring_key(values["pk"])))
            groups.setdefault(replicas, []).append(values)
        assert sum(VICTIM in g for g in groups) >= 2
        assert sum(VICTIM not in g for g in groups) >= 2
        first_hit = next(g for g in groups if VICTIM in g)
        rows_hit = sum(len(v) for g, v in groups.items() if VICTIM in g)
        rows_clear = len(rows) - rows_hit

        heal = _inject(cluster, fault)
        error = None
        try:
            cluster.write_batch("t", columns_of(rows), level)
        except CassDBError as exc:
            error = exc

        if not strict:
            assert error is None
            acked = rows
            assert cluster.coordinator_writes == len(rows)
            assert cluster.hinted_writes == rows_hit
            assert cluster.table_epoch("t") == 1
        elif routed:
            # Every group was admitted and applied; the victim's groups
            # are one ack short.
            assert type(error) is BatchWriteTimeoutError
            assert (error.required, error.received) == (2, 1)
            assert error.group == first_hit
            assert error.group_rows == len(groups[first_hit])
            assert error.applied_rows == rows_clear
            assert error.table == "t"
            acked = rows
            assert cluster.coordinator_writes == rows_clear
            assert cluster.hinted_writes == rows_hit
            assert cluster.table_epoch("t") >= 1
        else:
            # Availability is checked for the whole batch first.
            assert type(error) is BatchUnavailableError
            assert (error.required, error.alive) == (2, 1)
            assert error.group == first_hit
            assert error.group_rows == len(groups[first_hit])
            assert error.applied_rows == 0
            acked = []
            assert cluster.coordinator_writes == 0
            assert cluster.hinted_writes == 0
            assert cluster.table_epoch("t") == 0
            assert not cluster.partition_keys("t")

        # Hints: one per row the victim missed, on the other replica.
        hints = hints_by_holder(cluster)
        assert VICTIM not in hints
        assert sum(map(len, hints.values())) == (rows_hit if acked else 0)
        for holder, held in hints.items():
            for hint in held:
                replicas = cluster.ring.replicas(
                    SCHEMA.ring_key(hint.partition_key))
                assert hint.target_node == VICTIM
                assert holder in replicas and holder != VICTIM
        # Every acked row is on a healthy replica now, so readable (a
        # coordinator still routing reads to a crashed victim times out
        # instead; that is the read path's business)...
        for pk in pks:
            healthy = [nid for nid in cluster.ring.replicas(ring_key(pk))
                       if nid != VICTIM]
            assert all(held_by(cluster, nid, pk) == ({0, 1} if acked
                                                     else set())
                       for nid in healthy)
            if fault != "crash":
                got = cluster.select_partition("t", (pk,))
                assert [r["ck"] for r in got] == ([0, 1] if acked else [])
        # ...and on every replica once the victim is back.
        heal()
        assert not hints_by_holder(cluster)
        for pk in pks:
            for nid in cluster.ring.replicas(ring_key(pk)):
                assert held_by(cluster, nid, pk) == ({0, 1} if acked
                                                     else set())
        assert cluster.repair("t") == 0

    def test_retry_resends_only_groups_that_did_not_commit(self, monkeypatch):
        cluster = make_cluster(retry_policy=RetryPolicy(
            max_attempts=3, base_delay_ms=0.0, jitter=0.0))
        hit = partitions_with_victim_at(cluster, 1, 6)
        clear = partitions_with_victim_at(cluster, None, 6)
        rows = [{"pk": pk, "ck": 0} for pk in clear + hit]
        cluster.crash_node(VICTIM)
        sent: list[list[tuple]] = []
        real = StorageNode.write_rows

        def spy(node, table, items):
            if node.node_id != VICTIM:
                sent.append([pk for pk, _row in items])
            return real(node, table, items)

        monkeypatch.setattr(StorageNode, "write_rows", spy)
        with pytest.raises(BatchWriteTimeoutError) as raised:
            cluster.write_batch("t", columns_of(rows), Consistency.QUORUM)
        assert raised.value.applied_rows == len(clear)
        assert cluster.coordinator_writes == len(clear)
        # The victim-free groups went out once, to both replicas; the
        # short groups went to their healthy replica on every attempt.
        sends = Counter(key for keys in sent for key in keys)
        assert {sends[(pk,)] for pk in clear} == {2}
        assert {sends[(pk,)] for pk in hit} == {3}


class TestOneApplyPerNode:
    @pytest.mark.parametrize("n_rows", [1, 16, 600])
    def test_write_batch_enters_each_node_at_most_once(self, monkeypatch,
                                                       n_rows):
        cluster = make_cluster()
        calls: dict[str, list[int]] = {}
        real = StorageNode.write_rows

        def spy(node, table, items):
            calls.setdefault(node.node_id, []).append(len(items))
            keys = [pk for pk, _row in items]
            assert keys == sorted(keys)
            return real(node, table, items)

        monkeypatch.setattr(StorageNode, "write_rows", spy)
        rows = [{"pk": f"p{i % 97}", "ck": i, "v": i} for i in range(n_rows)]
        assert cluster.write_batch("t", columns_of(rows)) == n_rows
        assert all(len(sizes) == 1 for sizes in calls.values())
        assert sum(sizes[0] for sizes in calls.values()) == 2 * n_rows
        assert cluster.total_rows("t") == n_rows


class TestOneWritePerReplica:
    """Hint replay and repair land a replica's rows the way a batch
    does: one ``StorageNode.write_rows`` per (replica, table), one epoch
    bump per table — counted as calls, not timed."""

    @staticmethod
    def spy_writes(monkeypatch) -> list[tuple[str, str, int]]:
        calls: list[tuple[str, str, int]] = []
        real = StorageNode.write_rows

        def spy(node, table, items):
            calls.append((node.node_id, table, len(items)))
            return real(node, table, items)

        monkeypatch.setattr(StorageNode, "write_rows", spy)
        return calls

    @pytest.mark.parametrize("k", [1, 5, 40])
    @pytest.mark.parametrize("holder", ["peers", "revived"])
    def test_revival_lands_each_targets_hints_at_once(self, monkeypatch, k,
                                                      holder):
        cluster = make_cluster()
        pks = partitions_with_victim_at(cluster, 1, k)
        partner = cluster.ring.replicas(ring_key(pks[0]))[0]
        pks = [pk for pk in pks
               if cluster.ring.replicas(ring_key(pk))[0] == partner]
        cluster.kill_node(VICTIM)
        cluster.write_batch("t", columns_of(
            [{"pk": pk, "ck": 0} for pk in pks]))
        target, revived = VICTIM, partner
        if holder == "peers":
            revived = VICTIM      # the partner holds hints for it
        else:
            cluster.kill_node(partner)   # it holds hints for the victim
            cluster.revive_node(VICTIM)  # the partner is down: none land
        assert [len(node.hints) for node in cluster.nodes.values()
                if node.hints] == [len(pks)]
        epoch = cluster.table_epoch("t")
        calls = self.spy_writes(monkeypatch)
        cluster.revive_node(revived)
        assert calls == [(target, "t", len(pks))]
        assert cluster.table_epoch("t") == epoch + 1
        assert all(held_by(cluster, target, pk) == {0} for pk in pks)

    @pytest.mark.parametrize("doomed", ["revived", "peer"])
    def test_a_target_that_crashes_mid_revival_keeps_its_hints(
            self, monkeypatch, doomed):
        cluster = make_cluster()
        by_other: dict[str, list[str]] = {}
        for i in range(200):
            replicas = cluster.ring.replicas(ring_key(f"p{i}"))
            if VICTIM in replicas:
                by_other.setdefault(
                    next(r for r in replicas if r != VICTIM), []).append(f"p{i}")
        (peer, for_victim), (other, for_other) = list(by_other.items())[:2]
        for_victim, for_other = for_victim[:3], for_other[:3]
        cluster.crash_node(other)  # the victim holds hints for it
        cluster.write_batch("t", columns_of(
            [{"pk": pk, "ck": 0} for pk in for_other]))
        cluster.recover_node(other)
        cluster.kill_node(VICTIM)  # the peer holds hints for the victim
        cluster.write_batch("t", columns_of(
            [{"pk": pk, "ck": 0} for pk in for_victim]))
        assert {nid: [h.target_node for h in hints] for nid, hints
                in hints_by_holder(cluster).items()} == {
            VICTIM: [other] * 3, peer: [VICTIM] * 3}
        doomed_id = VICTIM if doomed == "revived" else other
        real = StorageNode.write_rows

        def crashes_on_arrival(node, table, items):
            if node.node_id == doomed_id:
                node.crash()  # as if on another thread, after the drain
            return real(node, table, items)

        monkeypatch.setattr(StorageNode, "write_rows", crashes_on_arrival)
        epoch = cluster.table_epoch("t")
        cluster.revive_node(VICTIM)
        monkeypatch.undo()
        # The share that landed moved the epoch; the other went back to
        # the node that held it.
        assert cluster.table_epoch("t") == epoch + 1
        if doomed == "revived":
            assert [h.target_node for h in cluster.nodes[peer].hints] == [
                VICTIM] * 3
            assert not cluster.nodes[VICTIM].hints
            assert all(held_by(cluster, other, pk) == {0} for pk in for_other)
        else:
            assert [h.target_node for h in cluster.nodes[VICTIM].hints] == [
                other] * 3
            assert not cluster.nodes[peer].hints
            assert all(held_by(cluster, VICTIM, pk) == {0}
                       for pk in for_victim)
        cluster.recover_node(doomed_id)
        cluster.revive_node(doomed_id)
        assert not hints_by_holder(cluster)
        assert all(held_by(cluster, VICTIM, pk) == {0} for pk in for_victim)
        assert all(held_by(cluster, other, pk) == {0} for pk in for_other)

    # replica position -> the extra rows written straight into it
    HOLDS = {
        "one_lacks": {1: (10, 11, 12), 2: (10, 11, 12)},
        "two_lack": {2: (10, 11, 12)},
        "each_lacks": {0: (10,), 1: (11,), 2: (12,)},
    }

    @pytest.mark.parametrize("case", HOLDS)
    def test_repair_pushes_each_lacking_replica_once(self, monkeypatch,
                                                     case):
        cluster = Cluster(4, replication_factor=3)
        cluster.create_table(SCHEMA)
        replicas = cluster.ring.replicas(ring_key("p0"))
        cluster.write_batch("t", columns_of([{"pk": "p0", "ck": ck} for ck in range(4)]),
                            Consistency.ALL)
        extra = {ck: Row((ck,), {"v": ck}, cluster.next_write_ts())
                 for ck in (10, 11, 12)}
        holds = self.HOLDS[case]
        for position, cks in holds.items():
            cluster.nodes[replicas[position]].write_rows(
                "t", Batch.of_rows([(("p0",), extra[ck]) for ck in cks]))
        calls = self.spy_writes(monkeypatch)
        assert cluster.repair("t") == 1
        lacked = {rid: 3 - len(holds.get(position, ()))
                  for position, rid in enumerate(replicas)}
        assert sorted(calls) == sorted((rid, "t", n)
                                       for rid, n in lacked.items() if n)
        assert cluster.repair("t") == 0

    def test_a_replica_that_fails_its_push_counts_none(self, monkeypatch):
        cluster = Cluster(4, replication_factor=3)
        cluster.create_table(SCHEMA)
        first, second, third = cluster.ring.replicas(ring_key("p0"))
        rows = [Row((ck,), {}, cluster.next_write_ts()) for ck in range(5)]
        cluster.nodes[first].write_rows("t", Batch.of_rows(
            [(("p0",), r) for r in rows]))
        real = StorageNode.write_rows

        def crashed_after_answering(node, table, items):
            if node.node_id == second:
                raise NodeDownError(second)
            return real(node, table, items)

        monkeypatch.setattr(StorageNode, "write_rows",
                            crashed_after_answering)
        served = cluster.select_partition("t", ("p0",),
                                          consistency=Consistency.ALL)
        assert len(served) == 5
        assert cluster.read_repairs == 5  # the third replica's rows only
        assert held_by(cluster, third, "p0") == set(range(5))
        assert held_by(cluster, second, "p0") == set()


# -- generated histories ----------------------------------------------------

_pks = st.sampled_from([f"p{i}" for i in range(6)])
_cks = st.integers(0, 3)
_vals = st.integers(0, 99)
_nodes = st.sampled_from(NODES)
_levels = st.sampled_from([Consistency.ONE, Consistency.QUORUM])
_read_levels = st.sampled_from(
    [Consistency.ONE, Consistency.QUORUM, Consistency.ALL])
_ops = st.one_of(
    st.tuples(st.just("insert"), _pks, _cks, _vals, _levels),
    st.tuples(st.just("delete"), _pks, _cks, _levels),
    st.tuples(st.just("batch"),
              st.lists(st.tuples(_pks, _cks, _vals), min_size=1, max_size=8),
              _levels),
    st.tuples(st.just("flush")),
    st.tuples(st.just("read"), _pks, _read_levels),
    st.tuples(st.just("repair")),
    st.tuples(st.just("kill"), _nodes),
    st.tuples(st.just("crash"), _nodes),
    st.tuples(st.just("heal"), _nodes),
)
# A delete one of three replicas misses, its hint held by a replica that
# is down when it comes back: only reconciliation can deliver it.
_MISSED, _HOLDER, _ = Cluster(4, replication_factor=3).ring.replicas(
    ring_key("p0"))
_MISSED_DELETE = [
    ("insert", "p0", 0, 1, Consistency.QUORUM),
    ("kill", _MISSED),
    ("delete", "p0", 0, Consistency.QUORUM),
    ("kill", _HOLDER),
    ("heal", _MISSED),
    ("read", "p0", Consistency.QUORUM),
    ("repair",),
]


class TestCommitHistories:
    """insert / delete_row / write_batch / flush_all / select_partition
    / repair under kills and silent crashes, over two or three replicas
    a partition, against a dict of last-write-wins.

    The reference knows one thing about the commit: a batch with an
    unavailable group writes nothing, and otherwise a row is written
    wherever one of its replicas took it (a group short of its acks has
    failed, but its hints still carry the rows to the others).  And one
    thing about a read: it answers the reference whenever its level and
    the fewest acks any write to the partition got add up to more than
    the replica count — deletes included, whichever replicas answer."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops=st.lists(_ops, min_size=1, max_size=40), retry=st.booleans(),
           rf=st.sampled_from([2, 3]))
    @example(ops=_MISSED_DELETE, retry=False, rf=3)
    @example(ops=_MISSED_DELETE[:5] + _MISSED_DELETE[6:], retry=False, rf=3)
    def test_replicas_converge_on_the_reference(self, ops, retry, rf):
        policy = RetryPolicy(max_attempts=2 if retry else 1,
                             base_delay_ms=0.0, jitter=0.0)
        # No compaction: it collects tombstones one replica at a time.
        cluster = Cluster(4, replication_factor=rf, retry_policy=policy,
                          max_sstables=64)
        cluster.create_table(SCHEMA)
        reference: dict[tuple[str, int], int | None] = {}
        fewest_acks: dict[str, int] = {}    # over a partition's writes
        killed: set[str] = set()
        crashed: set[str] = set()

        def outcome(pks, level):
            """(raises, partitions written) for a write to *pks*."""
            acked, raises = {}, False
            for pk in pks:
                replicas = cluster.ring.replicas(ring_key(pk))
                routed = [r for r in replicas if r not in killed]
                if len(routed) < level.required(len(replicas)):
                    return True, set()          # unavailable: all or nothing
                acks = [r for r in routed if r not in crashed]
                if acks:
                    acked[pk] = len(acks)
                if len(acks) < level.required(len(replicas)):
                    raises = True
            for pk, acks in acked.items():
                fewest_acks[pk] = min(acks, fewest_acks.get(pk, rf))
            return raises, set(acked)

        def expected(pk):
            return [{"pk": pk, "ck": ck, "v": v}
                    for (p, ck), v in sorted(reference.items())
                    if p == pk and v is not None]

        def alone(nid, pk):
            return cluster.nodes[nid].read_partition_view(
                "t", (pk,)).to_rows()

        def attempt(call, pks, level):
            raises, written = outcome(pks, level)
            try:
                call()
            except (UnavailableError, WriteTimeoutError):
                assert raises
            else:
                assert not raises
            return written

        try:
            for op in ops:
                kind = op[0]
                if kind == "insert":
                    _, pk, ck, v, level = op
                    if attempt(lambda: cluster.insert(
                            "t", {"pk": pk, "ck": ck, "v": v}, level),
                            [pk], level):
                        reference[pk, ck] = v
                elif kind == "delete":
                    _, pk, ck, level = op
                    if attempt(lambda: cluster.delete_row(
                            "t", {"pk": pk, "ck": ck}, level), [pk], level):
                        reference[pk, ck] = None
                elif kind == "batch":
                    _, cells, level = op
                    rows = [{"pk": pk, "ck": ck, "v": v}
                            for pk, ck, v in cells]
                    written = attempt(
                        lambda: cluster.write_batch("t", columns_of(
                            rows), level),
                        [pk for pk, _, _ in cells], level)
                    for pk, ck, v in cells:
                        if pk in written:
                            reference[pk, ck] = v
                elif kind == "flush":
                    cluster.flush_all()
                elif kind == "read":
                    _, pk, level = op
                    try:
                        got = cluster.select_partition(
                            "t", (pk,), consistency=level)
                    except (UnavailableError, ReadTimeoutError):
                        assert (killed | crashed) & set(
                            cluster.ring.replicas(ring_key(pk)))
                    else:
                        if level.required(rf) + fewest_acks.get(pk, rf) > rf:
                            assert got == expected(pk), (pk, level)
                elif kind == "repair":
                    cluster.repair("t")
                    for pk in {pk for pk, _ck in reference}:
                        replicas = cluster.ring.replicas(ring_key(pk))
                        copies = [alone(nid, pk) for nid in replicas
                                  if nid not in killed | crashed]
                        assert all(c == copies[0] for c in copies), pk
                    assert cluster.repair("t") == 0
                elif kind == "kill":
                    cluster.kill_node(op[1])
                    killed.add(op[1])
                    crashed.discard(op[1])
                elif kind == "crash":
                    if op[1] not in killed:
                        cluster.crash_node(op[1])
                        crashed.add(op[1])
                elif op[1] in killed or op[1] in crashed:   # heal
                    cluster.recover_node(op[1])
                    cluster.revive_node(op[1])
                    killed.discard(op[1])
                    crashed.discard(op[1])
            for nid in sorted(killed | crashed):
                cluster.recover_node(nid)
                cluster.revive_node(nid)

            want = {pk: expected(pk) for pk, _ck in reference}
            # Each replica alone first: a read at ALL would repair them.
            for pk, rows in want.items():
                for nid in cluster.ring.replicas(ring_key(pk)):
                    others = [n for n in NODES if n != nid]
                    for other in others:
                        cluster.nodes[other].mark_down()
                    assert cluster.read_partition_raw(
                        "t", (pk,)) == rows, (pk, nid)
                    for other in others:
                        cluster.nodes[other].mark_up()
            assert cluster.repair("t") == 0
            for pk, rows in want.items():
                assert cluster.select_partition(
                    "t", (pk,), consistency=Consistency.ALL) == rows
        finally:
            cluster.close()
