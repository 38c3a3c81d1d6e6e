"""FaultGate mechanics: determinism, scheduling, arming lifecycle."""

import pytest

from repro.bus import ConsumerGroup, MessageBus
from repro.cassdb import Cluster, Consistency, TableSchema
from repro.chaos import FaultGate, FaultPlan, FlapSpec
from repro.chaos.gate import FaultInjected
from repro.chaos.plan import BusFaults, CrashWindow, TaskFaults

SCHEMA = TableSchema("t", partition_key=("pk",), clustering_key=("ck",))


class TestPlan:
    def test_crash_window_validation(self):
        with pytest.raises(ValueError):
            CrashWindow("node01", at_op=5, recover_at_op=5)
        with pytest.raises(ValueError):
            CrashWindow("node01", at_op=1, kind="reboot")

    def test_describe_is_json_friendly(self):
        import json

        plan = FaultPlan(seed=9, crashes=(CrashWindow("node01", at_op=3),),
                         flap=FlapSpec(("node02",)),
                         bus=BusFaults(drop_rate=0.1))
        desc = plan.describe()
        assert json.loads(json.dumps(desc)) == desc
        assert desc["seed"] == 9


class TestDeterminism:
    def test_chance_is_pure_in_seed_and_key(self):
        a = FaultGate(FaultPlan(seed=5))
        b = FaultGate(FaultPlan(seed=5))
        decisions_a = [a._chance(f"k:{i}", 0.3) for i in range(64)]
        decisions_b = [b._chance(f"k:{i}", 0.3) for i in range(64)]
        assert decisions_a == decisions_b
        assert any(decisions_a) and not all(decisions_a)
        c = FaultGate(FaultPlan(seed=6))
        assert [c._chance(f"k:{i}", 0.3) for i in range(64)] != decisions_a

    def test_chance_rate_extremes(self):
        g = FaultGate(FaultPlan(seed=1))
        assert not any(g._chance(f"k:{i}", 0.0) for i in range(16))
        assert all(g._chance(f"k:{i}", 1.0) for i in range(16))

    def test_sequence_numbers_advance_per_key(self):
        g = FaultGate(FaultPlan(seed=1))
        assert [g._next_seq(("a",)) for _ in range(3)] == [0, 1, 2]
        assert g._next_seq(("b",)) == 0  # independent stream per key


class TestFlap:
    def test_lockstep_flap_phase_is_op_indexed(self):
        g = FaultGate(FaultPlan(seed=1, flap=FlapSpec(
            ("node01",), period_ops=4, down_ops=2, stagger=False)))
        down = []
        for op in range(8):
            g.op = op
            down.append(g.replica_down("node01"))
        assert down == [True, True, False, False] * 2
        assert not g.replica_down("node09")  # not in the flap set

    def test_staggered_offsets_are_seeded_and_spread(self):
        plan = FaultPlan(seed=2, flap=FlapSpec(
            ("node01", "node02", "node03"), period_ops=10, down_ops=5))
        assert FaultGate(plan)._flap_offsets == FaultGate(plan)._flap_offsets
        offsets = set(FaultGate(plan)._flap_offsets.values())
        assert len(offsets) > 1  # staggered, not lockstep


class TestCrashWindows:
    def test_kill_window_applies_and_recovers_on_schedule(self):
        cluster = Cluster(4, replication_factor=2)
        cluster.create_table(SCHEMA)
        plan = FaultPlan(seed=1, crashes=(
            CrashWindow("node01", at_op=3, recover_at_op=6, kind="kill"),))
        with FaultGate(plan).arm(cluster=cluster) as gate:
            for i in range(10):
                cluster.insert("t", {"pk": f"p{i}", "ck": i, "v": i})
                expect_up = not (3 <= gate.op < 6)
                assert cluster.nodes["node01"].up is expect_up
        assert gate.injected_snapshot() == {"crashes": 1, "recoveries": 1}
        cluster.close()

    def test_crash_kind_downs_the_process_not_routing(self):
        cluster = Cluster(4, replication_factor=2)
        cluster.create_table(SCHEMA)
        plan = FaultPlan(seed=1, crashes=(
            CrashWindow("node01", at_op=1, kind="crash"),))
        with FaultGate(plan).arm(cluster=cluster):
            cluster.insert("t", {"pk": "p0", "ck": 0, "v": 0})
            node = cluster.nodes["node01"]
            assert not node.process_up and node.routing_up
        cluster.close()


class TestBusFaults:
    def test_duplicates_are_per_publish_deterministic(self):
        g1 = FaultGate(FaultPlan(seed=4, bus=BusFaults(dup_rate=0.5)))
        g2 = FaultGate(FaultPlan(seed=4, bus=BusFaults(dup_rate=0.5)))
        dups1 = [g1.on_publish("logs") for _ in range(32)]
        assert dups1 == [g2.on_publish("logs") for _ in range(32)]
        assert 0 < sum(dups1) < 32

    def test_topic_filter(self):
        g = FaultGate(FaultPlan(seed=4, bus=BusFaults(
            drop_rate=1.0, dup_rate=1.0, topics=("other",))))
        assert g.on_publish("logs") == 0
        assert not g.on_fetch("logs", 0)
        assert g.on_publish("other") == 1
        assert g.on_fetch("other", 0)

    def test_dropped_fetch_redelivers_without_loss(self):
        bus = MessageBus()
        bus.create_topic("logs", num_partitions=1)
        with FaultGate(FaultPlan(seed=4, bus=BusFaults(drop_rate=0.5))
                       ).arm(bus=bus) as gate:
            for i in range(20):
                bus.publish("logs", i, key=str(i))
            consumer = ConsumerGroup(bus, "g", "logs").join()
            got = []
            for _ in range(200):
                records = consumer.poll(max_records=2)
                got.extend(r.value for r in records)
                if len(got) >= 20:
                    break
        assert got == list(range(20))  # order kept, nothing lost
        assert gate.injected_snapshot().get("bus_drops", 0) > 0


class TestTaskFaults:
    def test_task_fault_targets_named_workers_only(self):
        g = FaultGate(FaultPlan(seed=1, tasks=TaskFaults(
            fail_rate=1.0, workers=("worker01",))))
        g.on_task("worker00", 0)  # untargeted: no raise
        with pytest.raises(FaultInjected):
            g.on_task("worker01", 0)


class TestArming:
    def test_arm_and_disarm_restore_all_hooks(self):
        cluster = Cluster(3, replication_factor=2)
        bus = MessageBus()
        gate = FaultGate(FaultPlan(seed=1)).arm(cluster=cluster, bus=bus)
        assert cluster.chaos_gate is gate and bus.chaos_gate is gate
        gate.disarm()
        assert cluster.chaos_gate is None and bus.chaos_gate is None
        gate.disarm()  # idempotent
        cluster.close()

    def test_unarmed_cluster_has_no_gate(self):
        cluster = Cluster(3, replication_factor=2)
        assert cluster.chaos_gate is None
        cluster.close()
