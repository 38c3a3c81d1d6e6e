"""Tests for composite event types (§V future work 1)."""

import pytest

from repro.core import GPU_RETIREMENT, NODE_DEATH_SEQUENCE, detect_composites
from repro.core.composite import CompositeEventDef
from repro.titan.events import Severity

from .conftest import HORIZON


def _row(ts, type_, source="n0"):
    return {"ts": ts, "type": type_, "source": source, "amount": 1}


AB = CompositeEventDef("AB", ("A", "B"), window=10.0)


class TestDefinition:
    def test_validation(self):
        with pytest.raises(ValueError):
            CompositeEventDef("X", ("A",), window=10.0)
        with pytest.raises(ValueError):
            CompositeEventDef("X", ("A", "B"), window=0.0)

    def test_as_event_type(self):
        et = NODE_DEATH_SEQUENCE.as_event_type()
        assert et.name == "NODE_DEATH_SEQUENCE"
        assert et.category == "composite"
        assert et.severity is Severity.FATAL


class TestDetection:
    def test_simple_sequence(self):
        matches = detect_composites(
            [_row(1.0, "A"), _row(3.0, "B")], [AB])
        assert len(matches) == 1
        m = matches[0]
        assert m.type == "AB"
        assert m.ts == 3.0
        assert m.span == 2.0

    def test_window_enforced(self):
        matches = detect_composites(
            [_row(1.0, "A"), _row(20.0, "B")], [AB])
        assert matches == []

    def test_order_enforced(self):
        matches = detect_composites(
            [_row(1.0, "B"), _row(2.0, "A")], [AB])
        assert matches == []

    def test_same_component_required(self):
        matches = detect_composites(
            [_row(1.0, "A", "n1"), _row(2.0, "B", "n2")], [AB])
        assert matches == []

    def test_three_element_sequence(self):
        abc = CompositeEventDef("ABC", ("A", "B", "C"), window=30.0)
        rows = [_row(1.0, "A"), _row(5.0, "B"), _row(9.0, "C")]
        matches = detect_composites(rows, [abc])
        assert len(matches) == 1
        assert matches[0].element_times == (1.0, 5.0, 9.0)

    def test_interleaved_other_events_ok(self):
        rows = [_row(1.0, "A"), _row(1.5, "X"), _row(3.0, "B")]
        assert len(detect_composites(rows, [AB])) == 1

    def test_elements_not_reused(self):
        # Two A's, one B: only one match (B consumed once).
        rows = [_row(1.0, "A"), _row(2.0, "A"), _row(3.0, "B")]
        assert len(detect_composites(rows, [AB])) == 1

    def test_two_full_sequences(self):
        rows = [_row(1.0, "A"), _row(2.0, "B"),
                _row(100.0, "A"), _row(101.0, "B")]
        assert len(detect_composites(rows, [AB])) == 2

    def test_multiple_definitions(self):
        cd = CompositeEventDef("CD", ("C", "D"), window=10.0)
        rows = [_row(1.0, "A"), _row(2.0, "B"),
                _row(3.0, "C"), _row(4.0, "D")]
        matches = detect_composites(rows, [AB, cd])
        assert {m.type for m in matches} == {"AB", "CD"}

    def test_sorted_output(self):
        rows = [_row(50.0, "A"), _row(51.0, "B"),
                _row(1.0, "A", "n1"), _row(2.0, "B", "n1")]
        matches = detect_composites(rows, [AB])
        assert [m.ts for m in matches] == [2.0, 51.0]


# Materialization MUTATES the store (writes composite events), so these
# tests build their own framework rather than dirtying the shared one.
@pytest.fixture(scope="module")
def own_fw(topo, events):
    from repro.core import LogAnalyticsFramework

    framework = LogAnalyticsFramework(topo, db_nodes=2).setup()
    framework.ingest_events(events)
    yield framework
    framework.stop()


class TestMaterialization:
    def test_cascades_materialized(self, own_fw, generator):
        """Every injected DRAM_UE cascade must materialize as one
        NODE_DEATH_SEQUENCE event, queryable through normal contexts."""
        full = own_fw.context(0, HORIZON)
        matches = own_fw.materialize_composites(
            full, [NODE_DEATH_SEQUENCE, GPU_RETIREMENT])
        death = [m for m in matches if m.type == "NODE_DEATH_SEQUENCE"]
        assert len(death) == len(generator.ground_truth.cascades)
        cascade_nodes = {n for n, _t in generator.ground_truth.cascades}
        assert {m.component for m in death} == cascade_nodes

        ctx = own_fw.context(0, HORIZON,
                             event_types=("NODE_DEATH_SEQUENCE",))
        rows = own_fw.events(ctx)
        assert len(rows) == len(death)
        assert all(r["msg"].startswith("COMPOSITE") for r in rows)

    def test_type_registered_and_persisted(self, own_fw):
        assert "NODE_DEATH_SEQUENCE" in own_fw.registry
        names = {t["name"] for t in own_fw.model.event_types()}
        assert "NODE_DEATH_SEQUENCE" in names

    def test_materialization_idempotent(self, own_fw):
        full = own_fw.context(0, HORIZON)
        before = len(own_fw.events(
            full.with_event_types("NODE_DEATH_SEQUENCE")))
        own_fw.materialize_composites(full, [NODE_DEATH_SEQUENCE])
        after = len(own_fw.events(
            full.with_event_types("NODE_DEATH_SEQUENCE")))
        assert after == before

    def test_composites_feed_analytics(self, own_fw):
        """The materialized type works with heat maps like any other."""
        ctx = own_fw.context(0, HORIZON,
                             event_types=("NODE_DEATH_SEQUENCE",))
        heat = own_fw.heatmap(ctx, "cabinet")
        assert sum(heat.values()) == len(own_fw.events(ctx))
