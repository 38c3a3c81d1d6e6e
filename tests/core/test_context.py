"""Tests for the Context abstraction (§III-B)."""

import pytest

from repro.core.context import Context

from .conftest import HORIZON


class TestConstruction:
    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            Context(t0=10.0, t1=10.0)
        with pytest.raises(ValueError):
            Context(t0=10.0, t1=5.0)

    def test_narrow_time(self):
        ctx = Context(t0=0.0, t1=100.0)
        sub = ctx.narrow_time(10.0, 20.0)
        assert (sub.t0, sub.t1) == (10.0, 20.0)
        with pytest.raises(ValueError):
            ctx.narrow_time(-1.0, 20.0)
        with pytest.raises(ValueError):
            ctx.narrow_time(10.0, 200.0)

    def test_refinement_builders(self):
        ctx = (Context(0.0, 10.0)
               .with_event_types("MCE", "OOM")
               .with_sources("c0-0c0s0n0")
               .with_app("LAMMPS")
               .with_user("user001"))
        assert ctx.event_types == ("MCE", "OOM")
        assert ctx.sources == ("c0-0c0s0n0",)
        assert ctx.app == "LAMMPS"
        assert ctx.user == "user001"
        assert ctx.duration == 10.0

    def test_json_roundtrip(self):
        ctx = Context(0.0, 10.0, event_types=("MCE",), user="u1")
        again = Context.from_json(ctx.to_json())
        assert again == ctx

    def test_json_roundtrip_none_fields(self):
        ctx = Context(5.0, 6.0)
        assert Context.from_json(ctx.to_json()) == ctx


class TestEventResolution:
    def test_type_context(self, fw, events):
        ctx = fw.context(0, HORIZON, event_types=("GPU_XID",))
        rows = fw.events(ctx)
        assert len(rows) == sum(1 for e in events if e.type == "GPU_XID")

    def test_multi_type_context(self, fw, events):
        ctx = fw.context(0, HORIZON, event_types=("GPU_XID", "GPU_DBE"))
        rows = fw.events(ctx)
        expected = sum(1 for e in events if e.type in ("GPU_XID", "GPU_DBE"))
        assert len(rows) == expected

    def test_source_context(self, fw, events):
        node = events[0].component
        ctx = fw.context(0, HORIZON, sources=(node,))
        rows = fw.events(ctx)
        assert len(rows) == sum(1 for e in events if e.component == node)

    def test_type_and_source_context(self, fw, events):
        node = next(e.component for e in events if e.type == "DRAM_CE")
        ctx = fw.context(0, HORIZON, event_types=("DRAM_CE",),
                         sources=(node,))
        rows = fw.events(ctx)
        expected = sum(1 for e in events
                       if e.type == "DRAM_CE" and e.component == node)
        assert len(rows) == expected
        assert all(r["source"] == node and r["type"] == "DRAM_CE"
                   for r in rows)

    def test_unconstrained_context_sees_everything(self, fw, events):
        ctx = fw.context(0, HORIZON)
        assert len(fw.events(ctx)) == len(events)

    def test_events_sorted_by_time(self, fw):
        ctx = fw.context(0, HORIZON, event_types=("MCE", "OOM"))
        times = [r["ts"] for r in fw.events(ctx)]
        assert times == sorted(times)

    def test_narrowed_interval_subset(self, fw):
        full = fw.context(0, HORIZON, event_types=("MCE",))
        sub = full.narrow_time(3600.0, 7200.0)
        full_rows = fw.events(full)
        sub_rows = fw.events(sub)
        assert len(sub_rows) < len(full_rows)
        assert all(3600.0 <= r["ts"] < 7200.0 for r in sub_rows)


class TestApplicationResolution:
    def test_user_context_runs(self, fw, runs):
        user = runs[0].user
        ctx = fw.context(0, HORIZON, user=user)
        rows = fw.runs(ctx)
        assert rows
        assert all(r["user"] == user for r in rows)

    def test_app_context_runs(self, fw, runs):
        app = runs[0].app
        ctx = fw.context(0, HORIZON, app=app)
        rows = fw.runs(ctx)
        assert {r["app"] for r in rows} == {app}
        assert len(rows) == len([
            r for r in runs if r.app == app
        ])

    def test_app_and_user_context(self, fw, runs):
        run = runs[0]
        ctx = fw.context(0, HORIZON, app=run.app, user=run.user)
        rows = fw.runs(ctx)
        assert all(r["app"] == run.app and r["user"] == run.user
                   for r in rows)
        assert run.apid in {r["apid"] for r in rows}

    def test_source_filtered_runs(self, fw, runs):
        node = runs[0].nodes[0]
        ctx = fw.context(0, HORIZON, sources=(node,))
        rows = fw.runs(ctx)
        assert all(node in fw.model.run_nodes(r) for r in rows)

    def test_runs_sorted_by_start(self, fw):
        rows = fw.runs(fw.context(0, HORIZON))
        starts = [r["start"] for r in rows]
        assert starts == sorted(starts)

    def test_app_context_narrows_events_to_allocation(self, fw, runs):
        """An app context returns only events on the app's nodes during
        its runs — how users "visually inspect trends … during the run
        of their applications" (§I)."""
        run = max(runs, key=lambda r: r.num_nodes * r.duration)
        ctx = fw.context(0, HORIZON, app=run.app)
        rows = fw.events(ctx)
        app_runs = [r for r in runs if r.app == run.app]
        all_nodes = set().union(*(set(r.nodes) for r in app_runs))
        assert all(r["source"] in all_nodes for r in rows)

    def test_app_context_with_no_matches(self, fw):
        ctx = fw.context(0, HORIZON, app="NONEXISTENT_APP")
        assert fw.runs(ctx) == []
        assert fw.events(ctx) == []
