"""Tests for application profiles and off-profile run scoring (§V)."""

import pytest

from repro.core.profiles import (
    ApplicationProfile,
    _poisson_tail_log10,
    build_profiles,
    score_run,
)

from .conftest import HORIZON


class TestProfileObject:
    def test_rate_per_node_hour(self):
        profile = ApplicationProfile("X", runs=2, node_hours=10.0,
                                     event_counts={"MCE": 5})
        assert profile.rate("MCE") == 0.5
        assert profile.rate("UNSEEN") == 0.0

    def test_zero_node_hours(self):
        assert ApplicationProfile("X").rate("MCE") == 0.0

    def test_failure_fraction(self):
        profile = ApplicationProfile("X", runs=4, failed_runs=1)
        assert profile.failure_fraction == 0.25
        assert ApplicationProfile("Y").failure_fraction == 0.0

    def test_as_dict_serializable(self):
        import json

        profile = ApplicationProfile("X", runs=1, node_hours=2.0,
                                     event_counts={"MCE": 3})
        json.dumps(profile.as_dict())


class TestPoissonTail:
    def test_below_expectation_is_certain(self):
        assert _poisson_tail_log10(3, 5.0) == 0.0

    def test_monotone_in_observed(self):
        assert _poisson_tail_log10(50, 5.0) < _poisson_tail_log10(10, 5.0)

    def test_zero_expectation_extreme(self):
        assert _poisson_tail_log10(10, 0.0) < -20

    def test_never_positive(self):
        assert _poisson_tail_log10(6, 5.0) <= 0.0


class TestBuildProfiles:
    def test_every_app_profiled(self, fw, runs):
        profiles = build_profiles(fw.model, fw.context(0, HORIZON))
        assert set(profiles) == {r.app for r in runs}

    def test_run_counts_match(self, fw, runs):
        profiles = build_profiles(fw.model, fw.context(0, HORIZON))
        from collections import Counter

        truth = Counter(r.app for r in runs)
        for app, profile in profiles.items():
            assert profile.runs == truth[app]

    def test_node_hours_match(self, fw, runs):
        profiles = build_profiles(fw.model, fw.context(0, HORIZON))
        app = runs[0].app
        expected = sum(
            r.num_nodes * r.duration / 3600.0 for r in runs if r.app == app
        )
        assert profiles[app].node_hours == pytest.approx(expected, rel=1e-6)

    def test_failed_runs_counted(self, fw, runs):
        profiles = build_profiles(fw.model, fw.context(0, HORIZON))
        app_failures = {}
        for r in runs:
            if r.exit_status != "OK":
                app_failures[r.app] = app_failures.get(r.app, 0) + 1
        for app, n in app_failures.items():
            assert profiles[app].failed_runs == n

    def test_event_counts_positive_for_busy_apps(self, fw):
        profiles = build_profiles(fw.model, fw.context(0, HORIZON))
        busiest = max(profiles.values(), key=lambda p: p.node_hours)
        assert busiest.event_counts  # a big app saw *some* events


class TestScoreRun:
    def test_typical_run_not_anomalous(self, fw):
        profiles = build_profiles(fw.model, fw.context(0, HORIZON))
        app = max(profiles, key=lambda a: profiles[a].runs)
        rows = fw.runs(fw.context(0, HORIZON, app=app))
        anomaly_counts = [
            len(score_run(fw.model, run, profiles[app])) for run in rows
        ]
        # The profile is built FROM these runs: most must be on-profile.
        on_profile = sum(1 for n in anomaly_counts if n == 0)
        assert on_profile >= 0.8 * len(rows)

    @pytest.fixture
    def own_fw(self, topo, events, runs):
        # This test WRITES synthetic events, so it gets a private store.
        from repro.core import LogAnalyticsFramework

        framework = LogAnalyticsFramework(topo, db_nodes=2).setup()
        framework.ingest_events(events)
        framework.ingest_applications(runs)
        yield framework
        framework.stop()

    def test_injected_burst_flagged(self, own_fw):
        """Plant a fake run whose nodes took a private event storm; the
        scorer must flag the type."""
        fw = own_fw
        profiles = build_profiles(fw.model, fw.context(0, HORIZON))
        app = max(profiles, key=lambda a: profiles[a].node_hours)
        rows = fw.runs(fw.context(0, HORIZON, app=app))
        run = dict(max(rows, key=lambda r: r["num_nodes"]))
        profile = profiles[app]
        # Synthesize events: 200 GPU_XIDs on the run's first node.
        node = fw.model.run_nodes(run)[0]

        class _E:
            def __init__(self, ts):
                self.ts = ts
                self.type = "GPU_XID"
                self.component = node
                self.amount = 1
                self.attrs = {}
                self.raw = "synthetic burst"

        t0 = run["start"]
        fw.model.write_events(
            _E(t0 + i * (run["end"] - t0 - 1) / 200) for i in range(200)
        )
        anomalies = score_run(fw.model, run, profile)
        assert any(a.event_type == "GPU_XID" for a in anomalies)
        top = [a for a in anomalies if a.event_type == "GPU_XID"][0]
        assert top.observed >= 200
        assert top.log10_p < -10

    def test_min_observed_filter(self, fw):
        profiles = build_profiles(fw.model, fw.context(0, HORIZON))
        app = next(iter(profiles))
        rows = fw.runs(fw.context(0, HORIZON, app=app))
        anomalies = score_run(fw.model, rows[0], profiles[app],
                              min_observed=10**6)
        assert anomalies == []
