"""Unit tests for the online detectors in :mod:`repro.detect.detectors`."""

import random

import pytest

from repro.detect.detectors import (
    EWMARateDetector,
    LeadLagDetector,
    LustreStormDetector,
    SpatialBurstDetector,
    cabinet_of,
)
from repro.titan import TitanTopology

from tests.oracle import leadlag as leadlag_oracle


class TestCabinetOf:
    def test_node_cname(self):
        assert cabinet_of("c3-17c1s5n2") == "c3-17"

    def test_gemini_id(self):
        assert cabinet_of("c3-17c1s5g0") == "c3-17"

    def test_bare_cabinet(self):
        assert cabinet_of("c0-0") == "c0-0"

    def test_non_cray_component_maps_to_itself(self):
        assert cabinet_of("login1") == "login1"


class TestEWMARateDetector:
    KEY = ("MCE", "c0-0")

    def _warm(self, det, windows, count=1, start=0):
        for w in range(start, start + windows):
            assert det.observe(float(w), {self.KEY: count}) == []

    def test_warmup_suppression(self):
        det = EWMARateDetector()
        # A huge spike before min_samples windows must stay silent.
        self._warm(det, 10)
        assert det.observe(10.0, {self.KEY: 500}) == []

    def test_threshold_crossing_after_warmup(self):
        det = EWMARateDetector()
        self._warm(det, 40)
        alerts = det.observe(40.0, {self.KEY: 50})
        assert len(alerts) == 1
        a = alerts[0]
        assert a.detector == "ewma_rate"
        assert a.severity == "warning"
        assert a.key == "MCE|c0-0"
        assert a.score >= det.threshold
        assert a.window_start == 40.0 and a.window_end == 41.0
        assert a.ts == a.window_end
        assert a.evidence["count"] == 50

    def test_min_count_floor_gates_quiet_spikes(self):
        # 5-vs-~0 is a giant z but below min_count: never alerts.
        det = EWMARateDetector(min_count=8)
        self._warm(det, 40, count=0)
        assert det.observe(40.0, {self.KEY: 5}) == []

    def test_gap_decays_baseline(self):
        det = EWMARateDetector(min_samples=1, min_count=1)
        self._warm(det, 40, count=10)
        # Long silence: the EWMA must have decayed toward zero, so a
        # return to the old level now looks like a surge.
        alerts = det.observe(1000.0, {self.KEY: 10})
        assert len(alerts) == 1

    def test_ttl_eviction(self):
        det = EWMARateDetector(ttl_windows=10)
        det.observe(0.0, {("A", "c0-0"): 1})
        for w in range(1, 25):
            det.observe(float(w), {("B", "c0-0"): 1})
        assert ("A", "c0-0") not in det._keys
        assert ("B", "c0-0") in det._keys
        assert det.evicted >= 1

    def test_max_keys_cap(self):
        det = EWMARateDetector(max_keys=3)
        det.observe(0.0, {(f"T{i}", "c0-0"): 1 for i in range(5)})
        assert det.tracked_keys == 3
        assert det.evicted == 2


class TestSpatialBurstDetector:
    @pytest.fixture(scope="class")
    def topo(self):
        return TitanTopology(rows=5, cols=5)  # 25 cabinets

    def _burst_minute(self, det, minute, cabinet="c0-0", per_window=10):
        for w in range(4):
            det.observe(minute * 60.0 + w, {("MCE", cabinet): per_window})

    def test_concentrated_burst_alerts(self, topo):
        det = SpatialBurstDetector(topo)
        self._burst_minute(det, 0)
        # The minute closes when the next minute's first window arrives.
        alerts = det.observe(60.0, {("MCE", "c0-0"): 1})
        assert len(alerts) == 1
        a = alerts[0]
        assert a.detector == "spatial_burst"
        assert a.key == "c0-0"
        assert a.score >= det.lift_threshold
        assert a.evidence["top_types"][0]["type"] == "MCE"

    def test_uniform_traffic_never_alerts(self, topo):
        det = SpatialBurstDetector(topo)
        cabinets = [f"c{c}-{r}" for c in range(5) for r in range(5)]
        for w in range(4):
            det.observe(float(w), {("MCE", cab): 5 for cab in cabinets})
        assert det.observe(60.0, {("MCE", "c0-0"): 1}) == []

    def test_below_min_events_never_alerts(self, topo):
        det = SpatialBurstDetector(topo, min_events=30)
        det.observe(0.0, {("MCE", "c0-0"): 10})
        assert det.observe(60.0, {("MCE", "c0-0"): 1}) == []

    def test_cooldown_suppresses_realerts(self, topo):
        det = SpatialBurstDetector(topo, cooldown_minutes=10)
        self._burst_minute(det, 0)
        assert len(det.observe(60.0, {("MCE", "c0-0"): 10})) == 1
        self._burst_minute(det, 1)
        assert det.observe(120.0, {("MCE", "c0-0"): 1}) == []

    def test_tiny_topology_cannot_false_positive(self):
        # 1x2: every neighbourhood is the whole machine, lift ~ 1.
        det = SpatialBurstDetector(TitanTopology(rows=1, cols=2))
        self._burst_minute(det, 0, per_window=100)
        assert det.observe(60.0, {("MCE", "c0-0"): 1}) == []


class TestLustreStormDetector:
    QUIET = {("LUSTRE_ERR", "c0-0"): 1}
    STORM = {("LUSTRE_ERR", "c0-0"): 10, ("LUSTRE_ERR", "c1-0"): 10}

    def _warm(self, det, windows=35, start=0):
        for w in range(start, start + windows):
            assert det.observe(float(w), self.QUIET) == []

    def test_onset_fires_once_after_sustain(self):
        det = LustreStormDetector()
        self._warm(det)
        assert det.observe(35.0, self.STORM) == []  # sustain run = 1
        alerts = det.observe(36.0, self.STORM)
        assert len(alerts) == 1
        a = alerts[0]
        assert a.severity == "critical"
        assert a.detector == "lustre_storm"
        assert a.key == "filesystem"
        assert a.evidence["cabinets"] == 2
        assert a.evidence["dominant_type"] == "LUSTRE_ERR"
        assert a.evidence["onset"] == 35.0  # start of the sustain run
        assert det.in_storm
        # Continuing storm: no re-alert.
        for w in range(37, 60):
            assert det.observe(float(w), self.STORM) == []
        assert det.storms_opened == 1

    def test_single_cabinet_elevation_is_not_a_storm(self):
        det = LustreStormDetector(min_cabinets=2)
        self._warm(det)
        one_cab = {("LUSTRE_ERR", "c0-0"): 50}
        for w in range(35, 45):
            assert det.observe(float(w), one_cab) == []
        assert not det.in_storm

    def test_baseline_frozen_during_storm_then_all_clear(self):
        det = LustreStormDetector(clear=5)
        self._warm(det)
        det.observe(35.0, self.STORM)
        det.observe(36.0, self.STORM)
        frozen = det._baseline
        for w in range(37, 41):
            det.observe(float(w), self.STORM)
        assert det._baseline == frozen  # storms must not become "normal"
        alerts = []
        w = 41
        while not alerts:
            alerts = det.observe(float(w), self.QUIET)
            w += 1
        assert alerts[0].severity == "info"
        assert not det.in_storm
        # After the all-clear a fresh storm re-alerts.
        det.observe(float(w), self.STORM)
        assert len(det.observe(float(w + 1), self.STORM)) == 1
        assert det.storms_opened == 2

    def test_gap_breaks_sustain_run(self):
        det = LustreStormDetector()
        self._warm(det)
        det.observe(35.0, self.STORM)
        # A skipped (empty) window between the two elevated ones means
        # the elevation was not sustained.
        assert det.observe(40.0, self.STORM) == []


class TestLeadLagDetector:
    def _run(self, det, windows, a_phase=0, b_phase=2, period=12):
        alerts = []
        for w in range(windows):
            counts = {}
            if w % period == a_phase:
                counts[("A", "c0-0")] = 3
            if w % period == b_phase:
                counts[("B", "c0-0")] = 2
            alerts.extend(det.observe(float(w), counts))
        return alerts

    def test_detects_a_precedes_b(self):
        det = LeadLagDetector(history=120, max_lag=2, check_every=60,
                              min_occurrences=5)
        alerts = self._run(det, 61)
        assert len(alerts) == 1
        a = alerts[0]
        assert a.severity == "info"
        assert a.key == "A->B"
        assert a.score >= det.min_corr
        assert a.evidence["lag_windows"] == 2

    def test_cooldown_silences_repeat_findings(self):
        det = LeadLagDetector(history=120, max_lag=2, check_every=60,
                              min_occurrences=5, cooldown_checks=10)
        alerts = self._run(det, 121)
        assert len(alerts) == 1  # second check suppressed

    def test_always_on_type_produces_no_signal(self):
        # B fires every window: "B follows A" carries zero information
        # (the phi denominator collapses), so no alert.
        det = LeadLagDetector(history=120, max_lag=2, check_every=60,
                              min_occurrences=5)
        alerts = []
        for w in range(61):
            counts = {("B", "c0-0"): 1}
            if w % 12 == 0:
                counts[("A", "c0-0")] = 3
            alerts.extend(det.observe(float(w), counts))
        assert alerts == []

    def test_max_types_cap(self):
        det = LeadLagDetector(max_types=4)
        det.observe(0.0, {(f"T{i}", "c0-0"): 1 for i in range(10)})
        assert det.tracked_keys == 4


class _PerPairLeadLag(LeadLagDetector):
    """The evaluation as it stood before the follower's look-ahead was
    shared: every ordered pair goes through the reference
    ``precedence`` in ``tests/oracle/leadlag.py``."""

    def _evaluate(self, window_start):
        active = sorted(
            etype for etype, series in self._series.items()
            if sum(1 for x in series if x > 0) >= self.min_occurrences
        )
        alerts = []
        for a in active:
            sa = [1 if x > 0 else 0 for x in self._series[a]]
            for b in active:
                if a == b:
                    continue
                last = self._last_reported.get((a, b))
                if (last is not None
                        and self._checks - last < self.cooldown_checks):
                    continue
                corr, lag = leadlag_oracle.precedence(
                    sa, self._series[b], max_lag=self.max_lag,
                    min_occurrences=self.min_occurrences,
                    min_corr=self.min_corr)
                if corr >= self.min_corr:
                    alerts.append(self._alert(
                        severity="info",
                        key=f"{a}->{b}",
                        window_start=window_start,
                        score=round(corr, 3),
                        evidence={"lag_windows": lag,
                                  "lag_seconds": lag * self.interval,
                                  "leader_occurrences": sum(sa)},
                    ))
                    self._last_reported[(a, b)] = self._checks
        return alerts


def _lead_lag_windows(seed, n):
    """*n* windows of ``{(type, cabinet): count}``: background types at
    different rates, leader→follower pairs with fixed and jittered lags,
    dense storms in which everything fires, and silent gaps."""
    rng = random.Random(seed)
    background = {"MCE": 0.08, "OOM": 0.03, "GPU_XID": 0.15, "KPANIC": 0.01}
    couples = [("LNET", "LUSTRE", 3, 0), ("LINK", "HWERR", 12, 4),
               ("LUSTRE", "APP_ABORT", 25, 3)]
    pending = {}
    out = []
    widx = 0
    storm_left = 0
    while len(out) < n:
        if rng.random() < 0.004:
            widx += rng.randrange(2, 90)        # nothing observed at all
        if storm_left == 0 and rng.random() < 0.01:
            storm_left = rng.randrange(20, 120)
        counts = {}
        for etype, rate in background.items():
            if rng.random() < (0.9 if storm_left else rate):
                counts[(etype, f"c{rng.randrange(4)}-0")] = rng.randrange(1, 9)
        for leader, follower, lag, jitter in couples:
            if rng.random() < (0.5 if storm_left else 0.06):
                counts[(leader, "c0-0")] = rng.randrange(1, 5)
                due = widx + lag + rng.randint(-jitter, jitter)
                pending.setdefault(due, []).append(follower)
        for follower in pending.pop(widx, ()):
            key = (follower, "c1-0")
            counts[key] = counts.get(key, 0) + 1
        if counts:
            out.append((float(widx), counts))
        storm_left = max(0, storm_left - 1)
        widx += 1
    return out


class TestLeadLagMatchesPerPairReference:
    """One look-ahead per follower and a C-level dot product are integer
    arithmetic: alert keys, scores, lags and evidence must be the
    per-pair evaluation's, bit for bit."""

    @pytest.mark.parametrize("seed", [3, 17])
    def test_same_alert_stream_over_3000_windows(self, seed):
        det, ref = LeadLagDetector(), _PerPairLeadLag()
        got, want = [], []
        windows = _lead_lag_windows(seed, 3000)
        for start, counts in windows:
            got.extend(a.to_record() for a in det.observe(start, counts))
            want.extend(a.to_record() for a in ref.observe(start, counts))
        assert got == want
        assert det._series == ref._series
        assert det._last_reported == ref._last_reported
        assert det._checks == ref._checks
        assert det._windows_seen == ref._windows_seen
        # The stream must exercise the detector in both halves, storms
        # included: several distinct pairs, found before and after
        # window 1500.
        middle = windows[1500][0]
        assert len({a["key"] for a in got}) >= 3
        assert any(a["window_start"] < middle for a in got)
        assert any(a["window_start"] > middle for a in got)
