"""Tests for heat maps, distributions, histograms and hot-spot detection."""

import numpy as np
import pytest

from repro.core import detect_hotspots, heatmap_engine
from repro.core.analytics import Hotspot, group_key

from .conftest import HORIZON


class TestGroupKey:
    def test_node_identity(self):
        assert group_key("c3-17c1s5n2", "node") == "c3-17c1s5n2"

    def test_blade(self):
        assert group_key("c3-17c1s5n2", "blade") == "c3-17c1s5"
        assert group_key("c3-17c1s5g1", "blade") == "c3-17c1s5"

    def test_cabinet(self):
        assert group_key("c3-17c1s5n2", "cabinet") == "c3-17"
        assert group_key("c3-17c1s5g0", "cabinet") == "c3-17"

    def test_unknown_format_self(self):
        assert group_key("dvs01", "cabinet") == "dvs01"

    def test_invalid_granularity(self):
        with pytest.raises(ValueError):
            group_key("c0-0c0s0n0", "rack")


class TestHeatmap:
    def test_counts_match_generator(self, fw, events):
        ctx = fw.context(0, HORIZON, event_types=("MCE",))
        hm = fw.heatmap(ctx, "node")
        from collections import Counter

        truth = Counter(e.component for e in events if e.type == "MCE")
        assert hm == dict(truth)

    def test_amount_weighting(self, fw, events):
        ctx = fw.context(0, HORIZON, event_types=("DRAM_CE",))
        hm = fw.heatmap(ctx, "node")
        total_amount = sum(e.amount for e in events if e.type == "DRAM_CE")
        assert sum(hm.values()) == total_amount

    def test_cabinet_rollup(self, fw):
        ctx = fw.context(0, HORIZON, event_types=("MCE",))
        node_hm = fw.heatmap(ctx, "node")
        cab_hm = fw.heatmap(ctx, "cabinet")
        assert sum(cab_hm.values()) == sum(node_hm.values())
        assert set(cab_hm) <= {"c0-0", "c1-0"}

    def test_engine_heatmap_matches_driver(self, fw):
        ctx = fw.context(0, HORIZON, event_types=("MCE",))
        driver = fw.heatmap(ctx, "node")
        engine = heatmap_engine(fw.sc, "MCE", 0, HORIZON, "node")
        assert engine == driver

    def test_engine_heatmap_granularity(self, fw):
        engine = heatmap_engine(fw.sc, "MCE", 0, HORIZON, "cabinet")
        assert set(engine) <= {"c0-0", "c1-0"}
        with pytest.raises(ValueError):
            heatmap_engine(fw.sc, "MCE", 0, HORIZON, "rack")


class TestDistributions:
    def test_distribution_sorted_descending(self, fw):
        ctx = fw.context(0, HORIZON, event_types=("MCE",))
        dist = fw.distribution(ctx, "node")
        values = [v for _k, v in dist]
        assert values == sorted(values, reverse=True)

    def test_distribution_by_application(self, fw, events, runs):
        ctx = fw.context(0, HORIZON, event_types=("DRAM_CE",))
        dist = fw.distribution_by_application(ctx)
        assert dist
        apps = {name for name, _ in dist}
        known_apps = {r.app for r in runs} | {"(idle)"}
        assert apps <= known_apps
        total = sum(v for _k, v in dist)
        assert total == sum(e.amount for e in events if e.type == "DRAM_CE")


class TestTimeHistogram:
    def test_bins_and_totals(self, fw, events):
        ctx = fw.context(0, HORIZON, event_types=("MCE",))
        edges, counts = fw.time_histogram(ctx, num_bins=12)
        assert len(edges) == 13
        assert len(counts) == 12
        assert counts.sum() == sum(
            e.amount for e in events if e.type == "MCE"
        )

    def test_invalid_bins(self, fw):
        ctx = fw.context(0, HORIZON)
        with pytest.raises(ValueError):
            fw.time_histogram(ctx, num_bins=0)

    def test_storm_bin_spikes(self, fw, generator):
        storm = generator.ground_truth.storms[0]
        ctx = fw.context(0, HORIZON, event_types=("LUSTRE_ERR",))
        edges, counts = fw.time_histogram(ctx, num_bins=48)
        storm_bin = np.searchsorted(edges, storm.start, side="right") - 1
        window = counts[max(0, storm_bin - 1):storm_bin + 2]
        others = np.delete(counts, range(max(0, storm_bin - 1),
                                         min(len(counts), storm_bin + 2)))
        assert window.max() > 5 * max(1, others.mean())


class TestHotspotDetection:
    def test_recovers_injected_hot_nodes(self, fw, generator):
        ctx = fw.context(0, HORIZON, event_types=("MCE",))
        found = {h.component for h in fw.hotspots(ctx, z_threshold=4.0)}
        truth = set(generator.ground_truth.hot_nodes["MCE"])
        # All injected hot nodes found; false positives bounded.
        assert truth <= found
        assert len(found - truth) <= 2

    def test_hotspots_ranked_by_z(self, fw):
        ctx = fw.context(0, HORIZON, event_types=("MCE",))
        spots = fw.hotspots(ctx, z_threshold=3.0)
        zs = [h.z_score for h in spots]
        assert zs == sorted(zs, reverse=True)

    def test_uniform_counts_no_hotspots(self):
        counts = {f"n{i}": 10 for i in range(100)}
        assert detect_hotspots(counts, 100) == []

    def test_single_spike_detected(self):
        counts = {f"n{i}": 5 for i in range(99)}
        counts["hot"] = 200
        spots = detect_hotspots(counts, 100)
        assert [h.component for h in spots] == ["hot"]
        assert spots[0].count == 200
        assert spots[0].z_score > 4

    def test_zero_reporting_components(self):
        # 10 components reported out of 1000; spikes must still show.
        counts = {"hot": 50}
        spots = detect_hotspots(counts, 1000)
        assert spots and spots[0].component == "hot"

    def test_validation(self):
        with pytest.raises(ValueError):
            detect_hotspots({}, 0)
        with pytest.raises(ValueError):
            detect_hotspots({"a": 1, "b": 2}, 1)

    def test_hotspot_dataclass(self):
        h = Hotspot("n1", 10, 2.0, 5.66)
        assert h.component == "n1"
