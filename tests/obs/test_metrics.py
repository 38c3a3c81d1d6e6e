"""Unit tests for the bounded metrics primitives."""

import json
import threading

import pytest

from repro.obs import Histogram, MetricsRegistry
from repro.obs.metrics import Counter, Gauge


class TestCounter:
    def test_inc(self):
        c = Counter()
        c.inc()
        c.inc(5)
        assert c.value == 6

    def test_monotonic(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)

    def test_thread_safety(self):
        c = Counter()
        n_threads, n_incs = 8, 10_000

        def work():
            for _ in range(n_incs):
                c.inc()

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == n_threads * n_incs


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge()
        g.set(10.0)
        g.inc(2.5)
        g.dec()
        assert g.value == 11.5


class TestHistogram:
    def test_percentiles_exact_over_window(self):
        h = Histogram(window=200)
        for v in range(1, 101):
            h.observe(float(v))
        assert h.percentile(50) == 50.0
        assert h.percentile(95) == 95.0
        assert h.percentile(99) == 99.0
        assert h.percentile(100) == 100.0

    def test_empty_percentile(self):
        assert Histogram().percentile(95) == 0.0

    def test_bounded_window(self):
        h = Histogram(window=10)
        for v in range(100):
            h.observe(float(v))
        assert len(h.recent()) == 10
        assert h.recent() == [float(v) for v in range(90, 100)]
        assert h.count == 100  # buckets keep the full tally

    def test_bucket_counts_sum_to_count(self):
        h = Histogram(buckets=(1.0, 10.0, 100.0))
        for v in (0.5, 5.0, 50.0, 500.0, 5000.0):
            h.observe(v)
        snap = h.snapshot()
        assert sum(snap["buckets"].values()) == snap["count"] == 5
        assert snap["buckets"]["+Inf"] == 2
        assert snap["min"] == 0.5 and snap["max"] == 5000.0

    def test_concurrent_observes(self):
        h = Histogram(window=64)
        n_threads, n_obs = 8, 5_000

        def work():
            for i in range(n_obs):
                h.observe(float(i % 100))

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert h.count == n_threads * n_obs
        assert len(h.recent()) == 64


class TestRegistry:
    def test_get_or_create_identity(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.counter("a", op="x") is reg.counter("a", op="x")
        assert reg.counter("a", op="x") is not reg.counter("a", op="y")

    def test_label_order_irrelevant(self):
        reg = MetricsRegistry()
        assert (reg.counter("m", a="1", b="2")
                is reg.counter("m", b="2", a="1"))

    def test_snapshot_json_round_trip(self):
        reg = MetricsRegistry()
        reg.counter("reqs", op="ping").inc(3)
        reg.gauge("depth").set(7)
        reg.histogram("lat").observe(1.5)
        snap = json.loads(json.dumps(reg.snapshot()))
        assert snap["reqs{op=ping}"]["value"] == 3
        assert snap["depth"]["value"] == 7
        assert snap["lat"]["count"] == 1

    def test_cardinality_bounded(self):
        reg = MetricsRegistry(max_series_per_name=3)
        for i in range(50):
            reg.counter("m", shard=str(i)).inc()
        # 3 real series + 1 overflow series, never 50.
        names = [k for k in reg.snapshot() if k.startswith("m{")]
        assert len(names) == 4
        assert "m{overflow=true}" in names
        snap = reg.snapshot()
        assert snap["m{overflow=true}"]["value"] == 47

    def test_reset_in_place_keeps_cached_handles(self):
        reg = MetricsRegistry()
        handle = reg.counter("reqs")
        handle.inc(9)
        reg.reset()
        assert handle.value == 0
        handle.inc()
        # The same series is still what the snapshot exports.
        assert reg.snapshot()["reqs"]["value"] == 1


class TestExemplars:
    def test_observe_with_trace_id_records_exemplar(self):
        h = Histogram(buckets=(10.0, 100.0))
        h.observe(50.0, trace_id=7)
        [ex] = h.exemplars()
        assert ex["bucket"] == "100.0"
        assert ex["value"] == 50.0
        assert ex["trace_id"] == 7
        assert ex["ts"] > 0

    def test_latest_exemplar_wins_per_bucket(self):
        h = Histogram(buckets=(10.0,))
        h.observe(3.0, trace_id=1)
        h.observe(5.0, trace_id=2)
        h.observe(500.0, trace_id=3)
        exemplars = {e["bucket"]: e["trace_id"] for e in h.exemplars()}
        assert exemplars == {"10.0": 2, "+Inf": 3}

    def test_observe_without_trace_id_records_nothing(self):
        h = Histogram()
        h.observe(1.0)
        h.observe(2.0, trace_id=0)  # 0 means "no trace"
        assert h.exemplars() == []
        assert "exemplars" not in h.snapshot()

    def test_snapshot_carries_exemplars(self):
        h = Histogram(buckets=(10.0,))
        h.observe(5.0, trace_id=11)
        snap = json.loads(json.dumps(h.snapshot()))
        assert snap["exemplars"][0]["trace_id"] == 11

    def test_reset_clears_exemplars(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        h.observe(5.0, trace_id=11)
        reg.reset()
        assert h.exemplars() == []
