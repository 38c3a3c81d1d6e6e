"""Unit tests for the sampling profiler: boundedness under synthetic
flood, exact drop accounting, deterministic folded output, cross-thread
span attribution, and the critical-path / hot-function analyses."""

import threading
import time

import pytest

from repro.obs import MetricsRegistry, Tracer
from repro.obs.profile import (
    IDLE_COMPONENT,
    OVERFLOW_KEY,
    SamplingProfiler,
    component_of,
    critical_path,
    hot_functions,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


def make_profiler(registry, **kw):
    return SamplingProfiler(tracer=Tracer(registry=registry),
                            registry=registry, **kw)


class TestRecordBoundedness:
    def test_flood_of_distinct_stacks_stays_under_cap(self, registry):
        """A 10k-request-style flood: every request folds a distinct
        stack, but the flame table must never exceed its cap."""
        prof = make_profiler(registry, max_components=4,
                             max_stacks_per_component=64)
        for i in range(10_000):
            prof.record("server", f"main;handle;op_{i}")
        assert prof.samples == 10_000
        # 64 per component is the cap; the overflow bucket rides inside.
        assert prof.stack_count() <= 64
        # Every sample past the cap is visibly dropped, none lost:
        # 63 distinct stacks fit beside the (overflow) bucket.
        table = prof.tables()["server"]
        assert table[OVERFLOW_KEY] == prof.dropped_frames
        assert sum(table.values()) == 10_000

    def test_component_cap_redirects_to_overflow(self, registry):
        # The cap counts the (overflow) table itself: 3 slots hold at
        # most 2 real components plus the overflow bucket.
        prof = make_profiler(registry, max_components=3)
        assert prof.record("server", "a;b")
        assert prof.record("cassdb", "a;c")
        assert not prof.record("sparklet", "a;d", n=3)
        tables = prof.tables()
        assert "sparklet" not in tables
        assert len(tables) <= 3
        assert tables[OVERFLOW_KEY][OVERFLOW_KEY] == 3
        assert prof.dropped_frames == 3
        assert prof.samples == 5

    def test_drop_counters_mirror_registry(self, registry):
        prof = make_profiler(registry, max_components=2,
                             max_stacks_per_component=2)
        prof.record("server", "a")
        prof.record("server", "b", n=2)   # stack cap
        prof.record("cassdb", "c", n=4)   # component cap
        snap = registry.snapshot()
        assert snap["obs.profile.samples"]["value"] == prof.samples == 7
        assert (snap["obs.profile.dropped_frames"]["value"]
                == prof.dropped_frames == 6)

    def test_totals_conserved_under_concurrent_record(self, registry):
        prof = make_profiler(registry, max_stacks_per_component=32)
        n_threads, n_recs = 8, 2_000

        def work(tid):
            for i in range(n_recs):
                prof.record("server", f"main;t{tid};f{i % 64}")

        threads = [threading.Thread(target=work, args=(t,))
                   for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert prof.samples == n_threads * n_recs
        table = prof.tables()["server"]
        assert sum(table.values()) == n_threads * n_recs
        assert len(table) <= 32

    def test_reset_zeroes(self, registry):
        prof = make_profiler(registry)
        prof.record("server", "a;b", n=5)
        prof.reset()
        assert prof.samples == 0
        assert prof.tables() == {}


class TestFoldedOutput:
    def test_folded_lines_are_sorted_and_byte_stable(self, registry):
        prof = make_profiler(registry)
        # Insertion order deliberately scrambled.
        prof.record("sparklet", "main;job;task", 3)
        prof.record("cassdb", "main;read", 7)
        prof.record("cassdb", "main;write", 2)
        expected = [
            "cassdb;main;read 7",
            "cassdb;main;write 2",
            "sparklet;main;job;task 3",
        ]
        assert prof.folded() == expected
        assert prof.folded() == expected  # stable across calls
        assert prof.folded(component="cassdb") == expected[:2]

    def test_component_prefix_is_flame_root(self, registry):
        prof = make_profiler(registry)
        prof.record("server", "main;handle")
        line = prof.folded()[0]
        stack, count = line.rsplit(" ", 1)
        assert stack.split(";")[0] == "server"
        assert count == "1"


class TestSampling:
    def test_sample_once_attributes_by_active_span(self, registry):
        tracer = Tracer(registry=registry)
        prof = SamplingProfiler(tracer=tracer, registry=registry)
        with tracer.root_span("cassdb.read"):
            recorded = prof.sample_once()
        assert recorded >= 1
        assert "cassdb" in prof.tables()
        this_test = [line for line in prof.folded("cassdb")
                     if "test_sample_once_attributes" in line]
        assert this_test

    def test_sample_once_tags_idle_threads(self, registry):
        prof = make_profiler(registry)
        stop = threading.Event()
        t = threading.Thread(target=stop.wait, daemon=True)
        t.start()
        try:
            prof.sample_once()
        finally:
            stop.set()
            t.join()
        assert IDLE_COMPONENT in prof.tables()

    def test_armed_sampler_finds_planted_hot_frame(self, registry):
        tracer = Tracer(registry=registry)
        prof = SamplingProfiler(hz=250, tracer=tracer, registry=registry)

        def planted_burn(seconds):
            end = time.perf_counter() + seconds
            acc = 0
            while time.perf_counter() < end:
                for i in range(512):
                    acc += i * i
            return acc

        with prof:
            with tracer.root_span("sparklet.job"):
                planted_burn(0.3)
        assert prof.samples > 0
        assert prof._sampler_tid is None  # stopped cleanly
        # Rank within the span's component: under a full test run the
        # process carries leftover daemon threads whose idle stacks
        # would otherwise out-sample the burn.
        flat = {(c, s): n for c, stacks in prof.tables().items()
                for s, n in stacks.items() if c == "sparklet"}
        hot = hot_functions(flat, top=1)
        assert "planted_burn" in hot[0]["function"]
        assert "sparklet" in hot[0]["components"]

    def test_sustained_sampling_memory_stays_bounded(self, registry):
        """Sampling through a busy span-heavy workload never grows the
        flame tables past their configured caps."""
        tracer = Tracer(registry=registry)
        prof = SamplingProfiler(hz=500, tracer=tracer, registry=registry,
                                max_components=4,
                                max_stacks_per_component=16)
        with prof:
            for i in range(200):
                with tracer.root_span(f"server.op{i % 7}"):
                    sum(j * j for j in range(300))
        cap = 4 * 16
        assert prof.stack_count() <= cap
        total = sum(n for stacks in prof.tables().values()
                    for n in stacks.values())
        assert total == prof.samples  # conservation, drops included

    def test_start_stop_idempotent(self, registry):
        prof = make_profiler(registry, hz=100)
        prof.start()
        thread = prof._thread
        assert prof.start()._thread is thread  # no second thread
        prof.stop()
        prof.stop()  # no-op
        assert not prof.armed

    def test_deep_stacks_truncate_keeping_leaf(self, registry):
        prof = make_profiler(registry, max_depth=8)

        def recurse(n):
            if n == 0:
                return prof.sample_once()
            return recurse(n - 1)

        tracer = prof.tracer
        with tracer.root_span("server.deep"):
            recurse(30)
        (line,) = [l for l in prof.folded("server") if "recurse" in l]
        stack = line.rsplit(" ", 1)[0]
        frames = stack.split(";")
        # component + (truncated) marker + at most max_depth frames
        assert len(frames) <= 2 + prof.max_depth
        assert frames[1] == "(truncated)"
        assert "recurse" in frames[-1] or "sample_once" in frames[-1]

    def test_invalid_rate_rejected(self, registry):
        with pytest.raises(ValueError):
            make_profiler(registry, hz=0)


class TestASampleIsItsCodeObjects:
    """``sample_once`` counts each stack as its code objects and names
    nothing; a read of the tables names every frame it shows, and the
    samples are all there."""

    def test_sampling_names_no_frame(self, registry, monkeypatch):
        tracer = Tracer(registry=registry)
        prof = SamplingProfiler(tracer=tracer, registry=registry)
        named = []
        name = SamplingProfiler._name

        def counting(self, code):
            named.append(code)
            return name(self, code)

        monkeypatch.setattr(SamplingProfiler, "_name", counting)
        with tracer.root_span("server.sampled"):
            for _ in range(20):
                prof.sample_once()
        assert named == []
        assert all(isinstance(stack, tuple)
                   for stacks in prof._tables.values() for stack in stacks)
        lines = prof.folded("server")
        assert named
        assert any("test_sampling_names_no_frame" in line for line in lines)
        assert sum(int(line.rsplit(" ", 1)[1]) for line in prof.folded()
                   ) == prof.samples

    def test_a_frame_is_named_by_its_globals(self, registry, monkeypatch):
        """Code whose file is no module's — run by ``exec`` here — is
        named by its frame's ``__name__``, as every frame is; and the
        noted modules shrink to the code objects the tables hold once
        they pass the cap."""
        from repro.obs import profile

        monkeypatch.setattr(profile, "_MAX_CODES", 16)
        tracer = Tracer(registry=registry)
        prof = SamplingProfiler(tracer=tracer, registry=registry,
                                max_stacks_per_component=8)
        with tracer.root_span("server.sampled"):
            for i in range(40):
                scope = {"__name__": "generated", "prof": prof}
                exec(compile(f"def job_{i}():\n    prof.sample_once()\n",
                             "<generated>", "exec"), scope)
                scope[f"job_{i}"]()
        lines = prof.folded("server")
        assert any(";generated.job_0;" in line for line in lines)
        assert not any("?." in line for line in lines)
        held = {code for stacks in prof._tables.values()
                for stack in stacks if not isinstance(stack, str)
                for code in stack}
        assert len(prof._modules) <= max(16, 2 * len(held))
        assert sum(int(line.rsplit(" ", 1)[1]) for line in prof.folded()
                   ) == prof.samples


class TestHotFunctions:
    def test_ranks_by_exclusive_leaf_samples(self):
        flat = {
            ("server", "main;handle;parse"): 5,
            ("cql", "main;plan;parse"): 4,
            ("server", "main;handle"): 3,
        }
        hot = hot_functions(flat, top=10)
        assert hot[0]["function"] == "parse"
        assert hot[0]["samples"] == 9
        assert hot[0]["components"] == {"cql": 4, "server": 5}
        assert hot[1] == {"function": "handle", "samples": 3,
                          "components": {"server": 3}}

    def test_top_limits(self):
        flat = {("a", f"f{i}"): 1 for i in range(20)}
        assert len(hot_functions(flat, top=5)) == 5
        assert len(hot_functions(flat, top=0)) == 20


class TestCriticalPath:
    def test_component_of(self):
        assert component_of("cassdb.node.read") == "cassdb"
        assert component_of("server") == "server"

    def test_exclusive_times_attribute_by_component(self):
        trace = {
            "name": "server.request", "trace_id": 9, "duration_ms": 100.0,
            "children": [
                {"name": "sparklet.job", "duration_ms": 70.0,
                 "children": [
                     {"name": "cassdb.read", "duration_ms": 30.0,
                      "children": []},
                 ]},
                {"name": "cql.plan", "duration_ms": 10.0, "children": []},
            ],
        }
        result = critical_path(trace)
        shares = {c["component"]: c for c in result["components"]}
        assert shares["sparklet"]["exclusive_ms"] == pytest.approx(40.0)
        assert shares["cassdb"]["exclusive_ms"] == pytest.approx(30.0)
        assert shares["server"]["exclusive_ms"] == pytest.approx(20.0)
        assert shares["cql"]["exclusive_ms"] == pytest.approx(10.0)
        assert result["accounted_ms"] == pytest.approx(100.0)
        assert sum(c["share"] for c in result["components"]) == (
            pytest.approx(1.0))
        # Sorted hottest-first.
        assert result["components"][0]["component"] == "sparklet"

    def test_clock_skew_clamps_at_zero(self):
        trace = {
            "name": "server.request", "duration_ms": 10.0,
            "children": [{"name": "cassdb.read", "duration_ms": 12.0,
                          "children": []}],
        }
        result = critical_path(trace)
        shares = {c["component"]: c["exclusive_ms"]
                  for c in result["components"]}
        assert shares["server"] == 0.0
        assert shares["cassdb"] == pytest.approx(12.0)

    def test_real_trace_shares_sum_close_to_root(self):
        registry = MetricsRegistry()
        tracer = Tracer(registry=registry)
        with tracer.root_span("server.request") as root:
            with tracer.span("sparklet.job"):
                time.sleep(0.02)
            with tracer.span("cassdb.read"):
                time.sleep(0.01)
        result = critical_path(tracer.last_trace())
        assert result["trace_id"] == root.trace_id
        # Well-nested trees account for (almost) the whole root span.
        assert result["accounted_ms"] == pytest.approx(
            result["total_ms"], rel=0.05)
