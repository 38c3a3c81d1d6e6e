"""Unit tests for the contextvars-propagated tracer."""

import contextvars
import json
import threading

from repro.obs import NULL_SPAN, Tracer


class TestSpanTree:
    def test_nesting(self):
        tracer = Tracer()
        with tracer.root_span("request", op="heatmap"):
            with tracer.span("framework"):
                with tracer.span("cassdb.read", table="event_by_time"):
                    pass
                with tracer.span("cassdb.read"):
                    pass
        trace = tracer.last_trace()
        assert trace["name"] == "request"
        assert trace["attrs"] == {"op": "heatmap"}
        (fw,) = trace["children"]
        assert fw["name"] == "framework"
        assert [c["name"] for c in fw["children"]] == ["cassdb.read"] * 2
        assert trace["spans"] == 4
        json.dumps(trace)

    def test_no_active_trace_is_noop(self):
        tracer = Tracer()
        span = tracer.span("orphan")
        assert span is NULL_SPAN
        with span:
            pass
        assert tracer.last_trace() is None

    def test_disabled_tracer(self):
        tracer = Tracer(enabled=False)
        with tracer.root_span("request"):
            pass
        assert tracer.last_trace() is None

    def test_error_status(self):
        tracer = Tracer()
        try:
            with tracer.root_span("request"):
                with tracer.span("inner"):
                    raise RuntimeError("boom")
        except RuntimeError:
            pass
        trace = tracer.last_trace()
        assert trace["status"] == "error"
        assert "boom" in trace["error"]
        assert trace["children"][0]["status"] == "error"

    def test_durations_nonnegative_and_nested(self):
        tracer = Tracer()
        with tracer.root_span("outer"):
            with tracer.span("inner"):
                pass
        trace = tracer.last_trace()
        assert trace["duration_ms"] >= trace["children"][0]["duration_ms"] >= 0

    def test_set_attrs_mid_span(self):
        tracer = Tracer()
        with tracer.root_span("request") as span:
            span.set(rows=42)
        assert tracer.last_trace()["attrs"]["rows"] == 42


class TestPropagation:
    def test_across_threads_via_copied_context(self):
        """The WorkerPool pattern: a copied context carries the span."""
        tracer = Tracer()

        def task():
            with tracer.span("task"):
                pass

        with tracer.root_span("job"):
            with tracer.span("stage"):
                ctx = contextvars.copy_context()
                t = threading.Thread(target=ctx.run, args=(task,))
                t.start()
                t.join()
        trace = tracer.last_trace()
        stage = trace["children"][0]
        assert [c["name"] for c in stage["children"]] == ["task"]

    def test_plain_thread_sees_no_trace(self):
        tracer = Tracer()
        seen = []

        def task():
            seen.append(tracer.span("task") is NULL_SPAN)

        with tracer.root_span("job"):
            t = threading.Thread(target=task)  # context NOT copied
            t.start()
            t.join()
        assert seen == [True]

    def test_concurrent_children_all_attached(self):
        tracer = Tracer(max_children=1000)
        n_threads, n_spans = 8, 50

        def work(ctx):
            def run():
                for _ in range(n_spans):
                    with tracer.span("child"):
                        pass
            ctx.run(run)

        with tracer.root_span("parent"):
            threads = [
                threading.Thread(target=work,
                                 args=(contextvars.copy_context(),))
                for _ in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        trace = tracer.last_trace()
        assert len(trace["children"]) == n_threads * n_spans


class TestBounds:
    def test_children_capped(self):
        tracer = Tracer(max_children=5)
        with tracer.root_span("parent"):
            for _ in range(20):
                with tracer.span("child"):
                    pass
        trace = tracer.last_trace()
        assert len(trace["children"]) == 5
        assert trace["dropped_children"] == 15

    def test_spans_per_trace_capped(self):
        tracer = Tracer(max_children=10_000, max_spans_per_trace=10)
        with tracer.root_span("parent"):
            for _ in range(50):
                with tracer.span("child"):
                    pass
        assert tracer.last_trace()["spans"] == 10

    def test_trace_ring_bounded(self):
        tracer = Tracer(max_traces=4)
        for i in range(10):
            with tracer.root_span(f"r{i}"):
                pass
        kept = tracer.traces()
        assert len(kept) == 4
        assert [t["name"] for t in kept] == ["r6", "r7", "r8", "r9"]

    def test_attrs_capped(self):
        tracer = Tracer(max_attrs=2)
        with tracer.root_span("r") as span:
            span.set(a=1, b=2, c=3, d=4)
        trace = tracer.last_trace()
        assert len(trace["attrs"]) == 2
        assert trace["dropped_attrs"] == 2


class TestTraceIdentity:
    def test_root_and_children_share_a_trace_id(self):
        tracer = Tracer()
        with tracer.root_span("a") as root:
            with tracer.span("b") as child:
                assert child.trace_id == root.trace_id
                assert child.parent_id == root.span_id
                assert child.span_id != root.span_id
        with tracer.root_span("c") as root2:
            pass
        assert root2.trace_id != root.trace_id

    def test_exported_dict_carries_identity(self):
        tracer = Tracer()
        with tracer.root_span("a"):
            with tracer.span("b"):
                pass
        trace = tracer.last_trace()
        child = trace["children"][0]
        assert trace["trace_id"] == child["trace_id"]
        assert child["parent_id"] == trace["span_id"]
        assert "parent_id" not in trace

    def test_continuation_root_joins_existing_trace(self):
        tracer = Tracer()
        with tracer.root_span("bus.publish.side") as pub:
            link = (pub.trace_id, pub.span_id)
        with tracer.root_span("consume.side", trace_id=link[0],
                              parent_id=link[1]) as cont:
            assert cont.trace_id == pub.trace_id
            assert cont.parent_id == pub.span_id
        first, second = tracer.traces()[-2:]
        assert second["trace_id"] == first["trace_id"]
        assert second["parent_id"] == first["span_id"]

    def test_wall_time_offsets_follow_the_root(self):
        tracer = Tracer()
        with tracer.root_span("a") as root:
            with tracer.span("b"):
                pass
        trace = tracer.last_trace()
        assert root.wall_start is not None
        assert trace["wall_time"] == root.wall_start
        assert trace["children"][0]["wall_time"] >= trace["wall_time"]


class TestExportOnRead:
    """Finished traces sit in the ring as root spans; the dict tree is
    built when ``last_trace()`` / ``traces()`` is read."""

    def _traced(self, tracer):
        with tracer.root_span("request", op="heatmap") as root:
            with tracer.span("framework", rows=3):
                try:
                    with tracer.span("cassdb.read"):
                        raise RuntimeError("boom")
                except RuntimeError:
                    pass
            with tracer.span("server.shape"):
                pass
        return root

    def test_read_equals_export_at_finish(self):
        eager = []

        class EagerTracer(Tracer):
            def _finish_trace(self, root):
                eager.append(root.to_dict())   # what finish used to keep
                super()._finish_trace(root)

        tracer = EagerTracer()
        self._traced(tracer)
        assert tracer.last_trace() == eager[0]
        assert tracer.traces() == eager
        assert tracer.last_trace() == tracer.last_trace()
        assert eager[0]["spans"] == 4
        json.dumps(tracer.traces())

    def test_reads_hand_out_fresh_dicts(self):
        tracer = Tracer()
        self._traced(tracer)
        tracer.last_trace()["children"].clear()
        assert len(tracer.last_trace()["children"]) == 2

    def test_ring_still_caps_and_resets(self):
        tracer = Tracer(max_traces=3)
        for _ in range(7):
            self._traced(tracer)
        assert len(tracer.traces()) == 3
        assert [t["trace_id"] for t in tracer.traces()] == [5, 6, 7]
        tracer.reset()
        assert tracer.traces() == [] and tracer.last_trace() is None
