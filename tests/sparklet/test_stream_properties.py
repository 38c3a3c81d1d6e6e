"""Generated streams: the clock jump and the one-block batch change what
a micro-batch costs, never what the stream computes.

Two references: ``coalesce_events`` (plain Python over the whole input)
for what :class:`StreamingIngestor` writes, and the same DStream graph
stepped one batch at a time for what ``advance_to`` may skip.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bus import MessageBus
from repro.ingest import (
    ListSink,
    LogProducer,
    ParsedEvent,
    StreamingIngestor,
    coalesce_events,
)
from repro.sparklet import SparkletContext
from repro.sparklet.streaming import StreamingContext
from repro.titan import LogSource


def _stamped(steps):
    """(gap, jitter, payload...) steps -> (ts, payload...) records: the
    cursor moves forward by each gap, a negative jitter stamps a record
    behind it (late once the clock has passed)."""
    cursor, out = 0.0, []
    for gap, jitter, *payload in steps:
        cursor += gap
        out.append((max(0.0, cursor + jitter), *payload))
    return out


def _gaps(widest_exp):
    """Empty stretches of 10^0 .. 10^widest_exp seconds, and none."""
    return st.one_of(
        st.just(0.0),
        st.floats(min_value=0.0, max_value=2.0),
        st.sampled_from([10.0 ** e for e in range(widest_exp + 1)]),
    )


_JITTER = st.one_of(st.just(0.0), st.floats(min_value=-30.0, max_value=0.9))

event_steps = st.lists(
    st.tuples(_gaps(5), _JITTER,
              st.sampled_from(["MCE", "OOM", "LUSTRE_ERR"]),
              st.sampled_from(["n0", "n1", "n2"]),
              st.integers(1, 5),
              st.booleans()),                       # poll after this event
    max_size=40,
)


def _row(e):
    return (e.ts, e.type, e.component, e.amount)


class TestStreamingIngestMatchesCoalesce:
    @settings(max_examples=60, deadline=None)
    @given(steps=event_steps, in_order=st.booleans())
    def test_written_rows_equal_coalesce_events(self, steps, in_order):
        records = _stamped(steps)
        if in_order:
            records.sort(key=lambda r: r[0])
        events = [ParsedEvent(ts=ts, type=type_, component=comp,
                              source=LogSource.CONSOLE, amount=amount)
                  for ts, type_, comp, amount, _poll in records]
        bus = MessageBus()
        producer = LogProducer(bus, "events")
        sink = ListSink()
        with SparkletContext(2) as sc:
            ingestor = StreamingIngestor(bus, "events", sink, sc)
            for event, (*_rest, poll) in zip(events, records):
                producer.publish_events([event])
                if poll:
                    ingestor.process_available()
            ingestor.process_available()
            ingestor.flush()
            assert sc.metrics.tasks == 2 * sc.metrics.jobs
        expected = coalesce_events(events)
        # A late record is written with the batch it was folded into,
        # apart from the row of the second it is stamped with; merging
        # the written rows once more gives the whole-input answer.
        assert [_row(e) for e in coalesce_events(sink.events)] == [
            _row(e) for e in expected]
        assert ingestor.stats.polled == len(events)
        assert ingestor.stats.written == len(sink.events) >= len(expected)
        if in_order:
            assert sorted(_row(e) for e in sink.events) == [
                _row(e) for e in expected]
        if events:
            assert ingestor.ssc.batches_run == int(
                max(e.ts for e in events)) + 1
        assert ingestor.lag == 0


# The stepped reference walks every empty batch, so gaps stop at 10^3
# here; TestClockJump in test_streaming.py and the ingest property above
# cover 10^4..10^6.
graph_steps = st.lists(
    st.tuples(_gaps(3), _JITTER, st.sampled_from("abc"),
              st.booleans()),                       # advance_to after this
    max_size=6,
)


def _run_graph(steps, window, slide, interval, jump):
    """Drive one graph over *steps*; returns (outputs, batches_run)."""
    with SparkletContext(2) as sc:
        ssc = StreamingContext(sc, batch_interval=interval)
        inp = ssc.input_stream()
        pairs = inp.map(lambda e: (e, 1))
        fired: dict[str, list] = {}

        def record(name, stream):
            fired[name] = []
            stream.foreachRDD(lambda rdd: fired[name].append(
                (ssc.batches_run, sorted(rdd.collect()))))

        record("raw", inp)
        record("window", inp.window(window, slide))
        record("counts", pairs.window(window, slide).reduceByKey(
            lambda a, b: a + b))

        def advance_to(ts):
            if jump:
                ssc.advance_to(ts)
            else:
                for _ in range(int(ts // interval) - ssc.batches_run):
                    ssc.advance(1)

        for ts, key, advance in _stamped(steps):
            inp.push(key, ts)
            if advance:
                advance_to(ts)
        advance_to(max((ts for ts, *_ in _stamped(steps)), default=0.0)
                   + 3 * window)
        return fired, ssc.batches_run


class TestJumpingEqualsStepping:
    @settings(max_examples=20, deadline=None)
    @given(steps=graph_steps, window=st.integers(1, 4),
           slide=st.integers(1, 3),
           interval=st.sampled_from([0.5, 1.0]))
    def test_same_outputs_and_batches_run(self, steps, window, slide,
                                          interval):
        jumped = _run_graph(steps, window, slide, interval, True)
        stepped = _run_graph(steps, window, slide, interval, False)
        assert jumped == stepped
