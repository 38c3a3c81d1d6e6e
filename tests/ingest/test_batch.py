"""Tests for batch ETL (serial baseline and sparklet pipeline)."""

import pytest

from repro.genlog import LogGenerator
from repro.ingest import (
    ListSink,
    ParsedEvent,
    batch_ingest,
    coalesce_events,
    serial_ingest,
)
from repro.ingest.batch import merge_events
from repro.sparklet import SparkletContext
from repro.titan import LogSource, TitanTopology


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    topo = TitanTopology(rows=1, cols=1)
    gen = LogGenerator(topo, seed=9, rate_multiplier=60)
    events = gen.generate(4)
    directory = tmp_path_factory.mktemp("logs")
    paths = gen.write_log_files(directory, events)
    return events, sorted(paths.values())


def _ev(ts, type_="MCE", comp="n0", amount=1):
    return ParsedEvent(ts=ts, type=type_, component=comp,
                       source=LogSource.CONSOLE, amount=amount)


class TestCoalesceEvents:
    def test_same_second_merged(self):
        events = [_ev(1.1), _ev(1.7), _ev(2.3)]
        merged = coalesce_events(events)
        assert len(merged) == 2
        assert merged[0].amount == 2
        assert merged[0].ts == 1.1

    def test_different_components_not_merged(self):
        merged = coalesce_events([_ev(1.1, comp="a"), _ev(1.2, comp="b")])
        assert len(merged) == 2

    def test_different_types_not_merged(self):
        merged = coalesce_events([_ev(1.1, "MCE"), _ev(1.2, "OOM")])
        assert len(merged) == 2

    def test_window_width(self):
        events = [_ev(0.5), _ev(4.5)]
        assert len(coalesce_events(events, window_seconds=10)) == 1
        assert len(coalesce_events(events, window_seconds=1)) == 2

    def test_zero_window_passthrough(self):
        events = [_ev(1.1), _ev(1.2)]
        assert coalesce_events(events, window_seconds=0) == events

    def test_amounts_add(self):
        merged = coalesce_events([_ev(1.1, amount=3), _ev(1.2, amount=4)])
        assert merged[0].amount == 7

    def test_output_sorted(self):
        merged = coalesce_events([_ev(9.0), _ev(1.0), _ev(5.0)])
        assert [e.ts for e in merged] == [1.0, 5.0, 9.0]

    def test_merge_keeps_earliest_ts_and_first_payload(self):
        """The one merge under coalesce_events, the batch-ETL job and
        the streaming window."""
        first = ParsedEvent(ts=5.7, type="MCE", component="n0",
                            source=LogSource.CONSOLE, amount=2,
                            attrs={"bank": 1}, raw="first line")
        later = ParsedEvent(ts=5.2, type="MCE", component="n0",
                            source=LogSource.CONSOLE, amount=3,
                            attrs={"bank": 4}, raw="second line")
        merged = merge_events(first, later)
        assert merged == ParsedEvent(
            ts=5.2, type="MCE", component="n0", source=LogSource.CONSOLE,
            amount=5, attrs={"bank": 1}, raw="first line")
        assert coalesce_events([first, later]) == [merged]


class TestListSink:
    def test_returns_delta_not_total(self):
        sink = ListSink()
        assert sink.write_events([_ev(1.0), _ev(2.0)]) == 2
        assert sink.write_events([_ev(3.0)]) == 1
        assert len(sink.events) == 3

    def test_consumes_generators(self):
        sink = ListSink()
        assert sink.write_events(_ev(float(i)) for i in range(5)) == 5
        assert [e.ts for e in sink.events] == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_empty_batch(self):
        sink = ListSink()
        assert sink.write_events([]) == 0
        assert sink.events == []


class TestSerialIngest:
    def test_counts(self, corpus):
        events, paths = corpus
        sink = ListSink()
        stats = serial_ingest(paths, sink)
        assert stats.lines == len(events)
        assert stats.parsed == len(events)
        assert stats.unparsed == 0
        assert stats.written == len(sink.events) == len(events)

    def test_coalescing_reduces(self, corpus):
        events, paths = corpus
        sink = ListSink()
        stats = serial_ingest(paths, sink, coalesce_seconds=3600.0)
        assert stats.written < stats.parsed
        assert stats.coalesced_away == stats.parsed - stats.written


class TestBatchIngest:
    def test_matches_serial(self, corpus):
        events, paths = corpus
        serial_sink, batch_sink = ListSink(), ListSink()
        s = serial_ingest(paths, serial_sink, coalesce_seconds=1.0)
        with SparkletContext(4) as sc:
            b = batch_ingest(sc, paths, batch_sink, coalesce_seconds=1.0)
        assert (s.lines, s.parsed, s.unparsed, s.written) == (
            b.lines, b.parsed, b.unparsed, b.written
        )
        key = lambda e: (round(e.ts, 3), e.type, e.component, e.amount)
        assert sorted(map(key, serial_sink.events)) == sorted(
            map(key, batch_sink.events)
        )

    def test_no_coalescing(self, corpus):
        events, paths = corpus
        sink = ListSink()
        with SparkletContext(2) as sc:
            stats = batch_ingest(sc, paths, sink)
        assert stats.written == len(events)

    def test_unparsed_lines_counted(self, tmp_path):
        path = tmp_path / "garbage.log"
        path.write_text("not a log\nalso not\n")
        sink = ListSink()
        with SparkletContext(2) as sc:
            stats = batch_ingest(sc, [str(path)], sink)
        assert stats.unparsed == 2
        assert stats.written == 0

    def test_multiple_files(self, corpus):
        _, paths = corpus
        sink = ListSink()
        with SparkletContext(2) as sc:
            stats = batch_ingest(sc, paths, sink)
        single_sinks = []
        for p in paths:
            s = ListSink()
            serial_ingest([p], s)
            single_sinks.append(len(s.events))
        assert stats.written == sum(single_sinks)
