"""Tests for the eight-table data model."""

import gc
import json
from collections import Counter

import pytest

from repro.bus import MessageBus
from repro.cassdb import Cluster, ClusteringBound
from repro.cassdb.errors import SchemaError
from repro.cassdb.row import Row
from repro.core import LogAnalyticsFramework
from repro.core.model import TABLE_SCHEMAS, LogDataModel
from repro.core.model import LogDataModel as _LDM
from repro.genlog import LogGenerator, render_line
from repro.genlog.jobs import ApplicationRun
from repro.ingest import LogProducer, ParsedEvent
from repro.titan import LogSource, TitanTopology
from repro.titan.events import default_registry

from .conftest import HORIZON


class TestSchemas:
    def test_the_eight_tables(self):
        # §II-B lists exactly these eight.
        assert set(TABLE_SCHEMAS) == {
            "nodeinfos", "eventtypes", "eventsynopsis",
            "event_by_time", "event_by_location",
            "application_by_time", "application_by_user",
            "application_by_location",
        }

    def test_dual_event_partitioning(self):
        # Fig 1: hour+type vs hour+source, both clustered by timestamp.
        by_time = TABLE_SCHEMAS["event_by_time"]
        by_loc = TABLE_SCHEMAS["event_by_location"]
        assert by_time.partition_key == ("hour", "type")
        assert by_loc.partition_key == ("hour", "source")
        assert by_time.clustering_key[0] == "ts"
        assert by_loc.clustering_key[0] == "ts"

    def test_application_views(self):
        # Fig 2: time, user (and location) views clustered by start.
        assert TABLE_SCHEMAS["application_by_time"].partition_key == ("hour",)
        assert TABLE_SCHEMAS["application_by_user"].partition_key == ("user",)
        assert TABLE_SCHEMAS["application_by_location"].partition_key == (
            "source",)
        for name in ("application_by_time", "application_by_user",
                     "application_by_location"):
            assert TABLE_SCHEMAS[name].clustering_key == ("start", "apid")


class TestReferenceData:
    def test_nodeinfos_loaded(self, fw, topo):
        assert fw.model.nodeinfo("c0-0c0s0n0") is not None
        assert fw.model.nodeinfo("c9-9c9s9n9") is None
        info = fw.model.nodeinfo("c1-0c2s7n3")
        assert info["blade"] == "c1-0c2s7"
        assert info["gemini"].endswith("g1")

    def test_eventtypes_loaded(self, fw):
        types = fw.model.event_types()
        names = [t["name"] for t in types]
        assert "MCE" in names and "LUSTRE_ERR" in names
        assert names == sorted(names)


class TestEventQueries:
    def test_events_of_type_ordered(self, fw):
        rows = list(fw.model.events_of_type("MCE", 0, HORIZON))
        assert rows
        times = [r["ts"] for r in rows]
        assert times == sorted(times)
        assert all(r["type"] == "MCE" for r in rows)

    def test_events_of_type_window(self, fw, events):
        t0, t1 = 2 * 3600.0, 5 * 3600.0
        rows = list(fw.model.events_of_type("DRAM_CE", t0, t1))
        expected = [e for e in events if e.type == "DRAM_CE"
                    and t0 <= e.ts < t1]
        assert len(rows) == len(expected)
        assert all(t0 <= r["ts"] < t1 for r in rows)

    def test_events_match_generator_counts(self, fw, events):
        for etype in ("MCE", "GPU_XID", "KERNEL_PANIC"):
            rows = list(fw.model.events_of_type(etype, 0, HORIZON))
            assert len(rows) == sum(1 for e in events if e.type == etype)

    def test_events_at_location(self, fw, events):
        node = events[0].component
        rows = list(fw.model.events_at_location(node, 0, HORIZON))
        expected = [e for e in events if e.component == node]
        assert len(rows) == len(expected)
        assert {r["type"] for r in rows} == {e.type for e in expected}

    def test_empty_interval(self, fw):
        assert list(fw.model.events_of_type("MCE", 5.0, 5.0)) == []
        assert list(fw.model.events_at_location("c0-0c0s0n0", 9.0, 3.0)) == []

    @pytest.mark.parametrize("table, reason", [
        ("nodeinfos", "no time_bucket"),
        ("eventsynopsis", "'type', not 'ts'"),
        ("application_by_time", "'start', not 'ts'"),
    ])
    def test_window_of_a_table_that_cannot_serve_it_is_typed(
            self, fw, table, reason):
        """Refused by name and reason, before anything is read (it was
        a TypeError from inside the store)."""
        reads = fw.cluster.coordinator_reads
        with pytest.raises(SchemaError, match=table) as err:
            fw.cluster.select_window(table, 0, 7200)
        assert reason in str(err.value)
        assert fw.cluster.coordinator_reads == reads

    def test_column_read_of_a_window_is_one_coordinator_call(
            self, fw, monkeypatch):
        """A heat map over h hours hands the coordinator its h
        partitions at once, under the window's clustering bounds."""
        calls = []
        real = Cluster.aggregate_partitions

        def spy(self, table, partitions, **kwargs):
            calls.append((table, list(partitions), kwargs["lower"],
                          kwargs["upper"]))
            return real(self, table, partitions, **kwargs)

        monkeypatch.setattr(Cluster, "aggregate_partitions", spy)
        t0, t1 = 1800.0, 4 * 3600.0
        chunks = fw.model.event_columns(
            "event_by_time", "MCE", t0, t1, ["ts", "source"])
        assert calls == [(
            "event_by_time", [(h, "MCE") for h in range(4)],
            ClusteringBound((t0,)), ClusteringBound((t1,), inclusive=False))]
        rows = fw.model.events_of_type("MCE", t0, t1)
        assert [ts for stamps, _ in chunks for ts in stamps] == [
            r["ts"] for r in rows]
        assert [src for _, sources in chunks for src in sources] == [
            r["source"] for r in rows]

    def test_dual_views_consistent(self, fw):
        """Every event in the time view appears in the location view."""
        time_rows = list(fw.model.events_of_type("GPU_DBE", 0, HORIZON))
        for row in time_rows:
            loc_rows = list(fw.model.events_at_location(
                row["source"], row["ts"] - 0.5, row["ts"] + 0.5))
            assert any(
                r["ts"] == row["ts"] and r["type"] == "GPU_DBE"
                for r in loc_rows
            )

    def test_raw_message_retained(self, fw):
        rows = list(fw.model.events_of_type("LUSTRE_ERR", 0, HORIZON))
        assert all("msg" in r and "atlas-OST" in r["msg"] for r in rows[:20])


class TestApplicationQueries:
    def test_runs_running_at_matches_generator(self, fw, runs):
        from repro.genlog import JobGenerator

        for ts in (3600.0, 6 * 3600.0, 11 * 3600.0):
            db = fw.model.runs_running_at(ts)
            truth = JobGenerator.running_at(runs, ts)
            assert {r["apid"] for r in db} == {r.apid for r in truth}

    def test_runs_in_interval_dedupes(self, fw):
        rows = fw.model.runs_in_interval(0, HORIZON)
        apids = [r["apid"] for r in rows]
        assert len(apids) == len(set(apids))

    def test_runs_of_user(self, fw, runs):
        user = runs[0].user
        rows = fw.model.runs_of_user(user)
        expected = [r for r in runs if r.user == user]
        assert len(rows) == len(expected)
        assert all(r["user"] == user for r in rows)

    def test_runs_of_user_window(self, fw, runs):
        user = runs[0].user
        rows = fw.model.runs_of_user(user, t0=0.0, t1=3600.0)
        assert all(0 <= r["start"] < 3600.0 for r in rows)

    def test_runs_on_node(self, fw, runs):
        node = runs[0].nodes[0]
        rows = fw.model.runs_on_node(node)
        expected = [r for r in runs if node in r.nodes]
        assert {r["apid"] for r in rows} == {r.apid for r in expected}

    def test_run_nodes_roundtrip(self, fw, runs):
        rows = fw.model.runs_of_user(runs[0].user)
        row = next(r for r in rows if r["apid"] == runs[0].apid)
        assert tuple(fw.model.run_nodes(row)) == runs[0].nodes

    def test_multi_hour_run_in_every_hour_partition(self):
        cluster = Cluster(2)
        model = LogDataModel(cluster)
        model.create_tables()
        run = ApplicationRun(
            apid=1, app="X", user="u", start=1800.0, end=3 * 3600.0 + 100,
            nodes=("c0-0c0s0n0",), exit_status="OK",
        )
        model.write_applications([run])
        for hour in range(4):
            rows = cluster.select_partition("application_by_time", (hour,))
            assert len(rows) == 1
        assert fwd_is_start(cluster)


def fwd_is_start(cluster):
    rows = cluster.select_partition("application_by_time", (0,))
    later = cluster.select_partition("application_by_time", (2,))
    return rows[0]["is_start"] is True and later[0]["is_start"] is False


class TestSynopsis:
    def test_refresh_and_read(self, fw, events):
        written = fw.refresh_synopsis()
        assert written > 0
        hour0 = fw.model.synopsis_for_hour(0)
        assert hour0
        by_type = {r["type"]: r for r in hour0}
        expected_mce = sum(1 for e in events if e.type == "MCE" and e.hour == 0)
        if expected_mce:
            assert by_type["MCE"]["occurrences"] == expected_mce
        # Types within the hour partition are clustering-ordered.
        types = [r["type"] for r in hour0]
        assert types == sorted(types)

    def test_synopsis_amounts_weighted(self, fw, events):
        fw.refresh_synopsis()
        rows = fw.model.synopsis_for_hour(1)
        for row in rows:
            if row["type"] == "DRAM_CE":
                expected = sum(e.amount for e in events
                               if e.type == "DRAM_CE" and e.hour == 1)
                assert row["total_amount"] == expected


class TestSynopsisIsTheFoldedAggregate:
    """``refresh_synopsis`` is the unrouted ``GROUP BY hour, type``
    aggregate: one group per partition, folded where it lives."""

    @pytest.fixture(params=[False, True], ids=["memtable", "flushed"])
    def loaded(self, request):
        from repro.core import LogAnalyticsFramework
        from repro.genlog import LogGenerator

        topo = TitanTopology(rows=1, cols=1)
        events = LogGenerator(topo, seed=3, rate_multiplier=40).generate(3)
        occurrences = Counter((e.hour, e.type) for e in events)
        amounts = Counter()
        for e in events:
            amounts[e.hour, e.type] += e.amount
        with LogAnalyticsFramework(topo, db_nodes=3).setup() as fw:
            fw.ingest_events(events)
            # Rows written without an ``amount`` cell count once each.
            for seq, (hour, etype) in enumerate(
                    [(0, "MCE"), (0, "MCE"), (2, "MCE"), (7, "NO_AMOUNTS")]):
                fw.cluster.insert("event_by_time", {
                    "hour": hour, "type": etype, "ts": hour * 3600.0 + 0.5,
                    "seq": 10_000_000 + seq, "source": "c0-0c0s0n0"})
                occurrences[hour, etype] += 1
                amounts[hour, etype] += 1
            if request.param:
                fw.cluster.flush_all()
            yield fw, occurrences, amounts

    def test_equals_a_counter_over_the_events(self, loaded):
        fw, occurrences, amounts = loaded
        assert fw.refresh_synopsis() == len(occurrences)
        got = {(r["hour"], r["type"]): (r["occurrences"], r["total_amount"])
               for hour in {hour for hour, _ in occurrences}
               for r in fw.model.synopsis_for_hour(hour)}
        assert got == {key: (occurrences[key], amounts[key])
                       for key in occurrences}
        assert all(type(v) is int for pair in got.values() for v in pair)

    def test_builds_no_row_and_reads_each_partition_once(self, loaded,
                                                         monkeypatch):
        from repro import obs
        from tests.cql.test_pushed_scan import count_locality_reads

        fw, occurrences, _ = loaded
        built = obs.get_registry().counter("cassdb.vector.rows_materialized")
        entered = count_locality_reads(monkeypatch)
        before = built.value
        fw.refresh_synopsis()
        assert built.value == before
        assert sorted(entered) == sorted(
            ("event_by_time", pk)
            for pk in fw.cluster.partition_keys("event_by_time"))
        assert len(entered) == len(occurrences)


class TestWriteEventsFlexibility:
    def test_accepts_parsed_events(self):
        cluster = Cluster(2)
        model = LogDataModel(cluster)
        model.create_tables()
        event = ParsedEvent(ts=10.0, type="MCE", component="c0-0c0s0n0",
                            source=LogSource.CONSOLE, amount=2,
                            attrs={"bank": 4}, raw="payload text")
        assert model.write_events([event]) == 1
        rows = cluster.select_partition("event_by_time", (0, "MCE"))
        assert rows[0]["amount"] == 2
        assert rows[0]["msg"] == "payload text"
        assert "bank" in rows[0]["attrs"]

    def test_attrs_stored_as_sorted_key_json(self):
        """The stored ``attrs`` string is byte-identical to
        ``json.dumps(attrs, sort_keys=True)``: nested, non-ASCII, int
        and float values alike."""
        cluster = Cluster(2)
        model = LogDataModel(cluster)
        model.create_tables()
        cases = [
            {"z": 1, "a": {"y": [1, 2.5, None], "b": True}},
            {"node": "c0-0c0s0n0", "msg": "températur€ 温度"},
            {"bank": 4, "addr": -17, "big": 2**70},
            {"rate": 0.1, "temp": 1e-300, "neg": -2.5},
        ]
        events = [ParsedEvent(ts=10.0 + i, type="MCE", component="c0-0c0s0n0",
                              source=LogSource.CONSOLE, amount=1,
                              attrs=attrs, raw="x")
                  for i, attrs in enumerate(cases)]
        assert model.write_events(events) == len(cases)
        rows = cluster.select_partition("event_by_time", (0, "MCE"))
        assert [r["attrs"] for r in rows] == [
            json.dumps(attrs, sort_keys=True) for attrs in cases]


class TestAnEventLandsAsColumns:
    """An ingested event lands as column cells, held as counts: a
    streaming micro-batch and an ``ingest_batch`` call construct no
    ``Row``, and an ETL the size of the end-to-end benchmark's leaves no
    ``Row`` on the heap."""

    @staticmethod
    def _rows_made(monkeypatch) -> list:
        made: list = []
        init = Row.__init__

        def counting(self, *args, **kwargs):
            made.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Row, "__init__", counting)
        return made

    def test_a_micro_batch_builds_no_row(self, topo, events, monkeypatch):
        fw = LogAnalyticsFramework(topo, db_nodes=4,
                                   replication_factor=2).setup()
        try:
            bus = MessageBus()
            producer = LogProducer(bus, "events")
            ingestor = fw.streaming_ingestor(bus, "events")
            made = self._rows_made(monkeypatch)
            producer.publish_lines(render_line(e) for e in events[:3000])
            ingestor.process_available()
            ingestor.flush()
            assert ingestor.stats.written > 1000
            assert made == []
        finally:
            fw.stop()

    def test_an_ingest_batch_builds_no_row(self, topo, generator, events,
                                          tmp_path, monkeypatch):
        fw = LogAnalyticsFramework(topo, db_nodes=4,
                                   replication_factor=2).setup()
        try:
            paths = generator.write_log_files(tmp_path, events[:3000])
            made = self._rows_made(monkeypatch)
            stats = fw.ingest_batch(sorted(paths.values()))
            assert stats.written > 1000
            assert made == []
        finally:
            fw.stop()

    def test_an_etl_leaves_no_row_on_the_heap(self, tmp_path):
        # The benchmark's ETL inputs: 12 sets of 0.15 h at 1500x on a
        # four-cabinet slice, about 29 k lines.
        topo = TitanTopology(rows=1, cols=4)
        gen = LogGenerator(topo, seed=4601, rate_multiplier=1500,
                           storms_per_day=0.0)
        events = gen.generate(12 * 0.15)
        paths = gen.write_log_files(tmp_path, events)
        fw = LogAnalyticsFramework(topo, db_nodes=4,
                                   replication_factor=2).setup()
        try:
            gc.collect()
            before = sum(isinstance(o, Row) for o in gc.get_objects())
            stats = fw.ingest_batch(sorted(paths.values()))
            gc.collect()
            after = sum(isinstance(o, Row) for o in gc.get_objects())
            assert stats.lines > 20_000
            assert after == before
        finally:
            fw.stop()
