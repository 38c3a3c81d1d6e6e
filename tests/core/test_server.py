"""Tests for the async analytics server (Fig 3's query flow)."""

import asyncio
import json
from collections import Counter
from dataclasses import asdict

import pytest

from repro.core import AnalyticsServer, LogAnalyticsFramework
from repro.core.server import _OPS, _jsonable
from repro.detect.alerts import ALERT_SCHEMAS
from repro.genlog import LogGenerator
from repro.obs.export import TELEMETRY_SCHEMAS
from repro.titan import TitanTopology

from .conftest import HORIZON


@pytest.fixture(scope="module")
def server(fw):
    return AnalyticsServer(fw)


@pytest.fixture(scope="module")
def windowed():
    """A server over a small store whose first hour holds events and
    three each of alerts, span trees and profiled functions."""
    fw = LogAnalyticsFramework(TitanTopology(rows=1, cols=1),
                               db_nodes=1).setup(load_nodeinfos=False)
    fw.ingest_events(LogGenerator(fw.topology, seed=3,
                                  rate_multiplier=50).generate(1))
    cluster = fw.cluster
    for schema in (*ALERT_SCHEMAS.values(), *TELEMETRY_SCHEMAS.values()):
        cluster.create_table(schema)
    for i in range(3):
        ts = 10.0 + i
        cluster.insert("alerts_by_time", {
            "minute_bucket": 0, "ts": ts, "seq": i, "severity": "info",
            "detector": "d", "key": f"k{i}", "evidence": ""})
        cluster.insert("spans_by_time", {
            "minute_bucket": 0, "component": "server", "ts": ts,
            "span_id": i, "name": "server.request",
            "duration_ms": float(i)})
        cluster.insert("profiles_by_time", {
            "minute_bucket": 0, "component": "server", "ts": ts, "seq": i,
            "stack": f"main;f{i}", "samples": i + 1})
    yield AnalyticsServer(fw)
    fw.stop()


# The ops whose work is the big-data unit's — a sparklet job, or
# statistics and mining computed over what the request read — and
# that alone leave the event loop.
_THREAD_OPS = {"keywords", "refresh_synopsis", "transfer_entropy",
               "cross_correlation", "association_rules", "mine_precursors",
               "application_profiles", "materialize_composites"}


def _ctx(fw, **kw):
    return fw.context(0, HORIZON, **kw).to_json()


class TestRouting:
    def test_ping(self, server):
        r = server.handle_sync({"op": "ping"})
        assert r["ok"] and r["result"] == "pong"
        assert r["elapsed_ms"] >= 0

    def test_unknown_op(self, server):
        r = server.handle_sync({"op": "frobnicate"})
        assert not r["ok"]
        assert "unknown op" in r["error"]

    def test_missing_op(self, server):
        assert not server.handle_sync({})["ok"]

    def test_ops_partitioned(self):
        # One table: it names exactly the ``_op_*`` handlers, each either
        # inline or offloaded — and the offloaded ones are exactly the
        # big-data unit's, so a new op is placed on purpose.
        handlers = {name.removeprefix("_op_"): fn
                    for name, fn in vars(AnalyticsServer).items()
                    if name.startswith("_op_")}
        assert {op: fn for op, (fn, _offload) in _OPS.items()} == handlers
        assert {type(offload) for _fn, offload in _OPS.values()} == {bool}
        assert {op for op, (_fn, offload) in _OPS.items()
                if offload} == _THREAD_OPS

    @pytest.mark.parametrize("request_", ["ping", ["ping"], None, 7],
                             ids=["str", "list", "null", "int"])
    def test_a_request_that_is_not_an_object_is_an_error_reply(
            self, server, request_):
        errors = server.errors
        before = len(server.latencies_ms.get("<invalid>", []))
        r = server.handle_sync(request_)
        assert not r["ok"]
        assert r["error"] == ("ValueError: request must be a JSON object, "
                              f"not {type(request_).__name__}")
        assert server.errors == errors + 1
        assert len(server.latencies_ms["<invalid>"]) == before + 1

    def test_latencies_recorded(self, server):
        before = len(server.latencies_ms.get("ping", []))
        server.handle_sync({"op": "ping"})
        assert len(server.latencies_ms["ping"]) == before + 1

    def test_error_counter(self, server):
        errors = server.errors
        server.handle_sync({"op": "nodeinfo"})  # missing cname
        assert server.errors == errors + 1


_DEFN = {"name": "X", "sequence": ["MCE", "OOM"], "window": 60.0}
_MISSING_FIELD_CASES = [
    ({"op": "nodeinfo"}, "cname"),
    ({"op": "synopsis"}, "hour"),
    ({"op": "cql", "statement": ""}, "statement"),
    ({"op": "explain"}, "statement"),
    ({"op": "telemetry_series"}, "name"),
    ({"op": "placement"}, "ts"),
    ({"op": "transfer_entropy", "target_type": "OOM"}, "source_type"),
    ({"op": "transfer_entropy", "source_type": "MCE"}, "target_type"),
    ({"op": "cross_correlation", "type_b": "OOM"}, "type_a"),
    ({"op": "cross_correlation", "type_a": "MCE"}, "type_b"),
    ({"op": "materialize_composites", "definitions": []}, "definitions"),
] + [
    ({"op": "materialize_composites", "definitions": [
        {k: v for k, v in _DEFN.items() if k != missing}]}, missing)
    for missing in _DEFN
]


class TestRequiredFields:
    """Every missing required field is the same typed error — none
    leaks out of the server boundary as a bare KeyError."""

    @pytest.mark.parametrize(
        "request_,field", _MISSING_FIELD_CASES,
        ids=[f"{r['op']}-{f}" for r, f in _MISSING_FIELD_CASES])
    def test_missing_field_is_a_value_error(self, server, fw, request_, field):
        r = server.handle_sync({"context": _ctx(fw), **request_})
        assert not r["ok"]
        assert r["error"] == (
            f"ValueError: {request_['op']} requires '{field}'")

    def test_zero_is_a_value_not_a_missing_field(self, server):
        assert server.handle_sync({"op": "synopsis", "hour": 0})["ok"]
        assert server.handle_sync({"op": "placement", "ts": 0})["ok"]


def _records(items):
    return [asdict(item) for item in items]


# A coupled pair: its permutation p-value moves with the shuffle count.
_PAIR = {"source_type": "DRAM_UE", "target_type": "HEARTBEAT_FAULT"}
_TYPES = {"type_a": "DRAM_UE", "type_b": "HEARTBEAT_FAULT"}

_MCE = {"event_types": ("MCE",)}

# (op, context filter, required fields, the framework call with NO
# keyword argument, shaped the way the handler shapes it)
_DEFAULTED_OPS = [
    ("heatmap", _MCE, {}, lambda fw, c: fw.heatmap(c)),
    ("distribution", _MCE, {}, lambda fw, c: fw.distribution(c)),
    ("histogram", _MCE, {}, lambda fw, c: dict(
        zip(("edges", "counts"), fw.time_histogram(c)))),
    ("hotspots", _MCE, {}, lambda fw, c: _records(fw.hotspots(c))),
    ("transfer_entropy", {}, _PAIR, lambda fw, c: asdict(
        fw.transfer_entropy(c, *_PAIR.values()))),
    ("cross_correlation", {}, _TYPES, lambda fw, c: fw.cross_correlation(
        c, *_TYPES.values())),
    ("keywords", _MCE, {}, lambda fw, c: fw.keywords(c)),
    ("association_rules", {}, {}, lambda fw, c: _records(
        fw.association_rules(c))),
    ("mine_precursors", {}, {}, lambda fw, c: _records(
        fw.mine_precursors(c))),
]


class TestOneDefaultPerParameter:
    """A handler forwards only the fields a request carries, so every
    analytic parameter has one default: the framework's."""

    @pytest.mark.parametrize("op,filters,required,direct", _DEFAULTED_OPS,
                             ids=[op for op, *_ in _DEFAULTED_OPS])
    def test_omitted_fields_take_the_framework_defaults(
            self, server, fw, op, filters, required, direct):
        context = fw.context(0, HORIZON, **filters)
        r = server.handle_sync(
            {"op": op, "context": context.to_json(), **required})
        assert r["ok"], r
        assert r["result"] == _jsonable(direct(fw, context))

    def test_a_null_field_is_an_omitted_field(self, server, fw):
        request = {"op": "distribution", "context": _ctx(fw, **_MCE)}
        assert (server.handle_sync({**request, "granularity": None})["result"]
                == server.handle_sync(request)["result"])

    @pytest.mark.parametrize("op,field,table,row", [
        ("telemetry_spans", "limit", "spans_by_time",
         {"component": "cql", "span_id": 1, "duration_ms": 2.0}),
        ("alerts", "limit", "alerts_by_time",
         {"seq": 1, "severity": "info", "detector": "d"}),
        ("profile_flame", "top", "profiles_by_time",
         {"component": "cql", "seq": 1, "stack": "a;b", "samples": 3}),
    ])
    def test_a_null_limit_is_an_omitted_limit(self, op, field, table, row):
        from repro.core import LogAnalyticsFramework
        from repro.detect.alerts import ALERT_SCHEMAS
        from repro.obs.export import TELEMETRY_SCHEMAS

        with LogAnalyticsFramework(db_nodes=2).setup(
                load_nodeinfos=False) as fw:
            fw.cluster.create_table({**TELEMETRY_SCHEMAS,
                                     **ALERT_SCHEMAS}[table])
            fw.cluster.insert(table, {"minute_bucket": 0, "ts": 1.0, **row})
            request = {"op": op, "t0": 0.0, "t1": 60.0}
            omitted = AnalyticsServer(fw).handle_sync(request)
            null = AnalyticsServer(fw).handle_sync({**request, field: None})
        assert omitted["ok"], omitted
        assert null["ok"], null
        assert null["result"] == omitted["result"]
        assert len(next(v for v in omitted["result"].values()
                        if isinstance(v, list))) == 1


class TestRowCountFields:
    """``limit`` / ``top`` are non-negative integers or a typed error
    naming the field — never a slice that silently drops the newest or
    the oldest row."""

    @pytest.mark.parametrize("value", [-1, True, "2", 2.5])
    @pytest.mark.parametrize("op,field", [
        ("events", "limit"), ("alerts", "limit"),
        ("telemetry_spans", "limit"), ("profile_flame", "top")])
    def test_anything_else_is_a_value_error(self, server, fw, op, field,
                                            value):
        r = server.handle_sync(
            {"op": op, "context": _ctx(fw, **_MCE), field: value})
        assert not r["ok"]
        assert r["error"] == (
            f"ValueError: {op}: '{field}' must be a non-negative integer")

    # op -> (row-count field, the answer's list, what a count of 1 keeps)
    _ANSWERS = {
        "events": ("limit", lambda r: r, slice(None, 1)),
        "alerts": ("limit", lambda r: r["alerts"], slice(-1, None)),
        "telemetry_spans": ("limit", lambda r: r["trees"], slice(None, 1)),
        "profile_flame": ("top", lambda r: r["hot"], slice(None, 1)),
    }

    @pytest.mark.parametrize("op", sorted(_ANSWERS))
    def test_zero_still_means_every_event(self, windowed, op):
        field, answer, one = self._ANSWERS[op]
        request = {"op": op, "context": {"t0": 0.0, "t1": 3600.0},
                   "t0": 0.0, "t1": 3600.0}
        every = answer(windowed.handle_sync(request)["result"])
        assert len(every) > 1
        for count, want in ((0, every), (1, every[one])):
            r = windowed.handle_sync({**request, field: count})
            assert answer(r["result"]) == want, (op, count)


class TestContextNameLists:
    """``event_types`` / ``sources`` are lists of names: a bare string
    was split into characters and answered an empty result.  ``t0`` /
    ``t1`` are numbers: a missing or mistyped bound is a typed error."""

    @pytest.mark.parametrize("op", ["heatmap", "events"])
    @pytest.mark.parametrize("field,value", [
        ("event_types", "MCE"), ("sources", "c0-0c0s0n0")])
    def test_a_bare_string_is_a_value_error(self, server, op, field, value):
        r = server.handle_sync({"op": op, "context": {
            "t0": 0.0, "t1": HORIZON, field: value}})
        assert not r["ok"]
        assert r["error"] == f"ValueError: context '{field}' must be a list"

    @pytest.mark.parametrize("field,value", [
        ("event_types", "MCE"), ("sources", "c0-0c0s0n0")])
    def test_the_list_of_one_name_answers(self, server, field, value):
        r = server.handle_sync({"op": "heatmap", "context": {
            "t0": 0.0, "t1": HORIZON, field: [value]}})
        assert r["ok"] and r["result"]

    @pytest.mark.parametrize("field", ["event_types", "sources"])
    def test_empty_and_null_mean_any(self, server, field):
        window = {"t0": 0.0, "t1": 3600.0}
        answers = [server.handle_sync({"op": "heatmap", "context": context})
                   for context in (window, {**window, field: []},
                                   {**window, field: None})]
        assert all(r["ok"] for r in answers)
        assert answers[0]["result"]
        assert all(r["result"] == answers[0]["result"] for r in answers)

    @pytest.mark.parametrize("field", ["t0", "t1"])
    @pytest.mark.parametrize("value", [
        "missing", None, True, [1], "0", {"at": 0}])
    def test_a_bound_that_is_not_a_number_is_a_value_error(
            self, server, field, value):
        context = {"t0": 0.0, "t1": HORIZON}
        if value == "missing":
            del context[field]
        else:
            context[field] = value
        r = server.handle_sync({"op": "heatmap", "context": context})
        assert not r["ok"]
        assert r["error"] == (
            f"ValueError: context requires a numeric '{field}'")


class TestCQLRequestFields:
    """``statement`` is a string and ``params`` a JSON array, or a typed
    error naming the field: a string of params was bound one character
    per placeholder, and any other type leaked a bare TypeError."""

    @pytest.mark.parametrize("op", ["cql", "explain"])
    @pytest.mark.parametrize("value", [
        5, True, ["SELECT * FROM eventtypes"], {"q": 1}])
    def test_a_statement_that_is_not_a_string_is_a_value_error(
            self, server, op, value):
        r = server.handle_sync({"op": op, "statement": value})
        assert not r["ok"]
        assert r["error"] == f"ValueError: {op}: 'statement' must be a string"

    @pytest.mark.parametrize("value", ["12", 5, True, {"0": 1}])
    def test_params_that_are_not_an_array_are_a_value_error(
            self, server, value):
        r = server.handle_sync({
            "op": "cql", "params": value,
            "statement": "SELECT * FROM eventtypes WHERE name IN (?, ?)"})
        assert not r["ok"]
        assert r["error"] == "ValueError: cql: 'params' must be an array"

    def test_null_params_are_omitted(self, server):
        r = server.handle_sync({
            "op": "cql", "params": None,
            "statement": "SELECT * FROM eventtypes WHERE name = 'x'"})
        assert r["ok"], r
        assert r["result"] == []


class TestNumericRequestFields:
    """``synopsis.hour`` is an integer, and ``placement.ts`` and a
    window's ``t0``/``t1`` are numbers, or a typed error naming the
    field: a list leaked a TypeError, a bool or a fractional hour was
    truncated to an hour, and a numeric string was accepted."""

    @pytest.mark.parametrize("value", [[1], True, 1.9, "1", {"h": 1}])
    def test_synopsis_hour_is_an_integer(self, server, value):
        r = server.handle_sync({"op": "synopsis", "hour": value})
        assert not r["ok"]
        assert r["error"] == (
            "ValueError: synopsis: 'hour' must be an integer")

    @pytest.mark.parametrize("value", [[0], True, "3600", {"t": 1}])
    def test_placement_ts_is_a_number(self, server, value):
        r = server.handle_sync({"op": "placement", "ts": value})
        assert not r["ok"]
        assert r["error"] == "ValueError: placement: 'ts' must be a number"

    @pytest.mark.parametrize("value", [[0], True, "0"])
    @pytest.mark.parametrize("field", ["t0", "t1"])
    @pytest.mark.parametrize("op", [
        "telemetry_series", "telemetry_spans", "profile_flame",
        "critical_path", "alerts", "alert_summary"])
    def test_window_bounds_are_numbers(self, windowed, op, field, value):
        # critical_path reads the window for a trace not in the ring.
        request = {"op": op, "name": "m", "trace_id": -1,
                   "t0": 0.0, "t1": 3600.0, field: value}
        r = windowed.handle_sync(request)
        assert not r["ok"]
        assert r["error"] == f"ValueError: {op}: '{field}' must be a number"

    def test_numbers_are_still_read(self, windowed):
        assert windowed.handle_sync({"op": "synopsis", "hour": 1})["ok"]
        assert windowed.handle_sync({"op": "placement", "ts": 60})["ok"]
        r = windowed.handle_sync({"op": "alerts", "t0": 0, "t1": 3600})
        assert r["ok"] and r["result"]["total"] == 3


class TestNamedRequestFields:
    """The fields a partition key is made of are strings, or a typed
    error naming the field: a list or an object in them answered ``[]``,
    an empty tree or a leaked ``KeyError``."""

    @pytest.mark.parametrize("field,value,kind", [
        ("event_types", [["x"]], "a list of strings"),
        ("sources", ["c0-0c0s0n0", {"a": 1}], "a list of strings"),
        ("app", ["a"], "a string"),
        ("user", {"a": 1}, "a string")])
    def test_context_names_are_strings(self, server, field, value, kind):
        r = server.handle_sync({"op": "events", "context": {
            "t0": 0.0, "t1": HORIZON, field: value}})
        assert not r["ok"]
        assert r["error"] == f"ValueError: context '{field}' must be {kind}"

    @pytest.mark.parametrize("value", [["c0-0c0s0n0"], {"a": 1}, 7])
    def test_nodeinfo_cname_is_a_string(self, server, value):
        r = server.handle_sync({"op": "nodeinfo", "cname": value})
        assert not r["ok"]
        assert r["error"] == "ValueError: nodeinfo: 'cname' must be a string"

    @pytest.mark.parametrize("value", [["m"], {"a": 1}, 3])
    def test_telemetry_series_name_is_a_string(self, windowed, value):
        r = windowed.handle_sync({"op": "telemetry_series", "name": value,
                                  "t0": 0.0, "t1": 3600.0})
        assert not r["ok"]
        assert r["error"] == (
            "ValueError: telemetry_series: 'name' must be a string")

    @pytest.mark.parametrize("value", [{"a": 1}, ["server"], 3])
    @pytest.mark.parametrize("op", ["telemetry_spans", "profile_flame"])
    def test_component_is_a_string(self, windowed, op, value):
        r = windowed.handle_sync({"op": op, "component": value,
                                  "t0": 0.0, "t1": 3600.0})
        assert not r["ok"]
        assert r["error"] == f"ValueError: {op}: 'component' must be a string"


class TestLeakedRequestFields:
    """``telemetry_series.labels`` is an object and
    ``critical_path.trace_id`` an integer, or a typed error naming the
    field: a list of labels leaked an ``AttributeError``, a listed trace
    id a ``TypeError``, and ``true`` was read as trace 1."""

    @pytest.fixture(scope="class")
    def labelled(self, windowed):
        windowed.framework.cluster.insert("metrics_by_time", {
            "minute_bucket": 0, "metric_name": "labelled", "ts": 10.0,
            "seq": 0, "value": 1.0, "labels": json.dumps({"a": "b"})})
        return windowed

    @pytest.mark.parametrize("value", [["a"], "a=b", 1])
    def test_labels_are_an_object(self, labelled, value):
        r = labelled.handle_sync({"op": "telemetry_series",
                                  "name": "labelled", "labels": value,
                                  "t0": 0.0, "t1": 3600.0})
        assert not r["ok"]
        assert r["error"] == (
            "ValueError: telemetry_series: 'labels' must be an object")

    @pytest.mark.parametrize("value", [[1], "abc", True, 1.5])
    def test_trace_id_is_an_integer(self, windowed, value):
        r = windowed.handle_sync({"op": "critical_path", "trace_id": value,
                                  "t0": 0.0, "t1": 3600.0})
        assert not r["ok"]
        assert r["error"] == (
            "ValueError: critical_path: 'trace_id' must be an integer")


class TestHotspotsOverEverySource:
    """An unfiltered context counts Gemini routers beside the nodes;
    once every node has reported there are more reporting sources than
    nodes, and ``hotspots`` used to refuse to answer."""

    @pytest.fixture(scope="class")
    def crowded(self):
        from repro.core import LogAnalyticsFramework
        from repro.genlog import LogGenerator
        from repro.titan import TitanTopology

        topo = TitanTopology(rows=1, cols=2)
        events = LogGenerator(topo, seed=7, rate_multiplier=200).generate(2)
        with LogAnalyticsFramework(topo, db_nodes=3).setup() as fw:
            fw.ingest_events(events)
            yield fw

    @pytest.mark.parametrize("granularity", ["node", "blade", "cabinet"])
    def test_routers_are_left_out_of_the_population(self, crowded,
                                                    granularity):
        fw = crowded
        context = fw.context(0.0, 7200.0)
        reporting = fw.heatmap(context)
        nodes = set(fw.topology.cnames())
        assert nodes <= set(reporting) and len(reporting) > len(nodes)
        r = AnalyticsServer(fw).handle_sync({
            "op": "hotspots", "granularity": granularity,
            "z_threshold": 1.0, "context": context.to_json()})
        assert r["ok"], r
        population = fw.topology.components(granularity)
        assert len(population) == {"node": 192, "blade": 48,
                                   "cabinet": 2}[granularity]
        assert r["result"]
        assert {h["component"] for h in r["result"]} <= population


class TestGranularityIsCheckedByTheCall:
    """Not by the first event: an interval with no events used to
    answer ``{}`` / ``[]`` / a leaked KeyError for a granularity that
    raises on any interval with events."""

    @pytest.mark.parametrize("op", ["heatmap", "distribution", "hotspots"])
    @pytest.mark.parametrize("t0", [0.0, HORIZON + 36_000.0],
                             ids=["events", "no-events"])
    def test_unknown_granularity(self, server, op, t0):
        r = server.handle_sync({
            "op": op, "granularity": "rack",
            "context": {"t0": t0, "t1": t0 + 3600.0,
                        "event_types": ["MCE"]}})
        assert not r["ok"]
        assert r["error"] == ("ValueError: granularity must be one of "
                              "('node', 'blade', 'cabinet')")

    @pytest.mark.parametrize("op,empty", [
        ("heatmap", {}), ("distribution", []), ("hotspots", [])])
    def test_no_events_is_still_an_answer(self, server, op, empty):
        r = server.handle_sync({
            "op": op, "granularity": "blade",
            "context": {"t0": HORIZON + 36_000.0, "t1": HORIZON + 39_600.0,
                        "event_types": ["MCE"]}})
        assert r["ok"] and r["result"] == empty


class TestFoldsBuildNoRows:
    """Over a flushed store a fold request reads column cells; not one
    row object or row dict is built for it."""

    @pytest.fixture(scope="class")
    def flushed(self):
        from repro.core import LogAnalyticsFramework
        from repro.genlog import LogGenerator
        from repro.titan import TitanTopology

        topo = TitanTopology(rows=1, cols=1)
        events = LogGenerator(topo, seed=3, rate_multiplier=40).generate(2)
        with LogAnalyticsFramework(topo, db_nodes=3).setup() as fw:
            fw.ingest_events(events)
            fw.cluster.flush_all()
            common = [t for t, _ in Counter(
                e.type for e in events).most_common(3)]
            yield AnalyticsServer(fw), common

    @pytest.mark.parametrize("op", [
        "heatmap", "histogram", "hotspots", "distribution", "keywords",
        "association_rules", "transfer_entropy", "cross_correlation"])
    def test_rows_materialized_stands_still(self, flushed, op):
        from repro import obs

        server, common = flushed
        extra = {
            "transfer_entropy": {"source_type": common[0],
                                 "target_type": common[1], "n_shuffles": 5},
            "cross_correlation": {"type_a": common[0], "type_b": common[1]},
        }.get(op, {})
        registry = obs.get_registry()
        built = registry.counter("cassdb.vector.rows_materialized")
        cells = registry.counter("cassdb.vector.column_cells")
        before = built.value, cells.value
        r = server.handle_sync({
            "op": op, **extra,
            "context": {"t0": 0.0, "t1": 7200.0, "event_types": common}})
        assert r["ok"], r
        assert built.value == before[0]
        assert cells.value > before[1]


class TestSimpleOps:
    def test_event_types(self, server):
        r = server.handle_sync({"op": "event_types"})
        assert r["ok"]
        assert any(t["name"] == "MCE" for t in r["result"])

    def test_nodeinfo(self, server):
        r = server.handle_sync({"op": "nodeinfo", "cname": "c0-0c0s0n0"})
        assert r["ok"]
        assert r["result"]["cabinet"] == "c0-0"

    def test_nodeinfo_unknown(self, server):
        r = server.handle_sync({"op": "nodeinfo", "cname": "c9-9c9s9n9"})
        assert not r["ok"]

    def test_events_with_limit(self, server, fw):
        r = server.handle_sync({
            "op": "events", "context": _ctx(fw, event_types=("MCE",)),
            "limit": 5,
        })
        assert r["ok"]
        assert len(r["result"]) == 5

    def test_events_requires_context(self, server):
        assert not server.handle_sync({"op": "events"})["ok"]

    def test_runs(self, server, fw, runs):
        r = server.handle_sync({
            "op": "runs", "context": _ctx(fw, user=runs[0].user),
        })
        assert r["ok"]
        assert all(row["user"] == runs[0].user for row in r["result"])

    def test_cql_passthrough(self, server):
        r = server.handle_sync({
            "op": "cql",
            "statement": "SELECT name FROM eventtypes WHERE name = 'MCE'",
        })
        assert r["ok"]
        assert r["result"] == [{"name": "MCE"}]

    def test_explain_op_returns_plan_json(self, server):
        r = server.handle_sync({
            "op": "explain",
            "statement": "SELECT name FROM eventtypes WHERE name = 'MCE'",
        })
        assert r["ok"]
        plan = r["result"]
        assert plan["kind"] == "select"
        assert plan["plan"]["op"] in ("Project", "PartitionScan")
        assert "partition_key_routing" in plan["rules"]

    def test_explain_op_requires_statement(self, server):
        assert not server.handle_sync({"op": "explain"})["ok"]

    def test_cql_error_carries_structured_detail(self, server):
        r = server.handle_sync({
            "op": "cql",
            "statement": "SELECT name FROM eventtypes WHERE name ~ 'x'",
        })
        assert not r["ok"]
        detail = r["error_detail"]
        assert detail["type"] == "CQLSyntaxError"
        assert detail["line"] == 1
        assert detail["column"] == 40
        assert detail["token"] == "~"
        assert detail["message"].startswith("line 1:40:")

    @pytest.mark.parametrize("op, statement", [
        ("cql", "SELECT * FROM nosuch"),
        ("cql", "EXPLAIN SELECT * FROM nosuch"),
        ("explain", "SELECT * FROM nosuch"),
    ])
    def test_unknown_table_is_a_planning_error(self, server, op, statement):
        r = server.handle_sync({"op": op, "statement": statement})
        assert not r["ok"]
        detail = r["error_detail"]
        assert detail["type"] == "CQLPlanningError"
        assert detail["token"] == "nosuch"
        assert detail["message"] == "no such table: 'nosuch'"

    @pytest.mark.parametrize("op, statement", [
        ("cql", "INSERT INTO nosuch (k, v) VALUES (1, 2)"),
        ("cql", "DELETE FROM nosuch WHERE k = 1"),
        ("explain", "CREATE TABLE nosuch (k int, PRIMARY KEY (k))"),
    ])
    def test_a_write_statement_is_a_syntax_error(self, server, op, statement):
        """CQL only reads: a write is refused at its first token."""
        r = server.handle_sync({"op": op, "statement": statement})
        assert not r["ok"]
        verb = statement.split()[0]
        assert r["error_detail"] == {
            "type": "CQLSyntaxError",
            "message": f"line 1:1: unsupported statement: {verb}",
            "line": 1, "column": 1, "token": verb}

    def test_non_cql_error_has_no_detail(self, server):
        r = server.handle_sync({"op": "nodeinfo"})
        assert not r["ok"]
        assert "error_detail" not in r

    def test_synopsis(self, server, fw):
        fw.refresh_synopsis()
        r = server.handle_sync({"op": "synopsis", "hour": 0})
        assert r["ok"] and r["result"]


class TestComplexOps:
    def test_heatmap(self, server, fw):
        r = server.handle_sync({
            "op": "heatmap", "context": _ctx(fw, event_types=("MCE",)),
            "granularity": "cabinet",
        })
        assert r["ok"]
        assert set(r["result"]) <= {"c0-0", "c1-0"}

    def test_heatmap_grid_json(self, server, fw):
        r = server.handle_sync({
            "op": "heatmap_grid",
            "context": _ctx(fw, event_types=("MCE",)),
        })
        assert r["ok"]
        json.dumps(r["result"])
        assert r["result"]["rows"] == 1

    def test_histogram(self, server, fw):
        r = server.handle_sync({
            "op": "histogram", "context": _ctx(fw, event_types=("MCE",)),
            "num_bins": 6,
        })
        assert r["ok"]
        assert len(r["result"]["counts"]) == 6
        json.dumps(r["result"])

    def test_hotspots(self, server, fw, generator):
        r = server.handle_sync({
            "op": "hotspots", "context": _ctx(fw, event_types=("MCE",)),
        })
        assert r["ok"]
        found = {h["component"] for h in r["result"]}
        assert set(generator.ground_truth.hot_nodes["MCE"]) <= found

    def test_hotspot_records_are_the_dataclass_fields(self, server, fw):
        context = fw.context(0, HORIZON, event_types=("MCE",))
        r = server.handle_sync({
            "op": "hotspots", "context": context.to_json(),
            "granularity": "blade", "z_threshold": 1.0})
        want = [asdict(h) for h in fw.hotspots(context, "blade", 1.0)]
        assert want and r["result"] == want
        assert [list(h) for h in r["result"]] == [list(h) for h in want]

    def test_transfer_entropy(self, server, fw):
        r = server.handle_sync({
            "op": "transfer_entropy", "context": _ctx(fw),
            "source_type": "DRAM_UE", "target_type": "KERNEL_PANIC",
            "bin_seconds": 30.0, "n_shuffles": 50,
        })
        assert r["ok"]
        assert r["result"]["te_forward"] >= r["result"]["te_reverse"]
        json.dumps(r["result"])

    def test_keywords(self, server, fw, generator):
        storm = generator.ground_truth.storms[0]
        ctx = fw.context(storm.start, storm.start + storm.duration,
                         event_types=("LUSTRE_ERR",))
        r = server.handle_sync({
            "op": "keywords", "context": ctx.to_json(), "n": 3,
        })
        assert r["ok"]
        assert r["result"][0][0] == storm.ost.lower()

    def test_placement(self, server):
        r = server.handle_sync({"op": "placement", "ts": 6 * 3600.0})
        assert r["ok"]
        assert all({"apid", "app", "user", "nodes"} <= set(run)
                   for run in r["result"])

    def test_distribution(self, server, fw):
        r = server.handle_sync({
            "op": "distribution", "context": _ctx(fw, event_types=("MCE",)),
            "granularity": "cabinet",
        })
        assert r["ok"]
        values = [v for _k, v in r["result"]]
        assert values == sorted(values, reverse=True)

    def test_association_rules(self, server, fw):
        r = server.handle_sync({
            "op": "association_rules", "context": _ctx(fw),
            "window_seconds": 120.0, "min_support": 0.0005,
        })
        assert r["ok"]
        json.dumps(r["result"])


class TestExtensionOps:
    def test_mine_precursors(self, server, fw):
        r = server.handle_sync({
            "op": "mine_precursors", "context": _ctx(fw),
            "lead_window": 120.0, "min_support": 2,
        })
        assert r["ok"]
        pairs = {(rule["precursor"], rule["target"]) for rule in r["result"]}
        assert ("DRAM_UE", "KERNEL_PANIC") in pairs
        json.dumps(r["result"])

    def test_application_profiles(self, server, fw, runs):
        r = server.handle_sync({
            "op": "application_profiles", "context": _ctx(fw),
        })
        assert r["ok"]
        assert set(r["result"]) == {run.app for run in runs}
        json.dumps(r["result"])

    def test_materialize_composites_requires_definitions(self, server, fw):
        r = server.handle_sync({
            "op": "materialize_composites", "context": _ctx(fw),
        })
        assert not r["ok"]

    def test_materialize_composites(self, fw, generator):
        # Private framework: this op writes events.
        from repro.core import AnalyticsServer, LogAnalyticsFramework

        fw2 = LogAnalyticsFramework(fw.topology, db_nodes=2).setup()
        ctx = fw2.context(0, HORIZON)
        import copy

        fw2.ingest_events(generator.generate(12))
        server2 = AnalyticsServer(fw2)
        r = server2.handle_sync({
            "op": "materialize_composites", "context": ctx.to_json(),
            "definitions": [{
                "name": "NODE_DEATH_SEQUENCE",
                "sequence": ["DRAM_UE", "KERNEL_PANIC", "HEARTBEAT_FAULT"],
                "window": 120.0,
            }],
        })
        assert r["ok"]
        assert len(r["result"]) == len(generator.ground_truth.cascades)
        json.dumps(r["result"])
        fw2.stop()


class TestConcurrency:
    def test_handle_many_concurrent(self, server, fw):
        requests = [
            {"op": "ping"},
            {"op": "heatmap", "context": _ctx(fw, event_types=("MCE",))},
            {"op": "event_types"},
            {"op": "histogram", "context": _ctx(fw, event_types=("OOM",)),
             "num_bins": 4},
        ]
        responses = asyncio.run(server.handle_many(requests))
        assert [r["ok"] for r in responses] == [True] * 4

    def test_event_loop_not_blocked_by_complex_op(self, server, fw):
        """While the big-data unit's work runs in a worker thread, the
        loop's ops must complete — the Tornado non-blocking property."""

        async def scenario():
            slow = asyncio.create_task(server.handle({
                "op": "transfer_entropy", "context": _ctx(fw),
                "source_type": "DRAM_UE", "target_type": "KERNEL_PANIC",
                "n_shuffles": 200,
            }))
            fast = await server.handle({"op": "ping"})
            assert fast["ok"]
            assert not slow.done() or slow.result()["ok"]
            await slow

        asyncio.run(scenario())

    def test_requests_served_counter(self, server):
        before = server.requests_served
        server.handle_sync({"op": "ping"})
        server.handle_sync({"op": "ping"})
        assert server.requests_served == before + 2


# -- every op, one request each ---------------------------------------------

_ONE_PARTITION = {"t0": 0.0, "t1": 3600.0, "event_types": ["MCE"]}
_MANY_PARTITIONS = {"t0": 0.0, "t1": 3 * 3600.0}
_WINDOW = {"t0": 0.0, "t1": 60.0}
_ROUTED = "SELECT name FROM eventtypes WHERE name = 'MCE'"
# No partition key: the plan is ``FullScanAggregate … engine: sparklet``.
_UNROUTED = "SELECT type, count(*) FROM event_by_time GROUP BY type"

# One minimal valid request per op (its fields after "op").
_EVERY_OP = {
    "ping": {}, "event_types": {}, "nodeinfo": {"cname": "c0-0c0s0n0"},
    "events": {"context": _ONE_PARTITION},
    "runs": {"context": _MANY_PARTITIONS},
    "synopsis": {"hour": 0},
    "cql": {"statement": _ROUTED}, "explain": {"statement": _UNROUTED},
    "metrics": {"prefix": "server."}, "trace": {}, "slow_queries": {},
    "telemetry_series": {"name": "server.requests", **_WINDOW},
    "telemetry_spans": _WINDOW, "profile_flame": _WINDOW,
    "critical_path": {}, "alerts": _WINDOW, "alert_summary": _WINDOW,
    "health": {},
    "heatmap": {"context": _ONE_PARTITION},
    "heatmap_grid": {"context": _ONE_PARTITION},
    "distribution": {"context": _ONE_PARTITION},
    "distribution_by_application": {"context": _ONE_PARTITION},
    "histogram": {"context": _ONE_PARTITION},
    "hotspots": {"context": _ONE_PARTITION},
    "placement": {"ts": 3600.0},
    "transfer_entropy": {"context": _MANY_PARTITIONS, "source_type": "MCE",
                         "target_type": "OOM", "n_shuffles": 5},
    "cross_correlation": {"context": _MANY_PARTITIONS, "type_a": "MCE",
                          "type_b": "OOM"},
    "keywords": {"context": _ONE_PARTITION},
    "association_rules": {"context": _MANY_PARTITIONS},
    "refresh_synopsis": {},
    "mine_precursors": {"context": _MANY_PARTITIONS},
    "application_profiles": {"context": _MANY_PARTITIONS},
    "materialize_composites": {"context": _ONE_PARTITION,
                               "definitions": [_DEFN]},
}

# The coordinator folds, each over a context of many partitions.
_FOLD_OPS = ["events", "heatmap", "heatmap_grid", "distribution",
             "distribution_by_application", "histogram", "hotspots"]


@pytest.fixture(scope="module")
def every_op():
    """A server over a small loaded store on which every op answers:
    events, runs, the telemetry and alert tables, a completed trace."""
    from repro.core import LogAnalyticsFramework
    from repro.detect.alerts import ALERT_SCHEMAS
    from repro.genlog import JobGenerator, LogGenerator
    from repro.obs.export import TELEMETRY_SCHEMAS
    from repro.titan import TitanTopology

    topo = TitanTopology(rows=1, cols=1)
    with LogAnalyticsFramework(topo, db_nodes=3).setup() as fw:
        fw.ingest_events(
            LogGenerator(topo, seed=3, rate_multiplier=20).generate(3))
        fw.ingest_applications(JobGenerator(topo, seed=5).generate(3))
        for schema in {**TELEMETRY_SCHEMAS, **ALERT_SCHEMAS}.values():
            fw.cluster.create_table(schema)
        server = AnalyticsServer(fw)
        assert server.handle_sync({"op": "ping"})["ok"]
        yield server


@pytest.fixture
def hops(monkeypatch):
    """Every ``asyncio.to_thread`` call while the test runs."""
    calls = []
    to_thread = asyncio.to_thread

    async def counted(fn, /, *args, **kwargs):
        calls.append(fn)
        return await to_thread(fn, *args, **kwargs)

    monkeypatch.setattr(asyncio, "to_thread", counted)
    return calls


class TestARequestRunsWhereItArrives:
    """The coordinator answers its reads and folds on the event loop; a
    request leaves the loop — one ``to_thread`` hop — only for work of
    the big-data unit, and a ``cql`` request by its plan."""

    def test_every_op_has_a_request(self):
        assert set(_EVERY_OP) == set(_OPS)

    @pytest.mark.parametrize("op", sorted(_EVERY_OP))
    def test_hops_per_request(self, every_op, hops, op):
        r = every_op.handle_sync({"op": op, **_EVERY_OP[op]})
        assert r["ok"], r
        assert len(hops) == (1 if op in _THREAD_OPS else 0)

    @pytest.mark.parametrize("op", _FOLD_OPS)
    def test_a_fold_over_many_partitions_stays_on_the_loop(
            self, every_op, hops, op):
        r = every_op.handle_sync({"op": op, "context": _MANY_PARTITIONS})
        assert r["ok"] and r["result"], r
        assert hops == []

    @pytest.mark.parametrize("statement,miss_hops", [
        (_ROUTED, 0), (_UNROUTED, 1)], ids=["routed", "unrouted"])
    def test_a_cql_miss_hops_by_its_plan_and_a_hit_never(
            self, every_op, hops, statement, miss_hops):
        server = AnalyticsServer(every_op.framework)  # an empty cache
        request = {"op": "cql", "statement": statement}
        miss = server.handle_sync(request)
        assert miss["ok"] and miss["cache"] == "miss"
        assert len(hops) == miss_hops
        hit = server.handle_sync(request)
        assert hit["ok"] and hit["cache"] == "hit"
        assert hit["result"] == miss["result"]
        assert len(hops) == miss_hops

    def test_the_loop_answers_a_ping_while_a_scan_runs(self, every_op):
        from repro import obs

        server = AnalyticsServer(every_op.framework, slow_log=obs.SlowQueryLog(
            threshold_ms=0.0, capacity=8))
        replies = asyncio.run(server.handle_many(
            [{"op": "cql", "statement": _UNROUTED}, {"op": "ping"}]))
        assert [r["ok"] for r in replies] == [True, True]
        assert replies[0]["cache"] == "miss"
        assert [e["op"] for e in server.slow_log.entries()] == ["ping", "cql"]


class TestOneTracePerRequest:
    """Every op's request is one trace rooted at ``server.request``, on
    the loop and on the thread path (sparklet pool tasks included): no
    span of it starts outside the trace, and each one it opens is in
    the tree and closed before the reply."""

    @pytest.mark.parametrize("op", sorted(_EVERY_OP))
    def test_one_trace(self, every_op, monkeypatch, op):
        from repro.obs.trace import NULL_SPAN

        tracer = every_op.tracer
        opened, orphans = [], []
        span = tracer.span

        def watched(name, **attrs):
            if tracer.current_span() is None:
                orphans.append(name)
            child = span(name, **attrs)
            if child is not NULL_SPAN:
                opened.append(child)
            return child

        monkeypatch.setattr(tracer, "span", watched)
        last = max((t["trace_id"] for t in tracer.traces()), default=0)
        r = every_op.handle_sync({"op": op, **_EVERY_OP[op]})
        assert r["ok"], r
        traces = tracer.traces(after=last)
        assert [(t["name"], t["attrs"]["op"]) for t in traces] == [
            ("server.request", op)]
        assert orphans == []
        assert traces[0]["spans"] == 1 + len(opened)
        assert all(s.trace_id == traces[0]["trace_id"] and s.end is not None
                   for s in opened)
