"""Tests for the server-side query-result cache (the hot read path).

Covers the ResultCache primitive directly plus its wiring into the
analytics server, where every op answered on the event loop from its
request and the store is memoized: hits, epoch-based staleness by
(table, bucket) (every write reaches the store outside the server), TTL
expiry, the ``cache`` response field, and a property holding every
cached reply equal to a fresh one across writes, flushes and outages.
"""

import threading
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.cassdb import TableSchema
from repro.core import AnalyticsServer, LogAnalyticsFramework
from repro.core.result_cache import ResultCache
from repro.titan import TitanTopology


@pytest.fixture(scope="module")
def small_fw():
    fw = LogAnalyticsFramework(TitanTopology(rows=1, cols=1), db_nodes=2)
    fw.setup(load_nodeinfos=False)
    yield fw
    fw.stop()


@pytest.fixture
def server(small_fw):
    srv = AnalyticsServer(small_fw, result_cache_size=8, result_cache_ttl=60.0)
    small_fw.cluster.create_table(TableSchema(
        "rc", partition_key=("k",), clustering_key=("c",)), if_not_exists=True)
    return srv


def _cql(server, statement, params=()):
    return server.handle_sync(
        {"op": "cql", "statement": statement, "params": list(params)})


class TestResultCachePrimitive:
    def test_lru_eviction_bound(self):
        cache = ResultCache(max_entries=2, ttl_seconds=60.0)
        for i in range(4):
            cache.put(("q", i), [i], {"t": 0})
        assert len(cache) == 2
        assert cache.get(("q", 0)) is ResultCache.MISSING
        assert cache.get(("q", 3)) == [3]

    def test_ttl_expiry(self):
        now = [0.0]
        cache = ResultCache(max_entries=4, ttl_seconds=10.0,
                            clock=lambda: now[0])
        cache.put("k", [1], {"t": 0})
        assert cache.get("k") == [1]
        now[0] = 11.0
        assert cache.get("k") is ResultCache.MISSING

    def test_epoch_mismatch_is_a_miss(self):
        epoch = {"t": 1}
        cache = ResultCache(max_entries=8, ttl_seconds=60.0)
        cache.put("k", [1], {"t": epoch["t"]})
        assert cache.get("k", epoch_of=lambda t: epoch[t]) == [1]
        epoch["t"] = 2
        assert cache.get("k",
                         epoch_of=lambda t: epoch[t]) is ResultCache.MISSING

    def test_zero_size_disables(self):
        cache = ResultCache(max_entries=0)
        cache.put("k", [1], {"t": 0})
        assert cache.get("k") is ResultCache.MISSING


class TestServerIntegration:
    def test_select_hits_after_miss(self, server, small_fw):
        small_fw.cluster.insert("rc", {"k": 1, "c": 1, "v": 10})
        q = "SELECT * FROM rc WHERE k = ?"
        first = _cql(server, q, (1,))
        second = _cql(server, q, (1,))
        assert first["ok"] and second["ok"]
        assert first["cache"] == "miss"
        assert second["cache"] == "hit"
        assert first["result"] == second["result"]

    def test_distinct_params_are_distinct_entries(self, server):
        q = "SELECT * FROM rc WHERE k = ?"
        assert _cql(server, q, (41,))["cache"] == "miss"
        assert _cql(server, q, (42,))["cache"] == "miss"
        assert _cql(server, q, (42,))["cache"] == "hit"

    def test_out_of_band_write_caught_by_epoch(self, server, small_fw):
        """Ingest-style writes bypass the server; the per-table write
        epoch still invalidates the cached SELECT."""
        q = "SELECT * FROM rc WHERE k = 4"
        small_fw.cluster.insert("rc", {"k": 4, "c": 1, "v": 1})
        assert _cql(server, q)["cache"] == "miss"
        assert _cql(server, q)["cache"] == "hit"
        small_fw.cluster.insert("rc", {"k": 4, "c": 2, "v": 2})
        fresh = _cql(server, q)
        assert fresh["cache"] == "miss"
        assert len(fresh["result"]) == 2

    def test_a_write_during_an_offloaded_scan_leaves_it_stale(
            self, server, small_fw, monkeypatch):
        """An unrouted SELECT runs in a worker thread while an ingest
        thread writes straight to the cluster.  The scan reads its rows,
        the insert lands, then the scan is cached: stamped with the
        epoch read before the scan, the entry is stale and never
        served."""
        q = "SELECT count(*) FROM rc"
        scanned = threading.Event()
        cql = small_fw.cql

        def ingest():
            if scanned.wait(10):
                small_fw.cluster.insert("rc", {"k": 6, "c": 1, "v": 1})

        def scan_then_wait(statement, params=()):  # in its worker thread
            rows = cql(statement, params)
            scanned.set()
            writer.join(10)
            return rows

        writer = threading.Thread(target=ingest)
        writer.start()
        monkeypatch.setattr(small_fw, "cql", scan_then_wait)
        scan = server.handle_sync({"op": "cql", "statement": q})
        monkeypatch.undo()
        writer.join()
        assert scan["ok"], scan
        assert scan["cache"] == "miss"
        fresh = _cql(server, q)
        assert fresh["cache"] == "miss"
        assert fresh["result"] != scan["result"]

    def test_a_miss_that_fails_replies_its_cache_status(self, server):
        """The probe missed; the run then fails on its bind count."""
        r = _cql(server, "SELECT * FROM rc WHERE k = ?")
        assert not r["ok"] and "bind parameters" in r["error"]
        assert r["cache"] == "miss"

    @pytest.mark.parametrize("request_", [
        {"op": "ping"}, {"op": "health"}, {"op": "metrics"},
        {"op": "slow_queries"}, {"op": "refresh_synopsis"},
        {"op": "explain", "statement": "SELECT * FROM rc WHERE k = 1"},
    ], ids=lambda r: r["op"])
    def test_unmemoized_ops_have_no_cache_field(self, server, request_):
        for _ in range(2):
            reply = server.handle_sync(request_)
            assert reply["ok"], reply
            assert "cache" not in reply

    def test_hit_metrics_exported(self, server):
        q = "SELECT * FROM rc WHERE k = 5"
        _cql(server, q)
        _cql(server, q)
        snap = server.handle_sync(
            {"op": "metrics", "prefix": "server.result_cache"})
        assert snap["ok"]
        assert snap["result"]["server.result_cache.hits"]["value"] >= 1
        assert snap["result"]["server.result_cache.misses"]["value"] >= 1


# -- every read op on the loop is memoized ------------------------------------

_TYPES = ("MCE", "LUSTRE_ERR", "OOM")


def _event(ts, type_="MCE", source="c0-0c0s0n0"):
    return SimpleNamespace(ts=ts, type=type_, component=source, amount=1,
                           attrs=None, raw=f"{type_} at {ts}")


def _context(t0, t1, types=("MCE",)):
    return {"t0": t0, "t1": t1, "event_types": list(types)}


@pytest.fixture
def hourly():
    """A fresh framework whose hours 0-2 hold events of three types."""
    fw = LogAnalyticsFramework(TitanTopology(rows=1, cols=1), db_nodes=2)
    fw.setup(load_nodeinfos=False)
    fw.ingest_events(_event(h * 3600.0 + 60.0 * i, t)
                     for h in range(3) for i, t in enumerate(_TYPES * 3))
    yield fw
    fw.stop()


def _reads():
    return obs.get_registry().counter("cassdb.coordinator.reads").value


_READ_OPS = {
    "events": {"context": _context(3600.0, 7200.0)},
    "heatmap": {"context": _context(3600.0, 7200.0)},
    "histogram": {"context": _context(3600.0, 7200.0), "num_bins": 4},
}


class TestARepeatedReadAnswersFromTheCache:
    """A repeated request is answered from the cache, held as counts: the
    hit reads nothing.  A reply stays current while no row lands in a
    (table, bucket) it read — a write into the next hour leaves an
    hour's reply a hit, a write into the hour retires it — and the ops
    that read process state, the wall clock or run the big-data unit's
    jobs are never answered from it."""

    @pytest.mark.parametrize("op", sorted(_READ_OPS))
    def test_a_second_identical_request_is_a_hit_that_reads_nothing(
            self, hourly, op):
        server = AnalyticsServer(hourly)
        request = {"op": op, **_READ_OPS[op]}
        miss = server.handle_sync(request)
        assert miss["ok"] and miss["cache"] == "miss", miss
        before = _reads()
        hit = server.handle_sync(request)
        assert hit["ok"] and hit["cache"] == "hit", hit
        assert _reads() - before == 0
        assert hit["result"] == miss["result"]

    @pytest.mark.parametrize("op", sorted(_READ_OPS))
    def test_a_write_into_the_next_hour_leaves_the_reply_a_hit(
            self, hourly, op):
        server = AnalyticsServer(hourly)
        request = {"op": op, **_READ_OPS[op]}
        first = server.handle_sync(request)
        hourly.ingest_events([_event(2 * 3600.0 + 1.0)])
        again = server.handle_sync(request)
        assert again["cache"] == "hit"
        assert again["result"] == first["result"]

    @pytest.mark.parametrize("op", sorted(_READ_OPS))
    def test_a_write_into_its_hour_makes_it_a_miss(self, hourly, op):
        server = AnalyticsServer(hourly)
        request = {"op": op, **_READ_OPS[op]}
        first = server.handle_sync(request)
        hourly.ingest_events([_event(3600.0 + 1.0)])
        again = server.handle_sync(request)
        assert again["cache"] == "miss"
        assert again["result"] != first["result"]
        fresh = AnalyticsServer(hourly, result_cache_size=0)
        assert again["result"] == fresh.handle_sync(request)["result"]

    @pytest.mark.parametrize("request_", [
        {"op": "keywords", "context": _context(0.0, 3600.0)},
        {"op": "refresh_synopsis"},
        {"op": "ping"},
        {"op": "health"},
        {"op": "telemetry_series", "name": "server.requests",
         "t0": 0.0, "t1": 3600.0},
    ], ids=lambda r: r["op"])
    def test_never_a_hit(self, hourly, request_):
        from repro.obs.export import TELEMETRY_SCHEMAS

        for schema in TELEMETRY_SCHEMAS.values():
            hourly.cluster.create_table(schema, if_not_exists=True)
        server = AnalyticsServer(hourly)
        for _ in range(3):
            reply = server.handle_sync(request_)
            assert reply["ok"], reply
            assert "cache" not in reply

    def test_a_reply_a_lagging_replica_served_retires_when_its_hint_lands(
            self, hourly):
        """At ONE a restarted replica that missed a write answers without
        it until its hint is replayed; the replay lands the row and
        retires the reply it served."""
        cluster = hourly.cluster
        request = {"op": "events", "context": _context(3600.0, 7200.0)}
        lagging = cluster.ring.replicas(
            cluster.schema("event_by_time").ring_key((1, "MCE")))[0]
        cluster.crash_node(lagging)
        hourly.ingest_events([_event(3600.0 + 1.0)])  # hinted for it
        cluster.recover_node(lagging)
        server = AnalyticsServer(hourly)
        served = server.handle_sync(request)
        assert served["cache"] == "miss" and len(served["result"]) == 3
        cluster.revive_node(lagging)
        again = server.handle_sync(request)
        assert again["cache"] == "miss" and len(again["result"]) == 4


class TestReadsOnManyThreadsLandInOneSet:
    def test_a_sparklet_scan_records_every_bucket_it_read(self, hourly):
        """An unrouted scan reads its partitions in sparklet tasks on
        pool threads; each read lands in the request's one set — the
        table from the partition listing, every hour from the partition
        reads — with the epochs current, repeatedly, on a shortened
        switch interval."""
        import sys

        cluster = hourly.cluster
        want = {("event_by_time", hour) for hour in (None, 0, 1, 2)}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(30):
                with cluster.recording_reads() as read:
                    hourly.cql("SELECT type, count(*) FROM event_by_time"
                               " GROUP BY type")
                assert read == {key: cluster.epoch(key) for key in want}
        finally:
            sys.setswitchinterval(interval)


class TestACachedReplyIsNeverStale:
    """Two servers over one store, one with the cache and one without:
    across generated histories of batch writes into random hours and
    types, flushes, and outages (a node killed, a write, the node
    revived and its hints replayed), the same few reads are sent to both
    before and after every step.  Every reply of the cached server
    equals the uncached server's, and the cache does answer some."""

    _SOURCES = ("c0-0c0s0n0", "c0-0c0s1n1", "c0-0c1s2n2")

    _rows = st.lists(st.tuples(st.integers(0, 3), st.sampled_from(_TYPES),
                               st.sampled_from(_SOURCES)),
                     min_size=1, max_size=4)
    _step = st.one_of(st.tuples(st.just("write"), _rows),
                      st.tuples(st.just("flush")),
                      st.tuples(st.just("outage"), st.integers(0, 2), _rows))
    _read = st.tuples(st.sampled_from(["events", "heatmap", "histogram",
                                       "cql"]),
                      st.integers(0, 3), st.integers(1, 2),
                      st.sampled_from(_TYPES))

    @staticmethod
    def _request(op, hour, hours, type_):
        t0, t1 = hour * 3600.0, (hour + hours) * 3600.0
        if op == "cql":
            return {"op": "cql", "params": [t0, t1], "statement":
                    "SELECT type, count(*), sum(amount) FROM event_by_time"
                    " WHERE ts >= ? AND ts < ? GROUP BY type"}
        request = {"op": op, "context": _context(t0, t1, (type_,))}
        if op == "histogram":
            request["num_bins"] = 6
        return request

    def test_the_cached_server_answers_as_the_uncached_one(self):
        hits = []

        @settings(max_examples=25, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(st.lists(self._read, min_size=1, max_size=3),
               st.lists(self._step, max_size=8))
        def history(reads, steps):
            fw = LogAnalyticsFramework(TitanTopology(rows=1, cols=1),
                                       db_nodes=3, replication_factor=2)
            fw.setup(load_nodeinfos=False)
            try:
                cached = AnalyticsServer(fw)
                fresh = AnalyticsServer(fw, result_cache_size=0)
                seq = iter(range(10**6))

                def write(rows):
                    fw.ingest_events(
                        _event(hour * 3600.0 + next(seq), type_, source)
                        for hour, type_, source in rows)

                def read_all():
                    for read in reads:
                        request = self._request(*read)
                        got = cached.handle_sync(request)
                        want = fresh.handle_sync(request)
                        assert got["ok"] and want["ok"], (got, want)
                        assert got["result"] == want["result"], read
                        hits.append(got["cache"] == "hit")

                read_all()
                read_all()  # every reply a hit
                for step in steps:
                    if step[0] == "write":
                        write(step[1])
                    elif step[0] == "flush":
                        fw.cluster.flush_all()
                    else:
                        node = sorted(fw.cluster.nodes)[step[1]]
                        fw.cluster.kill_node(node)
                        write(step[2])
                        fw.cluster.revive_node(node)
                    read_all()
            finally:
                fw.stop()

        history()
        assert any(hits)
