"""Tests for the server-side query-result cache (hot read path, PR 2).

Covers the ResultCache primitive directly plus its wiring into the
analytics server's ``cql`` op: hits, epoch-based staleness (every write
reaches the store outside the server), TTL expiry, and the ``cache``
response field.
"""

import threading

import pytest

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
            cache.put(("q", i), [i], tables=("t",))
        assert len(cache) == 2
        assert cache.get(("q", 0)) is ResultCache.MISSING
        assert cache.get(("q", 3)) == [3]

    def test_ttl_expiry(self):
        now = [0.0]
        cache = ResultCache(max_entries=4, ttl_seconds=10.0,
                            clock=lambda: now[0])
        cache.put("k", [1], tables=("t",))
        assert cache.get("k") == [1]
        now[0] = 11.0
        assert cache.get("k") is ResultCache.MISSING

    def test_epoch_mismatch_is_a_miss(self):
        epoch = {"t": 1}
        cache = ResultCache(max_entries=8, ttl_seconds=60.0)
        cache.put("k", [1], tables=("t",), epoch_of=lambda t: epoch[t])
        assert cache.get("k", epoch_of=lambda t: epoch[t]) == [1]
        epoch["t"] = 2
        assert cache.get("k",
                         epoch_of=lambda t: epoch[t]) is ResultCache.MISSING

    def test_zero_size_disables(self):
        cache = ResultCache(max_entries=0)
        cache.put("k", [1], tables=("t",))
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

    def test_non_cql_ops_have_no_cache_field(self, server):
        assert "cache" not in server.handle_sync({"op": "ping"})

    def test_hit_metrics_exported(self, server):
        q = "SELECT * FROM rc WHERE k = 5"
        _cql(server, q)
        _cql(server, q)
        snap = server.handle_sync(
            {"op": "metrics", "prefix": "server.result_cache"})
        assert snap["ok"]
        assert snap["result"]["server.result_cache.hits"]["value"] >= 1
        assert snap["result"]["server.result_cache.misses"]["value"] >= 1
