"""Tests for the server-side query-result cache (hot read path, PR 2).

Covers the ResultCache primitive directly plus its wiring into the
analytics server's ``cql`` op: hits, explicit INSERT/DELETE
invalidation, epoch-based staleness (writes that bypass the server),
TTL expiry, and the ``cache`` response field.
"""

import asyncio
import threading

import pytest

from repro.core import AnalyticsServer, LogAnalyticsFramework, ResultCache
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
    small_fw.session.execute(
        "CREATE TABLE IF NOT EXISTS rc (k int, c int, v int,"
        " PRIMARY KEY (k, c))")
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

    def test_invalidate_table_only_touches_its_entries(self):
        cache = ResultCache(max_entries=8, ttl_seconds=60.0)
        cache.put("a", [1], tables=("t1",))
        cache.put("b", [2], tables=("t2",))
        assert cache.invalidate_table("t1") == 1
        assert cache.get("a") is ResultCache.MISSING
        assert cache.get("b") == [2]

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
    def test_select_hits_after_miss(self, server):
        _cql(server, "INSERT INTO rc (k, c, v) VALUES (1, 1, 10)")
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

    def test_insert_invalidates_table(self, server):
        q = "SELECT * FROM rc WHERE k = 2"
        _cql(server, "INSERT INTO rc (k, c, v) VALUES (2, 1, 1)")
        assert _cql(server, q)["cache"] == "miss"
        assert _cql(server, q)["cache"] == "hit"
        r = _cql(server, "INSERT INTO rc (k, c, v) VALUES (2, 2, 2)")
        assert r["cache"] == "invalidate"
        fresh = _cql(server, q)
        assert fresh["cache"] == "miss"
        assert len(fresh["result"]) == 2

    def test_delete_invalidates_table(self, server):
        _cql(server, "INSERT INTO rc (k, c, v) VALUES (3, 1, 1)")
        q = "SELECT * FROM rc WHERE k = 3"
        assert len(_cql(server, q)["result"]) == 1
        assert _cql(server, q)["cache"] == "hit"
        assert _cql(server, "DELETE FROM rc WHERE k = 3 AND c = 1"
                    )["cache"] == "invalidate"
        fresh = _cql(server, q)
        assert fresh["cache"] == "miss"
        assert fresh["result"] == []

    def test_out_of_band_write_caught_by_epoch(self, server, small_fw):
        """Ingest-style writes bypass the server; the per-table write
        epoch still invalidates the cached SELECT."""
        q = "SELECT * FROM rc WHERE k = 4"
        _cql(server, "INSERT INTO rc (k, c, v) VALUES (4, 1, 1)")
        assert _cql(server, q)["cache"] == "miss"
        assert _cql(server, q)["cache"] == "hit"
        small_fw.cluster.insert("rc", {"k": 4, "c": 2, "v": 2})
        fresh = _cql(server, q)
        assert fresh["cache"] == "miss"
        assert len(fresh["result"]) == 2

    def test_a_write_during_an_offloaded_scan_leaves_it_stale(
            self, server, small_fw, monkeypatch):
        """An unrouted SELECT runs in a worker thread while a server
        write runs on the loop.  The scan reads its rows, the INSERT
        lands, then the scan is cached: stamped with the epoch read
        before the scan, the entry is stale and never served."""
        q = "SELECT count(*) FROM rc"
        scanned, written = threading.Event(), threading.Event()
        cql = small_fw.cql

        def interleaved(statement, params=()):
            if statement == q:  # the scan, in its worker thread
                rows = cql(statement, params)
                scanned.set()
                assert written.wait(10)
                return rows
            assert scanned.wait(10)  # the write, on the loop
            rows = cql(statement, params)
            written.set()
            return rows

        monkeypatch.setattr(small_fw, "cql", interleaved)
        scan, write = asyncio.run(server.handle_many([
            {"op": "cql", "statement": q},
            {"op": "cql",
             "statement": "INSERT INTO rc (k, c, v) VALUES (6, 1, 1)"}]))
        monkeypatch.undo()
        assert scan["ok"] and write["ok"], (scan, write)
        assert (scan["cache"], write["cache"]) == ("miss", "invalidate")
        fresh = _cql(server, q)
        assert fresh["cache"] == "miss"
        assert fresh["result"] != scan["result"]

    def test_a_miss_that_fails_replies_its_cache_status(self, server):
        """The probe missed; the run then fails on its bind count."""
        r = _cql(server, "SELECT * FROM rc WHERE k = ?")
        assert not r["ok"] and "bind parameters" in r["error"]
        assert r["cache"] == "miss"

    def test_create_table_bypasses_cache(self, server):
        r = _cql(server,
                 "CREATE TABLE IF NOT EXISTS rc2 (k int, PRIMARY KEY (k))")
        assert r["ok"]
        assert r["cache"] == "bypass"

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
