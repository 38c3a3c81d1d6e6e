"""Unit tests for the Session prepared-statement/plan cache."""

import pytest

from repro import obs
from repro.cassdb import Cluster, Session, TableSchema, query
from repro.cql import normalize_cql


@pytest.fixture
def session():
    cluster = Cluster(2, replication_factor=1)
    cluster.create_table(TableSchema(
        "ev", partition_key=("hour", "type"), clustering_key=("ts", "seq"),
        key_codecs=(("hour", int),)))
    return Session(cluster)


class TestNormalize:
    def test_collapses_whitespace(self):
        assert normalize_cql("SELECT  *\n FROM   t ") == "SELECT * FROM t"

    def test_preserves_quoted_literals(self):
        a = normalize_cql("SELECT * FROM t WHERE s = 'a  b'")
        b = normalize_cql("SELECT * FROM t WHERE s = 'a b'")
        assert a != b
        assert "'a  b'" in a


class TestPlanCache:
    def test_hit_returns_same_ast(self, session):
        q = "SELECT * FROM ev WHERE hour = 1 AND type = 'MCE'"
        assert session.prepare(q) is session.prepare(q)

    def test_whitespace_variants_share_one_plan(self, session):
        a = session.prepare(
            "SELECT * FROM ev WHERE hour = 1 AND type = 'MCE'").ast
        b = session.prepare(
            "SELECT  *  FROM ev\n WHERE hour = 1  AND type = 'MCE'").ast
        assert a is b
        assert session.plan_cache_len == 1

    def test_placeholder_statement_shares_one_plan_across_params(self, session):
        session.cluster.insert_many("ev", [
            {"hour": i % 2, "type": "MCE", "ts": float(i), "seq": i,
             "amount": 1} for i in range(10)])
        q = "SELECT * FROM ev WHERE hour = ? AND type = ?"
        before = session.plan_cache_len
        for i in range(10):
            rows = session.execute(q, (i % 2, "MCE"))
        assert session.plan_cache_len == before + 1
        assert len(rows) == 5

    def test_hit_miss_counters(self, session):
        hits = obs.get_registry().counter("cassdb.query.plan_cache_hits")
        misses = obs.get_registry().counter("cassdb.query.plan_cache_misses")
        h0, m0 = hits.value, misses.value
        q = "SELECT * FROM ev WHERE hour = 3 AND type = 'MCE'"
        session.execute(q)
        assert misses.value == m0 + 1
        session.execute(q)
        session.execute(q)
        assert hits.value == h0 + 2
        assert misses.value == m0 + 1

    def test_lru_eviction_is_bounded(self, session, monkeypatch):
        monkeypatch.setattr(query, "PLAN_CACHE_SIZE", 4)
        evictions = obs.get_registry().counter(
            "cassdb.query.plan_cache_evictions")
        e0 = evictions.value
        q0 = "SELECT * FROM ev WHERE hour = 0 AND type = 'A'"
        first = session.prepare(q0).ast
        for h in range(1, 6):
            session.prepare(f"SELECT * FROM ev WHERE hour = {h} AND type = 'A'")
        assert session.plan_cache_len == 4
        assert evictions.value > e0
        # q0 was evicted: re-planning builds a fresh AST object.
        assert session.prepare(q0).ast is not first

    def test_cached_plan_rebinds_cleanly(self, session):
        """The shared AST must not leak bound values between executions."""
        q = "SELECT * FROM ev WHERE hour = ? AND type = ? AND ts >= ?"
        session.cluster.insert(
            "ev", {"hour": 7, "type": "X", "ts": 5.0, "seq": 0, "amount": 1})
        assert session.execute(q, (7, "X", 0.0)) != []
        assert session.execute(q, (7, "X", 9.0)) == []
        assert session.execute(q, (7, "X", 0.0)) != []
