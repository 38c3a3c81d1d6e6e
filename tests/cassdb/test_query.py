"""Unit tests for the CQL-subset parser and session executor."""

import pytest

from repro.cassdb import Cluster, Session, TableSchema
from repro.cassdb.errors import InvalidQueryError
from repro.cql.ast import Select
from repro.cql.parser import parse_statement


@pytest.fixture
def session():
    cluster = Cluster(4, replication_factor=2)
    cluster.create_table(TableSchema(
        "event_by_time", partition_key=("hour", "type"),
        clustering_key=("ts", "seq")))
    return Session(cluster)


class TestParser:
    def test_select_full(self):
        stmt = parse_statement(
            "SELECT a, b FROM t WHERE x = 1 AND y >= 2.5 AND y < 9"
            " ORDER BY y DESC LIMIT 10"
        )
        assert isinstance(stmt, Select)
        assert stmt.columns == ["a", "b"]
        assert len(stmt.predicates) == 3
        assert stmt.order_by == ("y", "desc")
        assert stmt.limit == 10

    def test_select_star(self):
        stmt = parse_statement("SELECT * FROM t")
        assert stmt.columns is None

    def test_select_allow_filtering_ignored(self):
        stmt = parse_statement("SELECT * FROM t WHERE a = 1 ALLOW FILTERING")
        assert isinstance(stmt, Select)

    def test_trailing_semicolon_ok(self):
        parse_statement("SELECT * FROM t;")

    def test_garbage_rejected(self):
        with pytest.raises(InvalidQueryError):
            parse_statement("FROB THE KNOB")

    def test_trailing_tokens_rejected(self):
        with pytest.raises(InvalidQueryError):
            parse_statement("SELECT * FROM t WHERE a = 1 bogus extra")

    def test_unsupported_operator(self):
        with pytest.raises(InvalidQueryError):
            parse_statement("SELECT * FROM t WHERE a != 1")

    def test_string_escapes(self):
        stmt = parse_statement("SELECT * FROM t WHERE a = 'O''Brien'")
        assert stmt.predicates[0].value == "O'Brien"

    def test_negative_numbers(self):
        stmt = parse_statement("SELECT * FROM t WHERE a = -3 AND b = -2.5")
        assert [p.value for p in stmt.predicates] == [-3, -2.5]

    def test_booleans(self):
        stmt = parse_statement("SELECT * FROM t WHERE a = true AND b = false")
        assert [p.value for p in stmt.predicates] == [True, False]



class TestExecution:
    def _load(self, session, n=10):
        session.cluster.insert_many("event_by_time", [
            {"hour": 0, "type": "MCE", "ts": float(i), "seq": 0,
             "source": f"n{i % 3}", "amount": i}
            for i in range(n)])

    def test_range_and_limit(self, session):
        self._load(session)
        rows = session.execute(
            "SELECT * FROM event_by_time"
            " WHERE hour = 0 AND type = 'MCE' AND ts >= 4.0 AND ts < 8.0 LIMIT 3"
        )
        assert [r["ts"] for r in rows] == [4.0, 5.0, 6.0]

    def test_order_by_desc(self, session):
        self._load(session)
        rows = session.execute(
            "SELECT ts FROM event_by_time"
            " WHERE hour = 0 AND type = 'MCE' ORDER BY ts DESC LIMIT 2"
        )
        assert [r["ts"] for r in rows] == [9.0, 8.0]

    def test_clustering_equality(self, session):
        self._load(session)
        rows = session.execute(
            "SELECT ts FROM event_by_time"
            " WHERE hour = 0 AND type = 'MCE' AND ts = 5.0"
        )
        assert [r["ts"] for r in rows] == [5.0]

    def test_residual_predicate_post_filters(self, session):
        self._load(session)
        rows = session.execute(
            "SELECT ts, source FROM event_by_time"
            " WHERE hour = 0 AND type = 'MCE' AND source = 'n0'"
        )
        assert all(r["source"] == "n0" for r in rows)
        assert len(rows) == 4  # i in {0,3,6,9}

    def test_residual_with_limit(self, session):
        self._load(session)
        rows = session.execute(
            "SELECT ts FROM event_by_time"
            " WHERE hour = 0 AND type = 'MCE' AND source = 'n0' LIMIT 2"
        )
        assert len(rows) == 2

    def test_missing_partition_key_rejected(self, session):
        with pytest.raises(InvalidQueryError):
            session.execute("SELECT * FROM event_by_time WHERE hour = 0")

    def test_partition_key_range_rejected(self, session):
        with pytest.raises(InvalidQueryError):
            session.execute(
                "SELECT * FROM event_by_time WHERE hour >= 0 AND type = 'MCE'"
            )

    def test_order_by_non_clustering_rejected(self, session):
        with pytest.raises(InvalidQueryError):
            session.execute(
                "SELECT * FROM event_by_time WHERE hour = 0 AND type = 'MCE'"
                " ORDER BY amount"
            )

    def test_bind_count_mismatch(self, session):
        with pytest.raises(InvalidQueryError):
            session.execute(
                "SELECT * FROM event_by_time"
                " WHERE hour = ? AND type = ? AND ts = ? AND seq = ?",
                (1, "MCE"),
            )
        with pytest.raises(InvalidQueryError):
            session.execute(
                "SELECT * FROM event_by_time WHERE hour = ? AND type = ?",
                (1, "MCE", "extra"),
            )

    def test_create_if_not_exists(self, session):
        session.cluster.create_table(TableSchema(
            "event_by_time", partition_key=("hour", "type")),
            if_not_exists=True)  # silently ignored
        with pytest.raises(Exception):
            session.cluster.create_table(TableSchema(
                "event_by_time", partition_key=("hour",)))

    def test_unknown_table(self, session):
        with pytest.raises(Exception):
            session.execute("SELECT * FROM nope WHERE a = 1")

    def test_count_star(self, session):
        self._load(session, 10)
        rows = session.execute(
            "SELECT COUNT(*) FROM event_by_time"
            " WHERE hour = 0 AND type = 'MCE'"
        )
        assert rows == [{"count": 10}]

    def test_count_star_with_range(self, session):
        self._load(session, 10)
        rows = session.execute(
            "SELECT COUNT(*) FROM event_by_time"
            " WHERE hour = 0 AND type = 'MCE' AND ts >= 5.0"
        )
        assert rows == [{"count": 5}]

    def test_count_star_empty_partition(self, session):
        rows = session.execute(
            "SELECT COUNT(*) FROM event_by_time"
            " WHERE hour = 77 AND type = 'MCE'"
        )
        assert rows == [{"count": 0}]

    def test_in_on_partition_key(self, session):
        session.cluster.insert_many("event_by_time", [
            {"hour": hour, "type": "MCE", "ts": float(i), "seq": i}
            for hour in (0, 1, 2) for i in range(3)])
        rows = session.execute(
            "SELECT ts FROM event_by_time"
            " WHERE hour IN (0, 2) AND type = 'MCE'"
        )
        assert len(rows) == 6
        # IN-list order: hour 0's rows first, each partition time-ordered.
        assert [r["ts"] for r in rows] == [0.0, 1.0, 2.0, 0.0, 1.0, 2.0]

    def test_in_with_placeholders(self, session):
        self._load(session, 4)
        rows = session.execute(
            "SELECT ts FROM event_by_time"
            " WHERE hour IN (?, ?) AND type = ?",
            (0, 9, "MCE"),
        )
        assert len(rows) == 4

    def test_in_count(self, session):
        self._load(session, 6)
        rows = session.execute(
            "SELECT COUNT(*) FROM event_by_time"
            " WHERE hour IN (0) AND type IN ('MCE', 'OOM')"
        )
        assert rows == [{"count": 6}]

    def test_in_residual_filter(self, session):
        self._load(session, 9)
        rows = session.execute(
            "SELECT ts, source FROM event_by_time"
            " WHERE hour = 0 AND type = 'MCE' AND source IN ('n0', 'n1')"
        )
        assert all(r["source"] in ("n0", "n1") for r in rows)
        assert len(rows) == 6  # i%3 in {0,1}

    def test_in_range_on_partition_key_rejected(self, session):
        with pytest.raises(InvalidQueryError):
            session.execute(
                "SELECT * FROM event_by_time"
                " WHERE hour >= 0 AND type IN ('MCE')"
            )

    def test_missing_column_in_projection_is_none(self, session):
        self._load(session, 1)
        rows = session.execute(
            "SELECT ts, nonexistent FROM event_by_time"
            " WHERE hour = 0 AND type = 'MCE'"
        )
        assert rows[0]["nonexistent"] is None
