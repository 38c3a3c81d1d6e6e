"""Execution tests for the query engine: aggregates, pushdown parity,
full-table scans, and engine configuration."""

import pytest

from repro.cassdb import Cluster, Session, TableSchema
from repro.cassdb.errors import InvalidQueryError
from repro.cql.errors import CQLPlanningError, CQLSyntaxError
from repro.sparklet import SparkletContext
from tests.oracle import eval_select

# The fixture's data as the oracle sees it; every fourth row has no
# 'amount' cell at all.
ROWS = [
    {"hour": hour, "type": "MCE", "ts": float(i), "seq": i,
     "source": f"n{i % 3}", **({} if i % 4 == 3 else {"amount": i * 10})}
    for hour in (0, 1) for i in range(12)
]


@pytest.fixture
def cluster():
    c = Cluster(4, replication_factor=2)
    yield c
    c.close()


@pytest.fixture
def session(cluster):
    cluster.create_table(TableSchema(
        "ev", partition_key=("hour", "type"), clustering_key=("ts", "seq")))
    cluster.insert_many("ev", ROWS)
    return Session(cluster)


class TestAggregateExecution:
    def test_grouped_aggregates_match_manual(self, session):
        rows = session.execute(
            "SELECT source, count(*), sum(amount), min(ts), max(ts)"
            " FROM ev WHERE hour = 0 AND type = 'MCE' GROUP BY source")
        by_source = {r["source"]: r for r in rows}
        # i in {0,3,6,9} -> n0; i=3 has no 'amount' cell (i % 4 == 3)
        assert by_source["n0"]["count"] == 4
        assert by_source["n0"]["sum_amount"] == 0 + 60 + 90
        assert by_source["n0"]["min_ts"] == 0.0
        assert by_source["n0"]["max_ts"] == 9.0
        # Group keys come back deterministically ordered.
        assert [r["source"] for r in rows] == ["n0", "n1", "n2"]

    def test_count_column_ignores_missing_cells(self, session):
        rows = session.execute(
            "SELECT count(*), count(amount) FROM ev"
            " WHERE hour = 0 AND type = 'MCE'")
        assert rows == [{"count": 12, "count_amount": 9}]

    def test_avg_is_float_division(self, session):
        rows = session.execute(
            "SELECT avg(ts) FROM ev WHERE hour = 0 AND type = 'MCE'")
        assert rows[0]["avg_ts"] == pytest.approx(5.5)

    def test_ungrouped_empty_partition_returns_zero_row(self, session):
        rows = session.execute(
            "SELECT count(*), min(amount), avg(amount) FROM ev"
            " WHERE hour = 99 AND type = 'MCE'")
        assert rows == [{"count": 0, "min_amount": None, "avg_amount": None}]

    def test_grouped_empty_partition_returns_no_rows(self, session):
        rows = session.execute(
            "SELECT source, count(*) FROM ev"
            " WHERE hour = 99 AND type = 'MCE' GROUP BY source")
        assert rows == []

    def test_aggregate_with_clustering_range(self, session):
        rows = session.execute(
            "SELECT count(*) FROM ev"
            " WHERE hour = 0 AND type = 'MCE' AND ts >= 6.0")
        assert rows == [{"count": 6}]

    def test_aggregate_with_residual_filter(self, session):
        rows = session.execute(
            "SELECT count(*) FROM ev"
            " WHERE hour = 0 AND type = 'MCE' AND source = 'n1'")
        assert rows == [{"count": 4}]

    def test_group_by_partition_key_column(self, session):
        rows = session.execute(
            "SELECT hour, count(*) FROM ev"
            " WHERE hour IN (0, 1) AND type = 'MCE' GROUP BY hour")
        assert rows == [{"hour": 0, "count": 12}, {"hour": 1, "count": 12}]

    def test_aggregate_binds_params(self, session):
        rows = session.execute(
            "SELECT max(ts) FROM ev WHERE hour = ? AND type = ? AND ts < ?",
            (0, "MCE", 4.0))
        assert rows == [{"max_ts": 3.0}]

    def test_group_by_without_aggregate_rejected(self, session):
        with pytest.raises(InvalidQueryError):
            session.execute(
                "SELECT source FROM ev WHERE hour = 0 AND type = 'MCE'"
                " GROUP BY source")

    def test_plain_column_not_in_group_by_rejected(self, session):
        with pytest.raises(InvalidQueryError):
            session.execute(
                "SELECT ts, count(*) FROM ev WHERE hour = 0 AND"
                " type = 'MCE' GROUP BY source")

    def test_order_by_with_aggregate_rejected(self, session):
        with pytest.raises(InvalidQueryError):
            session.execute(
                "SELECT count(*) FROM ev WHERE hour = 0 AND type = 'MCE'"
                " ORDER BY ts")


class TestPushdownParity:
    """The pushed-down plan must agree with the reference evaluation,
    whether the replicas fold memtable rows or flushed column blocks."""

    MCE = ("type", "=", "MCE")
    # (query, params, oracle arguments)
    CASES = [
        ("SELECT source, count(*), sum(amount), avg(amount) FROM ev"
         " WHERE hour IN (0, 1) AND type = 'MCE' GROUP BY source", (),
         dict(predicates=[("hour", "in", (0, 1)), MCE], group_by=["source"],
              aggregates=[("count", None), ("sum", "amount"),
                          ("avg", "amount")])),
        ("SELECT count(*), min(ts), max(amount) FROM ev"
         " WHERE hour = 0 AND type = 'MCE' AND ts >= 3.0", (),
         dict(predicates=[("hour", "=", 0), MCE, ("ts", ">=", 3.0)],
              aggregates=[("count", None), ("min", "ts"),
                          ("max", "amount")])),
        ("SELECT count(amount) FROM ev WHERE hour = ? AND type = ?"
         " AND source = 'n2'", (1, "MCE"),
         dict(predicates=[("hour", "=", 1), MCE, ("source", "=", "n2")],
              aggregates=[("count", "amount")])),
    ]
    ORACLE_ARGS = {query: args for query, _params, args in CASES}

    @pytest.mark.parametrize(
        "query,params", [(query, params) for query, params, _ in CASES])
    def test_parity(self, cluster, session, query, params):
        expected = eval_select(ROWS, **self.ORACLE_ARGS[query])
        assert session.execute(query, params) == expected  # memtable rows
        cluster.flush_all()
        assert session.execute(query, params) == expected  # column blocks
        plan = session.explain(query)
        assert plan["plan"]["children"][0]["op"] == "MergePartials"
        assert (plan["plan"]["children"][0]["children"][0]["op"]
                == "PartialAggregateScan")


class TestFullScanAggregates:
    def test_serial_fallback_without_sparklet(self, session):
        rows = session.execute("SELECT count(*), max(amount) FROM ev")
        assert rows == [{"count": 24, "max_amount": 100}]
        plan = session.explain("SELECT count(*) FROM ev")
        scan = plan["plan"]["children"][0]
        assert scan["op"] == "FullScanAggregate"
        assert scan["engine"] == "serial"

    def test_sparklet_route_matches_serial(self, cluster, session):
        sc = SparkletContext(cluster=cluster)
        try:
            spark = Session(cluster, sparklet=sc)
            plan = spark.explain("SELECT source, count(*) FROM ev"
                                 " GROUP BY source")
            assert plan["plan"]["children"][0]["engine"] == "sparklet"
            assert (spark.execute("SELECT source, count(*) FROM ev"
                                  " GROUP BY source")
                    == session.execute("SELECT source, count(*) FROM ev"
                                       " GROUP BY source"))
        finally:
            sc.stop()

    def test_full_scan_with_residual_predicate(self, session):
        rows = session.execute(
            "SELECT count(*) FROM ev WHERE source = 'n0' ALLOW FILTERING")
        assert rows == [{"count": 8}]

    def test_plain_select_still_requires_routing(self, session):
        with pytest.raises(InvalidQueryError):
            session.execute("SELECT * FROM ev")


class TestEngineConfig:
    def test_limit_placeholder_still_rejected(self, session):
        with pytest.raises(CQLPlanningError):
            session.execute(
                "SELECT * FROM ev WHERE hour = 0 AND type = 'MCE' LIMIT ?",
                (5,))

    def test_explain_statement_executes_to_payload(self, session):
        q = "SELECT ts FROM ev WHERE hour = 0 AND type = 'MCE' LIMIT 2"
        assert session.execute("EXPLAIN " + q) == [session.explain(q)]


class TestLimitIsStrictlyPositive:
    """A LIMIT is an integer literal >= 1, as in Cassandra.  Anything
    else answered differently per plan shape (``LIMIT -1`` was ``[]``
    on one partition and every row but the last under ``IN``) or
    leaked a bare TypeError; now each is a syntax error at its token."""

    SHAPES = {
        "single": "SELECT * FROM ev WHERE hour = 0 AND type = 'MCE'",
        "in": "SELECT * FROM ev WHERE hour IN (0) AND type = 'MCE'",
        "filtered": "SELECT * FROM ev WHERE hour = 0 AND type = 'MCE'"
                    " AND amount >= 0",
    }

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("limit", ["-1", "-2", "0", "true", "2.5", "'x'"])
    def test_anything_else_is_a_syntax_error(self, session, shape, limit):
        query = f"{self.SHAPES[shape]} LIMIT {limit}"
        column = len(query) - len(limit) + 1
        with pytest.raises(CQLSyntaxError) as info:
            session.execute(query)
        assert info.value.payload() == {
            "type": "CQLSyntaxError",
            "message": (f"line 1:{column}: LIMIT must be a strictly"
                        f" positive integer, got {limit!r}"),
            "line": 1, "column": column, "token": limit}


class TestARangeBoundOfTheWrongType:
    """A clustering range bound that does not compare with the stored
    keys — ``ts > 'x'`` over float timestamps, written as a literal or
    bound to a placeholder — is a planning error naming the column on
    every plan shape; it leaked a TypeError from the slice's bisect."""

    SHAPES = {
        "single": "SELECT * FROM ev WHERE hour = 0 AND type = 'MCE'"
                  " AND ts > {}",
        "in": "SELECT * FROM ev WHERE hour IN (0, 1) AND type = 'MCE'"
              " AND ts > {}",
        "upper": "SELECT * FROM ev WHERE hour = 0 AND type = 'MCE'"
                 " AND ts >= 1.0 AND ts < {}",
        "aggregate": "SELECT count(*) FROM ev WHERE hour = 0"
                     " AND type = 'MCE' AND ts > {}",
        "full_scan": "SELECT count(*) FROM ev WHERE ts > {}",
    }

    @staticmethod
    def planning_error(session, statement, params=()):
        with pytest.raises(CQLPlanningError) as info:
            session.execute(statement, params)
        assert "range bound on 'ts'" in str(info.value)
        assert info.value.token == "ts"

    @pytest.mark.parametrize("shape", SHAPES)
    def test_a_literal(self, session, shape):
        self.planning_error(session, self.SHAPES[shape].format("'x'"))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_a_placeholder(self, session, shape):
        self.planning_error(session, self.SHAPES[shape].format("?"), ("x",))

    def test_a_sparklet_scan(self, cluster, session):
        sc = SparkletContext(cluster=cluster)
        try:
            self.planning_error(Session(cluster, sparklet=sc),
                                self.SHAPES["full_scan"].format("?"), ("x",))
        finally:
            sc.stop()

    def test_a_bound_of_the_stored_type_still_answers(self, session):
        rows = session.execute(self.SHAPES["single"].format("?"), (9,))
        assert [r["ts"] for r in rows] == [10.0, 11.0]


class TestAFilterValueOfTheWrongType:
    """A residual filter whose value does not compare with the stored
    cells — ``amount > 'x'`` over integer amounts, a literal or a bound
    placeholder — is a planning error naming the column on every plan
    shape; it leaked a TypeError from the filter kernel."""

    SHAPES = {
        "single": "SELECT * FROM ev WHERE hour = 0 AND type = 'MCE'"
                  " AND amount > {} ALLOW FILTERING",
        "aggregate": "SELECT count(*) FROM ev WHERE hour = 0"
                     " AND type = 'MCE' AND amount > {} ALLOW FILTERING",
        "full_scan": "SELECT count(*) FROM ev WHERE amount > {}"
                     " ALLOW FILTERING",
    }

    @staticmethod
    def planning_error(session, statement, params=(), column="amount"):
        with pytest.raises(CQLPlanningError) as info:
            session.execute(statement, params)
        assert f"filter on {column!r}" in str(info.value)
        assert info.value.token == column

    @pytest.mark.parametrize("shape", SHAPES)
    def test_a_literal(self, session, shape):
        self.planning_error(session, self.SHAPES[shape].format("'x'"))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_a_placeholder(self, session, shape):
        self.planning_error(session, self.SHAPES[shape].format("?"), ("x",))

    def test_a_dictionary_column_in_a_run(self, cluster, session):
        # Flushed, 'source' is dictionary-encoded: the value is compared
        # once per dictionary entry, not per row.
        cluster.flush_all()
        self.planning_error(
            session, "SELECT * FROM ev WHERE hour = 0 AND type = 'MCE'"
                     " AND source > 1 ALLOW FILTERING", column="source")

    def test_a_sparklet_scan(self, cluster, session):
        sc = SparkletContext(cluster=cluster)
        try:
            self.planning_error(Session(cluster, sparklet=sc),
                                self.SHAPES["full_scan"].format("?"), ("x",))
        finally:
            sc.stop()

    def test_a_value_of_the_stored_type_still_answers(self, session):
        rows = session.execute(self.SHAPES["aggregate"].format("?"), (80,))
        assert rows == [{"count": 2}]
