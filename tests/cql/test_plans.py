"""Golden plan-shape tests: the EXPLAIN JSON contract.

Each test pins the optimized operator tree for one statement shape.
These are the regression net for the optimizer — a rule that silently
stops firing changes a golden shape, not just a latency number.
"""

import json

import pytest

from repro.cassdb import Cluster, Session, TableSchema


def _shape(node):
    """Operator names only, nested: the plan skeleton."""
    return {"op": node["op"],
            "children": [_shape(c) for c in node["children"]]}


def _ops(node):
    """Root-to-leaf operator names for strictly unary plans."""
    out = []
    while node is not None:
        out.append(node["op"])
        children = node["children"]
        assert len(children) <= 1
        node = children[0] if children else None
    return out


@pytest.fixture(scope="module")
def session():
    cluster = Cluster(2, replication_factor=1)
    cluster.create_table(TableSchema(
        "ev", partition_key=("hour", "type"), clustering_key=("ts", "seq"),
        key_codecs=(("hour", int),)))
    s = Session(cluster)
    yield s
    s.cluster.close()


class TestGoldenShapes:
    def test_select_star_single_partition(self, session):
        plan = session.explain(
            "SELECT * FROM ev WHERE hour = 1 AND type = 'MCE'")
        assert _ops(plan["plan"]) == ["PartitionScan"]
        scan = plan["plan"]
        assert scan["access"] == "single_partition"
        assert scan["partition_key"] == ["hour = 1", "type = 'MCE'"]
        assert scan["columns"] == "*"
        assert plan["rules"] == {"partition_key_routing": 2}

    def test_projection_pushes_columns_into_scan(self, session):
        plan = session.explain(
            "SELECT ts, amount FROM ev WHERE hour = 1 AND type = 'MCE'")
        assert _ops(plan["plan"]) == ["Project", "PartitionScan"]
        assert plan["plan"]["columns"] == ["ts", "amount"]
        scan = plan["plan"]["children"][0]
        assert scan["columns"] == ["amount", "ts"]  # sorted pushdown set
        assert plan["rules"]["projection_pushdown"] == 1

    def test_clustering_range_becomes_scan_bounds(self, session):
        plan = session.explain(
            "SELECT * FROM ev WHERE hour = 1 AND type = 'MCE'"
            " AND ts >= 4.0 AND ts < 8.0")
        scan = plan["plan"]
        assert _ops(scan) == ["PartitionScan"]
        assert scan["clustering_range"] == "ts >= 4.0 AND ts < 8.0"
        assert plan["rules"]["predicate_pushdown"] == 2

    def test_limit_pushed_into_single_partition_scan(self, session):
        plan = session.explain(
            "SELECT * FROM ev WHERE hour = 1 AND type = 'MCE' LIMIT 5")
        assert _ops(plan["plan"]) == ["Limit", "PartitionScan"]
        assert plan["plan"]["children"][0]["limit"] == 5
        assert plan["rules"]["limit_pushdown"] == 1

    def test_limit_not_pushed_into_in_fanout(self, session):
        plan = session.explain(
            "SELECT * FROM ev WHERE hour IN (1, 2) AND type = 'MCE'"
            " LIMIT 5")
        assert _ops(plan["plan"]) == ["Limit", "PartitionScan"]
        scan = plan["plan"]["children"][0]
        assert scan["access"] == "multi_partition_in"
        assert scan["limit"] is None  # global limit stays above the scan
        assert "limit_pushdown" not in plan["rules"]

    def test_residual_predicate_stays_in_filter(self, session):
        plan = session.explain(
            "SELECT ts FROM ev WHERE hour = 1 AND type = 'MCE'"
            " AND source = 'n0'")
        assert _ops(plan["plan"]) == ["Project", "Filter", "PartitionScan"]
        assert plan["plan"]["children"][0]["predicates"] == ["source = 'n0'"]
        # The filter's column rides along in the projection pushdown.
        scan = plan["plan"]["children"][0]["children"][0]
        assert "source" in scan["columns"]

    def test_order_by_desc_reverses_scan(self, session):
        plan = session.explain(
            "SELECT * FROM ev WHERE hour = 1 AND type = 'MCE'"
            " ORDER BY ts DESC")
        assert plan["plan"]["reverse"] is True

    def test_grouped_aggregate_pushes_partials(self, session):
        plan = session.explain(
            "SELECT source, count(*), avg(amount) FROM ev"
            " WHERE hour IN (1, 2) AND type = 'MCE' GROUP BY source")
        assert _ops(plan["plan"]) == [
            "Project", "MergePartials", "PartialAggregateScan"]
        merge = plan["plan"]["children"][0]
        assert merge["group_by"] == ["source"]
        assert merge["aggregates"] == ["count(*)", "avg(amount)"]
        assert plan["rules"]["aggregate_pushdown"] == 1

    def test_count_star_plan(self, session):
        plan = session.explain(
            "SELECT count(*) FROM ev WHERE hour = 1 AND type = 'MCE'")
        assert _ops(plan["plan"]) == [
            "Project", "MergePartials", "PartialAggregateScan"]
        assert plan["plan"]["columns"] == ["count"]

    def test_unrouted_aggregate_full_scans(self, session):
        plan = session.explain("SELECT count(*) FROM ev")
        assert _ops(plan["plan"]) == ["Project", "FullScanAggregate"]
        agg = plan["plan"]["children"][0]
        assert agg["access"] == "full_scan"
        assert agg["engine"] == "serial"

    def test_params_render_as_question_marks(self, session):
        plan = session.explain(
            "SELECT ts FROM ev WHERE hour = ? AND type = ? AND ts >= ?")
        scan = plan["plan"]["children"][0]
        assert scan["partition_key"] == ["hour = ?", "type = ?"]
        assert scan["clustering_range"] == "ts >= ?"


class TestExplainStability:
    def test_payload_is_json_stable(self, session):
        q = ("SELECT source, count(*) FROM ev WHERE hour IN (1, 2)"
             " AND type = 'MCE' GROUP BY source")
        a = json.dumps(session.explain(q), sort_keys=True)
        b = json.dumps(session.explain(q), sort_keys=True)
        fresh = Session(session.cluster)
        c = json.dumps(fresh.explain(q), sort_keys=True)
        assert a == b == c

    def test_statement_text_is_normalized(self, session):
        plan = session.explain(
            "SELECT   *  FROM ev\n WHERE hour = 1 AND type = 'MCE'")
        assert plan["statement"] == (
            "SELECT * FROM ev WHERE hour = 1 AND type = 'MCE'")

    def test_rules_report_matches_metrics_names(self, session):
        from repro.cql.optimizer import RULE_NAMES

        plan = session.explain(
            "SELECT count(*) FROM ev WHERE hour = 1 AND type = 'MCE'"
            " AND ts >= 1.0 LIMIT 3")
        assert set(plan["rules"]) <= set(RULE_NAMES)


def _explained_statements():
    """Every literal statement a golden test of this module explains,
    read off the module's own source so a new golden joins by itself."""
    import ast
    import pathlib

    tree = ast.parse(pathlib.Path(__file__).read_text(encoding="utf-8"))
    return sorted({
        node.args[0].value for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "explain" and node.args
        and isinstance(node.args[0], ast.Constant)})


class TestFilterIsAlwaysFused:
    """``FilterExec.execute`` hands its predicates to the scan below and
    has no row loop of its own, so a ``Filter`` over anything but an
    unlimited ``PartitionScan`` would silently mis-filter.  The planner
    never builds one (``limit_pushdown`` fires only once the filter was
    spliced out); a rule that breaks that fails here."""

    # Shapes that put LIMIT, ORDER BY and projection beside a residual.
    EXTRA = [
        "SELECT ts FROM ev WHERE hour = 1 AND type = 'MCE'"
        " AND source = 'n0' LIMIT 3",
        "SELECT * FROM ev WHERE hour IN (1, 2) AND type = 'MCE'"
        " AND amount > 5 ORDER BY ts DESC LIMIT 2",
        "SELECT ts FROM ev WHERE hour = 1 AND type = 'MCE'"
        " AND ts >= 1.0 AND ts >= 2.0 LIMIT 1",
        "SELECT count(*) FROM ev WHERE hour = 1 AND type = 'MCE'"
        " AND source = 'n0'",
        "SELECT ts, source FROM ev WHERE hour IN (1, 2)"
        " AND type IN ('MCE', 'OOM') AND source IN ('n0', 'n1') LIMIT 4",
    ]

    def test_every_filter_sits_on_an_unlimited_partition_scan(self, session):
        import tests.cql.test_engine as engine_tests
        from repro.cql.physical import FilterExec, PartitionScanExec

        statements = _explained_statements() + self.EXTRA + [
            query for query, _params, _args
            in engine_tests.TestPushdownParity.CASES]
        assert len(statements) > 20
        filters = 0
        for statement in statements:
            stack = [session.prepare(statement).physical]
            while stack:
                op = stack.pop()
                stack.extend(op.children)
                if isinstance(op, FilterExec):
                    filters += 1
                    (child,) = op.children
                    assert isinstance(child, PartitionScanExec), statement
                    assert child.limit is None, statement
        assert filters >= 3
