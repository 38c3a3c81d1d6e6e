"""Parser tests: aggregate syntax, GROUP BY, EXPLAIN, error positions."""

import pytest

from repro.cassdb.errors import InvalidQueryError
from repro.cql.ast import Select
from repro.cql.ast import AggregateCall, Explain, Param
from repro.cql.errors import CQLSyntaxError
from repro.cql.parser import parse_statement


class TestAggregates:
    def test_count_star(self):
        stmt = parse_statement("SELECT COUNT(*) FROM t WHERE a = 1")
        assert stmt.aggregates == [AggregateCall("count", None)]
        assert not stmt.group_by
        assert stmt.columns is None

    def test_mixed_aggregates(self):
        stmt = parse_statement(
            "SELECT source, count(*), avg(amount), max(ts)"
            " FROM t WHERE a = 1 GROUP BY source")
        assert stmt.columns == ["source"]
        assert stmt.aggregates == [
            AggregateCall("count", None),
            AggregateCall("avg", "amount"),
            AggregateCall("max", "ts"),
        ]
        assert stmt.group_by == ["source"]

    def test_output_names(self):
        assert AggregateCall("count", None).output_name == "count"
        assert AggregateCall("avg", "amount").output_name == "avg_amount"

    def test_star_only_valid_for_count(self):
        with pytest.raises(CQLSyntaxError):
            parse_statement("SELECT max(*) FROM t WHERE a = 1")

    def test_group_by_multiple_columns(self):
        stmt = parse_statement(
            "SELECT a, b, sum(v) FROM t WHERE k = 1 GROUP BY a, b")
        assert stmt.group_by == ["a", "b"]

    def test_aggregate_name_still_usable_as_identifier(self):
        # 'min'/'max' etc. are only treated as calls when followed by '('.
        stmt = parse_statement("SELECT min FROM t WHERE a = 1")
        assert stmt.columns == ["min"]
        assert stmt.aggregates is None


class TestParams:
    def test_params_indexed_left_to_right(self):
        stmt = parse_statement(
            "SELECT * FROM t WHERE a = ? AND b IN (?, ?) AND c >= ?")
        assert stmt.predicates[0].value == Param(0)
        assert stmt.predicates[1].value == [Param(1), Param(2)]
        assert stmt.predicates[2].value == Param(3)
        assert stmt.n_params == 4

    def test_param_repr_renders_question_mark(self):
        assert repr(Param(3)) == "?"


class TestExplain:
    def test_explain_wraps_statement(self):
        stmt = parse_statement("EXPLAIN SELECT * FROM t WHERE a = 1")
        assert isinstance(stmt, Explain)
        assert isinstance(stmt.statement, Select)

    def test_explain_cannot_nest(self):
        with pytest.raises(CQLSyntaxError):
            parse_statement("EXPLAIN EXPLAIN SELECT * FROM t WHERE a = 1")


class TestErrorPositions:
    def test_syntax_error_carries_line_and_column(self):
        with pytest.raises(CQLSyntaxError) as ei:
            parse_statement("SELECT a\nFROM t WHERE a ~ 1")
        err = ei.value
        assert err.line == 2
        assert err.column == 16
        assert "line 2:16" in str(err)

    def test_offending_token_reported(self):
        with pytest.raises(CQLSyntaxError) as ei:
            parse_statement("SELECT * FROM t WHERE a = 1 bogus")
        assert ei.value.token == "bogus"

    def test_unexpected_end_positions_past_last_token(self):
        with pytest.raises(CQLSyntaxError) as ei:
            parse_statement("SELECT * FROM")
        assert ei.value.line == 1
        assert ei.value.column == len("SELECT * FROM") + 1

    def test_errors_are_invalid_query_errors(self):
        # Every pre-engine call site catches InvalidQueryError.
        with pytest.raises(InvalidQueryError):
            parse_statement("FROB THE KNOB")

    def test_payload_shape(self):
        with pytest.raises(CQLSyntaxError) as ei:
            parse_statement("SELECT * FROM t WHERE a != 1")
        payload = ei.value.payload()
        assert set(payload) == {"type", "message", "line", "column", "token"}
        assert payload["type"] == "CQLSyntaxError"
        assert payload["token"] == "!="
