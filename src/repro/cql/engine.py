"""The query engine: text → Prepared (AST + optimized physical plan).

``QueryEngine.prepare`` runs the whole pipeline once per distinct
statement —

    tokenize → parse → lower (schema-checked logical plan)
            → optimize (rule passes) → compile (physical operators)

— under a ``cql.plan`` trace span, and returns a :class:`Prepared`
that callers cache (see :class:`repro.cassdb.query.Session`) and
execute many times with different bind parameters.

``EXPLAIN <stmt>`` prepares the inner statement the same way but swaps
the physical root for an operator that returns the optimized plan as a
single JSON row instead of executing it.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro import obs
from repro.cassdb.cluster import Cluster, Consistency
from repro.cassdb.errors import InvalidQueryError

from .ast import Explain, Select, Statement
from .errors import CQLPlanningError
from .lexer import normalize_cql
from .logical import lower_select
from .optimizer import optimize
from .parser import parse_statement
from .physical import PhysicalOp, Runtime, compile_plan

__all__ = ["Prepared", "QueryEngine", "render_plan_text"]

_TRACER = obs.get_tracer()


@dataclass
class Prepared:
    """A fully planned statement, safe to share across executions.

    ``ast`` is the public, inspectable form; ``physical`` is the
    compiled operator tree; ``rules`` records which optimizer rules
    fired (and how often) while planning — the same counts EXPLAIN
    reports.
    """

    text: str                      # normalized statement text
    ast: Statement
    kind: str                      # select|explain
    physical: PhysicalOp
    n_params: int
    rules: dict[str, int] = field(default_factory=dict)
    table: str | None = None


class _ExplainExec(PhysicalOp):
    """Physical root of an EXPLAIN: returns the plan, runs nothing."""

    name = "Explain"

    def __init__(self, plan_json: dict[str, Any]):
        self.plan_json = plan_json

    def execute(self, rt: Runtime) -> list[dict[str, Any]]:
        # A copy: the operator lives in the plan cache, and callers (the
        # server's replies among them) own the rows they are handed.
        return [copy.deepcopy(self.plan_json)]

    def explain_attrs(self) -> dict[str, Any]:
        return {"of": self.plan_json["kind"]}


class QueryEngine:
    """Plans and executes CQL against a cassdb cluster, optionally
    routing full-scan aggregations through a sparklet context."""

    def __init__(self, cluster: Cluster, *, sparklet: Any = None):
        self.cluster = cluster
        self.sparklet = sparklet

    # -- planning ----------------------------------------------------------

    def prepare(self, statement: str) -> Prepared:
        text = normalize_cql(statement)
        with _TRACER.span("cql.plan", statement=text):
            return self._prepare_ast(text, parse_statement(statement))

    def _prepare_ast(self, text: str, stmt: Statement) -> Prepared:
        if isinstance(stmt, Explain):
            # Report the inner statement's text, not the EXPLAIN wrapper.
            inner_text = text.split(" ", 1)[1] if " " in text else text
            inner = self._prepare_ast(inner_text, stmt.statement)
            plan_json = self._explain_json(inner)
            return Prepared(text=text, ast=stmt, kind="explain",
                            physical=_ExplainExec(plan_json), n_params=0,
                            rules=inner.rules, table=inner.table)
        assert isinstance(stmt, Select)  # the parser emits nothing else
        if stmt.table not in self.cluster.keyspace.tables:
            raise CQLPlanningError(f"no such table: {stmt.table!r}",
                                   token=stmt.table)
        logical = lower_select(stmt, self.cluster.schema(stmt.table))
        logical, rules = optimize(logical)
        physical = compile_plan(logical, self.sparklet is not None)
        return Prepared(
            text=text, ast=stmt, kind="select", physical=physical,
            n_params=getattr(stmt, "n_params", 0), rules=rules,
            table=stmt.table,
        )

    # -- execution ---------------------------------------------------------

    def execute(self, prepared: Prepared, params: Sequence[Any] = (),
                consistency: Consistency = Consistency.ONE
                ) -> list[dict[str, Any]]:
        if len(params) < prepared.n_params:
            raise CQLPlanningError("not enough bind parameters")
        elif len(params) > prepared.n_params:
            leftover = len(params) - prepared.n_params
            raise CQLPlanningError(f"{leftover} unused bind parameters")
        for i, value in enumerate(params, 1):
            if isinstance(value, (list, dict)):  # a placeholder is a value
                raise CQLPlanningError(f"bind parameter {i} is not a value")
        rt = Runtime(cluster=self.cluster, sparklet=self.sparklet,
                     params=tuple(params), consistency=consistency)
        try:
            return prepared.physical.execute(rt)
        except InvalidQueryError as exc:  # a value the store cannot compare
            schema = self.cluster.schema(prepared.table)
            if exc.source is None:
                column, what = schema.clustering_key[0], "range bound"
            else:
                kind, ref = exc.source
                column = schema.clustering_key[ref] if kind == "ck" else ref
                what = "filter"
            raise CQLPlanningError(f"{what} on {column!r}: {exc}",
                                   token=column) from None

    # -- EXPLAIN -----------------------------------------------------------

    def _explain_json(self, prepared: Prepared) -> dict[str, Any]:
        return {
            "statement": prepared.text,
            "kind": prepared.kind,
            "rules": dict(prepared.rules),
            "plan": prepared.physical.explain(),
        }

    def explain_json(self, prepared: Prepared) -> dict[str, Any]:
        """The stable EXPLAIN payload for any prepared statement."""
        if prepared.kind == "explain":
            root = prepared.physical
            assert isinstance(root, _ExplainExec)
            return copy.deepcopy(root.plan_json)
        return self._explain_json(prepared)


# --------------------------------------------------------------------------
# Text rendering (the `repro explain` CLI)
# --------------------------------------------------------------------------

def render_plan_text(explain: dict[str, Any]) -> str:
    """Render an EXPLAIN JSON payload as an indented operator tree."""
    lines = [explain["statement"]]
    rules = explain.get("rules") or {}
    if rules:
        fired = ", ".join(f"{name}×{n}" for name, n in sorted(rules.items()))
        lines.append(f"rules: {fired}")
    else:
        lines.append("rules: (none)")

    def walk(node: dict[str, Any], prefix: str, is_last: bool,
             is_root: bool) -> None:
        attrs = " ".join(
            f"{k}={v!r}" if isinstance(v, str) else f"{k}={v}"
            for k, v in node.items()
            if k not in ("op", "children")
            and v not in (None, False, [], {})
        )
        label = node["op"] + (f" {attrs}" if attrs else "")
        if is_root:
            lines.append(label)
            child_prefix = ""
        else:
            branch = "└─ " if is_last else "├─ "
            lines.append(prefix + branch + label)
            child_prefix = prefix + ("   " if is_last else "│  ")
        children = node.get("children", [])
        for i, child in enumerate(children):
            walk(child, child_prefix, i == len(children) - 1, False)

    walk(explain["plan"], "", True, True)
    return "\n".join(lines)
