"""Logical plans: the AST lowered against a :class:`TableSchema`.

Lowering validates everything schema-shaped that does not depend on
bound values — ORDER BY must name the first clustering column, aggregate
projections must be consistent with GROUP BY — and produces a small
operator tree:

    Scan → [Filter] → [Aggregate] → [Limit] → [Project]

(ORDER BY folds into the scan's ``reverse`` flag — this dialect only
orders on the clustering key, which the storage engine already sorts.)

The tree comes out *unoptimized*: all predicates sit in the Filter, the
scan is unrouted and materializes every column.  ``optimizer.py``'s rule
passes then push work down into the scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.cassdb.schema import TableSchema

from .ast import AggregateCall, Param, Predicate, Select
from .errors import CQLPlanningError

__all__ = [
    "LogicalAggregate",
    "LogicalFilter",
    "LogicalLimit",
    "LogicalNode",
    "LogicalProject",
    "LogicalScan",
    "lower_select",
]


@dataclass
class LogicalNode:
    """Base class; unary operators keep their input in ``child``."""


@dataclass
class LogicalScan(LogicalNode):
    """Table access.  Starts life as a naive full materialization; the
    optimizer fills the pushdown fields:

    * ``key_specs`` — per partition-key column ``('=', value)`` or
      ``('in', [values...])`` routing constraints (partition routing);
    * ``lower``/``upper`` — clustering bounds handed to the memtable
      and SSTable slice bisects (predicate pushdown);
    * ``columns`` — the only columns materialized (projection pushdown);
    * ``limit`` — per-partition row cap (limit pushdown);
    * ``full_scan`` — no partition routing possible; only aggregate
      plans may take this path (it compiles to a sparklet DAG job).
    """

    table: str
    schema: TableSchema
    key_specs: list[tuple[str, str, Any]] | None = None
    lower: tuple[Any, bool] | None = None   # (value, inclusive)
    upper: tuple[Any, bool] | None = None
    reverse: bool = False
    limit: Any = None
    columns: list[str] | None = None
    full_scan: bool = False


@dataclass
class LogicalFilter(LogicalNode):
    predicates: list[Predicate]
    child: LogicalNode = None  # type: ignore[assignment]


@dataclass
class LogicalAggregate(LogicalNode):
    group_by: list[str]
    aggregates: list[AggregateCall]
    child: LogicalNode = None  # type: ignore[assignment]
    partial: bool = False  # set by the partial-aggregate pushdown rule


@dataclass
class LogicalLimit(LogicalNode):
    n: Any
    child: LogicalNode = None  # type: ignore[assignment]


@dataclass
class LogicalProject(LogicalNode):
    columns: list[str]
    child: LogicalNode = None  # type: ignore[assignment]


# --------------------------------------------------------------------------
# Lowering
# --------------------------------------------------------------------------

def lower_select(stmt: Select, schema: TableSchema) -> LogicalNode:
    scan = LogicalScan(stmt.table, schema)
    plan: LogicalNode = scan
    if stmt.predicates:
        plan = LogicalFilter(list(stmt.predicates), child=plan)

    if stmt.aggregates is None:
        # The table's declared clustering order is the scan's default
        # direction; an explicit ORDER BY overrides it.
        scan.reverse = schema.clustering_order == "desc"
    if stmt.order_by is not None:
        col, direction = stmt.order_by
        if not schema.clustering_key or col != schema.clustering_key[0]:
            raise CQLPlanningError(
                "ORDER BY is only supported on the first clustering column")
        if stmt.aggregates is not None:
            raise CQLPlanningError(
                "ORDER BY cannot be combined with aggregate functions")
        scan.reverse = direction == "desc"

    if stmt.aggregates is not None:
        plain = stmt.columns or []
        stray = [c for c in plain if c not in stmt.group_by]
        if stray:
            raise CQLPlanningError(
                f"non-aggregate columns {stray} must appear in GROUP BY")
        plan = LogicalAggregate(list(stmt.group_by), list(stmt.aggregates),
                                child=plan)
    elif stmt.group_by:
        raise CQLPlanningError("GROUP BY requires aggregate functions")

    if isinstance(stmt.limit, Param):
        raise CQLPlanningError("LIMIT placeholder binding is unsupported")
    if stmt.limit is not None:
        plan = LogicalLimit(stmt.limit, child=plan)

    if stmt.aggregates is not None:
        # Aggregates emit exactly (group columns + aggregate outputs).
        out = list(stmt.group_by)
        out += [a.output_name for a in stmt.aggregates]
        plan = LogicalProject(out, child=plan)
    elif stmt.columns is not None:
        plan = LogicalProject(list(stmt.columns), child=plan)
    return plan
