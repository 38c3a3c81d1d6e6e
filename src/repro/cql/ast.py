"""Typed statement ASTs.

CQL here is a read language: a statement is a ``SELECT`` or an
``EXPLAIN`` of one.  Tables are declared as :class:`TableSchema` values
and written through the :class:`Cluster` store API, never through CQL.

Values inside an AST are either plain Python literals or :class:`Param`
placeholders carrying their 0-based bind index (assigned left-to-right
across the statement, the order ``params`` binds them).  Source positions ride along in ``compare=False`` fields so
equality semantics stay value-based.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "AggregateCall",
    "Explain",
    "Param",
    "Predicate",
    "Select",
    "Statement",
]

AGGREGATE_FNS = frozenset({"count", "min", "max", "avg", "sum"})


@dataclass(frozen=True, slots=True)
class Param:
    """A ``?`` placeholder bound positionally at execution time."""

    index: int

    def __repr__(self) -> str:
        return "?"


@dataclass
class Predicate:
    """One WHERE term: ``column op value``.

    ``op`` is one of ``'=' '<' '<=' '>' '>=' 'in'``; for ``in`` the
    value is a list.  Values are literals or :class:`Param`.
    """

    column: str
    op: str
    value: Any
    pos: tuple[int, int] | None = field(
        default=None, compare=False, repr=False)

    def render(self) -> str:
        """Stable text form for EXPLAIN output."""
        if self.op == "in":
            vals = ", ".join(render_value(v) for v in self.value)
            return f"{self.column} IN ({vals})"
        return f"{self.column} {self.op} {render_value(self.value)}"


@dataclass(frozen=True)
class AggregateCall:
    """``count(*)`` / ``count(col)`` / ``min|max|avg|sum(col)``."""

    fn: str
    column: str | None  # None == '*' (count only)

    @property
    def output_name(self) -> str:
        if self.column is None:
            return "count"
        return f"{self.fn}_{self.column}"

    def render(self) -> str:
        return f"{self.fn}({self.column or '*'})"


@dataclass
class Statement:
    """Base class so isinstance checks can catch any parsed statement."""


@dataclass
class Select(Statement):
    table: str
    columns: list[str] | None  # plain (non-aggregate) projection; None == '*'
    predicates: list[Predicate] = field(default_factory=list)
    order_by: tuple[str, str] | None = None  # (column, 'asc'|'desc')
    limit: int | Param | None = None
    aggregates: list[AggregateCall] | None = None
    group_by: list[str] = field(default_factory=list)


@dataclass
class Explain(Statement):
    statement: Statement


def render_value(value: Any) -> Any:
    """A literal as it would appear in CQL text (EXPLAIN rendering).

    Strings are re-quoted, placeholders render as ``?``; numbers and
    booleans pass through as JSON-native values.
    """
    if isinstance(value, Param):
        return "?"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return value
