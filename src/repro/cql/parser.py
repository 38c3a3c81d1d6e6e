"""Hand-written recursive-descent parser: tokens → typed AST.

Grammar (the paper workload's CQL subset, §III):

* ``SELECT * | cols | aggs FROM t [WHERE pred AND ...]
  [GROUP BY cols] [ORDER BY ck [ASC|DESC]] [LIMIT n] [ALLOW FILTERING]``
  where an aggregate is ``COUNT(*)``, ``COUNT(col)`` or
  ``MIN|MAX|AVG|SUM(col)``
* ``EXPLAIN <statement>``

CQL is a read language here: ``CREATE``, ``INSERT``, ``DELETE`` and the
rest stay reserved words and fail as ``unsupported statement``.  Tables
are declared as ``TableSchema`` values and written through the store
API.

Values are literals (numbers, single-quoted strings, booleans) or ``?``
placeholders; every syntax error carries the offending token's 1-based
line/column.  Schema-dependent restrictions (partition keys must be
equality-constrained, ranges only on the first clustering column, …)
are *not* enforced here — that is the planner's job.
"""

from __future__ import annotations

import re
from typing import Any

from .ast import (
    AGGREGATE_FNS,
    AggregateCall,
    Explain,
    Param,
    Predicate,
    Select,
    Statement,
)
from .errors import CQLSyntaxError
from .lexer import KEYWORDS, Token, tokenize

__all__ = ["parse_statement"]

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_COMPARISON_OPS = ("=", "<", "<=", ">", ">=")


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0
        self.n_params = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self, ahead: int = 0) -> Token | None:
        i = self.pos + ahead
        return self.tokens[i] if i < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else None
            raise CQLSyntaxError(
                "unexpected end of statement",
                line=last.line if last else 1,
                column=(last.column + len(last.text)) if last else 1,
            )
        self.pos += 1
        return tok

    def error(self, message: str, tok: Token | None = None) -> CQLSyntaxError:
        if tok is None:
            return CQLSyntaxError(message)
        return CQLSyntaxError(
            message, line=tok.line, column=tok.column, token=tok.text)

    def expect(self, *expected: str) -> Token:
        """Consume one token matching a keyword (lowercased) or symbol."""
        tok = self.next()
        if tok.value not in expected and tok.text not in expected:
            raise self.error(
                f"expected {'/'.join(expected)}, got {tok.text!r}", tok)
        return tok

    def accept(self, *options: str) -> Token | None:
        tok = self.peek()
        if tok is not None and (tok.value in options or tok.text in options):
            self.pos += 1
            return tok
        return None

    def done(self) -> bool:
        # Trailing semicolons are permitted.
        return all(t.text == ";" for t in self.tokens[self.pos:])

    # -- terminals ---------------------------------------------------------

    def identifier(self) -> str:
        tok = self.next()
        if (tok.kind != "word" or tok.value in KEYWORDS
                or not _IDENT_RE.fullmatch(tok.text)):
            raise self.error(f"expected identifier, got {tok.text!r}", tok)
        return tok.text

    def value(self) -> Any:
        tok = self.next()
        if tok.text == "?":
            param = Param(self.n_params)
            self.n_params += 1
            return param
        if tok.kind in ("string", "int", "float"):
            return tok.value
        if tok.kind == "word" and tok.value in ("true", "false"):
            return tok.value == "true"
        raise self.error(f"expected a literal, got {tok.text!r}", tok)

    # -- statements --------------------------------------------------------

    def statement(self) -> Statement:
        head = self.next()
        kind = head.value if head.kind == "word" else None
        if kind == "select":
            return self.select()
        if kind == "explain":
            inner = self.statement()
            if isinstance(inner, Explain):
                raise self.error("EXPLAIN cannot be nested", head)
            return Explain(inner)
        raise self.error(
            f"unsupported statement: {head.text.upper()}", head)

    # -- SELECT ------------------------------------------------------------

    def _aggregate_call(self) -> AggregateCall:
        fn_tok = self.next()
        self.expect("(")
        if self.accept("*"):
            if fn_tok.value != "count":
                raise self.error(
                    f"{fn_tok.text}(*) is not a valid aggregate", fn_tok)
            column = None
        else:
            column = self.identifier()
        self.expect(")")
        return AggregateCall(fn_tok.value, column)

    def select(self) -> Select:
        columns: list[str] | None = None
        aggregates: list[AggregateCall] | None = None
        if self.accept("*"):
            pass
        else:
            plain: list[str] = []
            aggs: list[AggregateCall] = []
            while True:
                tok = self.peek()
                nxt = self.peek(1)
                is_call = (tok is not None and tok.kind == "word"
                           and nxt is not None and nxt.text == "("
                           and tok.value in AGGREGATE_FNS)
                if is_call:
                    aggs.append(self._aggregate_call())
                else:
                    plain.append(self.identifier())
                if not self.accept(","):
                    break
            if aggs:
                aggregates = aggs
                columns = plain or None
            else:
                columns = plain
        self.expect("from")
        table = self.identifier()
        predicates: list[Predicate] = []
        if self.accept("where"):
            predicates = self.predicates()
        group_by: list[str] = []
        if self.accept("group"):
            self.expect("by")
            group_by = [self.identifier()]
            while self.accept(","):
                group_by.append(self.identifier())
        order_by = None
        if self.accept("order"):
            self.expect("by")
            col = self.identifier()
            tok = self.accept("asc", "desc")
            order_by = (col, tok.value if tok else "asc")
        limit = None
        if self.accept("limit"):
            tok = self.peek()
            limit = self.value()
            # A ? keeps its planning error; any other limit is a
            # strictly positive integer literal, as in Cassandra.
            if not isinstance(limit, Param) and (
                    tok.kind != "int" or limit < 1):
                raise self.error(
                    f"LIMIT must be a strictly positive integer, got "
                    f"{tok.text!r}", tok)
        self.accept("allow")  # ALLOW FILTERING accepted and ignored
        self.accept("filtering")
        return Select(table, columns, predicates, order_by, limit,
                      aggregates=aggregates, group_by=group_by)

    def predicates(self) -> list[Predicate]:
        preds = [self.predicate()]
        while self.accept("and"):
            preds.append(self.predicate())
        return preds

    def predicate(self) -> Predicate:
        col_tok = self.peek()
        column = self.identifier()
        pos = (col_tok.line, col_tok.column) if col_tok else None
        if self.accept("in"):
            self.expect("(")
            values = [self.value()]
            while self.accept(","):
                values.append(self.value())
            self.expect(")")
            return Predicate(column, "in", values, pos=pos)
        op_tok = self.next()
        if op_tok.text not in _COMPARISON_OPS:
            raise self.error(
                f"unsupported operator {op_tok.text!r}", op_tok)
        return Predicate(column, op_tok.text, self.value(), pos=pos)


def parse_statement(text: str) -> Statement:
    """Parse one CQL statement into its AST."""
    parser = _Parser(text)
    stmt = parser.statement()
    if not parser.done():
        trailing = " ".join(t.text for t in parser.tokens[parser.pos:])
        raise parser.error(
            f"trailing tokens: {trailing!r}", parser.tokens[parser.pos])
    # The bind-parameter count rides on the AST for the planner.
    stmt.n_params = parser.n_params  # type: ignore[attr-defined]
    return stmt
