"""Tokenizer and normalizer tests (positions, strings, canonicalizer)."""

import string

import pytest

from repro.cassdb.errors import InvalidQueryError
from repro.cql import normalize_cql
from repro.cql.errors import CQLSyntaxError
from repro.cql.lexer import tokenize


class TestTokenize:
    def test_kinds_and_values(self):
        toks = tokenize("SELECT a FROM t WHERE b = 'x' AND c >= -2.5")
        kinds = [t.kind for t in toks]
        assert kinds == ["word", "word", "word", "word", "word", "word",
                         "symbol", "string", "word", "word", "symbol",
                         "float"]
        assert toks[7].value == "x"
        assert toks[-1].value == -2.5

    def test_keywords_lowercased_identifiers_preserved(self):
        toks = tokenize("SELECT MyCol FROM T")
        assert toks[0].value == "select"
        assert toks[1].text == "MyCol"

    def test_positions_are_1_based(self):
        toks = tokenize("SELECT a\n  FROM t")
        assert (toks[0].line, toks[0].column) == (1, 1)
        assert (toks[1].line, toks[1].column) == (1, 8)
        assert (toks[2].line, toks[2].column) == (2, 3)  # FROM
        assert (toks[3].line, toks[3].column) == (2, 8)

    def test_multiline_string_advances_line(self):
        toks = tokenize("INSERT INTO t (a) VALUES ('x\ny') ;")
        semi = toks[-1]
        assert semi.text == ";"
        assert semi.line == 2

    def test_escaped_quote_in_string(self):
        toks = tokenize("'it''s'")
        assert toks[0].value == "it's"

    def test_garbage_raises_with_position(self):
        with pytest.raises(CQLSyntaxError) as ei:
            tokenize("SELECT a @ b")
        assert ei.value.line == 1
        assert ei.value.column == 10
        assert isinstance(ei.value, InvalidQueryError)

    def test_unterminated_string_rejected(self):
        with pytest.raises(CQLSyntaxError):
            tokenize("SELECT 'oops FROM t")


class TestNormalize:
    """The canonicalizer is shared by the plan cache and the tokenizer;
    these are property-style checks over generated statements."""

    CASES = [
        "SELECT  *\n FROM   t ",
        "SELECT * FROM t WHERE s = 'a  b'",
        "INSERT INTO t (a) VALUES ('it''s  fine')",
        "SELECT a FROM t WHERE s = '  lead' AND b = 'trail  '",
        "\t SELECT\na,\t b FROM t;  ",
        "SELECT * FROM t WHERE s = '''quoted'''",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_idempotent(self, text):
        once = normalize_cql(text)
        assert normalize_cql(once) == once

    @pytest.mark.parametrize("text", CASES)
    def test_token_stream_preserved(self, text):
        """Normalization must never change what the lexer sees."""
        assert (
            [(t.kind, t.value) for t in tokenize(normalize_cql(text))]
            == [(t.kind, t.value) for t in tokenize(text)]
        )

    def test_quoted_whitespace_distinguishes_plans(self):
        a = normalize_cql("SELECT * FROM t WHERE s = 'a  b'")
        b = normalize_cql("SELECT * FROM t WHERE s = 'a b'")
        assert a != b

    def test_generated_whitespace_variants_collapse(self):
        """Every whitespace decoration of the same statement shares one
        canonical form (the plan-cache key property)."""
        base = "SELECT a , b FROM t WHERE x = 'vv' AND y >= 2"
        words = base.split(" ")
        for i, ws in enumerate(["  ", "\n", "\t", " \n ", "   \t"]):
            variant = ws.join(words) if i % 2 else (" " + ws.join(words))
            assert normalize_cql(variant) == normalize_cql(base)

    def test_all_printable_in_string_survives(self):
        literal = "".join(c for c in string.printable if c != "'")
        text = f"INSERT INTO t (a) VALUES ('{literal}')"
        assert literal in normalize_cql(text)
