"""Tests for the SQL tokenizer."""

import pytest

from repro.engine.sqlparse.lexer import Token, tokenize
from repro.errors import SQLSyntaxError


def kinds(sql):
    return [(t.kind, t.value) for t in tokenize(sql) if t.kind != "EOF"]


class TestTokenize:
    def test_keywords_uppercase(self):
        assert kinds("select from")[0] == ("KEYWORD", "SELECT")
        assert kinds("SeLeCt")[0] == ("KEYWORD", "SELECT")

    def test_identifiers_preserve_case(self):
        assert kinds("myTable")[0] == ("IDENT", "myTable")

    def test_integer_and_float(self):
        assert kinds("42")[0] == ("NUMBER", 42)
        assert kinds("4.5")[0] == ("NUMBER", 4.5)
        assert kinds("1e3")[0] == ("NUMBER", 1000.0)
        assert kinds("2.5e-2")[0] == ("NUMBER", 0.025)

    def test_string_literal(self):
        assert kinds("'hello'")[0] == ("STRING", "hello")

    def test_string_with_escaped_quote(self):
        assert kinds("'it''s'")[0] == ("STRING", "it's")

    def test_unterminated_string(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("'oops")

    def test_parameter(self):
        assert kinds("@name")[0] == ("PARAM", "name")

    def test_bare_at_rejected(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("@ x")

    def test_two_char_operators(self):
        ops = [v for k, v in kinds("<= >= <> !=") if k == "OP"]
        assert ops == ["<=", ">=", "<>", "!="]

    def test_comment_skipped(self):
        tokens = kinds("SELECT -- a comment\n 1")
        assert tokens == [("KEYWORD", "SELECT"), ("NUMBER", 1)]

    def test_unknown_character(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("SELECT #")

    def test_eof_token_present(self):
        tokens = tokenize("SELECT")
        assert tokens[-1].kind == "EOF"

    def test_positions_recorded(self):
        tokens = tokenize("SELECT a")
        assert tokens[0].position == 0
        assert tokens[1].position == 7

    def test_matches_helper(self):
        token = Token("KEYWORD", "SELECT", 0)
        assert token.matches("KEYWORD")
        assert token.matches("KEYWORD", "SELECT")
        assert not token.matches("KEYWORD", "FROM")
        assert not token.matches("IDENT")


class TestMalformedNumbers:
    """A number the lexer cannot convert is a syntax error, never a crash."""

    @pytest.mark.parametrize("text,expected", [
        ("1e", [("NUMBER", 1), ("IDENT", "e")]),
        ("1E+", [("NUMBER", 1), ("IDENT", "E"), ("OP", "+")]),
        ("1.5e-", [("NUMBER", 1.5), ("IDENT", "e"), ("OP", "-")]),
        ("1e+5", [("NUMBER", 100000.0)]),
        (".5e1", [("NUMBER", 5.0)]),
    ])
    def test_exponent_needs_a_digit(self, text, expected):
        assert kinds(text) == expected

    @pytest.mark.parametrize("text", ["²", "SELECT 1²"])
    def test_non_decimal_digit_rejected(self, text):
        with pytest.raises(SQLSyntaxError):
            tokenize(text)

    def test_overlong_integer_rejected(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("9" * 5000)

    def test_session_raises_a_syntax_error(self):
        from repro import DatabaseServer, ServerConfig
        session = DatabaseServer(ServerConfig()).create_session()
        with pytest.raises(SQLSyntaxError):
            session.execute("SELECT 1E+")
        with pytest.raises(SQLSyntaxError):
            session.execute("SELECT ²")
        # `1e` is the number 1 aliased as e, as `1 e` would be
        assert session.execute("SELECT 1e").rows == [(1,)]
