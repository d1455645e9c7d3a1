"""Tokenizer for the engine's SQL dialect."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SQLSyntaxError

KEYWORDS = {
    "SELECT", "DISTINCT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER",
    "ASC", "DESC", "LIMIT", "TOP", "AS", "JOIN", "INNER", "LEFT", "ON",
    "INSERT", "INTO", "VALUES", "UPDATE", "SET", "DELETE", "CREATE", "TABLE",
    "UNIQUE", "INDEX", "PRIMARY", "KEY", "NOT", "NULL", "AND", "OR", "IN",
    "IS", "BETWEEN", "LIKE", "BEGIN", "COMMIT", "ROLLBACK", "TRANSACTION",
    "TRAN", "EXEC", "TRUE", "FALSE", "INTEGER", "INT", "FLOAT", "REAL",
    "STRING", "VARCHAR", "TEXT", "DATETIME", "BOOLEAN", "BLOB", "DEFAULT",
    "COUNT", "SUM", "AVG", "MIN", "MAX", "STDEV",
}

OPERATORS = ("<=", ">=", "<>", "!=", "=", "<", ">", "+", "-", "*", "/", "%",
             "(", ")", ",", ".")


@dataclass(frozen=True)
class Token:
    """One lexical token: kind is KEYWORD, IDENT, NUMBER, STRING, PARAM, OP, EOF."""

    kind: str
    value: object
    position: int

    def matches(self, kind: str, value: object = None) -> bool:
        if self.kind != kind:
            return False
        return value is None or self.value == value


def tokenize(sql: str) -> list[Token]:
    """Tokenize SQL text; raises :class:`SQLSyntaxError` on bad input."""
    tokens: list[Token] = []
    i = 0
    n = len(sql)
    while i < n:
        ch = sql[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "-" and sql.startswith("--", i):
            end = sql.find("\n", i)
            i = n if end == -1 else end + 1
            continue
        if ch == "'":
            j = i + 1
            parts: list[str] = []
            while True:
                if j >= n:
                    raise SQLSyntaxError("unterminated string literal", i)
                if sql[j] == "'":
                    if j + 1 < n and sql[j + 1] == "'":
                        parts.append("'")
                        j += 2
                        continue
                    break
                parts.append(sql[j])
                j += 1
            tokens.append(Token("STRING", "".join(parts), i))
            i = j + 1
            continue
        if ch.isdecimal() or (ch == "." and sql[i + 1:i + 2].isdecimal()):
            j = i
            seen_dot = False
            seen_exp = False
            while j < n:
                c = sql[j]
                if c.isdecimal():
                    j += 1
                elif c == "." and not seen_dot and not seen_exp:
                    seen_dot = True
                    j += 1
                elif c in "eE" and not seen_exp:
                    # an exponent belongs to the number only when digits
                    # follow it: `1e` is the number 1 then the name e
                    k = j + 2 if sql[j + 1:j + 2] in ("+", "-") else j + 1
                    if not sql[k:k + 1].isdecimal():
                        break
                    seen_exp = True
                    j = k
                else:
                    break
            text = sql[i:j]
            try:
                value = float(text) if seen_dot or seen_exp else int(text)
            except ValueError:  # more digits than int() will convert
                raise SQLSyntaxError("number literal too long", i) from None
            tokens.append(Token("NUMBER", value, i))
            i = j
            continue
        if ch == "@":
            j = i + 1
            while j < n and (sql[j].isalnum() or sql[j] == "_"):
                j += 1
            if j == i + 1:
                raise SQLSyntaxError("bare '@' is not a parameter", i)
            tokens.append(Token("PARAM", sql[i + 1:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (sql[j].isalnum() or sql[j] == "_"):
                j += 1
            word = sql[i:j]
            upper = word.upper()
            if upper in KEYWORDS:
                tokens.append(Token("KEYWORD", upper, i))
            else:
                tokens.append(Token("IDENT", word, i))
            i = j
            continue
        op = sql[i:i + 2]  # two-character operators first
        if op not in OPERATORS:
            op = ch
            if op not in OPERATORS:
                raise SQLSyntaxError(f"unexpected character {ch!r}", i)
        tokens.append(Token("OP", op, i))
        i += len(op)
    tokens.append(Token("EOF", None, n))
    return tokens
