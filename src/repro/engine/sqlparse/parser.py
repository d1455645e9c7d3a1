"""Recursive-descent parser producing AST nodes from token streams."""

from __future__ import annotations

from repro.engine.sqlparse import ast_nodes as ast
from repro.engine.sqlparse.lexer import Token, tokenize
from repro.errors import SQLSyntaxError

_TYPE_WORDS = {
    "INTEGER": "INTEGER", "INT": "INTEGER",
    "FLOAT": "FLOAT", "REAL": "FLOAT",
    "STRING": "STRING", "VARCHAR": "STRING", "TEXT": "STRING",
    "DATETIME": "DATETIME",
    "BOOLEAN": "BOOLEAN",
    "BLOB": "BLOB",
}

_AGG_KEYWORDS = {"COUNT", "SUM", "AVG", "MIN", "MAX", "STDEV"}

_LITERAL_WORDS = {"NULL": None, "TRUE": True, "FALSE": False}


class _Parser:
    """Stateful cursor over a token list."""

    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0

    # -- cursor helpers -----------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        if not offset:  # the list ends in EOF, which _advance never passes
            return self._tokens[self._pos]
        return self._tokens[min(self._pos + offset, len(self._tokens) - 1)]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind != "EOF":
            self._pos += 1
        return token

    def _check(self, kind: str, value: object = None) -> bool:
        return self._peek().matches(kind, value)

    def _accept(self, kind: str, value: object = None) -> Token | None:
        if self._check(kind, value):
            return self._advance()
        return None

    def _expect(self, kind: str, value: object = None) -> Token:
        token = self._peek()
        if not token.matches(kind, value):
            wanted = value if value is not None else kind
            raise SQLSyntaxError(
                f"expected {wanted!r}, found {token.value!r}", token.position
            )
        return self._advance()

    def _keyword(self, word: str) -> bool:
        return self._accept("KEYWORD", word) is not None

    # -- entry point ----------------------------------------------------------

    def parse(self) -> ast.Statement:
        token = self._peek()
        if token.kind != "KEYWORD":
            raise SQLSyntaxError(
                f"statement must start with a keyword, found {token.value!r}",
                token.position,
            )
        word = token.value
        if word == "SELECT":
            stmt = self._select()
        elif word == "INSERT":
            stmt = self._insert()
        elif word == "UPDATE":
            stmt = self._update()
        elif word == "DELETE":
            stmt = self._delete()
        elif word == "CREATE":
            stmt = self._create()
        elif word == "BEGIN":
            self._advance()
            if not self._keyword("TRANSACTION"):
                self._keyword("TRAN")
            stmt = ast.BeginStmt()
        elif word == "COMMIT":
            self._advance()
            if not self._keyword("TRANSACTION"):
                self._keyword("TRAN")
            stmt = ast.CommitStmt()
        elif word == "ROLLBACK":
            self._advance()
            if not self._keyword("TRANSACTION"):
                self._keyword("TRAN")
            stmt = ast.RollbackStmt()
        elif word == "EXEC":
            stmt = self._exec()
        else:
            raise SQLSyntaxError(f"unsupported statement {word!r}", token.position)
        self._expect("EOF")
        return stmt

    def parse_expression(self) -> ast.Expr:
        expr = self._expression()
        self._expect("EOF")
        return expr

    # -- statements ----------------------------------------------------------

    def _select(self) -> ast.SelectStmt:
        self._expect("KEYWORD", "SELECT")
        distinct = self._keyword("DISTINCT")
        limit: int | None = None
        if self._keyword("TOP"):
            limit = int(self._expect("NUMBER").value)
        items = [self._select_item()]
        while self._accept("OP", ","):
            items.append(self._select_item())
        table: ast.TableRef | None = None
        joins: list[ast.Join] = []
        if self._keyword("FROM"):
            table = self._table_ref()
            while True:
                kind = None
                if self._keyword("JOIN"):
                    kind = "INNER"
                elif self._check("KEYWORD", "INNER"):
                    self._advance()
                    self._expect("KEYWORD", "JOIN")
                    kind = "INNER"
                elif self._check("KEYWORD", "LEFT"):
                    self._advance()
                    self._expect("KEYWORD", "JOIN")
                    kind = "LEFT"
                else:
                    break
                join_table = self._table_ref()
                self._expect("KEYWORD", "ON")
                condition = self._expression()
                joins.append(ast.Join(join_table, condition, kind))
        where = self._expression() if self._keyword("WHERE") else None
        group_by: list[ast.Expr] = []
        if self._keyword("GROUP"):
            self._expect("KEYWORD", "BY")
            group_by.append(self._expression())
            while self._accept("OP", ","):
                group_by.append(self._expression())
        having = self._expression() if self._keyword("HAVING") else None
        order_by: list[ast.OrderItem] = []
        if self._keyword("ORDER"):
            self._expect("KEYWORD", "BY")
            order_by.append(self._order_item())
            while self._accept("OP", ","):
                order_by.append(self._order_item())
        if self._keyword("LIMIT"):
            limit = int(self._expect("NUMBER").value)
        return ast.SelectStmt(
            items=tuple(items),
            table=table,
            joins=tuple(joins),
            where=where,
            group_by=tuple(group_by),
            having=having,
            order_by=tuple(order_by),
            limit=limit,
            distinct=distinct,
        )

    def _select_item(self) -> ast.SelectItem:
        if self._check("OP", "*"):
            self._advance()
            return ast.SelectItem(ast.ColumnRef("*"))
        if (self._peek().kind == "IDENT" and self._peek(1).matches("OP", ".")
                and self._peek(2).matches("OP", "*")):
            table = self._advance().value
            self._advance()
            self._advance()
            return ast.SelectItem(ast.ColumnRef("*", table=str(table)))
        expr = self._expression()
        alias: str | None = None
        if self._keyword("AS"):
            alias = str(self._expect_name())
        elif self._peek().kind == "IDENT":
            alias = str(self._advance().value)
        return ast.SelectItem(expr, alias)

    def _order_item(self) -> ast.OrderItem:
        expr = self._expression()
        descending = False
        if self._keyword("DESC"):
            descending = True
        else:
            self._keyword("ASC")
        return ast.OrderItem(expr, descending)

    def _table_ref(self) -> ast.TableRef:
        name = str(self._expect_name())
        alias: str | None = None
        if self._keyword("AS"):
            alias = str(self._expect_name())
        elif self._peek().kind == "IDENT":
            alias = str(self._advance().value)
        return ast.TableRef(name, alias)

    def _insert(self) -> ast.InsertStmt:
        self._expect("KEYWORD", "INSERT")
        self._expect("KEYWORD", "INTO")
        table = str(self._expect_name())
        columns: list[str] = []
        if self._accept("OP", "("):
            columns.append(str(self._expect_name()))
            while self._accept("OP", ","):
                columns.append(str(self._expect_name()))
            self._expect("OP", ")")
        self._expect("KEYWORD", "VALUES")
        rows: list[tuple[ast.Expr, ...]] = []
        while True:
            self._expect("OP", "(")
            values = [self._expression()]
            while self._accept("OP", ","):
                values.append(self._expression())
            self._expect("OP", ")")
            rows.append(tuple(values))
            if not self._accept("OP", ","):
                break
        return ast.InsertStmt(table, tuple(columns), tuple(rows))

    def _update(self) -> ast.UpdateStmt:
        self._expect("KEYWORD", "UPDATE")
        table = str(self._expect_name())
        self._expect("KEYWORD", "SET")
        assignments: list[tuple[str, ast.Expr]] = []
        while True:
            column = str(self._expect_name())
            self._expect("OP", "=")
            assignments.append((column, self._expression()))
            if not self._accept("OP", ","):
                break
        where = self._expression() if self._keyword("WHERE") else None
        return ast.UpdateStmt(table, tuple(assignments), where)

    def _delete(self) -> ast.DeleteStmt:
        self._expect("KEYWORD", "DELETE")
        self._expect("KEYWORD", "FROM")
        table = str(self._expect_name())
        where = self._expression() if self._keyword("WHERE") else None
        return ast.DeleteStmt(table, where)

    def _create(self) -> ast.Statement:
        self._expect("KEYWORD", "CREATE")
        unique = self._keyword("UNIQUE")
        if self._keyword("INDEX"):
            name = str(self._expect_name())
            self._expect("KEYWORD", "ON")
            table = str(self._expect_name())
            self._expect("OP", "(")
            columns = [str(self._expect_name())]
            while self._accept("OP", ","):
                columns.append(str(self._expect_name()))
            self._expect("OP", ")")
            return ast.CreateIndexStmt(name, table, tuple(columns), unique)
        if unique:
            raise SQLSyntaxError("UNIQUE only valid before INDEX",
                                 self._peek().position)
        self._expect("KEYWORD", "TABLE")
        table = str(self._expect_name())
        self._expect("OP", "(")
        columns: list[tuple[str, str, bool]] = []
        primary_key: tuple[str, ...] = ()
        while True:
            if self._check("KEYWORD", "PRIMARY"):
                self._advance()
                self._expect("KEYWORD", "KEY")
                self._expect("OP", "(")
                pk = [str(self._expect_name())]
                while self._accept("OP", ","):
                    pk.append(str(self._expect_name()))
                self._expect("OP", ")")
                primary_key = tuple(pk)
            else:
                col_name = str(self._expect_name())
                type_token = self._expect("KEYWORD")
                type_word = _TYPE_WORDS.get(str(type_token.value))
                if type_word is None:
                    raise SQLSyntaxError(
                        f"unknown column type {type_token.value!r}",
                        type_token.position,
                    )
                # optional (n) length suffix, accepted and ignored
                if self._accept("OP", "("):
                    self._expect("NUMBER")
                    self._expect("OP", ")")
                nullable = True
                if self._check("KEYWORD", "NOT"):
                    self._advance()
                    self._expect("KEYWORD", "NULL")
                    nullable = False
                elif self._keyword("NULL"):
                    nullable = True
                if self._check("KEYWORD", "PRIMARY"):
                    self._advance()
                    self._expect("KEYWORD", "KEY")
                    primary_key = (col_name,)
                    nullable = False
                columns.append((col_name, type_word, nullable))
            if not self._accept("OP", ","):
                break
        self._expect("OP", ")")
        return ast.CreateTableStmt(table, tuple(columns), primary_key)

    def _exec(self) -> ast.ExecStmt:
        self._expect("KEYWORD", "EXEC")
        name = str(self._expect_name())
        arguments: list[tuple[str, ast.Expr]] = []
        if self._peek().kind == "PARAM":
            while True:
                param = str(self._advance().value)
                self._expect("OP", "=")
                arguments.append((param, self._expression()))
                if not self._accept("OP", ","):
                    break
                if self._peek().kind != "PARAM":
                    raise SQLSyntaxError("expected @parameter",
                                         self._peek().position)
        return ast.ExecStmt(name, tuple(arguments))

    def _expect_name(self) -> str:
        token = self._peek()
        if token.kind == "IDENT":
            return str(self._advance().value)
        if token.kind == "KEYWORD" and token.value not in {
            "SELECT", "FROM", "WHERE", "GROUP", "ORDER", "AND", "OR", "NOT",
        }:
            # allow non-reserved keywords (e.g. KEY, COUNT) as identifiers
            return str(self._advance().value)
        raise SQLSyntaxError(f"expected identifier, found {token.value!r}",
                             token.position)

    # -- expressions (precedence climbing) ------------------------------------

    def _expression(self) -> ast.Expr:
        return self._or_expr()

    def _or_expr(self) -> ast.Expr:
        left = self._and_expr()
        while self._keyword("OR"):
            left = ast.BinaryOp("OR", left, self._and_expr())
        return left

    def _and_expr(self) -> ast.Expr:
        left = self._not_expr()
        while self._keyword("AND"):
            left = ast.BinaryOp("AND", left, self._not_expr())
        return left

    def _not_expr(self) -> ast.Expr:
        if self._keyword("NOT"):
            return ast.UnaryOp("NOT", self._not_expr())
        return self._comparison()

    def _comparison(self) -> ast.Expr:
        left = self._additive()
        token = self._peek()
        if token.kind == "OP" and token.value in ("=", "!=", "<>", "<", ">",
                                                  "<=", ">="):
            op = str(self._advance().value)
            if op == "<>":
                op = "!="
            return ast.BinaryOp(op, left, self._additive())
        if token.kind == "KEYWORD":
            negated = False
            if token.value == "NOT":
                nxt = self._peek(1)
                if nxt.kind == "KEYWORD" and nxt.value in ("IN", "BETWEEN",
                                                           "LIKE"):
                    self._advance()
                    negated = True
                    token = self._peek()
            if token.matches("KEYWORD", "IS"):
                self._advance()
                is_negated = self._keyword("NOT")
                self._expect("KEYWORD", "NULL")
                return ast.IsNull(left, negated=is_negated)
            if token.matches("KEYWORD", "IN"):
                self._advance()
                self._expect("OP", "(")
                items = [self._expression()]
                while self._accept("OP", ","):
                    items.append(self._expression())
                self._expect("OP", ")")
                return ast.InList(left, tuple(items), negated=negated)
            if token.matches("KEYWORD", "BETWEEN"):
                self._advance()
                low = self._additive()
                self._expect("KEYWORD", "AND")
                high = self._additive()
                return ast.Between(left, low, high, negated=negated)
            if token.matches("KEYWORD", "LIKE"):
                self._advance()
                return ast.Like(left, self._additive(), negated=negated)
        return left

    def _additive(self) -> ast.Expr:
        left = self._multiplicative()
        while True:
            token = self._peek()
            if token.kind == "OP" and token.value in ("+", "-"):
                op = str(self._advance().value)
                left = ast.BinaryOp(op, left, self._multiplicative())
            else:
                return left

    def _multiplicative(self) -> ast.Expr:
        left = self._unary()
        while True:
            token = self._peek()
            if token.kind == "OP" and token.value in ("*", "/", "%"):
                op = str(self._advance().value)
                left = ast.BinaryOp(op, left, self._unary())
            else:
                return left

    def _unary(self) -> ast.Expr:
        if self._check("OP", "-"):
            self._advance()
            operand = self._unary()
            if isinstance(operand, ast.Literal) and isinstance(
                    operand.value, (int, float)):
                return ast.Literal(-operand.value)
            return ast.UnaryOp("-", operand)
        if self._check("OP", "+"):
            self._advance()
            return self._unary()
        return self._primary()

    def _primary(self) -> ast.Expr:
        token = self._advance()
        kind = token.kind
        if kind == "NUMBER" or kind == "STRING":
            return ast.Literal(token.value)
        if kind == "IDENT" or (kind == "KEYWORD" and self._check("OP", ".")):
            # a keyword qualifies a name too: Transaction.Duration, Top.X
            name = str(token.value)
            if self._accept("OP", "."):
                column = self._advance()
                if column.kind not in ("IDENT", "KEYWORD"):
                    raise SQLSyntaxError(
                        f"expected a name after '.', found {column.value!r}",
                        column.position)
                return ast.ColumnRef(str(column.value), table=name)
            if self._accept("OP", "("):
                args: list[ast.Expr] = []
                if not self._check("OP", ")"):
                    args.append(self._expression())
                    while self._accept("OP", ","):
                        args.append(self._expression())
                self._expect("OP", ")")
                return ast.FuncCall(name.upper(), tuple(args))
            return ast.ColumnRef(name)
        if kind == "PARAM":
            return ast.Parameter(str(token.value))
        if kind == "KEYWORD" and token.value in _LITERAL_WORDS:
            return ast.Literal(_LITERAL_WORDS[token.value])
        if kind == "KEYWORD" and token.value in _AGG_KEYWORDS:
            self._expect("OP", "(")
            if token.value == "COUNT" and self._accept("OP", "*"):
                self._expect("OP", ")")
                return ast.FuncCall("COUNT", star=True)
            distinct = self._keyword("DISTINCT")
            args = [self._expression()]
            while self._accept("OP", ","):
                args.append(self._expression())
            self._expect("OP", ")")
            return ast.FuncCall(str(token.value), tuple(args),
                                distinct=distinct)
        if token.matches("OP", "("):
            expr = self._expression()
            self._expect("OP", ")")
            return expr
        raise SQLSyntaxError(f"unexpected token {token.value!r}",
                             token.position)


def parse_statement(sql: str) -> ast.Statement:
    """Parse one SQL statement into its AST."""
    return _bounded(_Parser(tokenize(sql)).parse)


def parse_expression(tokens: list[Token]) -> ast.Expr:
    """Parse one whole expression from a token list that ends in EOF."""
    return _bounded(_Parser(tokens).parse_expression)


def _bounded(parse):
    try:
        return parse()
    except RecursionError:  # hostile nesting must stay a syntax error
        raise SQLSyntaxError("expression nested too deeply", 0) from None
