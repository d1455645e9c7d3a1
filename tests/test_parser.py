"""Tests for the SQL parser."""

import pytest

from repro.engine.sqlparse import ast_nodes as ast
from repro.engine.sqlparse.lexer import tokenize
from repro.engine.sqlparse.parser import parse_expression
from repro.engine.sqlparse.parser import parse_statement as parse
from repro.errors import SQLSyntaxError


class TestSelect:
    def test_simple_select(self):
        stmt = parse("SELECT a, b FROM t")
        assert isinstance(stmt, ast.SelectStmt)
        assert [i.expr.name for i in stmt.items] == ["a", "b"]
        assert stmt.table.name == "t"

    def test_star(self):
        stmt = parse("SELECT * FROM t")
        assert stmt.items[0].expr == ast.ColumnRef("*")

    def test_qualified_star(self):
        stmt = parse("SELECT t.* FROM t")
        assert stmt.items[0].expr == ast.ColumnRef("*", table="t")

    def test_aliases(self):
        stmt = parse("SELECT a AS x, b y FROM t z")
        assert stmt.items[0].alias == "x"
        assert stmt.items[1].alias == "y"
        assert stmt.table.alias == "z"

    def test_where_precedence_and_over_or(self):
        stmt = parse("SELECT a FROM t WHERE a = 1 OR b = 2 AND c = 3")
        assert stmt.where.op == "OR"
        assert stmt.where.right.op == "AND"

    def test_arithmetic_precedence(self):
        stmt = parse("SELECT a + b * c FROM t")
        expr = stmt.items[0].expr
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_parens_override_precedence(self):
        stmt = parse("SELECT (a + b) * c FROM t")
        assert stmt.items[0].expr.op == "*"

    def test_unary_minus_folds_literal(self):
        stmt = parse("SELECT -5 FROM t")
        assert stmt.items[0].expr == ast.Literal(-5)

    def test_join(self):
        stmt = parse("SELECT a FROM t JOIN u ON t.id = u.id")
        assert len(stmt.joins) == 1
        assert stmt.joins[0].kind == "INNER"

    def test_inner_and_left_join(self):
        stmt = parse(
            "SELECT a FROM t INNER JOIN u ON t.x = u.x "
            "LEFT JOIN v ON t.y = v.y"
        )
        assert [j.kind for j in stmt.joins] == ["INNER", "LEFT"]

    def test_group_by_having(self):
        stmt = parse("SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 1")
        assert len(stmt.group_by) == 1
        assert stmt.having is not None

    def test_order_by_directions(self):
        stmt = parse("SELECT a FROM t ORDER BY a DESC, b ASC, c")
        assert [o.descending for o in stmt.order_by] == [True, False, False]

    def test_top_and_limit(self):
        assert parse("SELECT TOP 5 a FROM t").limit == 5
        assert parse("SELECT a FROM t LIMIT 7").limit == 7

    def test_distinct(self):
        assert parse("SELECT DISTINCT a FROM t").distinct

    def test_between_in_like_isnull(self):
        stmt = parse(
            "SELECT a FROM t WHERE a BETWEEN 1 AND 2 AND b IN (1, 2) "
            "AND c LIKE 'x%' AND d IS NULL"
        )
        text = repr(stmt.where)
        assert "Between" in text and "InList" in text
        assert "Like" in text and "IsNull" in text

    def test_negated_predicates(self):
        stmt = parse(
            "SELECT a FROM t WHERE a NOT BETWEEN 1 AND 2 "
            "AND b NOT IN (3) AND c NOT LIKE 'y%' AND d IS NOT NULL"
        )
        text = repr(stmt.where)
        assert text.count("negated=True") == 4

    def test_count_star_and_distinct_agg(self):
        stmt = parse("SELECT COUNT(*), COUNT(DISTINCT a), STDEV(b) FROM t")
        count_star = stmt.items[0].expr
        assert count_star.star
        assert stmt.items[1].expr.distinct

    def test_parameters(self):
        stmt = parse("SELECT a FROM t WHERE id = @key")
        assert stmt.where.right == ast.Parameter("key")


class TestDML:
    def test_insert_multiple_rows(self):
        stmt = parse("INSERT INTO t (a, b) VALUES (1, 2), (3, 4)")
        assert stmt.columns == ("a", "b")
        assert len(stmt.rows) == 2

    def test_insert_without_columns(self):
        stmt = parse("INSERT INTO t VALUES (1, 'x')")
        assert stmt.columns == ()

    def test_update(self):
        stmt = parse("UPDATE t SET a = a + 1, b = 'x' WHERE id = 3")
        assert len(stmt.assignments) == 2
        assert stmt.where is not None

    def test_delete(self):
        stmt = parse("DELETE FROM t WHERE a < 0")
        assert stmt.table == "t"

    def test_delete_without_where(self):
        assert parse("DELETE FROM t").where is None


class TestDDLAndControl:
    def test_create_table_types(self):
        stmt = parse(
            "CREATE TABLE t (a INT NOT NULL, b VARCHAR(10), c FLOAT, "
            "d DATETIME, e BOOLEAN, PRIMARY KEY (a))"
        )
        assert stmt.columns[0] == ("a", "INTEGER", False)
        assert stmt.columns[1] == ("b", "STRING", True)
        assert stmt.primary_key == ("a",)

    def test_inline_primary_key(self):
        stmt = parse("CREATE TABLE t (a INT PRIMARY KEY, b FLOAT)")
        assert stmt.primary_key == ("a",)

    def test_create_index(self):
        stmt = parse("CREATE UNIQUE INDEX ix ON t (a, b)")
        assert stmt.unique
        assert stmt.columns == ("a", "b")

    def test_transaction_keywords(self):
        assert isinstance(parse("BEGIN"), ast.BeginStmt)
        assert isinstance(parse("BEGIN TRANSACTION"), ast.BeginStmt)
        assert isinstance(parse("COMMIT"), ast.CommitStmt)
        assert isinstance(parse("ROLLBACK TRAN"), ast.RollbackStmt)

    def test_exec(self):
        stmt = parse("EXEC myproc @a = 1, @b = 'x'")
        assert stmt.procedure == "myproc"
        assert stmt.arguments[0] == ("a", ast.Literal(1))

    def test_exec_no_args(self):
        assert parse("EXEC p").arguments == ()


class TestErrors:
    @pytest.mark.parametrize("bad", [
        "SELECT",
        "SELECT a FROM",
        "FROB x",
        "SELECT a FROM t WHERE",
        "INSERT INTO t VALUES",
        "UPDATE t",
        "SELECT a FROM t GROUP",
        "SELECT a FROM t trailing nonsense tokens (",
        "CREATE TABLE t (a NOTATYPE)",
    ])
    def test_syntax_errors(self, bad):
        with pytest.raises(SQLSyntaxError):
            parse(bad)

    def test_error_carries_position(self):
        try:
            parse("SELECT a FRM t")
        except SQLSyntaxError as err:
            assert err.position is not None
        else:  # pragma: no cover
            pytest.fail("expected syntax error")


class TestParseExpression:
    def test_whole_expression(self):
        tree = parse_expression(tokenize("a + 1 > b.c"))
        assert tree == ast.BinaryOp(
            ">", ast.BinaryOp("+", ast.ColumnRef("a"), ast.Literal(1)),
            ast.ColumnRef("c", table="b"))

    def test_trailing_tokens_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse_expression(tokenize("a > 1 b"))

    def test_keyword_qualifier_and_keyword_column(self):
        tree = parse_expression(tokenize("Transaction.Count = Top.Order"))
        assert tree.left == ast.ColumnRef("COUNT", table="TRANSACTION")
        assert tree.right == ast.ColumnRef("ORDER", table="TOP")

    def test_deep_nesting_is_a_syntax_error(self):
        with pytest.raises(SQLSyntaxError, match="nested too deeply"):
            parse("SELECT " + "(" * 500 + "1" + ")" * 500)
        with pytest.raises(SQLSyntaxError, match="nested too deeply"):
            parse_expression(tokenize("NOT " * 2000 + "a"))


class TestASTHelpers:
    def test_is_aggregate(self):
        stmt = parse("SELECT COUNT(*) + 1 FROM t")
        assert ast.is_aggregate(stmt.items[0].expr)
        stmt = parse("SELECT a + 1 FROM t")
        assert not ast.is_aggregate(stmt.items[0].expr)

    def test_walk_visits_all_nodes(self):
        stmt = parse("SELECT a FROM t WHERE a + 1 > 2 AND b = 3")
        nodes = list(ast.walk(stmt.where))
        assert sum(1 for n in nodes if isinstance(n, ast.ColumnRef)) == 2
        assert sum(1 for n in nodes if isinstance(n, ast.Literal)) == 3
