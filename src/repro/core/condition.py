"""The ECA rule condition language (paper Section 5.2).

Grammar (deliberately small — "the expressive power of the programming
model is of secondary importance, whereas low and controllable overhead is
crucial"):

* terms: ``Class.Attribute`` (``Query.Duration``), ``LATName.Column``
  (``Duration_LAT.Avg_Duration``), numeric and string literals
* operators: ``= != <> < > <= >=``, arithmetic ``+ - * /``, parentheses
* combinators: ``AND``, ``OR``, ``NOT``

The grammar is a subset of the engine's SQL expression grammar, so a
condition is tokenized and parsed by ``engine/sqlparse``; this module keeps
only what is specific to monitoring: the check that the tree stays inside
the subset, binding, and the closure compiler.  Sharing the SQL lexer means
its lexical forms are accepted too: unary ``+``, ``.5`` and ``5.``, ``--``
comments (so a double negation is ``- -5``) and whitespace around the dot.
A node outside the subset (a bare name, ``%``, IS NULL, IN, BETWEEN, LIKE,
a function call or an ``@param``) is reported at the condition's start,
since the SQL tree keeps no positions.

LAT references are implicitly ∃-quantified: the row whose grouping columns
match the in-context object is selected; if no row matches, the whole
condition evaluates to false.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.engine.sqlparse import ast_nodes as ast
from repro.engine.sqlparse.lexer import Token, tokenize
from repro.engine.sqlparse.parser import parse_expression
from repro.errors import ConditionSyntaxError, SchemaError, SQLSyntaxError

_COMPARISONS = frozenset(("=", "!=", "<", ">", "<=", ">="))
_BINARY_OPS = _COMPARISONS | {"+", "-", "*", "/", "AND", "OR"}
#: SQL expression nodes outside the condition grammar, as they read
_FOREIGN = {ast.IsNull: "IS NULL", ast.InList: "IN", ast.Between: "BETWEEN",
            ast.Like: "LIKE", ast.FuncCall: "a function call",
            ast.Parameter: "an @parameter"}


def _parse(source: str | list[Token]):
    """Parse condition text, or a clause's tokens ending in EOF.

    Returns ``(tree, column references, atomic count)`` from one walk that
    also rejects every node outside the Section 5.2 grammar.
    """
    try:
        tokens = tokenize(source) if isinstance(source, str) else source
        tree = parse_expression(tokens)
    except SQLSyntaxError as exc:
        raise ConditionSyntaxError(str(exc), exc.position) from exc
    start = tokens[0].position
    refs: list[ast.ColumnRef] = []
    atomic = 0
    stack: list[ast.Expr] = [tree]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is ast.BinaryOp:
            if node.op in _COMPARISONS:
                atomic += 1
            elif node.op not in _BINARY_OPS:
                raise ConditionSyntaxError(
                    f"operator {node.op!r} is not part of the condition "
                    "language", start)
            stack.append(node.right)
            stack.append(node.left)
        elif kind is ast.UnaryOp:
            stack.append(node.operand)
        elif kind is ast.ColumnRef:
            if node.table is None:
                raise ConditionSyntaxError(
                    f"bare name {node.name!r}; references must be "
                    "Class.Attribute or LAT.Column", start)
            refs.append(node)
        elif kind is not ast.Literal:
            raise ConditionSyntaxError(
                f"{_FOREIGN.get(kind, kind.__name__)} is not part of the "
                "condition language", start)
    return tree, refs, atomic


def parse_condition(source: str | list[Token]) -> ast.Expr:
    """Parse condition text (or a clause's EOF-ended tokens) into its AST."""
    return _parse(source)[0]


# -- binding / evaluation -------------------------------------------------------

class _MissingLATRow(Exception):
    """Raised during evaluation when a referenced LAT row does not exist.

    Implements the implicit ∃-quantification: the condition as a whole
    becomes false.
    """


class CompiledCondition:
    """A bound, evaluable condition (compiled to nested closures).

    ``classes`` — monitored classes referenced (objects must be in context);
    ``lats`` — LAT names referenced; ``atomic_count`` — number of comparison
    operators (the unit of the paper's rule-complexity experiments);
    ``attributes`` — lowercase class-attribute names the condition reads
    (bound references only, not LAT columns or literals — this is what
    ``signatures_needed`` consults instead of scanning the raw text).
    ``text`` is the source text, or None when bound from a clause's tokens.
    """

    def __init__(self, text: str | None, tree, classes: set[str],
                 lats: set[str], atomic_count: int,
                 attributes: set[str] | None = None):
        self.text = text
        self._fn = _compile(tree, lats)
        self.classes = classes
        self.lats = lats
        self.atomic_count = atomic_count
        self.attributes = attributes if attributes is not None else set()

    def evaluate(self, context: dict[str, Any],
                 lat_rows: dict[str, dict | None]) -> bool:
        """Evaluate against in-context objects and matched LAT rows.

        ``context`` maps lowercase class names to monitored objects;
        ``lat_rows`` maps lowercase LAT names to the matched row (or None
        for no match → condition false).
        """
        try:
            result = self._fn(context, lat_rows)
        except _MissingLATRow:
            return False
        return result is True

    def __repr__(self) -> str:  # pragma: no cover
        return f"CompiledCondition({self.text!r})"


def bind_condition(source: str | list[Token], schema, lat_names: set[str],
                   lat_columns: Callable[[str], set[str]]) -> CompiledCondition:
    """Parse and bind a condition: resolve every qualifier to a monitored
    class or a LAT, validate attributes/columns, count atomic conditions."""
    tree, refs, atomic = _parse(source)
    classes: set[str] = set()
    lats: set[str] = set()
    attributes: set[str] = set()
    for ref in refs:
        qualifier = ref.table.lower()
        if qualifier in lat_names:
            lats.add(qualifier)
            if ref.name.lower() not in lat_columns(qualifier):
                raise SchemaError(
                    f"LAT {ref.table!r} has no column {ref.name!r}")
        elif schema.has_class(ref.table):
            cls = schema.monitored_class(ref.table)
            if cls.name.lower() != "evicted" and \
                    not cls.has_attribute(ref.name):
                raise SchemaError(
                    f"class {cls.name} has no attribute {ref.name!r}")
            classes.add(cls.name.lower())
            attributes.add(ref.name.lower())
        else:
            raise SchemaError(
                f"unknown qualifier {ref.table!r} (neither a monitored "
                "class nor a LAT)")
    return CompiledCondition(_text(source), tree, classes, lats, atomic,
                             attributes)


def bind_row_condition(source: str | list[Token], columns: set[str],
                       qualifier: str = "window") -> CompiledCondition:
    """Bind a condition whose references all read one plain result row.

    Used by the stream subsystem's HAVING clauses: every reference must be
    ``Qualifier.Column`` with ``Column`` in ``columns`` (case-insensitive).
    Evaluate with ``cond.evaluate({}, {qualifier: row})``; a missing row
    makes the condition false, matching the LAT ∃-semantics.
    """
    tree, refs, atomic = _parse(source)
    key = qualifier.lower()
    lowered = {c.lower() for c in columns}
    for ref in refs:
        if ref.table.lower() != key:
            raise SchemaError(
                f"row condition references must be "
                f"{qualifier}.<column>, got {ref.table!r}")
        if ref.name.lower() not in lowered:
            raise SchemaError(
                f"unknown output column {ref.name!r}; "
                f"expected one of {sorted(lowered)}")
    return CompiledCondition(_text(source), tree, set(), {key}, atomic)


def _text(source: str | list[Token]) -> str | None:
    return source if isinstance(source, str) else None


def _compile(node, lat_names: set[str]):
    """Compile a checked condition tree to ``fn(context, lat_rows)``.

    A ``ColumnRef`` whose qualifier is in ``lat_names`` reads the matched
    LAT row; any other reads an attribute of the in-context object.  Rules
    evaluate on every matching event under heavy load; closures avoid the
    per-evaluation tree walk.
    """
    if isinstance(node, ast.Literal):
        value = node.value
        return lambda context, lat_rows: value
    if isinstance(node, ast.ColumnRef):
        qualifier = node.table.lower()
        if qualifier not in lat_names:
            attribute = node.name

            def read_attr(context, lat_rows):
                obj = context.get(qualifier)
                if obj is None:
                    raise SchemaError(
                        f"no {qualifier!r} object in rule context"
                    )
                return obj.get(attribute)
            return read_attr
        column = node.name.lower()

        def read_lat(context, lat_rows):
            row = lat_rows.get(qualifier)
            if row is None:
                raise _MissingLATRow(qualifier)
            if column in row:
                return row[column]
            for key, value in row.items():
                if key.lower() == column:
                    return value
            return None
        return read_lat
    if isinstance(node, ast.UnaryOp):
        operand = _compile(node.operand, lat_names)
        if node.op == "NOT":
            def negate(context, lat_rows):
                value = operand(context, lat_rows)
                return None if value is None else (value is not True)
            return negate

        def minus(context, lat_rows):
            value = operand(context, lat_rows)
            return None if value is None else -value
        return minus
    op = node.op
    left = _compile(node.left, lat_names)
    right = _compile(node.right, lat_names)
    if op == "AND":
        def and_fn(context, lat_rows):
            if left(context, lat_rows) is not True:
                return False
            return right(context, lat_rows) is True
        return and_fn
    if op == "OR":
        def or_fn(context, lat_rows):
            if left(context, lat_rows) is True:
                return True
            return right(context, lat_rows) is True
        return or_fn
    if op in ("+", "-", "*", "/"):
        def arith(context, lat_rows):
            a = left(context, lat_rows)
            b = right(context, lat_rows)
            if a is None or b is None:
                return None
            if op == "+":
                return a + b
            if op == "-":
                return a - b
            if op == "*":
                return a * b
            return None if b == 0 else a / b
        return arith

    def comparison(context, lat_rows):
        a = left(context, lat_rows)
        b = right(context, lat_rows)
        if a is None or b is None:
            return False
        try:
            if op == "=":
                return a == b
            if op == "!=":
                return a != b
            if op == "<":
                return a < b
            if op == ">":
                return a > b
            if op == "<=":
                return a <= b
            return a >= b
        except TypeError:
            return False
    return comparison
