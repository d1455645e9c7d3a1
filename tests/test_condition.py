"""Tests for the rule-condition language (paper Section 5.2)."""

import pytest

from repro.core.condition import (bind_condition, bind_row_condition,
                                  parse_condition)
from repro.core.objects import MonitoredObject
from repro.core.schema import SCHEMA
from repro.errors import ConditionSyntaxError, SchemaError


def _query_obj(**attrs):
    cls = SCHEMA.monitored_class("Query")
    extra = {k.lower(): v for k, v in attrs.items()}
    return MonitoredObject(cls, {}, extra)


def _bind(text, lats=None, columns=None):
    lats = lats or set()
    columns = columns or {}
    return bind_condition(text, SCHEMA, lats,
                          lambda name: columns.get(name, set()))


def _eval(text, context=None, lat_rows=None, lats=None, columns=None):
    compiled = _bind(text, lats, columns)
    return compiled.evaluate(context or {}, lat_rows or {})


class TestParsing:
    def test_simple_comparison(self):
        tree = parse_condition("Query.Duration > 100")
        assert tree.op == ">"

    def test_precedence_and_or(self):
        tree = parse_condition("Query.A = 1 OR Query.B = 2 AND Query.C = 3")
        assert tree.op == "OR"
        assert tree.right.op == "AND"

    def test_arithmetic_precedence(self):
        tree = parse_condition("Query.A + 2 * 3 > 1")
        assert tree.left.op == "+"
        assert tree.left.right.op == "*"

    def test_parentheses(self):
        tree = parse_condition("(Query.A + 2) * 3 > 1")
        assert tree.left.op == "*"

    def test_string_literal(self):
        tree = parse_condition("Query.User = 'o''brien'")
        assert tree.right.value == "o'brien"

    def test_bare_name_rejected(self):
        with pytest.raises(ConditionSyntaxError):
            parse_condition("Duration > 5")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ConditionSyntaxError):
            parse_condition("Query.A > 5 extra")

    def test_bad_character_rejected(self):
        with pytest.raises(ConditionSyntaxError):
            parse_condition("Query.A > #")

    def test_unbalanced_paren_rejected(self):
        with pytest.raises(ConditionSyntaxError):
            parse_condition("(Query.A > 5")


class TestBinding:
    def test_classes_collected(self):
        compiled = _bind("Query.Duration > 5 AND Blocker.Wait_Time > 1")
        assert compiled.classes == {"query", "blocker"}

    def test_lats_collected(self):
        compiled = _bind(
            "Query.Duration > MyLat.Avg",
            lats={"mylat"}, columns={"mylat": {"avg"}},
        )
        assert compiled.lats == {"mylat"}

    def test_atomic_count(self):
        compiled = _bind(
            "Query.Duration > 5 AND Query.ID = 1 OR NOT Query.Times_Blocked < 2"
        )
        assert compiled.atomic_count == 3

    def test_unknown_class_rejected(self):
        with pytest.raises(SchemaError):
            _bind("Nothing.Value > 5")

    def test_unknown_attribute_rejected(self):
        with pytest.raises(SchemaError):
            _bind("Query.Nonexistent > 5")

    def test_unknown_lat_column_rejected(self):
        with pytest.raises(SchemaError):
            _bind("MyLat.Ghost > 5", lats={"mylat"},
                  columns={"mylat": {"real"}})


class TestEvaluation:
    def test_object_attribute_comparison(self):
        context = {"query": _query_obj(Duration=150.0)}
        assert _eval("Query.Duration > 100", context) is True
        assert _eval("Query.Duration > 200", context) is False

    def test_arithmetic_in_condition(self):
        context = {"query": _query_obj(Duration=10.0, Estimated_Cost=3.0)}
        assert _eval("Query.Duration > 2 * Query.Estimated_Cost + 1",
                     context) is True

    def test_string_equality(self):
        context = {"query": _query_obj(User='alice')}
        assert _eval("Query.User = 'alice'", context) is True
        assert _eval("Query.User != 'bob'", context) is True

    def test_and_or_not(self):
        context = {"query": _query_obj(Duration=10.0, Times_Blocked=0)}
        assert _eval("Query.Duration > 5 AND Query.Times_Blocked = 0",
                     context) is True
        assert _eval("Query.Duration > 50 OR Query.Times_Blocked = 0",
                     context) is True
        assert _eval("NOT Query.Duration > 50", context) is True

    def test_null_attribute_never_matches(self):
        context = {"query": _query_obj(Duration=None)}
        assert _eval("Query.Duration > 0", context) is False
        assert _eval("Query.Duration = 0", context) is False

    def test_lat_row_reference(self):
        context = {"query": _query_obj(Duration=60.0)}
        lat_rows = {"mylat": {"Avg": 10.0}}
        assert _eval("Query.Duration > 5 * MyLat.Avg", context, lat_rows,
                     lats={"mylat"}, columns={"mylat": {"avg"}}) is True

    def test_missing_lat_row_makes_condition_false(self):
        """The paper's implicit ∃ quantification (Section 5.2)."""
        context = {"query": _query_obj(Duration=60.0)}
        lat_rows = {"mylat": None}
        assert _eval("Query.Duration > 5 * MyLat.Avg", context, lat_rows,
                     lats={"mylat"}, columns={"mylat": {"avg"}}) is False

    def test_missing_lat_row_false_even_under_not(self):
        context = {"query": _query_obj(Duration=60.0)}
        lat_rows = {"mylat": None}
        assert _eval("NOT (Query.Duration > MyLat.Avg)", context, lat_rows,
                     lats={"mylat"}, columns={"mylat": {"avg"}}) is False

    def test_division_by_zero_is_null(self):
        context = {"query": _query_obj(Duration=5.0)}
        assert _eval("Query.Duration / 0 > 1", context) is False

    def test_unary_minus(self):
        context = {"query": _query_obj(Duration=5.0)}
        assert _eval("-Query.Duration < 0", context) is True

    def test_cross_type_comparison_false_not_error(self):
        context = {"query": _query_obj(User="alice")}
        assert _eval("Query.User > 5", context) is False


# ---------------------------------------------------------------------------
# golden corpus: accepted conditions pinned to their binding and results
# ---------------------------------------------------------------------------

def _transaction_obj(**attrs):
    cls = SCHEMA.monitored_class("Transaction")
    return MonitoredObject(cls, {}, {k.lower(): v for k, v in attrs.items()})


_CONTEXT = {
    "query": _query_obj(Duration=5.0, Estimated_Cost=2.0, User="o'brien",
                        Times_Blocked=0),
    "transaction": _transaction_obj(Duration=3.0),
}
#: LAT rows for the two fixed contexts: a matching row, and no row
_WITH_ROW = {"top": {"Avg": 4.0, "Order": 7}}
_NO_ROW = {"top": None}
_TOP_COLUMNS = {"top": {"avg", "order"}}

_RULE_STORM = " AND ".join(f"Query.Duration >= {-float(j)}" for j in range(5))

# text -> (atomic_count, classes, lats, attributes,
#          result with the LAT row, result without it)
_GOLDEN = {
    _RULE_STORM: (5, {"query"}, set(), {"duration"}, True, True),
    "Query.User = 'o''brien'": (1, {"query"}, set(), {"user"}, True, True),
    "Query.User <> 'alice'": (1, {"query"}, set(), {"user"}, True, True),
    "Query.Duration < 1e3 AND Query.Estimated_Cost > 2.5E-1":
        (2, {"query"}, set(), {"duration", "estimated_cost"}, True, True),
    "Query.Duration > 4.5": (1, {"query"}, set(), {"duration"}, True, True),
    "Transaction.Duration * 2 > Query.Duration":
        (1, {"query", "transaction"}, set(), {"duration"}, True, True),
    "Transaction.Duration > Query.Duration":
        (1, {"query", "transaction"}, set(), {"duration"}, False, False),
    "Query.Duration > Top.Avg AND Top.Order = 7":
        (2, {"query"}, {"top"}, {"duration"}, True, False),
    "NOT (Query.Duration > Top.Avg)":
        (1, {"query"}, {"top"}, {"duration"}, False, False),
    "NOT (Query.Duration < Top.Avg)":
        (1, {"query"}, {"top"}, {"duration"}, True, False),
    "NOT Query.Duration > 100 OR Query.Times_Blocked != 0":
        (2, {"query"}, set(), {"duration", "times_blocked"}, True, True),
    "Query.Duration / 0 > 1 OR Query.Duration - 2 * 2 = 1":
        (2, {"query"}, set(), {"duration"}, True, True),
    "-Query.Duration < -(Query.Estimated_Cost)":
        (1, {"query"}, set(), {"duration", "estimated_cost"}, True, True),
    "Query.Duration = NULL": (1, {"query"}, set(), {"duration"}, False,
                              False),
    "Query.Duration > 0 AND TRUE": (1, {"query"}, set(), {"duration"}, True,
                                    True),
    "FALSE OR Query.Duration > 0": (1, {"query"}, set(), {"duration"}, True,
                                    True),
    "query.duration > 4 and not query.user = 'x'":
        (2, {"query"}, set(), {"duration", "user"}, True, True),
    "(Query.Duration + 1) * 2 >= 12":
        (1, {"query"}, set(), {"duration"}, True, True),
}

_REJECTED = [
    "Duration > 5",                       # bare name
    "Query.Duration > 5 extra",           # trailing token
    "Query.Duration > #",                 # bad character
    "(Query.Duration > 5",                # unbalanced paren
    "Query.Duration % 2 = 0",             # modulo is not in the grammar
    "Query.Duration IS NULL",
    "Query.Duration IN (1, 2)",
    "Query.Duration BETWEEN 1 AND 2",
    "Query.User LIKE 'a%'",
    "COUNT(*) > 1",
    "Query.Duration > @p",
    "Query.Duration > 1e",                # exponent without digits
]


class TestGoldenCorpus:
    @pytest.mark.parametrize("text", sorted(_GOLDEN))
    def test_accepted(self, text):
        atomic, classes, lats, attributes, with_row, no_row = _GOLDEN[text]
        compiled = _bind(text, lats={"top"}, columns=_TOP_COLUMNS)
        assert compiled.atomic_count == atomic
        assert compiled.classes == classes
        assert compiled.lats == lats
        assert compiled.attributes == attributes
        assert compiled.evaluate(_CONTEXT, _WITH_ROW) is with_row
        assert compiled.evaluate(_CONTEXT, _NO_ROW) is no_row

    def test_having_window_count(self):
        compiled = bind_row_condition(
            "Window.Count >= 2 AND Window.Avg_D > 0.5", {"Count", "Avg_D"})
        assert compiled.atomic_count == 2
        assert compiled.classes == set()
        assert compiled.lats == {"window"}
        row = {"Count": 3, "Avg_D": 1.0}
        assert compiled.evaluate({}, {"window": row}) is True
        assert compiled.evaluate({}, {"window": {**row, "Count": 1}}) is False
        assert compiled.evaluate({}, {"window": None}) is False

    @pytest.mark.parametrize("text", _REJECTED)
    def test_rejected(self, text):
        with pytest.raises(ConditionSyntaxError):
            parse_condition(text)


class TestSharedLexerForms:
    """Forms the condition language gains from sharing the SQL lexer."""

    @pytest.mark.parametrize("text,expected", [
        ("+Query.Duration > 4", True),
        ("Query.Duration > .5", True),
        ("Query.Duration < 5.", False),
        ("Query.Duration > 4 -- a trailing comment", True),
        ("Query . Duration >= 5", True),
        ("Query.Duration > 4\n-- a comment line\nAND Query.Duration < 6",
         True),
    ])
    def test_accepted(self, text, expected):
        compiled = _bind(text)
        assert compiled.attributes == {"duration"}
        assert compiled.evaluate(_CONTEXT, {}) is expected

    def test_tokens_of_a_clause_parse_directly(self):
        from repro.engine.sqlparse.lexer import tokenize
        tokens = tokenize("Query.Duration > 4")
        assert parse_condition(tokens) == parse_condition("Query.Duration > 4")
