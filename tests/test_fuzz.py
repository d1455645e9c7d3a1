"""Fuzz-style property tests: random conditions and queries never break
the invariants (boolean results, consistent plans, no crashes)."""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.condition import bind_condition, parse_condition
from repro.core.objects import MonitoredObject
from repro.core.schema import SCHEMA
from repro.engine.sqlparse.lexer import tokenize
from repro.errors import (ConditionSyntaxError, ReproError, SchemaError,
                          SQLSyntaxError, StreamSyntaxError)
from repro.stream.language import parse_stream_query

# ---------------------------------------------------------------------------
# condition-language fuzz
# ---------------------------------------------------------------------------

_NUMERIC_ATTRS = ["Query.Duration", "Query.Estimated_Cost",
                  "Query.Times_Blocked", "Query.Time_Blocked"]

_terms = st.one_of(
    st.sampled_from(_NUMERIC_ATTRS),
    st.integers(min_value=0, max_value=1000).map(str),
    st.floats(min_value=0, max_value=100, allow_nan=False).map(
        lambda v: f"{v:.3f}"),
)

_conditions = st.recursive(
    st.tuples(_terms, st.sampled_from(["=", "!=", "<", ">", "<=", ">="]),
              _terms).map(lambda t: f"{t[0]} {t[1]} {t[2]}"),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["AND", "OR"]), inner).map(
            lambda t: f"({t[0]}) {t[1]} ({t[2]})"),
        inner.map(lambda c: f"NOT ({c})"),
    ),
    max_leaves=6,
)


def _query_obj(**attrs):
    extra = {k.lower(): v for k, v in attrs.items()}
    return MonitoredObject(SCHEMA.monitored_class("Query"), {}, extra)


class TestConditionFuzz:
    @settings(deadline=None, max_examples=200)
    @given(_conditions,
           st.floats(min_value=0, max_value=100, allow_nan=False),
           st.floats(min_value=0, max_value=100, allow_nan=False),
           st.integers(min_value=0, max_value=10))
    def test_random_conditions_evaluate_to_bool(self, text, duration,
                                                cost, blocked):
        compiled = bind_condition(text, SCHEMA, set(), lambda n: set())
        context = {"query": _query_obj(
            Duration=duration, Estimated_Cost=cost,
            Times_Blocked=blocked, Time_Blocked=0.0,
        )}
        result = compiled.evaluate(context, {})
        assert isinstance(result, bool)

    @settings(deadline=None, max_examples=100)
    @given(_conditions,
           st.floats(min_value=0, max_value=100, allow_nan=False))
    def test_double_negation_stable(self, text, duration):
        """NOT NOT C ≡ C for conditions over non-NULL values."""
        context = {"query": _query_obj(
            Duration=duration, Estimated_Cost=1.0,
            Times_Blocked=0, Time_Blocked=0.0,
        )}
        plain = bind_condition(text, SCHEMA, set(), lambda n: set())
        double = bind_condition(f"NOT (NOT ({text}))", SCHEMA, set(),
                                lambda n: set())
        assert plain.evaluate(context, {}) == double.evaluate(context, {})

    @settings(deadline=None, max_examples=100)
    @given(_conditions)
    def test_atomic_count_positive(self, text):
        compiled = bind_condition(text, SCHEMA, set(), lambda n: set())
        assert compiled.atomic_count >= 1


# ---------------------------------------------------------------------------
# query-pipeline fuzz
# ---------------------------------------------------------------------------

_columns = st.sampled_from(["id", "name", "price", "qty", "segment"])
_numeric_columns = st.sampled_from(["id", "price", "qty"])

_predicates = st.one_of(
    st.tuples(_numeric_columns,
              st.sampled_from(["=", "<", ">", "<=", ">=", "!="]),
              st.integers(min_value=-5, max_value=600)).map(
        lambda t: f"{t[0]} {t[1]} {t[2]}"),
    st.tuples(_numeric_columns, st.integers(0, 50), st.integers(0, 600)).map(
        lambda t: f"{t[0]} BETWEEN {min(t[1], t[2])} AND {max(t[1], t[2])}"),
    _columns.map(lambda c: f"{c} IS NOT NULL"),
)


@st.composite
def _select_queries(draw):
    cols = draw(st.lists(_columns, min_size=1, max_size=3, unique=True))
    parts = [f"SELECT {', '.join(cols)} FROM items"]
    predicates = draw(st.lists(_predicates, max_size=3))
    if predicates:
        parts.append("WHERE " + " AND ".join(predicates))
    if draw(st.booleans()):
        direction = "DESC" if draw(st.booleans()) else "ASC"
        parts.append(f"ORDER BY {draw(_columns)} {direction}")
    limit = draw(st.one_of(st.none(), st.integers(0, 10)))
    if limit is not None:
        parts.append(f"LIMIT {limit}")
    return " ".join(parts)


class TestQueryFuzz:
    @settings(deadline=None, max_examples=120,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(sql=_select_queries())
    def test_random_selects_execute(self, items_server, sql):
        """Any generated SELECT parses, plans, and runs; results are rows
        of the right width; plan-cached re-execution matches."""
        session = items_server.create_session()
        first = session.execute(sql)
        second = session.execute(sql)  # via the plan cache
        assert first.rows == second.rows
        n_cols = sql.split(" FROM ")[0].count(",") + 1
        for row in first.rows:
            assert len(row) == n_cols

    @settings(deadline=None, max_examples=120,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(sql=_select_queries())
    def test_signatures_stable_across_executions(self, items_server, sql):
        from repro import SQLCM
        sqlcm = getattr(items_server, "_fuzz_sqlcm", None)
        if sqlcm is None:
            sqlcm = SQLCM(items_server)
            sqlcm.enable_signatures(True)
            items_server._fuzz_sqlcm = sqlcm
        session = items_server.create_session()
        a = session.execute(sql).query.logical_signature
        b = session.execute(sql).query.logical_signature
        assert a == b
        assert a is not None


# ---------------------------------------------------------------------------
# hostile text: every parser of user text fails only with its typed error
# ---------------------------------------------------------------------------

#: fragments that sit near the lexer's and the parsers' edge cases
_FRAGMENTS = st.sampled_from([
    "Query", "Duration", ".", "Window", "Count", "Top", "Transaction",
    "AND", "OR", "NOT", "NULL", "TRUE", "IS", "IN", "BETWEEN", "LIKE",
    "COUNT", "(", ")", "*", ",", "-", "+", "%", "/", "=", "<>", ">=",
    "'x'", "''", "'", "@p", "@", "1", "0", "2.5", ".5", "5.", "1e", "1E+",
    "1.5e-", "1e3", "1e999", "²", "--", "\n", "#", "WINDOW", "TUMBLING",
    "SLIDING", "HOPPING", "AGG", "HAVING", "WHERE", "GROUP", "BY", "AS",
    "ANOMALY", "DEVIATION", "TOPK", "STREAM", "FROM",
])
_hostile_text = st.one_of(
    st.text(max_size=60),
    st.lists(_FRAGMENTS, max_size=24).map(" ".join),
    st.lists(_FRAGMENTS, max_size=24).map("".join),
)

#: stream statements with one clause left to the fuzzer
_STREAM_TEMPLATES = st.sampled_from([
    "{}",
    "STREAM s FROM Query.Commit {}",
    "STREAM s FROM Query.Commit WHERE {} WINDOW TUMBLING(5) AGG COUNT(*)",
    "STREAM s FROM Query.Commit GROUP BY {} WINDOW TUMBLING(5) "
    "AGG COUNT(*)",
    "STREAM s FROM Query.Commit WINDOW {} AGG COUNT(*) AS N",
    "STREAM s FROM Query.Commit WINDOW TUMBLING(5) AGG {}",
    "STREAM s FROM Query.Commit WINDOW TUMBLING(5) AGG COUNT(*) AS N "
    "HAVING {}",
    "STREAM s FROM Query.Commit WINDOW TUMBLING(5) AGG COUNT(*) AS N "
    "ANOMALY {}",
])

_HOSTILE = settings(deadline=None, max_examples=300)


@pytest.mark.hostile_input
class TestHostileText:
    @_HOSTILE
    @given(_hostile_text)
    @example("1e")
    @example("1E+")
    @example("1.5e-")
    @example("\u00b2")
    def test_tokenize_raises_only_syntax_errors(self, text):
        try:
            tokenize(text)
        except SQLSyntaxError:
            pass

    @_HOSTILE
    @given(_hostile_text)
    @example("Query.Duration > 1E+")
    @example("(" * 400 + "Query.Duration > 1" + ")" * 400)
    def test_conditions_raise_only_condition_errors(self, text):
        try:
            bind_condition(text, SCHEMA, {"top"}, lambda name: {"avg"})
        except (ConditionSyntaxError, SchemaError):
            pass
        try:
            parse_condition(text)
        except ConditionSyntaxError:
            pass

    @_HOSTILE
    @given(_STREAM_TEMPLATES, _hostile_text)
    @example("STREAM s FROM Query.Commit WINDOW {} AGG COUNT(*)",
             "TUMBLING(1e)")
    @example("STREAM s FROM Query.Commit WINDOW {} AGG COUNT(*)",
             "TUMBLING(1e999)")
    @example("STREAM s FROM Query.Commit WINDOW {} AGG COUNT(*)",
             "TUMBLING(0)")
    @example("STREAM s FROM Query.Commit WINDOW {} AGG COUNT(*)",
             "HOPPING(1e308, 1e-308)")
    @example("STREAM s FROM Query.Commit WINDOW TUMBLING(5) AGG COUNT(*) "
             "AS N ANOMALY {}", "TOPK(N, 1e999)")
    @example("STREAM s FROM Query.Commit WHERE {} WINDOW TUMBLING(5) "
             "AGG COUNT(*)", "Query.Duration IN (1, 2)")
    def test_stream_queries_raise_only_stream_errors(self, template, text):
        try:
            parse_stream_query(template.format(text))
        except (StreamSyntaxError, SchemaError):
            pass
