"""End-to-end SELECT execution tests through the full pipeline."""

import pytest

from repro.core.aggregates import StdevAgg
from repro.errors import EngineError


def q(server, sql, params=None):
    session = server.create_session()
    result = session.execute(sql, params)
    server.close_session(session)
    return result.rows


class TestBasicSelect:
    def test_project_columns(self, items_server):
        rows = q(items_server, "SELECT id, name FROM items WHERE id = 2")
        assert rows == [(2, "pear")]

    def test_star(self, items_server):
        rows = q(items_server, "SELECT * FROM items WHERE id = 1")
        assert rows == [(1, "apple", 1.5, 10, "fruit")]

    def test_qualified_star(self, items_server):
        rows = q(items_server, "SELECT i.* FROM items i WHERE i.id = 1")
        assert len(rows[0]) == 5

    def test_expression_in_select_list(self, items_server):
        rows = q(items_server,
                 "SELECT price * qty AS total FROM items WHERE id = 1")
        assert rows == [(15.0,)]

    def test_where_filters(self, items_server):
        rows = q(items_server, "SELECT id FROM items WHERE price > 2.0")
        assert sorted(r[0] for r in rows) == [4, 5]

    def test_order_by_desc(self, items_server):
        rows = q(items_server,
                 "SELECT name FROM items ORDER BY price DESC LIMIT 2")
        assert rows == [("hammer",), ("wrench",)]

    def test_order_by_multiple_keys(self, items_server):
        rows = q(items_server,
                 "SELECT segment, name FROM items "
                 "ORDER BY segment ASC, price DESC")
        assert rows[0] == ("fruit", "pear")
        assert rows[-1] == ("tools", "nail")

    def test_order_by_non_projected_column(self, items_server):
        rows = q(items_server, "SELECT name FROM items ORDER BY qty DESC")
        assert rows[0] == ("nail",)

    def test_order_by_select_alias(self, items_server):
        rows = q(items_server,
                 "SELECT name, price * qty AS total FROM items "
                 "ORDER BY total DESC LIMIT 2")
        assert rows[0] == ("wrench", 58.0)

    def test_order_by_aggregate_alias(self, items_server):
        rows = q(items_server,
                 "SELECT segment, SUM(qty) AS total FROM items "
                 "GROUP BY segment ORDER BY total DESC")
        assert rows == [("tools", 511), ("fruit", 55)]

    def test_alias_does_not_shadow_real_column(self, items_server):
        # "name" is both a column and an alias: the column wins for ORDER BY
        rows = q(items_server,
                 "SELECT qty AS name FROM items ORDER BY name DESC LIMIT 1")
        assert rows == [(8,)]  # ordered by the STRING column name → wrench

    def test_limit_zero(self, items_server):
        assert q(items_server, "SELECT id FROM items LIMIT 0") == []

    def test_distinct(self, items_server):
        rows = q(items_server, "SELECT DISTINCT segment FROM items")
        assert sorted(r[0] for r in rows) == ["fruit", "tools"]

    def test_in_and_between(self, items_server):
        rows = q(items_server,
                 "SELECT id FROM items WHERE id IN (1, 3, 5) "
                 "AND price BETWEEN 0.4 AND 8.0")
        assert sorted(r[0] for r in rows) == [1, 3, 5]

    def test_like(self, items_server):
        rows = q(items_server, "SELECT name FROM items WHERE name LIKE '%a%'")
        assert {"apple", "pear", "hammer", "nail"} == {r[0] for r in rows}

    def test_parameterized_query(self, items_server):
        rows = q(items_server, "SELECT name FROM items WHERE id = @target",
                 {"target": 4})
        assert rows == [("hammer",)]

    def test_empty_result(self, items_server):
        assert q(items_server, "SELECT id FROM items WHERE id = 999") == []

    def test_select_without_from(self, items_server):
        assert q(items_server, "SELECT 1 + 1") == [(2,)]
        assert q(items_server, "SELECT 'x', 2.5 * 2 AS five") == [("x", 5.0)]

    def test_select_without_from_with_params(self, items_server):
        assert q(items_server, "SELECT @p * 2", {"p": 21}) == [(42,)]

    def test_select_without_from_column_ref_rejected(self, items_server):
        session = items_server.create_session()
        with pytest.raises(EngineError):
            session.execute("SELECT price")


class TestAggregates:
    def test_scalar_aggregates(self, items_server):
        rows = q(items_server,
                 "SELECT COUNT(*), MIN(price), MAX(price), SUM(qty) "
                 "FROM items")
        assert rows == [(6, 0.05, 9.5, 566)]

    def test_avg_and_stdev(self, items_server):
        rows = q(items_server,
                 "SELECT AVG(price), STDEV(price) FROM items "
                 "WHERE segment = 'fruit'")
        avg, stdev = rows[0]
        assert avg == pytest.approx(4.0 / 3.0)
        assert stdev == pytest.approx(0.7637626, rel=1e-5)

    def test_stdev_large_offset_matches_lat_stdev(self, server):
        """Values sharing a large offset must not cancel: SQL STDEV agrees
        with the LAT aggregate (a sum of squares returns 0.0 here)."""
        server.execute_ddl(
            "CREATE TABLE t (id INT NOT NULL PRIMARY KEY, g INT, v FLOAT)")
        values = [1e9 + 1, 1e9 + 2, 1e9 + 3, 1e9 + 4]
        session = server.create_session()
        session.execute("INSERT INTO t (id, g, v) VALUES " + ", ".join(
            f"({i}, 1, {v!r})" for i, v in enumerate(values)))
        rows = q(server, "SELECT g, STDEV(v) FROM t GROUP BY g")
        stdev = StdevAgg()
        state = stdev.new_state()
        for value in values:
            state = stdev.update(state, value)
        assert rows == [(1, stdev.result(state))]
        assert rows[0][1] == pytest.approx(1.2909944487358056)

    def test_group_by(self, items_server):
        rows = q(items_server,
                 "SELECT segment, COUNT(*), SUM(qty) FROM items "
                 "GROUP BY segment ORDER BY segment")
        assert rows == [("fruit", 3, 55), ("tools", 3, 511)]

    def test_having(self, items_server):
        rows = q(items_server,
                 "SELECT segment FROM items GROUP BY segment "
                 "HAVING SUM(qty) > 100")
        assert rows == [("tools",)]

    def test_count_distinct(self, items_server):
        rows = q(items_server, "SELECT COUNT(DISTINCT segment) FROM items")
        assert rows == [(2,)]

    def test_scalar_aggregate_on_empty_input(self, items_server):
        rows = q(items_server,
                 "SELECT COUNT(*), SUM(price) FROM items WHERE id > 100")
        assert rows == [(0, None)]

    def test_group_by_empty_input_yields_no_rows(self, items_server):
        rows = q(items_server,
                 "SELECT segment, COUNT(*) FROM items WHERE id > 100 "
                 "GROUP BY segment")
        assert rows == []

    def test_order_by_aggregate(self, items_server):
        rows = q(items_server,
                 "SELECT segment FROM items GROUP BY segment "
                 "ORDER BY SUM(qty) DESC")
        assert rows == [("tools",), ("fruit",)]


class TestJoins:
    @pytest.fixture
    def join_server(self, items_server):
        items_server.execute_ddl(
            "CREATE TABLE segments (name VARCHAR(10) NOT NULL PRIMARY KEY, "
            "manager VARCHAR(20))"
        )
        s = items_server.create_session()
        s.execute("INSERT INTO segments VALUES ('fruit', 'alice'), "
                  "('garden', 'bob')")
        return items_server

    def test_inner_join(self, join_server):
        rows = q(join_server,
                 "SELECT i.name, s.manager FROM items i "
                 "JOIN segments s ON i.segment = s.name ORDER BY i.id")
        assert rows == [("apple", "alice"), ("pear", "alice"),
                        ("plum", "alice")]

    def test_left_join_produces_nulls(self, join_server):
        rows = q(join_server,
                 "SELECT i.name, s.manager FROM items i "
                 "LEFT JOIN segments s ON i.segment = s.name "
                 "WHERE i.id = 4")
        assert rows == [("hammer", None)]

    def test_join_with_filter_on_both_sides(self, join_server):
        rows = q(join_server,
                 "SELECT i.name FROM items i "
                 "JOIN segments s ON i.segment = s.name "
                 "WHERE s.manager = 'alice' AND i.price > 1.0")
        assert sorted(r[0] for r in rows) == ["apple", "pear"]

    def test_three_way_join(self, join_server):
        join_server.execute_ddl(
            "CREATE TABLE managers (name VARCHAR(20) NOT NULL PRIMARY KEY, "
            "office VARCHAR(10))"
        )
        s = join_server.create_session()
        s.execute("INSERT INTO managers VALUES ('alice', 'NY')")
        rows = q(join_server,
                 "SELECT i.name, m.office FROM items i "
                 "JOIN segments s ON i.segment = s.name "
                 "JOIN managers m ON s.manager = m.name "
                 "WHERE i.id = 1")
        assert rows == [("apple", "NY")]

    def test_join_aggregate(self, join_server):
        rows = q(join_server,
                 "SELECT s.manager, COUNT(*) FROM items i "
                 "JOIN segments s ON i.segment = s.name GROUP BY s.manager")
        assert rows == [("alice", 3)]


class TestNullSemantics:
    @pytest.fixture
    def null_server(self, server):
        server.execute_ddl(
            "CREATE TABLE n (id INT NOT NULL PRIMARY KEY, v FLOAT)"
        )
        s = server.create_session()
        s.execute("INSERT INTO n VALUES (1, 5.0), (2, NULL), (3, 7.0)")
        return server

    def test_null_not_matched_by_comparison(self, null_server):
        rows = q(null_server, "SELECT id FROM n WHERE v > 0")
        assert sorted(r[0] for r in rows) == [1, 3]

    def test_is_null(self, null_server):
        assert q(null_server, "SELECT id FROM n WHERE v IS NULL") == [(2,)]

    def test_aggregates_skip_nulls(self, null_server):
        rows = q(null_server, "SELECT COUNT(v), AVG(v) FROM n")
        assert rows == [(2, 6.0)]

    def test_null_sorts_first_ascending(self, null_server):
        rows = q(null_server, "SELECT id FROM n ORDER BY v ASC")
        assert rows[0] == (2,)

    def test_null_never_equi_joins(self, null_server):
        null_server.execute_ddl(
            "CREATE TABLE m (id INT NOT NULL PRIMARY KEY, v FLOAT)"
        )
        s = null_server.create_session()
        s.execute("INSERT INTO m VALUES (1, NULL)")
        rows = q(null_server,
                 "SELECT n.id FROM n JOIN m ON n.v = m.v")
        assert rows == []


class TestErrors:
    def test_unknown_table(self, items_server):
        session = items_server.create_session()
        with pytest.raises(EngineError):
            session.execute("SELECT x FROM missing")

    def test_unknown_column(self, items_server):
        session = items_server.create_session()
        with pytest.raises(EngineError):
            session.execute("SELECT missing_col FROM items")

    def test_failed_query_fires_rollback_event(self, items_server):
        events = []
        items_server.events.subscribe(
            "query.rollback", lambda e, p: events.append(p["query"]))
        session = items_server.create_session()
        with pytest.raises(EngineError):
            session.execute("SELECT missing_col FROM items")
        assert len(events) == 1
