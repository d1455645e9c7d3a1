"""Session scripting, stored procedures, plan cache, and server surface."""

import pytest

from repro import DatabaseServer, IfStep, ProcedureDef, Statement
from repro.engine.query import QueryState
from repro.errors import ConstraintError, EngineError
from repro.sim.scheduler import SchedulerStalledError


class TestScripts:
    def test_script_runs_in_order(self, items_server):
        session = items_server.create_session()
        session.submit_script([
            "UPDATE items SET qty = 1 WHERE id = 1",
            "SELECT qty FROM items WHERE id = 1",
        ])
        items_server.run()
        assert session.results[1].rows == [(1,)]

    def test_think_time_advances_clock(self, items_server):
        session = items_server.create_session()
        session.submit_script([
            Statement("SELECT id FROM items WHERE id = 1", think_time=2.0),
        ])
        items_server.run()
        assert items_server.clock.now > 2.0

    def test_tuple_statement_form(self, items_server):
        session = items_server.create_session()
        session.submit_script([
            ("SELECT name FROM items WHERE id = @k", {"k": 2}),
        ])
        items_server.run()
        assert session.results[0].rows == [("pear",)]

    def test_dangling_transaction_committed_at_script_end(self, items_server):
        session = items_server.create_session()
        session.submit_script([
            "BEGIN",
            "UPDATE items SET qty = 42 WHERE id = 1",
        ])
        items_server.run()
        check = items_server.create_session()
        assert check.execute(
            "SELECT qty FROM items WHERE id = 1").rows == [(42,)]


class TestProcedures:
    @pytest.fixture
    def proc_server(self, items_server):
        items_server.create_procedure(ProcedureDef(
            name="price_of",
            params=("key",),
            body=["SELECT price FROM items WHERE id = @key"],
        ))
        items_server.create_procedure(ProcedureDef(
            name="branchy",
            params=("key", "mode"),
            body=[
                IfStep(
                    predicate=lambda p: p["mode"] == 1,
                    then_branch=["SELECT name FROM items WHERE id = @key"],
                    else_branch=["SELECT qty FROM items WHERE id = @key"],
                ),
            ],
        ))
        return items_server

    def test_exec_with_literal_args(self, proc_server):
        session = proc_server.create_session()
        result = session.execute("EXEC price_of @key = 2")
        assert result.rows == [(2.0,)]

    def test_exec_with_session_params(self, proc_server):
        session = proc_server.create_session()
        result = session.execute("EXEC price_of", {"key": 4})
        assert result.rows == [(9.5,)]

    def test_missing_parameter_rejected(self, proc_server):
        session = proc_server.create_session()
        with pytest.raises(EngineError, match="missing parameters"):
            session.execute("EXEC price_of")

    def test_if_else_branches(self, proc_server):
        session = proc_server.create_session()
        assert session.execute(
            "EXEC branchy @key = 1, @mode = 1").rows == [("apple",)]
        assert session.execute(
            "EXEC branchy @key = 1, @mode = 0").rows == [(10,)]

    def test_procedure_statements_tagged(self, proc_server):
        captured = []
        proc_server.events.subscribe(
            "query.commit", lambda e, p: captured.append(p["query"]))
        session = proc_server.create_session()
        session.execute("EXEC price_of @key = 1")
        assert captured[-1].procedure == "price_of"

    def test_unknown_procedure(self, proc_server):
        session = proc_server.create_session()
        with pytest.raises(EngineError):
            session.execute("EXEC nonexistent")

    def test_procedure_parameterized_plans_shared(self, proc_server):
        session = proc_server.create_session()
        session.execute("EXEC price_of @key = 1")
        before = proc_server.plan_cache.misses
        session.execute("EXEC price_of @key = 2")
        session.execute("EXEC price_of @key = 3")
        # same template text → plan cache hits, no further misses
        assert proc_server.plan_cache.misses == before


class TestPlanCache:
    def test_repeated_query_hits_cache(self, items_server):
        session = items_server.create_session()
        session.execute("SELECT id FROM items WHERE id = 1")
        misses = items_server.plan_cache.misses
        session.execute("SELECT id FROM items WHERE id = 1")
        assert items_server.plan_cache.misses == misses
        assert items_server.plan_cache.hits >= 1

    def test_different_text_misses(self, items_server):
        session = items_server.create_session()
        session.execute("SELECT id FROM items WHERE id = 1")
        before = items_server.plan_cache.misses
        session.execute("SELECT id FROM items WHERE id = 2")
        assert items_server.plan_cache.misses == before + 1

    def test_cached_compile_is_cheaper(self, items_server):
        session = items_server.create_session()
        first = session.execute("SELECT id FROM items WHERE id = 1")
        second = session.execute("SELECT id FROM items WHERE id = 1")
        assert second.query.compile_time < first.query.compile_time

    def test_lru_eviction(self):
        from repro.engine.planner.plancache import CachedPlan, PlanCache
        cache = PlanCache(max_entries=2)
        for i in range(3):
            cache.put(CachedPlan(f"q{i}", None, None, None, "SELECT", 1))
        assert cache.evictions == 1
        assert cache.get("q0") is None
        assert cache.get("q2") is not None


class TestServerSurface:
    def test_session_lifecycle_events(self, server):
        events = []
        server.events.subscribe("session.login", lambda e, p: events.append("in"))
        server.events.subscribe("session.logout", lambda e, p: events.append("out"))
        session = server.create_session()
        server.close_session(session)
        assert events == ["in", "out"]

    def test_active_queries_snapshot_empty_when_idle(self, items_server):
        assert items_server.active_queries() == []

    def test_completed_queries_tracked(self, items_server):
        session = items_server.create_session()
        session.execute("SELECT id FROM items WHERE id = 1")
        assert len(items_server.completed_queries) >= 1
        assert items_server.completed_queries[-1].state is \
            QueryState.COMMITTED

    def test_memory_reservation_degrades_hit_ratio(self, items_server):
        full = items_server.buffer_hit_ratio("items")
        assert full == 1.0
        items_server.reserve_memory_pages(
            "test", items_server.costs.buffer_pool_pages)
        degraded = items_server.buffer_hit_ratio("items")
        assert degraded < 1.0
        items_server.reserve_memory_pages("test", 0)
        assert items_server.buffer_hit_ratio("items") == 1.0

    def test_monitor_cost_pool(self, server):
        server.add_monitor_cost(0.25)
        server.add_monitor_cost(0.25)
        assert server.take_monitor_cost() == pytest.approx(0.5)
        assert server.take_monitor_cost() == 0.0

    def test_query_duration_measured(self, items_server):
        session = items_server.create_session()
        result = session.execute("SELECT COUNT(*) FROM items")
        qctx = result.query
        assert qctx.end_time is not None
        assert qctx.duration_at(items_server.clock.now) > 0

    def test_estimated_cost_probe_set(self, items_server):
        session = items_server.create_session()
        result = session.execute("SELECT COUNT(*) FROM items")
        assert result.query.estimated_cost > 0

    def test_query_type_classification(self, items_server):
        session = items_server.create_session()
        checks = [
            ("SELECT id FROM items WHERE id = 1", "SELECT"),
            ("UPDATE items SET qty = 5 WHERE id = 1", "UPDATE"),
            ("INSERT INTO items (id, name) VALUES (70, 'x')", "INSERT"),
            ("DELETE FROM items WHERE id = 70", "DELETE"),
        ]
        for sql, expected in checks:
            assert session.execute(sql).query.query_type == expected

    def test_bulk_load(self, server):
        server.execute_ddl("CREATE TABLE b (x INT NOT NULL PRIMARY KEY)")
        assert server.bulk_load("b", [[i] for i in range(10)]) == 10
        assert server.table("b").row_count == 10

    @pytest.mark.parametrize("batch", [
        [[10, 1], [11, 1], [10, 2]],     # duplicate key inside the batch
        [[10, 1], [1, 1], [12, 1]],      # duplicate of a present key
        [[10, 1], [None, 1], [12, 1]],   # NULL in a NOT NULL column
    ], ids=["dup-in-batch", "dup-existing", "not-null"])
    def test_bulk_load_is_all_or_nothing(self, server, batch):
        server.execute_ddl(
            "CREATE TABLE b (x INT NOT NULL PRIMARY KEY, g INT)")
        server.execute_ddl("CREATE INDEX ix_b_g ON b (g)")
        server.bulk_load("b", [[i, i % 2] for i in range(5)])
        table = server.table("b")

        def state():
            return (table.row_count, table._next_rowid, dict(table._rows),
                    {name: ({k: set(v) for k, v in index._map.items()},
                            [k.key for k in index._sorted])
                     for name, index in table.indexes.items()})

        before = state()
        with pytest.raises(ConstraintError):
            server.bulk_load("b", batch)
        assert state() == before
        assert server.bulk_load("b", [[5, 1]]) == 1
        assert table.get(6) == [5, 1]

    def test_ddl_requires_ddl_statement(self, server):
        with pytest.raises(EngineError):
            server.execute_ddl("SELECT 1")


class TestSessionTeardown:
    """Regression: close_session must not leave an abandoned session's
    locks alive (a vanished client used to block everyone forever)."""

    def test_close_mid_transaction_rolls_back_and_releases_locks(
            self, items_server):
        alice = items_server.create_session(user="alice")
        bob = items_server.create_session(user="bob")
        alice.execute("BEGIN")
        alice.execute("UPDATE items SET qty = 999 WHERE id = 1")
        assert alice.current_txn is not None

        items_server.close_session(alice)

        # the transaction is gone and its X lock with it
        assert alice.current_txn is None
        assert items_server.locks.blocking_pairs() == []
        result = bob.execute("UPDATE items SET qty = 5 WHERE id = 1")
        assert result.error is None
        # and the abandoned update was rolled back, not committed
        assert bob.execute(
            "SELECT qty FROM items WHERE id = 1").rows == [(5,)]

    def test_close_while_statement_blocked_cancels_it(self, items_server):
        holder = items_server.create_session(user="holder")
        waiter = items_server.create_session(user="waiter")
        holder.execute("BEGIN")
        holder.execute("UPDATE items SET qty = 1 WHERE id = 1")

        proc = items_server.scheduler.spawn(
            "waiter", waiter.statement_process(
                "UPDATE items SET qty = 2 WHERE id = 1"))
        waiter.process = proc
        try:
            items_server.run(until=items_server.clock.now + 0.5)
        except SchedulerStalledError:
            pass  # only the lock-blocked waiter is live: a stall is normal
        assert waiter.current_query.state is QueryState.BLOCKED

        # the waiter's client vanishes while its statement is parked on
        # the lock: the statement is cancelled, the session drains clean
        items_server.close_session(waiter)
        items_server.run(until=items_server.clock.now + 0.5)
        assert proc.done
        assert proc.result.error is not None
        assert "cancel" in proc.result.error.lower()
        assert waiter.current_txn is None

        # the holder is unaffected and can commit
        assert holder.execute("COMMIT").error is None

    def test_close_idle_session_stays_cheap(self, items_server):
        session = items_server.create_session(user="idle")
        session.execute("SELECT id FROM items WHERE id = 1")
        items_server.close_session(session)
        assert items_server.session(session.session_id) is None
