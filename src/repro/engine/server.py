"""The database server facade: the engine SQLCM is embedded in.

Owns the clock, scheduler, catalog, storage, lock manager, transaction
manager, optimizer, plan cache, and event bus; exposes the statement
pipeline used by sessions and the instrumentation hooks SQLCM attaches to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.engine.catalog import Catalog, IndexDef, ProcedureDef, TableSchema
from repro.engine.catalog import ColumnDef
from repro.engine.events import EventBus
from repro.engine.locks import LockManager, Ticket
from repro.engine.planner.logical import build_logical_plan
from repro.engine.planner.optimizer import Optimizer
from repro.engine.planner.physical import (PhysHashJoin, PhysNLJoin,
                                           plan_node_count, walk_physical)
from repro.engine.planner.plancache import CachedPlan, PlanCache
from repro.engine.query import QueryContext, QueryState
from repro.engine.session import Session
from repro.engine.sqlparse import ast_nodes as ast
from repro.engine.sqlparse.parser import parse_statement
from repro.engine.storage import Table
from repro.engine.txn import TransactionManager
from repro.engine.types import SQLType
from repro.errors import CatalogError, EngineError
from repro.obs import NULL_OBS, Observability
from repro.sim.clock import SimClock
from repro.sim.costs import CostModel
from repro.sim.scheduler import Scheduler

_TYPE_MAP = {
    "INTEGER": SQLType.INTEGER,
    "FLOAT": SQLType.FLOAT,
    "STRING": SQLType.STRING,
    "DATETIME": SQLType.DATETIME,
    "BOOLEAN": SQLType.BOOLEAN,
    "BLOB": SQLType.BLOB,
}


@dataclass
class ServerConfig:
    """Tunables for one server instance."""

    name: str = "sqlcm-repro"
    costs: CostModel = field(default_factory=CostModel)
    plan_cache_entries: int = 2048
    track_completed_queries: bool = False


class DatabaseServer:
    """An in-memory relational database server on a virtual clock."""

    def __init__(self, config: ServerConfig | None = None,
                 clock: SimClock | None = None):
        self.config = config or ServerConfig()
        self.costs = self.config.costs
        self.clock = clock or SimClock()
        self.scheduler = Scheduler(self.clock)
        self.events = EventBus()
        self.catalog = Catalog()
        self._tables: dict[str, Table] = {}
        self.locks = LockManager(
            self.clock, self.costs,
            on_block=self._on_block,
            on_unblock=self._on_unblock,
            waker=self._waker,
        )
        self.txns = TransactionManager(self.clock, self.locks, self.costs)
        self.optimizer = Optimizer(self.catalog, self._row_count, self.costs)
        self.plan_cache = PlanCache(self.config.plan_cache_entries)
        self._sessions: dict[int, Session] = {}
        self._next_session_id = 1
        self._next_query_id = 1
        self._active_queries: dict[int, QueryContext] = {}
        self._txn_current_query: dict[int, QueryContext] = {}
        self._pending_monitor_cost = 0.0
        self.monitor_cost_total = 0.0
        self._obs: Observability | None = None
        self._governor = None  # attached by SQLCM.enable_governor
        self._memory_reservations: dict[str, int] = {}
        self._authenticator = None
        self.login_failures = 0
        self.completed_queries: list[QueryContext] = []
        self.scheduler.add_stall_handler(self._break_deadlock_stall)

    # -- schema / storage -----------------------------------------------------------

    def create_table(self, schema: TableSchema) -> Table:
        self.catalog.create_table(schema)
        table = Table(schema)
        self._tables[schema.name.lower()] = table
        self.plan_cache.invalidate()
        return table

    def create_index(self, index: IndexDef) -> None:
        table = self.table(index.table)
        table.add_index(index)
        self.plan_cache.invalidate()

    def create_procedure(self, proc: ProcedureDef) -> ProcedureDef:
        return self.catalog.create_procedure(proc)

    def table(self, name: str) -> Table:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise CatalogError(f"no storage for table {name!r}") from None

    def tables_by_name(self) -> dict[str, Table]:
        return self._tables

    def _row_count(self, table: str) -> int:
        stored = self._tables.get(table.lower())
        return stored.row_count if stored is not None else 0

    def bulk_load(self, table_name: str, rows) -> int:
        """Load rows directly into storage (data generation fast path).

        All or nothing: a type or constraint error leaves the table as it
        was."""
        return self.table(table_name).bulk_insert(rows)

    def execute_ddl(self, sql: str) -> None:
        """CREATE TABLE / CREATE INDEX, applied immediately."""
        stmt = parse_statement(sql)
        if isinstance(stmt, ast.CreateTableStmt):
            columns = [
                ColumnDef(name, _TYPE_MAP[type_word], nullable)
                for name, type_word, nullable in stmt.columns
            ]
            self.create_table(TableSchema(stmt.table, columns,
                                          stmt.primary_key or None))
        elif isinstance(stmt, ast.CreateIndexStmt):
            self.create_index(IndexDef(stmt.name, stmt.table, stmt.columns,
                                       unique=stmt.unique))
        else:
            raise EngineError(f"not a DDL statement: {sql!r}")

    # -- sessions -------------------------------------------------------------------

    def create_session(self, user: str = "dbo",
                       application: str = "app",
                       credential: str | None = None,
                       isolation=None) -> Session:
        """Open a connection.

        When an authenticator is installed (:meth:`set_authenticator`) the
        ``credential`` is checked first; a failed check publishes
        ``session.login_failed`` — the event Example 4(b) of the paper
        audits ("number of login failures for each user") — and raises
        :class:`~repro.errors.EngineError`.
        """
        if self._authenticator is not None and \
                not self._authenticator(user, credential):
            self.login_failures += 1
            self.events.publish("session.login_failed", {
                "user": user, "application": application,
                "time": self.clock.now,
            })
            raise EngineError(f"login failed for user {user!r}")
        session = Session(self, self._next_session_id, user, application,
                          isolation=isolation)
        self._next_session_id += 1
        self._sessions[session.session_id] = session
        self.events.publish("session.login", {"session": session})
        return session

    def set_authenticator(self, authenticator) -> None:
        """Install a credential check: ``fn(user, credential) -> bool``."""
        self._authenticator = authenticator

    def close_session(self, session: Session) -> None:
        """Tear down a session: abandoned work must not keep locks alive.

        A client that disconnects mid-transaction would otherwise leave
        its transaction's locks held forever, blocking every other
        session touching the same rows.  A statement still executing is
        cancelled (the aborting process rolls its transaction back
        itself); an idle open transaction is rolled back directly.
        """
        session.closed = True
        qctx = session.current_query
        txn = session.current_txn
        if qctx is not None and not qctx.finished:
            self.cancel_query(qctx)
        elif txn is not None and txn.active:
            self.txns.rollback(txn, self.tables_by_name())
            session.current_txn = None
            self.publish_txn_event("txn.rollback", txn, session)
        self._sessions.pop(session.session_id, None)
        self.events.publish("session.logout", {"session": session})

    def session(self, session_id: int) -> Session | None:
        return self._sessions.get(session_id)

    def run(self, until: float | None = None) -> None:
        """Drive the scheduler (all submitted scripts, timers, monitors)."""
        self.scheduler.run(until)

    # -- memory model -----------------------------------------------------------------

    def reserve_memory_pages(self, tag: str, pages: int) -> None:
        """Register server memory consumed by a monitor (e.g. PULL history).

        Reserved pages shrink the buffer pool and therefore degrade the
        cache hit ratio of queries — the effect the paper attributes to
        PULL_history at low polling rates.
        """
        if pages <= 0:
            self._memory_reservations.pop(tag, None)
        else:
            self._memory_reservations[tag] = pages

    @property
    def reserved_pages(self) -> int:
        return sum(self._memory_reservations.values())

    def buffer_hit_ratio(self, table_name: str) -> float:
        """Global buffer-cache hit ratio given current memory pressure."""
        working = sum(
            t.page_count(self.costs.rows_per_page)
            for t in self._tables.values()
        )
        available = max(0, self.costs.buffer_pool_pages - self.reserved_pages)
        if working <= 0 or working <= available:
            return 1.0
        return available / working

    # -- monitoring cost pool -------------------------------------------------------------

    def add_monitor_cost(self, seconds: float) -> None:
        """Charge monitoring work (rule eval, LAT ops, log writes) to the
        virtual clock; drained into Delay items by the running process.

        When observability is enabled every charge is also tallied against
        the innermost attribution context (see :mod:`repro.obs`)."""
        self._pending_monitor_cost += seconds
        self.monitor_cost_total += seconds
        if self._obs is not None:
            self._obs.account(seconds)

    def take_monitor_cost(self) -> float:
        # the drain is where monitoring cost turns into virtual time, so it
        # is where the overload governor's feedback loop closes; observing
        # first lets the observation's own charge ride this same drain
        governor = self._governor
        if governor is not None:
            governor.observe(self.clock.now)
        cost = self._pending_monitor_cost
        self._pending_monitor_cost = 0.0
        return cost

    def attach_governor(self, governor) -> None:
        """Hook the overload governor into the cost-drain path."""
        self._governor = governor

    def detach_governor(self) -> None:
        self._governor = None

    @property
    def governor(self):
        return self._governor

    # -- self-observability -----------------------------------------------------

    @property
    def obs(self):
        """The observability facade, or the shared null object when off.

        Hot-path call sites use this unconditionally — the null object's
        context managers are no-ops and never charge the pool."""
        obs = self._obs
        return obs if obs is not None else NULL_OBS

    @property
    def observability_enabled(self) -> bool:
        return self._obs is not None

    def enable_observability(self, trace_capacity: int = 4096
                             ) -> Observability:
        """Install (or return the existing) observability layer."""
        if self._obs is None:
            self._obs = Observability(self, trace_capacity=trace_capacity)
        return self._obs

    def disable_observability(self) -> None:
        """Detach the layer; accumulated data is discarded."""
        self._obs = None

    # -- statement pipeline -----------------------------------------------------------------

    def parse(self, sql: str) -> ast.Statement:
        return parse_statement(sql)

    def begin_query(self, session: Session, sql: str,
                    params: dict[str, Any],
                    procedure: str | None = None) -> QueryContext:
        qctx = QueryContext(
            query_id=self._next_query_id,
            session_id=session.session_id,
            text=sql,
            params=params,
            application=session.application,
            user=session.user,
            procedure=procedure,
        )
        self._next_query_id += 1
        qctx.start_time = self.clock.now
        self._active_queries[qctx.query_id] = qctx
        self.events.publish("query.start", {"query": qctx})
        return qctx

    def compile_query(self, qctx: QueryContext) -> float:
        """Resolve the plan (cache or optimize); returns the compile cost."""
        cost = self.costs.plan_cache_probe
        entry = self.plan_cache.get(qctx.text)
        cached = entry is not None
        if entry is None:
            stmt = parse_statement(qctx.text)
            cost += self.costs.parse_base + \
                self.costs.parse_per_token * (len(qctx.text) / 5.0)
            logical = build_logical_plan(stmt, self.catalog)
            physical = self.optimizer.optimize(logical)
            nodes = plan_node_count(physical)
            joins = sum(
                1 for node in walk_physical(physical)
                if isinstance(node, (PhysHashJoin, PhysNLJoin))
            )
            cost += (self.costs.optimize_base
                     + self.costs.optimize_per_node * nodes
                     + self.costs.optimize_search_per_join
                     * (2 ** joins - 1))
            entry = CachedPlan(
                text=qctx.text,
                statement=stmt,
                logical=logical,
                physical=physical,
                query_type=_query_type(stmt),
                node_count=nodes,
            )
            self.plan_cache.put(entry)
        qctx.plan = entry.physical
        qctx.logical_plan = entry.logical
        qctx.query_type = entry.query_type
        qctx.estimated_cost = entry.physical.estimated_cost
        qctx.compile_time = cost
        self.events.publish("query.compile", {
            "query": qctx, "cached": cached, "entry": entry,
        })
        # signatures live with the cached plan (paper Section 4.2); SQLCM
        # fills them on first compile, later queries inherit them here
        qctx.logical_signature = entry.logical_signature
        qctx.physical_signature = entry.physical_signature
        return cost

    def register_statement(self, txn, qctx: QueryContext) -> None:
        txn.statement_log.append(qctx)
        self._txn_current_query[txn.txn_id] = qctx

    def finish_query(self, qctx: QueryContext, state: QueryState,
                     error: str | None = None) -> None:
        qctx.state = state
        qctx.end_time = self.clock.now
        qctx.error = error
        self._active_queries.pop(qctx.query_id, None)
        if self.config.track_completed_queries:
            self.completed_queries.append(qctx)
        event = {
            QueryState.COMMITTED: "query.commit",
            QueryState.CANCELLED: "query.cancel",
            QueryState.ROLLED_BACK: "query.rollback",
            QueryState.FAILED: "query.rollback",
        }[state]
        self.events.publish(event, {"query": qctx})

    def publish_txn_event(self, name: str, txn, session: Session) -> None:
        self.events.publish(name, {
            "txn": txn, "session": session,
            "statements": list(txn.statement_log),
        })
        self._txn_current_query.pop(txn.txn_id, None)

    # -- query control ---------------------------------------------------------------------

    def active_queries(self) -> list[QueryContext]:
        """Snapshot of currently executing queries (the polling surface)."""
        return list(self._active_queries.values())

    def current_query_of_txn(self, txn_id: int) -> QueryContext | None:
        """The statement most recently executed by a transaction."""
        return self._txn_current_query.get(txn_id)

    def cancel_query(self, qctx: QueryContext) -> bool:
        """Request cancellation; takes effect at the query's next charge or
        lock boundary (the paper's asynchronous cancel-signal semantics)."""
        if qctx.finished:
            return False
        qctx.cancel_requested = True
        if qctx.state is QueryState.BLOCKED and qctx.txn_id is not None:
            self.locks.cancel_wait(qctx.txn_id)
        return True

    # -- lock-manager callbacks ---------------------------------------------------------------

    def _on_block(self, ticket: Ticket, blockers: list[Ticket]) -> None:
        qctx = ticket.qctx
        if qctx is not None:
            qctx.times_blocked += 1
            qctx.blocked_on = ticket.resource
        blocker_qctxs = []
        for blocker in blockers:
            bq = self._txn_current_query.get(blocker.txn_id)
            if bq is not None:
                blocker_qctxs.append(bq)
                bq.queries_blocked += 1
        ticket.blockers = blocker_qctxs
        self.events.publish("query.blocked", {
            "query": qctx,
            "resource": ticket.resource,
            "blockers": blocker_qctxs,
        })

    def _on_unblock(self, ticket: Ticket) -> None:
        qctx = ticket.qctx
        wait = ticket.wait_time
        if qctx is not None:
            qctx.time_blocked += wait
            qctx.blocked_on = None
        blocker = ticket.blockers[0] if ticket.blockers else None
        if blocker is not None:
            blocker.time_blocking_others += wait
        self.events.publish("query.block_released", {
            "query": qctx,
            "blocker": blocker,
            "resource": ticket.resource,
            "wait_time": wait,
        })

    def _waker(self, ticket: Ticket) -> None:
        qctx = ticket.qctx
        if qctx is None:
            return
        session = self._sessions.get(qctx.session_id)
        if session is not None and session.process is not None \
                and session.process.blocked:
            self.scheduler.wake(session.process)

    def _break_deadlock_stall(self, blocked) -> bool:
        return bool(self.locks.detect_deadlocks())


def _query_type(stmt: ast.Statement) -> str:
    if isinstance(stmt, ast.SelectStmt):
        return "SELECT"
    if isinstance(stmt, ast.InsertStmt):
        return "INSERT"
    if isinstance(stmt, ast.UpdateStmt):
        return "UPDATE"
    if isinstance(stmt, ast.DeleteStmt):
        return "DELETE"
    return "OTHER"
