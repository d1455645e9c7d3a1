"""Physical operators as generators.

Every operator is a generator yielding either output rows (tuples) or
:class:`~repro.sim.WaitLock` markers, which parents must forward unchanged.
``execute_plan`` dispatches on the physical node type.

DML operators yield no rows; they record ``rows_affected`` on the query
context and write undo records on the transaction.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.core.aggregates import StdevAgg
from repro.engine.exec.context import ExecContext
from repro.engine.planner import physical as phys
from repro.engine.types import compare
from repro.errors import ExecutionError, PlanError
from repro.sim.scheduler import WaitLock

_NO_ROW = ()


def execute_plan(node: phys.PhysicalNode, ctx: ExecContext) -> Iterator:
    """Instantiate the operator tree for one execution."""
    if isinstance(node, phys.PhysSingleRow):
        return iter([()])
    if isinstance(node, phys.PhysTableScan):
        return _table_scan(node, ctx)
    if isinstance(node, phys.PhysIndexSeek):
        return _index_seek(node, ctx)
    if isinstance(node, phys.PhysFilter):
        return _filter(node, ctx)
    if isinstance(node, phys.PhysHashJoin):
        return _hash_join(node, ctx)
    if isinstance(node, phys.PhysNLJoin):
        return _nl_join(node, ctx)
    if isinstance(node, phys.PhysSort):
        return _sort(node, ctx)
    if isinstance(node, phys.PhysLimit):
        return _limit(node, ctx)
    if isinstance(node, phys.PhysAggregate):
        return _aggregate(node, ctx)
    if isinstance(node, phys.PhysProject):
        return _project(node, ctx)
    if isinstance(node, phys.PhysDistinct):
        return _distinct(node, ctx)
    if isinstance(node, phys.PhysInsert):
        return _insert(node, ctx)
    if isinstance(node, phys.PhysUpdate):
        return _update(node, ctx)
    if isinstance(node, phys.PhysDelete):
        return _delete(node, ctx)
    raise PlanError(f"no executor for {type(node).__name__}")


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------

def _table_scan(node: phys.PhysTableScan, ctx: ExecContext) -> Iterator:
    """Full scan under a table-level lock (lock escalation for large reads)."""
    mode = "X" if node.lock_mode == "X" else "S"
    yield from ctx.acquire_table_lock(node.table, mode)
    table = ctx.table(node.table)
    costs = ctx.costs
    params = ctx.params
    filter_fn = node.filter_fn
    hit = ctx.server.buffer_hit_ratio(node.table)
    fetch = costs.fetch_cost(hit)
    for rowid, row in table.scan():
        ctx.charge(costs.table_scan_per_row)
        row_tuple = tuple(row)
        if filter_fn is not None:
            ctx.charge(costs.predicate_eval)
            if filter_fn(row_tuple, params) is not True:
                continue
        ctx.charge(fetch)
        yield (rowid, row_tuple) if node.with_rowids else row_tuple


def _index_seek(node: phys.PhysIndexSeek, ctx: ExecContext) -> Iterator:
    """Index lookup with per-row locks."""
    writing = node.lock_mode == "X"
    yield from ctx.acquire_table_lock(node.table, "IX" if writing else "IS")
    table = ctx.table(node.table)
    index = table.indexes[node.index]
    costs = ctx.costs
    params = ctx.params
    ctx.charge(costs.index_seek)
    eq_key = tuple(fn(_NO_ROW, params) for fn in node.eq_fns)
    low = (node.range_low_fn(_NO_ROW, params)
           if node.range_low_fn is not None else None)
    high = (node.range_high_fn(_NO_ROW, params)
            if node.range_high_fn is not None else None)
    # materialize rowids up front: avoids the Halloween problem when this
    # seek drives an UPDATE of the indexed column
    rowids = list(index.bounded_scan(eq_key, low, high,
                                     node.range_low_inclusive,
                                     node.range_high_inclusive))
    row_mode = "X" if writing else "S"
    filter_fn = node.filter_fn
    for rowid in rowids:
        ctx.charge(costs.index_scan_per_row)
        row = table.get(rowid)
        if row is None:
            continue
        if filter_fn is not None:
            ctx.charge(costs.predicate_eval)
            if filter_fn(tuple(row), params) is not True:
                continue
        yield from ctx.acquire_row_lock(node.table, rowid, row_mode)
        row = table.get(rowid)  # re-read: the row may have changed while blocked
        if row is None:
            continue
        row_tuple = tuple(row)
        if filter_fn is not None and filter_fn(row_tuple, params) is not True:
            continue
        ctx.fetch_charge(node.table)
        yield (rowid, row_tuple) if node.with_rowids else row_tuple


# ---------------------------------------------------------------------------
# row transforms
# ---------------------------------------------------------------------------

def _filter(node: phys.PhysFilter, ctx: ExecContext) -> Iterator:
    predicate = node.predicate_fn
    params = ctx.params
    cost = ctx.costs.predicate_eval
    for item in execute_plan(node.child, ctx):
        if isinstance(item, WaitLock):
            yield item
            continue
        ctx.charge(cost)
        if predicate(item, params) is True:
            yield item


def _project(node: phys.PhysProject, ctx: ExecContext) -> Iterator:
    fns = node.item_fns
    params = ctx.params
    cost = ctx.costs.project_per_row
    for item in execute_plan(node.child, ctx):
        if isinstance(item, WaitLock):
            yield item
            continue
        ctx.charge(cost)
        yield tuple(fn(item, params) for fn in fns)


def _limit(node: phys.PhysLimit, ctx: ExecContext) -> Iterator:
    remaining = node.count
    if remaining <= 0:
        return
    for item in execute_plan(node.child, ctx):
        if isinstance(item, WaitLock):
            yield item
            continue
        yield item
        remaining -= 1
        if remaining == 0:
            return


def _distinct(node: phys.PhysDistinct, ctx: ExecContext) -> Iterator:
    seen: set = set()
    cost = ctx.costs.hash_probe_per_row
    for item in execute_plan(node.child, ctx):
        if isinstance(item, WaitLock):
            yield item
            continue
        ctx.charge(cost)
        if item not in seen:
            seen.add(item)
            yield item


def _sort(node: phys.PhysSort, ctx: ExecContext) -> Iterator:
    rows: list[tuple] = []
    for item in execute_plan(node.child, ctx):
        if isinstance(item, WaitLock):
            yield item
            continue
        rows.append(item)
    ctx.charge(ctx.costs.sort_cost(len(rows)))
    params = ctx.params
    # stable sorts applied from the least-significant key to the most
    for key_fn, descending in reversed(list(zip(node.key_fns,
                                                node.descending))):
        rows.sort(
            key=lambda row, fn=key_fn: _sort_key(fn(row, params)),
            reverse=descending,
        )
    yield from rows


def _sort_key(value: Any) -> tuple:
    """NULLs sort lowest, ascending (so highest when descending)."""
    if value is None:
        return (0, 0)
    if isinstance(value, bool):
        return (1, int(value))
    return (1, value)


# ---------------------------------------------------------------------------
# joins
# ---------------------------------------------------------------------------

def _hash_join(node: phys.PhysHashJoin, ctx: ExecContext) -> Iterator:
    params = ctx.params
    costs = ctx.costs
    build: dict[tuple, list[tuple]] = {}
    right_width = 0
    for item in execute_plan(node.right, ctx):
        if isinstance(item, WaitLock):
            yield item
            continue
        ctx.charge(costs.hash_build_per_row)
        key = tuple(fn(item, params) for fn in node.right_key_fns)
        if any(k is None for k in key):
            continue  # NULL never joins
        build.setdefault(key, []).append(item)
        right_width = len(item)
    if not right_width:
        right_width = len(node.right.columns)
    null_right = (None,) * right_width
    residual = node.residual_fn
    for item in execute_plan(node.left, ctx):
        if isinstance(item, WaitLock):
            yield item
            continue
        ctx.charge(costs.hash_probe_per_row)
        key = tuple(fn(item, params) for fn in node.left_key_fns)
        matches = build.get(key, ()) if not any(k is None for k in key) else ()
        emitted = False
        for right_row in matches:
            combined = item + right_row
            if residual is not None:
                ctx.charge(costs.predicate_eval)
                if residual(combined, params) is not True:
                    continue
            emitted = True
            yield combined
        if node.kind == "LEFT" and not emitted:
            yield item + null_right


def _nl_join(node: phys.PhysNLJoin, ctx: ExecContext) -> Iterator:
    params = ctx.params
    costs = ctx.costs
    condition = node.condition_fn
    right_width = len(node.right.columns)
    null_right = (None,) * right_width
    for left_row in execute_plan(node.left, ctx):
        if isinstance(left_row, WaitLock):
            yield left_row
            continue
        emitted = False
        for right_row in execute_plan(node.right, ctx):
            if isinstance(right_row, WaitLock):
                yield right_row
                continue
            combined = left_row + right_row
            if condition is not None:
                ctx.charge(costs.predicate_eval)
                if condition(combined, params) is not True:
                    continue
            emitted = True
            yield combined
        if node.kind == "LEFT" and not emitted:
            yield left_row + null_right


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

_STDEV = StdevAgg()


class _AggState:
    """Running state for one aggregate in one group.

    STDEV keeps the LAT aggregate's Welford state, so SQL and LAT agree
    and values sharing a large offset do not cancel."""

    __slots__ = ("count", "total", "welford", "minimum", "maximum",
                 "distinct")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.welford = _STDEV.new_state()
        self.minimum: Any = None
        self.maximum: Any = None
        self.distinct: set | None = None

    def add(self, func: str, value: Any, distinct: bool) -> None:
        if func == "COUNT_STAR":
            self.count += 1
            return
        if value is None:
            return
        if distinct:
            if self.distinct is None:
                self.distinct = set()
            if value in self.distinct:
                return
            self.distinct.add(value)
        self.count += 1
        if func in ("SUM", "AVG"):
            self.total += value
        elif func == "STDEV":
            self.welford = _STDEV.update(self.welford, value)
        elif func == "MIN":
            if self.minimum is None or compare(value, self.minimum) < 0:
                self.minimum = value
        elif func == "MAX":
            if self.maximum is None or compare(value, self.maximum) > 0:
                self.maximum = value

    def result(self, func: str) -> Any:
        if func in ("COUNT", "COUNT_STAR"):
            return self.count
        if self.count == 0:
            return None
        if func == "SUM":
            return self.total
        if func == "AVG":
            return self.total / self.count
        if func == "MIN":
            return self.minimum
        if func == "MAX":
            return self.maximum
        if func == "STDEV":
            return _STDEV.result(self.welford)
        raise ExecutionError(f"unknown aggregate {func!r}")


def _aggregate(node: phys.PhysAggregate, ctx: ExecContext) -> Iterator:
    params = ctx.params
    cost = ctx.costs.agg_per_row
    groups: dict[tuple, list[_AggState]] = {}
    order: list[tuple] = []
    for item in execute_plan(node.child, ctx):
        if isinstance(item, WaitLock):
            yield item
            continue
        ctx.charge(cost)
        key = tuple(fn(item, params) for fn in node.group_fns)
        states = groups.get(key)
        if states is None:
            states = [_AggState() for __ in node.aggs]
            groups[key] = states
            order.append(key)
        for spec, state in zip(node.aggs, states):
            value = (spec.arg_fn(item, params)
                     if spec.arg_fn is not None else None)
            state.add(spec.func, value, spec.distinct)
    if node.scalar and not groups:
        states = [_AggState() for __ in node.aggs]
        yield tuple(state.result(spec.func)
                    for spec, state in zip(node.aggs, states))
        return
    for key in order:
        states = groups[key]
        yield key + tuple(state.result(spec.func)
                          for spec, state in zip(node.aggs, states))


# ---------------------------------------------------------------------------
# DML
# ---------------------------------------------------------------------------

def _insert(node: phys.PhysInsert, ctx: ExecContext) -> Iterator:
    yield from ctx.acquire_table_lock(node.table, "IX")
    table = ctx.table(node.table)
    schema = table.schema
    params = ctx.params
    target_ordinals = [schema.column_index(col) for col in node.target_columns]
    affected = 0
    for row_fns in node.row_fns:
        values: list[Any] = [None] * len(schema.columns)
        for ordinal, column in enumerate(schema.columns):
            if column.default is not None:
                values[ordinal] = column.default
        for ordinal, fn in zip(target_ordinals, row_fns):
            values[ordinal] = fn(_NO_ROW, params)
        ctx.charge(ctx.costs.row_insert)
        rowid = table.insert(values)
        yield from ctx.acquire_row_lock(node.table, rowid, "X")
        ctx.txn.record_undo("insert", node.table, rowid)
        affected += 1
    ctx.qctx.rows_affected = affected


def _update(node: phys.PhysUpdate, ctx: ExecContext) -> Iterator:
    table = ctx.table(node.table)
    params = ctx.params
    affected = 0
    for item in execute_plan(node.child, ctx):
        if isinstance(item, WaitLock):
            yield item
            continue
        rowid, row = item
        new_values = {
            ordinal: fn(row, params)
            for ordinal, fn in zip(node.assignment_ordinals,
                                   node.assignment_fns)
        }
        ctx.charge(ctx.costs.row_update)
        before = table.update(rowid, new_values)
        ctx.txn.record_undo("update", node.table, rowid, before)
        affected += 1
    ctx.qctx.rows_affected = affected


def _delete(node: phys.PhysDelete, ctx: ExecContext) -> Iterator:
    table = ctx.table(node.table)
    affected = 0
    for item in execute_plan(node.child, ctx):
        if isinstance(item, WaitLock):
            yield item
            continue
        rowid, __ = item
        ctx.charge(ctx.costs.row_delete)
        before = table.delete(rowid)
        ctx.txn.record_undo("delete", node.table, rowid, before)
        affected += 1
    ctx.qctx.rows_affected = affected
