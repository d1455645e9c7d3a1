"""Tests for table storage and index maintenance."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engine.catalog import ColumnDef, IndexDef, TableSchema
from repro.engine.storage import Table
from repro.engine.types import SQLType
from repro.errors import ConstraintError, ExecutionError


@pytest.fixture
def table():
    schema = TableSchema("t", [
        ColumnDef("id", SQLType.INTEGER, nullable=False),
        ColumnDef("name", SQLType.STRING),
        ColumnDef("price", SQLType.FLOAT),
    ], primary_key=["id"])
    return Table(schema)


class TestInsert:
    def test_insert_assigns_increasing_rowids(self, table):
        r1 = table.insert([1, "a", 1.0])
        r2 = table.insert([2, "b", 2.0])
        assert r2 > r1
        assert table.row_count == 2

    def test_insert_coerces_values(self, table):
        rowid = table.insert([1, "a", 3])
        assert table.get(rowid)[2] == 3.0

    def test_unique_violation(self, table):
        table.insert([1, "a", 1.0])
        with pytest.raises(ConstraintError):
            table.insert([1, "b", 2.0])

    def test_not_null_enforced(self, table):
        with pytest.raises(ConstraintError):
            table.insert([None, "a", 1.0])

    def test_wrong_arity_rejected(self, table):
        with pytest.raises(ExecutionError):
            table.insert([1, "a"])

    def test_unique_failure_leaves_indexes_consistent(self, table):
        table.insert([1, "a", 1.0])
        with pytest.raises(ConstraintError):
            table.insert([1, "b", 2.0])
        assert table.row_count == 1
        assert len(table.indexes["pk_t"]) == 1


class TestUpdateDelete:
    def test_update_changes_values_and_returns_before_image(self, table):
        rowid = table.insert([1, "a", 1.0])
        before = table.update(rowid, {2: 9.0})
        assert before == [1, "a", 1.0]
        assert table.get(rowid) == [1, "a", 9.0]

    def test_update_maintains_indexes(self, table):
        rowid = table.insert([1, "a", 1.0])
        table.insert([2, "b", 2.0])
        table.update(rowid, {0: 5})
        pk = table.indexes["pk_t"]
        assert pk.lookup((1,)) == frozenset()
        assert pk.lookup((5,)) == {rowid}

    def test_update_unique_conflict_restores_index(self, table):
        r1 = table.insert([1, "a", 1.0])
        table.insert([2, "b", 2.0])
        with pytest.raises(ConstraintError):
            table.update(r1, {0: 2})
        assert table.indexes["pk_t"].lookup((1,)) == {r1}

    def test_update_missing_rowid(self, table):
        with pytest.raises(ExecutionError):
            table.update(99, {1: "x"})

    def test_delete_returns_before_image(self, table):
        rowid = table.insert([1, "a", 1.0])
        assert table.delete(rowid) == [1, "a", 1.0]
        assert table.get(rowid) is None
        assert table.indexes["pk_t"].lookup((1,)) == frozenset()

    def test_restore_reinserts_under_same_rowid(self, table):
        rowid = table.insert([1, "a", 1.0])
        image = table.delete(rowid)
        table.restore(rowid, image)
        assert table.get(rowid) == [1, "a", 1.0]
        assert table.indexes["pk_t"].lookup((1,)) == {rowid}

    def test_overwrite_applies_before_image(self, table):
        rowid = table.insert([1, "a", 1.0])
        before = table.update(rowid, {0: 7, 1: "z"})
        table.overwrite(rowid, before)
        assert table.get(rowid) == [1, "a", 1.0]
        assert table.indexes["pk_t"].lookup((7,)) == frozenset()

    def test_truncate(self, table):
        table.insert([1, "a", 1.0])
        table.truncate()
        assert table.row_count == 0
        assert len(table.indexes["pk_t"]) == 0


class TestSecondaryIndexes:
    def test_backfill_on_creation(self, table):
        table.insert([1, "a", 5.0])
        table.insert([2, "b", 5.0])
        index = table.add_index(IndexDef("ix_price", "t", ("price",)))
        assert index.lookup((5.0,)) == {1, 2}

    def test_non_unique_allows_duplicates(self, table):
        table.add_index(IndexDef("ix_name", "t", ("name",)))
        table.insert([1, "same", 1.0])
        table.insert([2, "same", 2.0])
        assert len(table.indexes["ix_name"].lookup(("same",))) == 2


class TestRangeScans:
    @pytest.fixture
    def loaded(self, table):
        for i in range(1, 11):
            table.insert([i, f"n{i}", float(i)])
        return table

    def test_full_range(self, loaded):
        index = loaded.indexes["pk_t"]
        assert list(index.range(None, None)) == list(range(1, 11))

    def test_bounded_range_inclusive(self, loaded):
        index = loaded.indexes["pk_t"]
        rows = [loaded.get(r)[0] for r in index.range((3,), (6,))]
        assert rows == [3, 4, 5, 6]

    def test_bounded_range_exclusive(self, loaded):
        index = loaded.indexes["pk_t"]
        rows = [loaded.get(r)[0]
                for r in index.range((3,), (6,), False, False)]
        assert rows == [4, 5]

    def test_prefix_scan_on_composite_key(self):
        schema = TableSchema("c", [
            ColumnDef("a", SQLType.INTEGER, nullable=False),
            ColumnDef("b", SQLType.INTEGER, nullable=False),
        ], primary_key=["a", "b"])
        table = Table(schema)
        for a in (1, 2):
            for b in (1, 2, 3):
                table.insert([a, b])
        index = table.indexes["pk_c"]
        rows = [table.get(r) for r in index.prefix_scan((2,))]
        assert rows == [[2, 1], [2, 2], [2, 3]]

    def test_bounded_scan_with_prefix_and_range(self):
        schema = TableSchema("c", [
            ColumnDef("a", SQLType.INTEGER, nullable=False),
            ColumnDef("b", SQLType.INTEGER, nullable=False),
        ], primary_key=["a", "b"])
        table = Table(schema)
        for a in (1, 2):
            for b in range(1, 6):
                table.insert([a, b])
        index = table.indexes["pk_c"]
        rows = [table.get(r) for r in index.bounded_scan((2,), low=2, high=4)]
        assert rows == [[2, 2], [2, 3], [2, 4]]

    def test_bounded_scan_open_low(self):
        schema = TableSchema("c", [
            ColumnDef("a", SQLType.INTEGER, nullable=False),
        ], primary_key=["a"])
        table = Table(schema)
        for a in range(1, 6):
            table.insert([a])
        index = table.indexes["pk_c"]
        rows = [table.get(r)[0]
                for r in index.bounded_scan((), high=3)]
        assert rows == [1, 2, 3]

    def test_scan_order_is_rowid_order(self, loaded):
        rowids = [rowid for rowid, __ in loaded.scan()]
        assert rowids == sorted(rowids)

    def test_page_count(self, loaded):
        assert loaded.page_count(rows_per_page=3) == 4
        assert loaded.page_count(rows_per_page=100) == 1


class TestBulkInsert:
    """``bulk_insert`` (and the CREATE INDEX backfill, which shares its
    index build) must leave exactly what one ``insert`` per row leaves."""

    LOADED = (IndexDef("ix_gh", "b", ("g", "h")),)
    LATER = (IndexDef("ix_hv", "b", ("h", "v")),
             IndexDef("ux_idg", "b", ("id", "g"), unique=True))

    @staticmethod
    def _table(indexes) -> Table:
        schema = TableSchema("b", [
            ColumnDef("id", SQLType.INTEGER, nullable=False),
            ColumnDef("g", SQLType.INTEGER),
            ColumnDef("h", SQLType.STRING),
            ColumnDef("v", SQLType.FLOAT),
        ], primary_key=["id"])
        for index in indexes:
            schema.add_index(index)
        return Table(schema)

    maybe_g = st.none() | st.integers(0, 3)
    maybe_h = st.none() | st.sampled_from("abc")
    maybe_v = st.none() | st.integers(-2, 2) | st.sampled_from(
        [-1.5, -0.0, 0.0, 0.5, 2.0])

    @given(
        ids=st.lists(st.integers(-50, 50), unique=True, max_size=30),
        split=st.integers(0, 30),
        data=st.data(),
    )
    def test_bulk_equals_row_at_a_time(self, ids, split, data):
        rows = [[i, data.draw(self.maybe_g), data.draw(self.maybe_h),
                 data.draw(self.maybe_v)] for i in ids]
        present, batch = rows[:split], rows[split:]

        reference = self._table(self.LOADED + self.LATER)
        for row in rows:
            reference.insert(row)

        loaded = self._table(self.LOADED)
        for row in present:
            loaded.insert(row)
        assert loaded.bulk_insert(iter(batch)) == len(batch)
        for index in self.LATER:
            loaded.add_index(index)

        # repr, so a row stored as 1 where insert stores 1.0 differs
        assert repr(loaded._rows) == repr(reference._rows)
        assert loaded._next_rowid == reference._next_rowid
        assert loaded.indexes.keys() == reference.indexes.keys()
        for name, index in reference.indexes.items():
            subject = loaded.indexes[name]
            assert subject._map == index._map
            assert [repr(k.key) for k in subject._sorted] == \
                [repr(k.key) for k in index._sorted]

        low, high = data.draw(self.maybe_g), data.draw(self.maybe_g)
        low_inc, high_inc = data.draw(st.booleans()), data.draw(st.booleans())
        for name, bounds in (("pk_b", ((low,), (high,))),
                             ("ix_gh", ((low, "b"), (high, None))),
                             ("ix_hv", (None, ("b", 1.0)))):
            bounds = tuple(None if b is None or b[0] is None else b
                           for b in bounds)
            assert list(loaded.indexes[name].range(
                *bounds, low_inc, high_inc)) == list(
                reference.indexes[name].range(*bounds, low_inc, high_inc))
        lo_h, hi_h = data.draw(self.maybe_h), data.draw(self.maybe_h)
        for prefix, lo, hi in (((), low, high), ((low,), lo_h, hi_h)):
            assert list(loaded.indexes["ix_gh"].bounded_scan(
                prefix, lo, hi, low_inc, high_inc)) == list(
                reference.indexes["ix_gh"].bounded_scan(
                    prefix, lo, hi, low_inc, high_inc))

    def test_unique_backfill_rejects_duplicates(self, table):
        table.bulk_insert([[1, "a", 1.0], [2, "a", 2.0]])
        with pytest.raises(ConstraintError):
            table.add_index(IndexDef("ux_name", "t", ("name",), unique=True))
        assert "ux_name" not in table.indexes
