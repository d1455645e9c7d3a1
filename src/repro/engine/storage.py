"""In-memory table storage with primary-key and secondary indexes.

Rows are stored as lists keyed by a monotonically increasing rowid.  Each
index maintains both a hash map (point lookups) and a sorted key list (range
scans).  Storage is deliberately ignorant of transactions and locking; the
transaction manager layers undo logging on top and the lock manager guards
access.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from operator import is_, itemgetter
from typing import Any, Iterable, Iterator

from repro.engine.catalog import IndexDef, TableSchema
from repro.engine.types import STORED_TYPES, coerce
from repro.errors import ConstraintError, ExecutionError


class _OrderedKey:
    """Wraps an index key so heterogeneous NULLs sort first, SQL-style."""

    __slots__ = ("key",)

    def __init__(self, key: tuple):
        self.key = key

    def __lt__(self, other: "_OrderedKey") -> bool:
        for a, b in zip(self.key, other.key):
            if a is None and b is None:
                continue
            if a is None:
                return True
            if b is None:
                return False
            if a != b:
                return a < b
        return len(self.key) < len(other.key)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _OrderedKey) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:  # pragma: no cover
        return f"_OrderedKey({self.key!r})"


def _sort_keys(keys: list[tuple]) -> list[tuple]:
    """Distinct index keys in ``_OrderedKey`` order.

    Without NULL or NaN fields plain tuple order is the same order, and
    Python compares tuples in C; otherwise each comparison goes through
    ``_OrderedKey.__lt__``.
    """
    if all(v is not None and v == v for key in keys for v in key):
        return sorted(keys)
    return sorted(keys, key=_OrderedKey)


class Index:
    """One index structure: hash map plus sorted key list."""

    def __init__(self, definition: IndexDef, column_ordinals: tuple[int, ...]):
        self.definition = definition
        self.column_ordinals = column_ordinals
        self._map: dict[tuple, set[int]] = {}
        self._sorted: list[_OrderedKey] = []

    def key_of(self, row: list) -> tuple:
        return tuple(row[i] for i in self.column_ordinals)

    def insert(self, row: list, rowid: int) -> None:
        key = self.key_of(row)
        bucket = self._map.get(key)
        if bucket is None:
            self._map[key] = {rowid}
            insort(self._sorted, _OrderedKey(key))
        else:
            if self.definition.unique:
                raise ConstraintError(
                    f"duplicate key {key!r} in unique index {self.definition.name!r}"
                )
            bucket.add(rowid)

    def check_unique(self, row: list) -> None:
        """Raise if inserting ``row`` would violate uniqueness."""
        if self.definition.unique and self.key_of(row) in self._map:
            raise ConstraintError(
                f"duplicate key {self.key_of(row)!r} in unique index "
                f"{self.definition.name!r}"
            )

    def checked_keys(self, rows: Iterable[list]) -> list[tuple]:
        """The keys of ``rows``; raises if adding them all would violate
        uniqueness, within the batch or against keys already present."""
        ordinals = self.column_ordinals
        if len(ordinals) == 1:
            ordinal = ordinals[0]
            keys = [(row[ordinal],) for row in rows]
        else:
            keys = list(map(itemgetter(*ordinals), rows))
        if self.definition.unique:
            seen: set[tuple] = set()
            for key in keys:
                if key in seen or key in self._map:
                    raise ConstraintError(
                        f"duplicate key {key!r} in unique index "
                        f"{self.definition.name!r}"
                    )
                seen.add(key)
        return keys

    def build(self, keys: list[tuple], rowids: Iterable[int]) -> None:
        """Add one entry per (key, rowid) pair, sorting the keys once.

        ``keys`` come from :meth:`checked_keys`.  The new distinct keys
        and any already present are sorted together; the present ones
        form one sorted run, so the sort merges rather than re-sorts.
        """
        new_keys = []
        index_map = self._map
        for key, rowid in zip(keys, rowids):
            bucket = index_map.get(key)
            if bucket is None:
                index_map[key] = {rowid}
                new_keys.append(key)
            else:
                bucket.add(rowid)
        if not new_keys:
            return
        new_keys += [ordered.key for ordered in self._sorted]
        self._sorted = list(map(_OrderedKey, _sort_keys(new_keys)))

    def delete(self, row: list, rowid: int) -> None:
        key = self.key_of(row)
        bucket = self._map.get(key)
        if bucket is None or rowid not in bucket:
            raise ExecutionError(
                f"index {self.definition.name!r} is missing rowid {rowid}"
            )
        bucket.discard(rowid)
        if not bucket:
            del self._map[key]
            pos = bisect_left(self._sorted, _OrderedKey(key))
            if pos < len(self._sorted) and self._sorted[pos].key == key:
                del self._sorted[pos]

    def lookup(self, key: tuple) -> frozenset[int]:
        """Rowids whose index key equals ``key`` exactly."""
        return frozenset(self._map.get(tuple(key), ()))

    def range(self, low: tuple | None, high: tuple | None,
              low_inclusive: bool = True, high_inclusive: bool = True) -> Iterator[int]:
        """Rowids with keys in [low, high], in key order."""
        start = 0
        end = len(self._sorted)
        if low is not None:
            probe = _OrderedKey(tuple(low))
            start = bisect_left(self._sorted, probe) if low_inclusive else bisect_right(self._sorted, probe)
        if high is not None:
            probe = _OrderedKey(tuple(high))
            end = bisect_right(self._sorted, probe) if high_inclusive else bisect_left(self._sorted, probe)
        for pos in range(start, end):
            key = self._sorted[pos].key
            yield from sorted(self._map[key])

    def prefix_scan(self, prefix: tuple) -> Iterator[int]:
        """Rowids whose index key starts with ``prefix``, in key order."""
        yield from self.bounded_scan(prefix)

    def bounded_scan(self, prefix: tuple, low: Any = None, high: Any = None,
                     low_inclusive: bool = True,
                     high_inclusive: bool = True) -> Iterator[int]:
        """Rowids where key[:k] == prefix and the next key field is in bounds.

        ``low``/``high`` bound the key field at position ``len(prefix)``;
        either may be None for an open bound.  Keys are visited in order.
        """
        prefix = tuple(prefix)
        k = len(prefix)
        start = bisect_left(self._sorted, _OrderedKey(prefix))
        for pos in range(start, len(self._sorted)):
            key = self._sorted[pos].key
            if key[:k] != prefix:
                break
            if low is not None or high is not None:
                if len(key) <= k:
                    continue
                field_value = key[k]
                if field_value is None:
                    continue
                if low is not None:
                    if field_value < low or (field_value == low
                                             and not low_inclusive):
                        continue
                if high is not None:
                    if field_value > high or (field_value == high
                                              and not high_inclusive):
                        break
            yield from sorted(self._map[key])

    def __len__(self) -> int:
        return len(self._map)


class Table:
    """Row storage plus index maintenance for a single table."""

    def __init__(self, schema: TableSchema):
        self.schema = schema
        self._rows: dict[int, list] = {}
        self._next_rowid = 1
        self.indexes: dict[str, Index] = {}
        for index_def in schema.indexes.values():
            self._materialize_index(index_def)

    def _materialize_index(self, index_def: IndexDef) -> Index:
        ordinals = tuple(self.schema.column_index(c) for c in index_def.columns)
        index = Index(index_def, ordinals)
        index.build(index.checked_keys(self._rows.values()), self._rows)
        self.indexes[index_def.name] = index
        return index

    def add_index(self, index_def: IndexDef) -> Index:
        """Create and backfill a new secondary index."""
        self.schema.add_index(index_def)
        return self._materialize_index(index_def)

    # -- row access -----------------------------------------------------------

    @property
    def row_count(self) -> int:
        return len(self._rows)

    def page_count(self, rows_per_page: int) -> int:
        """Approximate number of data pages occupied by this table."""
        return max(1, -(-len(self._rows) // rows_per_page))

    def get(self, rowid: int) -> list | None:
        return self._rows.get(rowid)

    def scan(self) -> Iterator[tuple[int, list]]:
        """Iterate (rowid, row) in rowid order (physical order)."""
        yield from sorted(self._rows.items())

    def rowids(self) -> list[int]:
        return sorted(self._rows)

    # -- mutation -------------------------------------------------------------

    def prepare_row(self, values: Iterable[Any]) -> list:
        """Coerce a value sequence into a storable row and validate NULLs."""
        values = list(values)
        if len(values) != len(self.schema.columns):
            raise ExecutionError(
                f"table {self.schema.name!r} expects {len(self.schema.columns)} "
                f"values, got {len(values)}"
            )
        row = []
        for value, column in zip(values, self.schema.columns):
            stored = coerce(value, column.sql_type)
            if stored is None and not column.nullable:
                if column.default is not None:
                    stored = coerce(column.default, column.sql_type)
                else:
                    raise ConstraintError(
                        f"column {column.name!r} of table {self.schema.name!r} "
                        "is NOT NULL"
                    )
            row.append(stored)
        return row

    def insert(self, values: Iterable[Any]) -> int:
        """Insert a row, maintaining all indexes. Returns the new rowid."""
        row = self.prepare_row(values)
        for index in self.indexes.values():
            index.check_unique(row)
        rowid = self._next_rowid
        self._next_rowid += 1
        self._rows[rowid] = row
        for index in self.indexes.values():
            index.insert(row, rowid)
        return rowid

    def bulk_insert(self, rows: Iterable[Iterable[Any]]) -> int:
        """Insert many rows at once; returns how many.

        Every row is coerced and checked (types, NOT NULL, uniqueness
        within the batch and against present keys) before anything is
        stored, so a failing load leaves the table as it was.  A row whose
        values all have their column's stored type already is what
        :meth:`prepare_row` would make of it, and is copied as it is.
        Each index then sorts its new keys once instead of bisecting per
        row.
        """
        stored_types = [STORED_TYPES[c.sql_type] for c in self.schema.columns]
        prepared = []
        for values in rows:
            row = list(values)
            if len(row) != len(stored_types) or \
                    not all(map(is_, map(type, row), stored_types)):
                row = self.prepare_row(row)
            prepared.append(row)
        keyed = [(index, index.checked_keys(prepared))
                 for index in self.indexes.values()]
        rowids = range(self._next_rowid, self._next_rowid + len(prepared))
        self._rows.update(zip(rowids, prepared))
        self._next_rowid = rowids.stop
        for index, keys in keyed:
            index.build(keys, rowids)
        return len(prepared)

    def update(self, rowid: int, new_values: dict[int, Any]) -> list:
        """Update columns (by ordinal) of one row. Returns the before-image."""
        row = self._rows.get(rowid)
        if row is None:
            raise ExecutionError(f"rowid {rowid} not found in {self.schema.name!r}")
        before = list(row)
        after = list(row)
        for ordinal, value in new_values.items():
            column = self.schema.columns[ordinal]
            stored = coerce(value, column.sql_type)
            if stored is None and not column.nullable:
                raise ConstraintError(
                    f"column {column.name!r} of table {self.schema.name!r} "
                    "is NOT NULL"
                )
            after[ordinal] = stored
        for index in self.indexes.values():
            if index.key_of(before) != index.key_of(after):
                index.delete(before, rowid)
                try:
                    index.insert(after, rowid)
                except ConstraintError:
                    index.insert(before, rowid)  # restore before re-raising
                    raise
        self._rows[rowid] = after
        return before

    def delete(self, rowid: int) -> list:
        """Delete one row. Returns the before-image for undo."""
        row = self._rows.get(rowid)
        if row is None:
            raise ExecutionError(f"rowid {rowid} not found in {self.schema.name!r}")
        for index in self.indexes.values():
            index.delete(row, rowid)
        del self._rows[rowid]
        return row

    def restore(self, rowid: int, row: list) -> None:
        """Re-insert a deleted row under its original rowid (undo helper)."""
        if rowid in self._rows:
            raise ExecutionError(f"rowid {rowid} already present")
        self._rows[rowid] = list(row)
        for index in self.indexes.values():
            index.insert(self._rows[rowid], rowid)
        self._next_rowid = max(self._next_rowid, rowid + 1)

    def overwrite(self, rowid: int, row: list) -> None:
        """Replace a row wholesale with a before-image (undo helper)."""
        current = self._rows.get(rowid)
        if current is None:
            raise ExecutionError(f"rowid {rowid} not found for overwrite")
        for index in self.indexes.values():
            if index.key_of(current) != index.key_of(row):
                index.delete(current, rowid)
                index.insert(list(row), rowid)
        self._rows[rowid] = list(row)

    def truncate(self) -> None:
        """Remove all rows (used by tests and reporting-table resets)."""
        self._rows.clear()
        for index_def in list(self.indexes.values()):
            self.indexes[index_def.definition.name] = Index(
                index_def.definition, index_def.column_ordinals
            )
