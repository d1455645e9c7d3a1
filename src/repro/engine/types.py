"""SQL value types, coercion rules, and three-valued comparison logic.

NULL is represented by Python ``None``.  Comparison helpers implement SQL
semantics: any comparison involving NULL yields ``None`` (unknown), which the
executor treats as "not satisfied" in WHERE clauses, mirroring the paper's
host engine.
"""

from __future__ import annotations

import enum
from datetime import datetime
from typing import Any

from repro.errors import TypeMismatchError


class SQLType(enum.Enum):
    """The SQL types supported by the engine (and by SQLCM probes)."""

    INTEGER = "INTEGER"
    FLOAT = "FLOAT"
    STRING = "STRING"
    DATETIME = "DATETIME"
    BOOLEAN = "BOOLEAN"
    BLOB = "BLOB"

    def __repr__(self) -> str:  # pragma: no cover
        return f"SQLType.{self.name}"


_PYTHON_TYPES = {
    SQLType.INTEGER: (int,),
    SQLType.FLOAT: (float, int),
    SQLType.STRING: (str,),
    SQLType.DATETIME: (datetime, float, int),
    SQLType.BOOLEAN: (bool,),
    SQLType.BLOB: (bytes, str),
}

#: the Python type :func:`coerce` stores for each SQL type; it returns a
#: value of exactly this type unchanged
STORED_TYPES = {
    SQLType.INTEGER: int,
    SQLType.FLOAT: float,
    SQLType.STRING: str,
    SQLType.DATETIME: float,
    SQLType.BOOLEAN: bool,
    SQLType.BLOB: bytes,
}

_NUMERIC = (SQLType.INTEGER, SQLType.FLOAT)


def is_numeric(sql_type: SQLType) -> bool:
    """True for INTEGER and FLOAT."""
    return sql_type in _NUMERIC


def coerce(value: Any, sql_type: SQLType) -> Any:
    """Coerce ``value`` to the Python representation of ``sql_type``.

    NULL (None) passes through unchanged.  Raises
    :class:`~repro.errors.TypeMismatchError` if the value cannot represent
    the type.
    """
    if value is None:
        return None
    if sql_type is SQLType.INTEGER:
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, int):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
        raise TypeMismatchError(f"cannot store {value!r} as INTEGER")
    if sql_type is SQLType.FLOAT:
        if isinstance(value, bool):
            return float(value)
        if isinstance(value, (int, float)):
            return float(value)
        raise TypeMismatchError(f"cannot store {value!r} as FLOAT")
    if sql_type is SQLType.STRING:
        if isinstance(value, str):
            return value
        raise TypeMismatchError(f"cannot store {value!r} as STRING")
    if sql_type is SQLType.DATETIME:
        # Datetimes are stored as virtual-clock timestamps (float seconds).
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
        if isinstance(value, datetime):
            return value.timestamp()
        raise TypeMismatchError(f"cannot store {value!r} as DATETIME")
    if sql_type is SQLType.BOOLEAN:
        if isinstance(value, bool):
            return value
        if isinstance(value, int) and value in (0, 1):
            return bool(value)
        raise TypeMismatchError(f"cannot store {value!r} as BOOLEAN")
    if sql_type is SQLType.BLOB:
        if isinstance(value, bytes):
            return value
        if isinstance(value, str):
            return value.encode("utf-8")
        raise TypeMismatchError(f"cannot store {value!r} as BLOB")
    raise TypeMismatchError(f"unknown SQL type {sql_type!r}")  # pragma: no cover


def infer_type(value: Any) -> SQLType:
    """Infer the SQL type of a Python literal (used for computed columns)."""
    if isinstance(value, bool):
        return SQLType.BOOLEAN
    if isinstance(value, int):
        return SQLType.INTEGER
    if isinstance(value, float):
        return SQLType.FLOAT
    if isinstance(value, str):
        return SQLType.STRING
    if isinstance(value, bytes):
        return SQLType.BLOB
    if isinstance(value, datetime):
        return SQLType.DATETIME
    raise TypeMismatchError(f"cannot infer SQL type of {value!r}")


def compare(left: Any, right: Any) -> int | None:
    """SQL comparison: -1/0/+1, or None when either side is NULL."""
    if left is None or right is None:
        return None
    if isinstance(left, bool) or isinstance(right, bool):
        left, right = int(left), int(right)
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return (left > right) - (left < right)
    if isinstance(left, str) and isinstance(right, str):
        return (left > right) - (left < right)
    if isinstance(left, bytes) and isinstance(right, bytes):
        return (left > right) - (left < right)
    raise TypeMismatchError(f"cannot compare {left!r} with {right!r}")


def sql_equal(left: Any, right: Any) -> bool | None:
    """SQL equality with NULL → unknown."""
    cmp = compare(left, right)
    return None if cmp is None else cmp == 0


def sql_and(left: bool | None, right: bool | None) -> bool | None:
    """Three-valued AND."""
    if left is False or right is False:
        return False
    if left is None or right is None:
        return None
    return True


def sql_or(left: bool | None, right: bool | None) -> bool | None:
    """Three-valued OR."""
    if left is True or right is True:
        return True
    if left is None or right is None:
        return None
    return False


def sql_not(value: bool | None) -> bool | None:
    """Three-valued NOT."""
    return None if value is None else not value


def arithmetic(op: str, left: Any, right: Any) -> Any:
    """SQL arithmetic with NULL propagation and integer/float promotion."""
    if left is None or right is None:
        return None
    if not isinstance(left, (int, float)) or not isinstance(right, (int, float)):
        if op == "+" and isinstance(left, str) and isinstance(right, str):
            return left + right
        raise TypeMismatchError(f"cannot apply {op!r} to {left!r} and {right!r}")
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            return None  # SQL Server raises; we follow NULL-on-zero-divide
        result = left / right
        if isinstance(left, int) and isinstance(right, int):
            return int(result) if float(result).is_integer() else result
        return result
    if op == "%":
        if right == 0:
            return None
        return left % right
    raise TypeMismatchError(f"unknown arithmetic operator {op!r}")
