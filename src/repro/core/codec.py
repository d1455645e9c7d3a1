"""Durable-state codec: one generic dump/load for checkpoints and the journal.

:func:`dump` turns monitor state into Python literals that
``ast.literal_eval`` reads back, and :func:`load` inverts it exactly.
``None``, ``bool``, ``int``, ``str``, ``bytes``, finite ``float``,
``list`` and ``dict`` are written as themselves; anything else becomes a
tagged tuple ``(tag, *payload)`` — ``("float", "inf")``, ``("set",
[...])``, ``("deque", [...], maxlen)``, ``("empty", "FirstAgg")`` for the
FIRST/LAST sentinels, ``("aging", func, spec, blocks)``, ``(ClassName,
{field: value})`` for a registered dataclass, and ``("tuple", *items)``
escaping a plain tuple whose first item is a tag string.

Each stateful class declares its persisted fields once: a registered
dataclass persists its fields minus those marked :data:`TRANSIENT`; a
long-lived object lists attributes in a ``_persisted`` tuple, dumps as a
``{field: value}`` image, and is brought back in place by
:func:`restore`.  Objects with no durable form (live callbacks) dump as
``None``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import fields as dataclass_fields
from typing import Any

from repro.core.aggregates import (AgingState, FirstAgg, LastAgg,
                                   aggregate_function)

#: dataclass field metadata: the codec skips this field
TRANSIENT = {"durable": False}

_ATOMS = frozenset({type(None), bool, int, str, bytes})
_EMPTY = {"FirstAgg": FirstAgg._EMPTY, "LastAgg": LastAgg._EMPTY}
#: registered value classes by tag, and each one's persisted fields
_CLASSES: dict[str, type] = {}
_FIELDS: dict[type, tuple[str, ...]] = {}
_TAGS = {"float", "set", "deque", "empty", "aging", "tuple"}


def register(*classes: type) -> None:
    """Make the dataclasses ``classes`` value classes of the codec; each
    persists its fields that are not :data:`TRANSIENT`."""
    for cls in classes:
        _CLASSES[cls.__name__] = cls
        _TAGS.add(cls.__name__)
        _FIELDS[cls] = tuple(f.name for f in dataclass_fields(cls)
                             if f.metadata.get("durable", True))


def dump(value: Any) -> Any:
    """Encode ``value`` as a ``literal_eval``-readable literal."""
    kind = type(value)
    if kind in _ATOMS:
        return value
    if kind is float:
        return value if math.isfinite(value) else ("float", repr(value))
    if kind is list:
        return [dump(item) for item in value]
    if kind is dict:
        return {dump(k): dump(v) for k, v in value.items()}
    if kind is tuple:
        items = tuple([dump(item) for item in value])
        if value and type(value[0]) is str and value[0] in _TAGS:
            return ("tuple",) + items
        return items
    names = _FIELDS.get(kind)
    if names is not None:
        return (kind.__name__,
                {name: dump(getattr(value, name)) for name in names})
    if kind is set:
        return ("set", sorted([dump(item) for item in value], key=repr))
    if kind is deque:
        return ("deque", [dump(item) for item in value], value.maxlen)
    if kind is AgingState:
        return ("aging", value.func.name, dump(value.spec),
                dump(list(value.blocks)))
    if hasattr(kind, "_persisted"):
        return state_image(value)
    if isinstance(value, float):  # a float subclass, e.g. numpy's
        return dump(float(value))
    for tag, sentinel in _EMPTY.items():
        if value is sentinel:
            return ("empty", tag)
    return None


def load(data: Any) -> Any:
    """Decode a literal produced by :func:`dump`."""
    kind = type(data)
    if kind is list:
        return [load(item) for item in data]
    if kind is dict:
        return {load(k): load(v) for k, v in data.items()}
    if kind is not tuple:
        return data
    tag = data[0] if data and type(data[0]) is str else None
    if tag == "tuple":
        return tuple([load(item) for item in data[1:]])
    if tag == "float":
        return float(data[1])
    if tag == "set":
        return {load(item) for item in data[1]}
    if tag == "deque":
        return deque((load(item) for item in data[1]), data[2])
    if tag == "empty":
        return _EMPTY[data[1]]
    if tag == "aging":
        state = AgingState(aggregate_function(data[1]), load(data[2]))
        state.blocks.extend(load(data[3]))
        return state
    cls = _CLASSES.get(tag)
    if cls is not None:
        return cls(**load(data[1]))
    return tuple([load(item) for item in data])


def state_image(obj: Any) -> dict:
    """``{field: dumped value}`` over ``obj``'s ``_persisted`` fields."""
    return {name: dump(getattr(obj, name)) for name in obj._persisted}


def restore(obj: Any, image: dict) -> None:
    """Apply a :func:`state_image` onto ``obj``.

    Nested ``_persisted`` objects (a stream query's window state, say)
    are restored in place; every other field is replaced by its loaded
    value.
    """
    for name in obj._persisted:
        value = image[name]
        current = getattr(obj, name)
        if value is not None and hasattr(type(current), "_persisted"):
            restore(current, value)
        else:
            setattr(obj, name, load(value))
