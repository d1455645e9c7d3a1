"""Monitored objects: probe values assembled on demand.

Section 4.1: probes are "assembled into monitored objects on demand (i.e.,
at the time of rule-evaluation)".  A :class:`MonitoredObject` therefore holds
a reference to its source (a :class:`~repro.engine.query.QueryContext`, a
transaction, a timer, a meta-event payload) and reads attribute values
lazily when a rule condition or a LAT insert asks for them.  How each
attribute is read is declared once, in :mod:`repro.core.schema`; the
:class:`ObjectFactory` binds those probes to its monitor once per class.
"""

from __future__ import annotations

from functools import partial
from operator import attrgetter, methodcaller
from typing import Any, Callable

from repro.core.schema import MonitoredClassDef, TransactionSource
from repro.errors import SchemaError

#: a probe bound to its monitor: ``probe(source) -> value``
_BoundProbe = Callable[[Any], Any]


class MonitoredObject:
    """One instance of a monitored class with lazy probe extraction.

    ``extractors`` maps lowercase attribute names to bound probes called
    with ``source``; ``extra`` holds values supplied with the object and
    takes precedence over a probe."""

    __slots__ = ("class_def", "_extractors", "_extra", "source")

    def __init__(self, class_def: MonitoredClassDef,
                 extractors: dict[str, _BoundProbe],
                 extra: dict[str, Any] | None = None,
                 source: Any = None):
        self.class_def = class_def
        self._extractors = extractors
        self._extra = extra or {}
        self.source = source

    @property
    def class_name(self) -> str:
        return self.class_def.name

    def get(self, attribute: str) -> Any:
        """Probe one attribute (case-insensitive)."""
        key = attribute.lower()
        if key in self._extra:
            return self._extra[key]
        extractor = self._extractors.get(key)
        if extractor is None:
            raise SchemaError(
                f"class {self.class_name} exposes no probe {attribute!r}"
            )
        return extractor(self.source)

    def snapshot(self, attributes: list[str] | None = None) -> dict[str, Any]:
        """Materialize attribute values into a plain dict."""
        if attributes is None:
            attributes = list(self.class_def.attributes)
        return {name: self.get(name) for name in attributes}

    def __repr__(self) -> str:  # pragma: no cover
        return f"MonitoredObject({self.class_name})"


class ObjectFactory:
    """Builds monitored objects from the schema's probes.

    Each class's probes are bound to the SQLCM engine once, on first use
    (so classes registered later work too): a name probe becomes an
    attribute getter (a payload ``get`` for payload classes), a computed
    probe is given the engine, which cross-cutting probes need
    (``Number_of_instances`` reads SQLCM's per-signature instance counter;
    transaction signatures come from the signature registry).
    """

    def __init__(self, sqlcm):
        self._sqlcm = sqlcm
        self._bound: dict[str, tuple[MonitoredClassDef,
                                     dict[str, _BoundProbe]]] = {}

    def make(self, class_name: str, source: Any,
             extra: dict[str, Any] | None = None) -> MonitoredObject:
        """One object of ``class_name`` reading ``source``."""
        bound = self._bound.get(class_name)
        if bound is None:
            cls = self._sqlcm.schema.monitored_class(class_name)
            bound = self._bound[class_name] = (cls, self._bind(cls))
        cls, probes = bound
        return MonitoredObject(cls, probes, extra, source)

    def _bind(self, cls: MonitoredClassDef) -> dict[str, _BoundProbe]:
        bound: dict[str, _BoundProbe] = {}
        for key, probe in cls.probes.items():
            if not isinstance(probe, str):
                bound[key] = partial(probe, self._sqlcm)
            elif cls.reads_payload:
                bound[key] = methodcaller("get", probe)
            else:
                bound[key] = attrgetter(probe)
        return bound

    def query(self, qctx) -> MonitoredObject:
        return self.make("Query", qctx)

    def blocker(self, qctx, resource,
                wait_time: float = 0.0) -> MonitoredObject:
        return self.make("Blocker", qctx, _conflict(resource, wait_time))

    def blocked(self, qctx, resource, wait_time: float) -> MonitoredObject:
        return self.make("Blocked", qctx, _conflict(resource, wait_time))

    def transaction(self, txn, statements: list) -> MonitoredObject:
        return self.make("Transaction", TransactionSource(txn, statements))

    def session(self, session) -> MonitoredObject:
        """Wrap an engine session (successful login/logout events)."""
        return self.make("Session", session)

    def failed_login(self, payload: dict) -> MonitoredObject:
        """A Session object for a *failed* login (no real session exists)."""
        return self.make("Session", None, {
            "id": 0, "user": payload.get("user"),
            "application": payload.get("application"),
            "login_time": payload.get("time"),
        })

    def timer(self, timer) -> MonitoredObject:
        return self.make("Timer", timer)

    def evicted_row(self, lat_name: str, row_values: dict[str, Any]
                    ) -> MonitoredObject:
        """An evicted LAT row: its columns plus ``LAT_Name``."""
        extra = {key.lower(): value for key, value in row_values.items()}
        extra["lat_name"] = lat_name
        return self.make("Evicted", row_values, extra)


def _conflict(resource, wait_time: float) -> dict[str, Any]:
    """The Blocker/Blocked attributes of the current lock conflict."""
    return {"wait_time": wait_time, "resource": str(resource)}
