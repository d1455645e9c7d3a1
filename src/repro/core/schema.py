"""The SQLCM schema: monitored classes, their attributes with the probe
that reads each one, and their events.

This is the paper's Appendix A.  Five monitored classes are exposed:
``Query``, ``Transaction``, ``Blocker``, ``Blocked``, and ``Timer``.
``Blocker``/``Blocked`` share the Query schema (they *are* queries, viewed
through a lock conflict) plus a ``Wait_Time`` attribute for the current
conflict.  ``User`` and ``Application`` attributes are included because
Section 2.3 groups queries "by the application (or user) that issued them".

Every attribute is declared once, here, together with its probe (§4.1):
the name of an attribute on the engine object a monitored object wraps,
or ``fn(sqlcm, source)`` for a computed value.  The meta-event classes
(``RuleFailure``, ``StreamAlert``, ``Governor``, ``Incident``,
``Remediation``) read their event's payload dict instead, where a name
probe is a payload key.  :mod:`repro.core.objects` binds these probes.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, NamedTuple, Union

from repro.engine.types import SQLType
from repro.errors import SchemaError

#: how an attribute is read from an object's source: the name (or dotted
#: path) of an attribute on it, a payload key for payload classes, or
#: ``fn(sqlcm, source)`` for a computed value
Probe = Union[str, Callable[[Any, Any], Any]]

#: attributes whose values need statement signatures, so a rule, LAT or
#: stream query reading one turns signature computation on
SIGNATURE_ATTRIBUTES = frozenset(
    {"logical_signature", "physical_signature", "number_of_instances"})


@dataclass(frozen=True)
class AttributeDef:
    """One probe exposed as an attribute of a monitored class.

    ``probe`` defaults to the attribute's lowercase name."""

    name: str
    sql_type: SQLType
    doc: str = ""
    probe: Probe | None = None


@dataclass(frozen=True)
class EventDef:
    """One event of a monitored class, tied to an engine event name."""

    name: str
    engine_event: str
    doc: str = ""


class MonitoredClassDef:
    """A monitored class: attribute, probe and event registries.

    ``reads_payload`` marks a meta-event class whose objects read their
    event's payload dict rather than an engine object."""

    def __init__(self, name: str, attributes: list[AttributeDef],
                 events: list[EventDef], reads_payload: bool = False):
        self.name = name
        self.attributes: dict[str, AttributeDef] = {
            a.name.lower(): a for a in attributes
        }
        self.probes: dict[str, Probe] = {
            key: a.probe or key for key, a in self.attributes.items()
        }
        self.events: dict[str, EventDef] = {e.name.lower(): e for e in events}
        self.reads_payload = reads_payload

    def attribute(self, name: str) -> AttributeDef:
        try:
            return self.attributes[name.lower()]
        except KeyError:
            raise SchemaError(
                f"class {self.name} has no attribute {name!r}"
            ) from None

    def has_attribute(self, name: str) -> bool:
        return name.lower() in self.attributes

    def event(self, name: str) -> EventDef:
        try:
            return self.events[name.lower()]
        except KeyError:
            raise SchemaError(
                f"class {self.name} has no event {name!r}"
            ) from None


class SQLCMSchema:
    """The complete schema: all monitored classes, indexed by name."""

    def __init__(self, classes: list[MonitoredClassDef]):
        self._classes: dict[str, MonitoredClassDef] = {}
        self._payload_classes: dict[str, MonitoredClassDef] = {}
        for cls in classes:
            self.register_class(cls)

    def monitored_class(self, name: str) -> MonitoredClassDef:
        try:
            return self._classes[name.lower()]
        except KeyError:
            raise SchemaError(f"unknown monitored class {name!r}") from None

    def has_class(self, name: str) -> bool:
        return name.lower() in self._classes

    def classes(self) -> list[MonitoredClassDef]:
        return list(self._classes.values())

    def payload_class(self, engine_event: str) -> MonitoredClassDef | None:
        """The payload-reading class whose event is ``engine_event``."""
        return self._payload_classes.get(engine_event)

    def resolve_event(self, spec: str) -> tuple[MonitoredClassDef, EventDef]:
        """Resolve a ``Class.Event`` rule event spec."""
        if "." not in spec:
            raise SchemaError(
                f"event spec {spec!r} must have the form Class.Event"
            )
        class_name, __, event_name = spec.partition(".")
        cls = self.monitored_class(class_name)
        return cls, cls.event(event_name)

    def register_class(self, cls: MonitoredClassDef) -> None:
        """Extension point: add a new monitored class (paper Section 4.1
        describes a generic interface to integrate new monitored objects)."""
        key = cls.name.lower()
        if key in self._classes:
            raise SchemaError(f"class {cls.name!r} already registered")
        self._classes[key] = cls
        if cls.reads_payload:
            for event in cls.events.values():
                self._payload_classes[event.engine_event] = cls


# -- computed probes: fn(sqlcm, source) ---------------------------------------

def _now(sqlcm, source) -> float:
    return sqlcm.server.clock.now


class TransactionSource(NamedTuple):
    """What a Transaction object reads: the transaction and the statements
    it ran (the event payload's snapshot of its statement log)."""

    txn: Any
    statements: list


def _txn_signature(physical: bool) -> Probe:
    return lambda sqlcm, source: sqlcm.transaction_signature(
        source.statements, physical=physical)


def _txn_duration(sqlcm, source: TransactionSource) -> float:
    txn = source.txn
    end = txn.end_time if txn.end_time is not None else sqlcm.server.clock.now
    return max(0.0, end - txn.start_time)


def _txn_sum(attribute: str) -> Probe:
    read = attrgetter(attribute)
    return lambda sqlcm, source: sum(map(read, source.statements))


def _txn_first(attribute: str) -> Probe:
    return lambda sqlcm, source: (getattr(source.statements[0], attribute)
                                  if source.statements else "")


def _payload_get(key: str, default: Any) -> Probe:
    """A payload read that answers ``default`` when ``key`` is missing."""
    return lambda sqlcm, payload: payload.get(key, default)


def _query_attributes() -> list[AttributeDef]:
    return [
        AttributeDef("ID", SQLType.INTEGER, "query id", "query_id"),
        AttributeDef("Query_Text", SQLType.STRING, "query text string",
                     "text"),
        AttributeDef("Logical_Signature", SQLType.BLOB,
                     "logical query signature (Section 4.2)"),
        AttributeDef("Physical_Signature", SQLType.BLOB,
                     "physical plan signature (Section 4.2)"),
        AttributeDef("Start_Time", SQLType.DATETIME, "virtual start time"),
        AttributeDef("Duration", SQLType.FLOAT,
                     "total execution time so far (seconds)",
                     lambda sqlcm, q: q.duration_at(sqlcm.server.clock.now)),
        AttributeDef("Estimated_Cost", SQLType.FLOAT,
                     "optimizer cost estimate"),
        AttributeDef("Time_Blocked", SQLType.FLOAT,
                     "total time spent waiting on locks"),
        AttributeDef("Times_Blocked", SQLType.INTEGER,
                     "number of lock waits"),
        AttributeDef("Queries_Blocked", SQLType.INTEGER,
                     "number of queries this query blocked"),
        AttributeDef("Time_Blocking_Others", SQLType.FLOAT,
                     "total delay imposed on other queries"),
        AttributeDef("Number_of_instances", SQLType.INTEGER,
                     "executions sharing this logical signature",
                     lambda sqlcm, q: sqlcm.instance_count(
                         q.logical_signature)),
        AttributeDef("Query_Type", SQLType.STRING,
                     "UPDATE | SELECT | INSERT | DELETE"),
        AttributeDef("User", SQLType.STRING, "login that issued the query"),
        AttributeDef("Application", SQLType.STRING,
                     "application that issued the query"),
        AttributeDef("Rows_Affected", SQLType.INTEGER,
                     "rows returned or modified"),
        AttributeDef("Estimated_Rows", SQLType.FLOAT,
                     "optimizer cardinality estimate at the plan root",
                     lambda sqlcm, q: (q.plan.estimated_rows
                                       if q.plan is not None else 0.0)),
        AttributeDef("Actual_Rows", SQLType.INTEGER,
                     "rows actually produced/modified (drives the "
                     "statistics-drift monitor of Section 2.1)",
                     lambda sqlcm, q: (len(q.result_rows)
                                       if q.query_type == "SELECT"
                                       else q.rows_affected)),
    ]


def _blocked_pair_attributes() -> list[AttributeDef]:
    # the two conflict attributes always arrive as the object's extra
    # values (ObjectFactory.blocker / blocked)
    return _query_attributes() + [
        AttributeDef("Wait_Time", SQLType.FLOAT,
                     "time waited in the current lock conflict"),
        AttributeDef("Resource", SQLType.STRING,
                     "lock resource in conflict"),
    ]


QUERY_CLASS = MonitoredClassDef(
    "Query",
    _query_attributes(),
    [
        EventDef("Start", "query.start"),
        EventDef("Compile", "query.compile"),
        EventDef("Commit", "query.commit"),
        EventDef("Cancel", "query.cancel"),
        EventDef("Rollback", "query.rollback"),
        EventDef("Blocked", "query.blocked"),
        EventDef("Block_Released", "query.block_released"),
    ],
)

TRANSACTION_CLASS = MonitoredClassDef(
    "Transaction",
    [
        AttributeDef("ID", SQLType.INTEGER, probe="txn.txn_id"),
        AttributeDef("Query_Text", SQLType.STRING,
                     "concatenated statement texts",
                     lambda sqlcm, source: "; ".join(
                         q.text for q in source.statements)),
        AttributeDef("Logical_Signature", SQLType.BLOB,
                     "logical transaction signature (sequence of ids)",
                     _txn_signature(physical=False)),
        AttributeDef("Physical_Signature", SQLType.BLOB,
                     "physical transaction signature (sequence of ids)",
                     _txn_signature(physical=True)),
        AttributeDef("Start_Time", SQLType.DATETIME, probe="txn.start_time"),
        AttributeDef("Duration", SQLType.FLOAT, probe=_txn_duration),
        AttributeDef("Estimated_Cost", SQLType.FLOAT,
                     "sum over statements", _txn_sum("estimated_cost")),
        AttributeDef("Time_Blocked", SQLType.FLOAT,
                     probe=_txn_sum("time_blocked")),
        AttributeDef("Times_Blocked", SQLType.INTEGER,
                     probe=_txn_sum("times_blocked")),
        AttributeDef("Queries_Blocked", SQLType.INTEGER,
                     probe=_txn_sum("queries_blocked")),
        AttributeDef("Statement_Count", SQLType.INTEGER,
                     probe=lambda sqlcm, source: len(source.statements)),
        AttributeDef("User", SQLType.STRING, probe=_txn_first("user")),
        AttributeDef("Application", SQLType.STRING,
                     probe=_txn_first("application")),
    ],
    [
        EventDef("Begin", "txn.begin"),
        EventDef("Commit", "txn.commit"),
        EventDef("Rollback", "txn.rollback"),
    ],
)

BLOCKER_CLASS = MonitoredClassDef("Blocker", _blocked_pair_attributes(), [])
BLOCKED_CLASS = MonitoredClassDef("Blocked", _blocked_pair_attributes(), [])

SESSION_CLASS = MonitoredClassDef(
    "Session",
    [
        AttributeDef("ID", SQLType.INTEGER, "session id (0 on failed login)",
                     "session_id"),
        AttributeDef("User", SQLType.STRING),
        AttributeDef("Application", SQLType.STRING),
        AttributeDef("Login_Time", SQLType.DATETIME, probe=_now),
    ],
    [
        EventDef("Login", "session.login"),
        EventDef("Login_Failed", "session.login_failed",
                 "a credential check failed (Example 4b auditing)"),
        EventDef("Logout", "session.logout"),
    ],
)

TIMER_CLASS = MonitoredClassDef(
    "Timer",
    [
        AttributeDef("ID", SQLType.INTEGER, probe="timer_id"),
        AttributeDef("Name", SQLType.STRING),
        AttributeDef("Current_Time", SQLType.DATETIME,
                     "current virtual time", _now),
        AttributeDef("Interval", SQLType.FLOAT, "seconds between alerts"),
        AttributeDef("Remaining_Alarms", SQLType.INTEGER,
                     "alarms left (negative = infinite)", "remaining"),
    ],
    [EventDef("Alert", "timer.alert")],
)

EVICTED_ROW_CLASS = MonitoredClassDef(
    "Evicted",
    [],  # attributes are the evicting LAT's columns, resolved dynamically
    [EventDef("Evict", "lat.evict")],
)

RULE_FAILURE_CLASS = MonitoredClassDef(
    "RuleFailure",
    [
        AttributeDef("Rule_Name", SQLType.STRING, "the rule that failed",
                     "rule"),
        AttributeDef("Site", SQLType.STRING,
                     "failure site: condition | action | evaluate"),
        AttributeDef("Error", SQLType.STRING, "error message"),
        AttributeDef("Error_Count", SQLType.INTEGER,
                     "total failures of this rule so far",
                     _payload_get("error_count", 0)),
        AttributeDef("Quarantined", SQLType.BOOLEAN,
                     "did this failure trip the circuit breaker?",
                     _payload_get("quarantined", False)),
        AttributeDef("Current_Time", SQLType.DATETIME,
                     "virtual time of the failure", "time"),
    ],
    [EventDef("Error", "sqlcm.rule_error",
              "a rule failed inside the isolation boundary "
              "(meta-monitoring: rules can watch rule failures)")],
    reads_payload=True,
)

STREAM_ALERT_CLASS = MonitoredClassDef(
    "StreamAlert",
    [
        AttributeDef("Stream_Name", SQLType.STRING,
                     "the stream query that emitted the alert", "stream"),
        AttributeDef("Kind", SQLType.STRING,
                     "window | having | deviation | topk"),
        AttributeDef("Group_Key", SQLType.STRING,
                     "rendered GROUP BY key of the window row", "group"),
        AttributeDef("Aggregate", SQLType.STRING,
                     "output column that triggered the alert", "column"),
        AttributeDef("Value", SQLType.FLOAT,
                     "value of that column in the alerting window"),
        AttributeDef("Baseline", SQLType.FLOAT,
                     "moving average of past windows (deviation alerts)"),
        AttributeDef("Sigma", SQLType.FLOAT,
                     "standard deviation of past windows (deviation "
                     "alerts)"),
        AttributeDef("Rank", SQLType.INTEGER,
                     "1-based rank within the window (top-k alerts)"),
        AttributeDef("Window_Start", SQLType.DATETIME,
                     "virtual start of the alerting window"),
        AttributeDef("Window_End", SQLType.DATETIME,
                     "virtual end of the alerting window"),
        AttributeDef("Current_Time", SQLType.DATETIME,
                     "virtual time of emission", "time"),
    ],
    [EventDef("Alert", "sqlcm.stream_alert",
              "a stream query emitted a window result or anomaly "
              "(ECA rules can close the loop on stream output)")],
    reads_payload=True,
)

GOVERNOR_CLASS = MonitoredClassDef(
    "Governor",
    [
        AttributeDef("From_State", SQLType.STRING,
                     "ladder state before the transition"),
        AttributeDef("To_State", SQLType.STRING,
                     "ladder state after the transition"),
        AttributeDef("Reason", SQLType.STRING, "escalate | recover"),
        AttributeDef("Overhead_Ratio", SQLType.FLOAT,
                     "measured rolling overhead ratio at decision time"),
        AttributeDef("Estimated_Ratio", SQLType.FLOAT,
                     "estimated ungoverned ratio (measured + skipped-cost "
                     "estimate)"),
        AttributeDef("Suspended_Count", SQLType.INTEGER,
                     "components suspended after the transition",
                     _payload_get("suspended_count", 0)),
        AttributeDef("Current_Time", SQLType.DATETIME,
                     "virtual time of the transition", "time"),
    ],
    [EventDef("Transition", "sqlcm.governor_transition",
              "the overload governor moved along the degradation ladder "
              "(meta-monitoring: rules can watch the governor)")],
    reads_payload=True,
)

INCIDENT_CLASS = MonitoredClassDef(
    "Incident",
    [
        AttributeDef("ID", SQLType.INTEGER, "incident id", "incident_id"),
        AttributeDef("Class", SQLType.STRING,
                     "incident class (e.g. blocking, runaway, overload)",
                     "incident_class"),
        AttributeDef("Signature", SQLType.STRING,
                     "dedup key within the class (e.g. the hot resource)"),
        AttributeDef("Phase", SQLType.STRING,
                     "opened | acked | escalated | resolved"),
        AttributeDef("State", SQLType.STRING, "open | acked | resolved"),
        AttributeDef("Severity", SQLType.STRING, "warning | critical"),
        AttributeDef("Occurrences", SQLType.INTEGER,
                     "detections deduplicated into this incident",
                     _payload_get("occurrences", 1)),
        AttributeDef("Summary", SQLType.STRING, "human-readable summary"),
        AttributeDef("Current_Time", SQLType.DATETIME,
                     "virtual time of the transition", "time"),
    ],
    [EventDef("Update", "sqlcm.incident",
              "an incident changed lifecycle state "
              "(meta-monitoring: rules can watch the incident loop)")],
    reads_payload=True,
)

REMEDIATION_CLASS = MonitoredClassDef(
    "Remediation",
    [
        AttributeDef("Incident_ID", SQLType.INTEGER),
        AttributeDef("Incident_Class", SQLType.STRING),
        AttributeDef("Signature", SQLType.STRING),
        AttributeDef("Action", SQLType.STRING,
                     "remediation action class name"),
        AttributeDef("Target", SQLType.STRING,
                     "what was acted on (query, rule, LAT)"),
        AttributeDef("Outcome", SQLType.STRING,
                     "ok | failed | suppressed"),
        AttributeDef("Detail", SQLType.STRING),
        AttributeDef("Current_Time", SQLType.DATETIME,
                     "virtual time of the attempt", "time"),
    ],
    [EventDef("Attempt", "sqlcm.remediation",
              "an automated remediation was attempted (or suppressed by "
              "the budget / flap guardrails)")],
    reads_payload=True,
)

SCHEMA = SQLCMSchema([
    QUERY_CLASS, TRANSACTION_CLASS, BLOCKER_CLASS, BLOCKED_CLASS,
    SESSION_CLASS, TIMER_CLASS, EVICTED_ROW_CLASS, RULE_FAILURE_CLASS,
    STREAM_ALERT_CLASS, GOVERNOR_CLASS, INCIDENT_CLASS, REMEDIATION_CLASS,
])
