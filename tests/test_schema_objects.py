"""Tests for the SQLCM schema (Appendix A) and monitored objects."""

import pytest

from repro import SQLCM, DatabaseServer, Rule, ServerConfig, Statement
from repro.core.actions import CallbackAction
from repro.core.objects import MonitoredObject
from repro.core.schema import (AttributeDef, EventDef, MonitoredClassDef,
                               SCHEMA)
from repro.engine.types import SQLType
from repro.errors import EngineError, SchemaError


class TestSchemaContents:
    def test_five_paper_classes_present(self):
        for name in ("Query", "Transaction", "Blocker", "Blocked", "Timer"):
            assert SCHEMA.has_class(name)

    def test_query_attributes_match_appendix_a(self):
        cls = SCHEMA.monitored_class("Query")
        for attr in ("ID", "Query_Text", "Logical_Signature",
                     "Physical_Signature", "Start_Time", "Duration",
                     "Estimated_Cost", "Time_Blocked", "Times_Blocked",
                     "Queries_Blocked", "Number_of_instances", "Query_Type"):
            assert cls.has_attribute(attr)

    def test_query_events(self):
        cls = SCHEMA.monitored_class("Query")
        for event in ("Start", "Compile", "Commit", "Cancel", "Rollback",
                      "Blocked", "Block_Released"):
            assert cls.event(event).engine_event.startswith("query.")

    def test_blocker_blocked_extend_query_schema(self):
        for name in ("Blocker", "Blocked"):
            cls = SCHEMA.monitored_class(name)
            assert cls.has_attribute("Duration")
            assert cls.has_attribute("Wait_Time")
            assert cls.has_attribute("Resource")

    def test_timer_attributes(self):
        cls = SCHEMA.monitored_class("Timer")
        assert cls.has_attribute("Current_Time")
        assert cls.event("Alert").engine_event == "timer.alert"

    def test_transaction_signature_attr_is_blob(self):
        cls = SCHEMA.monitored_class("Transaction")
        assert cls.attribute("Logical_Signature").sql_type is SQLType.BLOB

    def test_resolve_event_spec(self):
        cls, event = SCHEMA.resolve_event("Query.Commit")
        assert cls.name == "Query"
        assert event.engine_event == "query.commit"

    def test_resolve_bad_specs(self):
        with pytest.raises(SchemaError):
            SCHEMA.resolve_event("QueryCommit")
        with pytest.raises(SchemaError):
            SCHEMA.resolve_event("Query.Explode")
        with pytest.raises(SchemaError):
            SCHEMA.resolve_event("Ghost.Commit")

    def test_schema_extensible(self):
        schema_classes = len(SCHEMA.classes())
        table_class = MonitoredClassDef(
            "TestTable",
            [AttributeDef("Name", SQLType.STRING)],
            [EventDef("Grow", "query.commit")],
        )
        SCHEMA.register_class(table_class)
        try:
            assert SCHEMA.has_class("TestTable")
            with pytest.raises(SchemaError):
                SCHEMA.register_class(table_class)
        finally:
            SCHEMA._classes.pop("testtable")
        assert len(SCHEMA.classes()) == schema_classes


class TestMonitoredObjects:
    def test_query_object_probes(self, items_server):
        sqlcm = SQLCM(items_server)
        session = items_server.create_session(user="alice",
                                              application="crm")
        result = session.execute("SELECT id FROM items WHERE id = 1")
        obj = sqlcm.factory.query(result.query)
        assert obj.get("ID") == result.query.query_id
        assert obj.get("query_text") == "SELECT id FROM items WHERE id = 1"
        assert obj.get("User") == "alice"
        assert obj.get("Application") == "crm"
        assert obj.get("Query_Type") == "SELECT"
        assert obj.get("Duration") > 0
        assert obj.get("Estimated_Cost") > 0
        assert obj.get("Times_Blocked") == 0

    def test_unknown_probe_raises(self, items_server):
        sqlcm = SQLCM(items_server)
        session = items_server.create_session()
        result = session.execute("SELECT id FROM items WHERE id = 1")
        obj = sqlcm.factory.query(result.query)
        with pytest.raises(SchemaError):
            obj.get("Imaginary")

    def test_snapshot_materializes_attributes(self, items_server):
        sqlcm = SQLCM(items_server)
        session = items_server.create_session()
        result = session.execute("SELECT id FROM items WHERE id = 1")
        obj = sqlcm.factory.query(result.query)
        snap = obj.snapshot(["ID", "Query_Type"])
        assert snap == {"ID": result.query.query_id, "Query_Type": "SELECT"}

    def test_blocker_object_extras(self, items_server):
        sqlcm = SQLCM(items_server)
        session = items_server.create_session()
        result = session.execute("SELECT id FROM items WHERE id = 1")
        obj = sqlcm.factory.blocker(result.query, ("row", "items", 1), 2.5)
        assert obj.class_name == "Blocker"
        assert obj.get("Wait_Time") == 2.5
        assert "items" in obj.get("Resource")

    def test_timer_object(self, items_server):
        sqlcm = SQLCM(items_server)
        timer = sqlcm.set_timer("t1", interval=5.0, repeats=2)
        obj = sqlcm.factory.timer(timer)
        assert obj.get("Name") == "t1"
        assert obj.get("Interval") == 5.0
        assert obj.get("Remaining_Alarms") == 2
        assert obj.get("Current_Time") == items_server.clock.now

    def test_evicted_row_object(self, items_server):
        sqlcm = SQLCM(items_server)
        obj = sqlcm.factory.evicted_row("MyLat", {"App": "x", "N": 3})
        assert obj.get("app") == "x"
        assert obj.get("N") == 3
        assert obj.get("lat_name") == "MyLat"

    def test_duration_live_for_running_query(self, items_server):
        sqlcm = SQLCM(items_server)
        seen = []
        items_server.events.subscribe(
            "query.start",
            lambda e, p: seen.append(
                sqlcm.factory.query(p["query"]).get("Duration")),
        )
        session = items_server.create_session()
        session.execute("SELECT id FROM items WHERE id = 1")
        assert seen == [0.0]


# ---------------------------------------------------------------------------
# golden probe values: every declared attribute of every class answers
# ---------------------------------------------------------------------------

_SELECT_LOGICAL = bytes.fromhex("cbacf546cb761248322be8b396feb3578aa00b47")
_SELECT_PHYSICAL = bytes.fromhex("ba5fa2a3af4ae8b2a05999b37fe5f03d5412399e")
_UPDATE_LOGICAL = bytes.fromhex("64353ed5759a4519159d4259df93b8a4257bd196")
_UPDATE_PHYSICAL = bytes.fromhex("53472323c075a92aa8977768405254d0dc4642ca")
_TXN_LOGICAL = bytes.fromhex("8fdefc768308df3af110a04993af358bd9351f44")
_TXN_PHYSICAL = bytes.fromhex("9ae42e794c2bb9ccc9b5abf6365c199683a27053")
_RESOURCE = "('row', 'items', 1)"

# the reader's SELECT waits on the writer's row lock ...
_SELECT = {
    "id": 3, "query_text": "SELECT qty FROM items WHERE id = 1",
    "logical_signature": _SELECT_LOGICAL,
    "physical_signature": _SELECT_PHYSICAL,
    "start_time": 0.11029230000000001, "estimated_cost": 0.0001243,
    "times_blocked": 1, "queries_blocked": 0, "time_blocking_others": 0.0,
    "number_of_instances": 0, "query_type": "SELECT", "user": "bob",
    "application": "bi", "rows_affected": 0, "estimated_rows": 1.0,
    "actual_rows": 0,
}
# ... held by the writer's UPDATE inside an explicit transaction
_UPDATE = {
    "id": 2, "query_text": "UPDATE items SET qty = 0 WHERE id = 1",
    "logical_signature": _UPDATE_LOGICAL,
    "physical_signature": _UPDATE_PHYSICAL,
    "start_time": 0.010297300000000007, "duration": 0.0101688,
    "estimated_cost": 0.000144, "time_blocked": 0.0, "times_blocked": 0,
    "number_of_instances": 1, "query_type": "UPDATE", "user": "alice",
    "application": "crm", "rows_affected": 1, "estimated_rows": 1.0,
    "actual_rows": 1,
}
_SELECT_WAITING = {**_SELECT, "duration": 0.0005238000000000048,
                   "time_blocked": 0.0}
_SELECT_RELEASED = {**_SELECT, "duration": 0.3101738,
                    "time_blocked": 0.30965}
_UPDATE_COMMITTED = {**_UPDATE, "queries_blocked": 0,
                     "time_blocking_others": 0.0}
_UPDATE_BLOCKING = {**_UPDATE, "queries_blocked": 1,
                    "time_blocking_others": 0.0}
_UPDATE_RELEASED = {**_UPDATE, "queries_blocked": 1,
                    "time_blocking_others": 0.30965}

GOLDEN_RUN = {
    "query.commit": {"query": _UPDATE_COMMITTED},
    "query.blocked": {
        "query": _SELECT_WAITING,
        "blocker": {**_UPDATE_BLOCKING, "wait_time": 0.0,
                    "resource": _RESOURCE},
        "blocked": {**_SELECT_WAITING, "wait_time": 0.0,
                    "resource": _RESOURCE},
    },
    "query.block_released": {
        "query": _SELECT_RELEASED,
        "blocker": {**_UPDATE_RELEASED, "wait_time": 0.30965,
                    "resource": _RESOURCE},
        "blocked": {**_SELECT_RELEASED, "wait_time": 0.30965,
                    "resource": _RESOURCE},
    },
    "txn.commit": {"transaction": {
        "id": 2, "query_text": "UPDATE items SET qty = 0 WHERE id = 1",
        "logical_signature": _TXN_LOGICAL,
        "physical_signature": _TXN_PHYSICAL,
        "start_time": 0.010292300000000008, "duration": 0.4101738,
        "estimated_cost": 0.000144, "time_blocked": 0.0,
        "times_blocked": 0, "queries_blocked": 1, "statement_count": 1,
        "user": "alice", "application": "crm",
    }},
    "session.login": {"session": {
        "id": 2, "user": "alice", "application": "crm",
        "login_time": 0.010292300000000008,
    }},
    "session.login_failed": {"session": {
        "id": 0, "user": "mallory", "application": "probe",
        "login_time": 0.010292300000000008,
    }},
    "timer.alert": {"timer": {
        "id": 1, "name": "t1", "current_time": 0.26029230000000003,
        "interval": 0.25, "remaining_alarms": 2,
    }},
}

# (event, context key, full payload, the attribute values it yields,
#  the values an empty payload yields where they are not None)
GOLDEN_META = [
    ("sqlcm.rule_error", "rulefailure",
     {"rule": "r1", "site": "action", "error": "boom", "error_count": 3,
      "quarantined": True, "time": 4.5},
     {"rule_name": "r1", "site": "action", "error": "boom",
      "error_count": 3, "quarantined": True, "current_time": 4.5},
     {"error_count": 0, "quarantined": False}),
    ("sqlcm.stream_alert", "streamalert",
     {"stream": "s1", "kind": "deviation", "group": "('alice',)",
      "column": "N", "value": 9.0, "baseline": 2.0, "sigma": 1.5,
      "rank": 1, "window_start": 2.0, "window_end": 4.0, "time": 4.25},
     {"stream_name": "s1", "kind": "deviation", "group_key": "('alice',)",
      "aggregate": "N", "value": 9.0, "baseline": 2.0, "sigma": 1.5,
      "rank": 1, "window_start": 2.0, "window_end": 4.0,
      "current_time": 4.25},
     {}),
    ("sqlcm.governor_transition", "governor",
     {"from_state": "NORMAL", "to_state": "SAMPLED", "reason": "escalate",
      "overhead_ratio": 0.07, "estimated_ratio": 0.08,
      "suspended_count": 2, "time": 6.0},
     {"from_state": "NORMAL", "to_state": "SAMPLED", "reason": "escalate",
      "overhead_ratio": 0.07, "estimated_ratio": 0.08,
      "suspended_count": 2, "current_time": 6.0},
     {"suspended_count": 0}),
    ("sqlcm.incident", "incident",
     {"incident_id": 7, "incident_class": "blocking", "signature": "sig",
      "phase": "escalated", "state": "open", "severity": "critical",
      "occurrences": 3, "summary": "hot row", "time": 8.0},
     {"id": 7, "class": "blocking", "signature": "sig",
      "phase": "escalated", "state": "open", "severity": "critical",
      "occurrences": 3, "summary": "hot row", "current_time": 8.0},
     {"occurrences": 1}),
    ("sqlcm.remediation", "remediation",
     {"incident_id": 7, "incident_class": "blocking", "signature": "sig",
      "action": "CancelBlockerAction", "target": "query#2",
      "outcome": "ok", "detail": "cancelled", "time": 9.0},
     {"incident_id": 7, "incident_class": "blocking", "signature": "sig",
      "action": "CancelBlockerAction", "target": "query#2",
      "outcome": "ok", "detail": "cancelled", "current_time": 9.0},
     {}),
]


def _snapshots(context: dict) -> dict:
    return {key: obj.snapshot() for key, obj in context.items()}


@pytest.fixture(scope="module")
def golden_run():
    """Snapshots of the first context each engine event builds.

    A writer's UPDATE holds a row lock that blocks a reader's SELECT for
    ~0.3 virtual seconds; a failed login, two logins and a timer alert
    ride along, with signatures forced on."""
    server = DatabaseServer(ServerConfig(track_completed_queries=True))
    server.execute_ddl(
        "CREATE TABLE items (id INT NOT NULL PRIMARY KEY, "
        "name VARCHAR(30), price FLOAT, qty INT, segment VARCHAR(10))")
    server.create_session().execute(
        "INSERT INTO items (id, name, price, qty, segment) VALUES "
        "(1, 'apple', 1.5, 10, 'fruit'), (2, 'pear', 2.0, 5, 'fruit'), "
        "(3, 'plum', 0.5, 40, 'fruit'), (4, 'hammer', 9.5, 3, 'tools'), "
        "(5, 'wrench', 7.25, 8, 'tools'), (6, 'nail', 0.05, 500, 'tools')")
    sqlcm = SQLCM(server)
    sqlcm.enable_signatures()
    server.set_authenticator(lambda user, credential: credential == "pw")
    seen: dict = {}

    def grab(event, payload):
        if event not in seen:
            seen[event] = _snapshots(sqlcm._build_context(event, payload))

    for event in GOLDEN_RUN:
        if event != "timer.alert":  # timers dispatch without the bus
            server.events.subscribe(event, grab)
    with pytest.raises(EngineError):
        server.create_session(user="mallory", application="probe",
                              credential="guess")
    writer = server.create_session(user="alice", application="crm",
                                   credential="pw")
    reader = server.create_session(user="bob", application="bi",
                                   credential="pw")
    sqlcm.set_timer("t1", interval=0.25, repeats=2)
    sqlcm.add_rule(Rule(name="tick", event="Timer.Alert", actions=[
        CallbackAction(lambda monitor, context: seen.setdefault(
            "timer.alert", _snapshots(context)))]))
    writer.submit_script(["BEGIN", "UPDATE items SET qty = 0 WHERE id = 1",
                          Statement("COMMIT", think_time=0.4)])
    reader.submit_script([
        Statement("SELECT qty FROM items WHERE id = 1", think_time=0.1)])
    server.run(until=1.0)
    return sqlcm, seen


class TestGoldenProbes:
    def test_every_class_with_attributes_is_covered(self):
        covered = {key for objects in GOLDEN_RUN.values() for key in objects}
        covered |= {key for __, key, *__ in GOLDEN_META}
        declared = {cls.name.lower() for cls in SCHEMA.classes()
                    if cls.attributes}
        assert covered == declared

    @pytest.mark.parametrize("event", list(GOLDEN_RUN))
    def test_engine_event_probes(self, golden_run, event):
        sqlcm, seen = golden_run
        for key, expected in GOLDEN_RUN[event].items():
            assert set(expected) == set(
                sqlcm.schema.monitored_class(key).attributes)
        assert seen[event] == GOLDEN_RUN[event]

    @pytest.mark.parametrize("event,key,payload,expected,defaults",
                             GOLDEN_META, ids=[m[0] for m in GOLDEN_META])
    def test_meta_event_probes(self, items_server, event, key, payload,
                               expected, defaults):
        sqlcm = SQLCM(items_server)
        attributes = sqlcm.schema.monitored_class(key).attributes
        assert set(expected) == set(attributes)
        assert _snapshots(sqlcm._build_context(event, payload)) == {
            key: expected}
        empty = {name: defaults.get(name) for name in attributes}
        assert _snapshots(sqlcm._build_context(event, {})) == {key: empty}


class TestQueryAnswersOnlyDeclaredAttributes:
    def test_plain_query_has_no_wait_time_or_resource(self, items_server):
        sqlcm = SQLCM(items_server)
        session = items_server.create_session()
        result = session.execute("SELECT id FROM items WHERE id = 1")
        query = sqlcm.factory.query(result.query)
        for name in ("Wait_Time", "Resource"):
            with pytest.raises(SchemaError):
                query.get(name)
        blocker = sqlcm.factory.blocker(result.query, ("row", "items", 1))
        assert blocker.get("Wait_Time") == 0.0
        assert blocker.get("Resource") == _RESOURCE
