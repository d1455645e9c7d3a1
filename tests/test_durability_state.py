"""Durable state beyond the digest, and hostile bytes on the recovery path.

``state_digest`` covers LAT contents, rule counters, instance counts and
the handled/fired totals only.  The round-trip tests here compare a live
monitor with its recovered twin through public accessors that do not go
through the durability codec — governor ladder, incidents, rule health,
dead letters, stream windows and alerts, rule flags and timers — so a
field the codec forgets to persist shows up as a mismatch.

The hostile-input tests feed torn, bit-flipped and malformed bytes to
the two on-disk parsers: ``parse_checkpoint`` may only raise
``DurabilityError`` and ``read_journal`` may not raise at all, so
recovery always falls back instead of aborting.
"""

from __future__ import annotations

import os
import zlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import SQLCM, DatabaseServer, Rule
from repro.core.actions import RunExternalAction, SendMailAction
from repro.core.durability import (CHECKPOINT_HEADER, DurabilityManager,
                                   parse_checkpoint, read_journal)
from repro.core.governor import GovernorPolicy
from repro.errors import DurabilityError

from test_durability import build_monitor, work


def rich_monitor():
    """``build_monitor`` plus state in every supervisory subsystem.

    A tight governor policy walks the ladder, injected sink/action/stream
    faults fill the health registries and the dead-letter journal, a
    best-effort mail rule gives the rule table a non-default criticality,
    and a critical stream keeps raising deviation alerts while the
    governor sheds everything else.
    """
    server, sqlcm = build_monitor()
    sqlcm.governor.policy = GovernorPolicy(
        target_overhead=1e-7, exit_overhead=5e-8, window=0.5,
        cooldown=0.5, decision_interval=0.05)
    sqlcm.add_rule(Rule(name="mail", event="Query.Commit",
                        actions=[SendMailAction("hi", "dba@example.com")],
                        criticality="best_effort"))
    # critical, so the governor never sheds it: its windows see the burst
    sqlcm.stream_engine().register(
        "STREAM s2 FROM Query.Commit GROUP BY Query.User AS U "
        "WINDOW TUMBLING(2) AGG COUNT(*) AS N, MAX(Query.Duration) AS D "
        "ANOMALY DEVIATION(N, 2, 4)", criticality="critical")
    return server, sqlcm


def drive(server, sqlcm, phase):
    """One slice of workload; each phase touches different subsystems."""
    faults = sqlcm.faults
    if phase == 0:
        faults.fail_next("sink", count=6)
        faults.fail_next("action", count=4)
        faults.fail_next("stream.eval", count=2)
        work(server, 10)
        server.clock.advance(3.0)
        work(server, 10)
    else:
        manager = sqlcm.incident_manager()
        opened = manager.report("blocking", "sig1", severity="critical",
                                summary="blocked chain")
        manager.ack(opened.incident_id)
        manager.report("deadlock", "sig2", summary="victim chosen")
        sqlcm.enable_rule("mail", False)
        server.run(until=server.clock.now + 11.0)
        work(server, 9)
        server.clock.advance(2.5)
        work(server, 30)  # the burst the deviation operator flags
        server.clock.advance(2.5)
        work(server, 3)
        sqlcm.stream_engine().flush()


def observed(sqlcm) -> dict:
    """Supervisory state read through public accessors only.

    Deliberately left out, because these fields revert to their last
    checkpoint (or last governor transition) value after recovery by
    design: the governor's cost EMAs (``_ema``, ``_global_ema``), its
    event counter and salt sequence (``_event_seq``, ``events_seen``),
    its last measured/estimated ratios, and each stream's
    ``events_seen`` tally.  None of them is journaled per event.
    """
    governor = sqlcm.governor
    incidents = sqlcm.incident_manager()
    streams = sqlcm.stream_engine()
    return {
        "governor": (governor.state, list(governor.transitions),
                     set(governor.suspended), governor.sample_digest),
        "incidents": (incidents.timeline_digest(), incidents.opened,
                      incidents.resolved_count),
        "health": (sqlcm.health.snapshot(), streams.health.snapshot()),
        "dead_letters": ([(e.time, e.rule, e.action, e.payload, e.error,
                           e.attempts)
                          for e in sqlcm.dead_letters.entries()],
                         sqlcm.dead_letters.dropped),
        "streams": {
            query.name: ({key: list(panes)
                          for key, panes in query.window.groups.items()},
                         query.next_boundary, list(query.alerts),
                         None if query.deviation is None else
                         {key: list(values) for key, values
                          in query.deviation._history.items()})
            for query in streams.queries()},
        "rules": {rule.name: (rule.enabled, rule.criticality)
                  for rule in sqlcm._rule_order},
    }


def timers(sqlcm) -> list:
    return sorted((t.name, t.interval, t.remaining)
                  for t in sqlcm.timer_service.timers())


def recover_after(tmp_path, checkpoint_between: bool):
    server, sqlcm = rich_monitor()
    manager = DurabilityManager(sqlcm, str(tmp_path)).attach()
    drive(server, sqlcm, 0)
    if checkpoint_between:
        manager.checkpoint()
    drive(server, sqlcm, 1)
    report = DurabilityManager.recover(str(tmp_path))
    assert report.records_discarded == 0
    return sqlcm, report.sqlcm


@pytest.mark.parametrize("checkpoint_between", [False, True],
                         ids=["journal_only", "checkpoint_then_journal"])
def test_supervisory_state_survives_recovery(tmp_path, checkpoint_between):
    live, recovered = recover_after(tmp_path, checkpoint_between)
    expected = observed(live)
    # the workload must really reach every subsystem, or the comparison
    # below proves nothing
    assert expected["governor"][1], "governor never transitioned"
    assert expected["incidents"][1] >= 2
    assert expected["health"][0] and expected["health"][1]
    assert expected["dead_letters"][0]
    assert any(alerts for __, __, alerts, __ in
               expected["streams"].values())
    assert observed(recovered) == expected


@pytest.mark.parametrize("checkpoint_between", [False, True],
                         ids=["journal_only", "checkpoint_then_journal"])
def test_timer_repeats_used_up_stay_used_up(tmp_path, checkpoint_between):
    """A finite timer's spent repeats are journaled, not just its arming."""
    live, recovered = recover_after(tmp_path, checkpoint_between)
    assert ("t1", 5.0, 3) not in timers(live)  # t1 did fire
    assert timers(recovered) == timers(live)


def test_timer_repeats_after_eleven_seconds(tmp_path):
    """``t1`` (5 s x 3) fires twice in 11 s: one repeat is left, not 3."""
    server, sqlcm = build_monitor()
    DurabilityManager(sqlcm, str(tmp_path)).attach()
    server.run(until=server.clock.now + 11.0)
    assert sqlcm.timer_service.get("t1").remaining == 1
    recovered = DurabilityManager.recover(str(tmp_path)).sqlcm
    assert recovered.timer_service.get("t1").remaining == 1


# ---------------------------------------------------------------------------
# hostile bytes: one regression per reproduced crash, then a fuzz sweep
# ---------------------------------------------------------------------------

def _journal_line(seq, kind, commit, time, data) -> bytes:
    payload = repr((seq, kind, commit, time, data)).encode("utf-8")
    return b"%08x " % zlib.crc32(payload) + payload + b"\n"


def _checkpoint_bytes(body_lines: list[bytes]) -> bytes:
    return b"\n".join([CHECKPOINT_HEADER.encode()] + body_lines) + b"\n"


class TestHostileBytes:
    def test_torn_multibyte_character_is_a_torn_tail(self, tmp_path):
        good = _journal_line(1, "counts", True, 1.0, {"note": "ok"})
        torn = _journal_line(2, "counts", True, 2.0, {"note": "café"})
        cut = torn.index("é".encode("utf-8")) + 1  # half of "é"
        path = tmp_path / "j.wal"
        path.write_bytes(good + torn[:cut])
        records, discarded = read_journal(str(path))
        assert [r.seq for r in records] == [1]
        assert discarded == 1

    def test_crc_valid_line_with_wrong_shape_is_a_torn_point(self, tmp_path):
        good = _journal_line(1, "counts", True, 1.0, {})
        payload = b"5"
        bad = b"%08x " % zlib.crc32(payload) + payload + b"\n"
        after = _journal_line(3, "counts", True, 3.0, {})
        path = tmp_path / "j.wal"
        path.write_bytes(good + bad + after)
        records, discarded = read_journal(str(path))
        assert [r.seq for r in records] == [1]
        assert discarded == 1

    def test_non_hex_section_crc_is_rejected(self, tmp_path):
        path = tmp_path / "c.ckpt"
        path.write_bytes(_checkpoint_bytes(
            [b"section meta zzzzzzzz {}", b"end 00000000"]))
        with pytest.raises(DurabilityError):
            parse_checkpoint(str(path))

    def test_invalid_utf8_checkpoint_is_rejected(self, tmp_path):
        path = tmp_path / "c.ckpt"
        path.write_bytes(_checkpoint_bytes([b"section meta \xff\xfe", b""]))
        with pytest.raises(DurabilityError):
            parse_checkpoint(str(path))

    def test_non_hex_end_marker_is_rejected(self, tmp_path):
        path = tmp_path / "c.ckpt"
        path.write_bytes(_checkpoint_bytes([b"end zz"]))
        with pytest.raises(DurabilityError):
            parse_checkpoint(str(path))

    def test_recovery_falls_back_past_a_hostile_checkpoint(self, tmp_path):
        server, sqlcm = build_monitor()
        manager = DurabilityManager(sqlcm, str(tmp_path)).attach()
        work(server, 6)
        manager.checkpoint()
        newest = tmp_path / "checkpoint-0002.ckpt"
        newest.write_bytes(newest.read_bytes().replace(b"end ", b"end z"))
        report = DurabilityManager.recover(str(tmp_path))
        assert report.generation == 1
        assert report.records_replayed > 0


@pytest.fixture(scope="module")
def real_files(tmp_path_factory):
    """A checkpoint and a journal segment from a real monitor run, plus
    the records the intact journal yields."""
    directory = tmp_path_factory.mktemp("real")
    server, sqlcm = rich_monitor()
    manager = DurabilityManager(sqlcm, str(directory)).attach()
    drive(server, sqlcm, 0)
    manager.checkpoint()
    drive(server, sqlcm, 1)
    manager.detach()
    journal = directory / "journal-0002.wal"
    records, __ = read_journal(str(journal))
    assert records
    return ((directory / "checkpoint-0002.ckpt").read_bytes(),
            journal.read_bytes(), records)


_mutation = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 1 << 30), st.integers(0, 7)),
    st.tuples(st.just("truncate"), st.integers(0, 1 << 30), st.just(0)),
    st.tuples(st.just("insert"), st.integers(0, 1 << 30),
              st.integers(0, 255)),
)


def _mutate(data: bytes, mutations) -> bytes:
    buffer = bytearray(data)
    for op, position, arg in mutations:
        if not buffer:
            break
        at = position % len(buffer)
        if op == "flip":
            buffer[at] ^= 1 << arg
        elif op == "truncate":
            del buffer[at:]
        else:
            buffer.insert(at, arg)
    return bytes(buffer)


_FUZZ = settings(max_examples=100, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestByteMutationFuzz:
    @_FUZZ
    @given(mutations=st.lists(_mutation, min_size=1, max_size=3))
    def test_checkpoint_parser_only_raises_durability_error(
            self, tmp_path, real_files, mutations):
        path = os.path.join(str(tmp_path), "fuzz.ckpt")
        with open(path, "wb") as handle:
            handle.write(_mutate(real_files[0], mutations))
        try:
            parse_checkpoint(path)
        except DurabilityError:
            pass

    @_FUZZ
    @given(mutations=st.lists(_mutation, min_size=1, max_size=3))
    def test_journal_reader_returns_a_committed_prefix(
            self, tmp_path, real_files, mutations):
        path = os.path.join(str(tmp_path), "fuzz.wal")
        with open(path, "wb") as handle:
            handle.write(_mutate(real_files[1], mutations))
        records, discarded = read_journal(path)
        assert discarded >= 0
        assert records == real_files[2][:len(records)]


# ---------------------------------------------------------------------------
# dead letters: delivered or cleared entries stay gone after recovery
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("drain", ["redeliver", "replay", "clear"])
def test_drained_dead_letters_stay_drained(tmp_path, drain):
    """A dead letter delivered (or cleared) before a crash must not come
    back on recovery, or the next sweep repeats its side effect."""
    server = DatabaseServer()
    server.execute_ddl("CREATE TABLE items (id INT NOT NULL PRIMARY KEY)")
    sqlcm = SQLCM(server)
    sqlcm.add_rule(Rule(name="notify", event="Query.Commit",
                        actions=[RunExternalAction("ping")]))
    DurabilityManager(sqlcm, str(tmp_path)).attach()

    def sink_down(command):
        raise OSError("sink unreachable")

    sqlcm.external_handler = sink_down
    server.create_session().execute("INSERT INTO items (id) VALUES (1)")
    assert [e.rule for e in sqlcm.dead_letters.entries()] == ["notify"]
    sqlcm.external_handler = None  # the sink is back
    journal = sqlcm.dead_letters
    if drain == "clear":
        journal.clear()
    else:
        getattr(journal, drain)(sqlcm)
    assert journal.depth == 0
    recovered = DurabilityManager.recover(str(tmp_path)).sqlcm
    assert recovered.dead_letters.depth == 0
