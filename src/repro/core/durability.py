"""Crash-safe monitor durability: checkpoint + journal + recovery.

The monitor's state — rules and their health, LAT contents, stream window
panes, open incidents, the governor ladder, dead letters, pending timers —
lives in memory; this module makes it survive being killed.  Two on-disk
structures per *generation* N:

* ``checkpoint-000N.ckpt`` — an **atomic checkpoint**: the full monitor
  state serialized as one text file (versioned header, one ``section``
  line per subsystem with a CRC32 over its payload, an ``end`` line with
  a CRC over the section table), written to a temp file and published
  with ``os.replace``.  A reader either sees a complete, verified
  checkpoint or rejects the file and falls back to generation N-1.
* ``journal-000N.wal`` — an **append-only logical redo journal** of every
  mutation made after checkpoint N, one CRC-framed line per record.  The
  reader is torn-tail tolerant: it stops at the first record that fails
  to decode, fails its CRC, fails to parse, or lacks its trailing
  newline, then discards any trailing records past the last *committed*
  one.  Records written inside an event dispatch are committed as a
  group by the per-event ``counts`` marker; records written outside
  dispatch commit alone.

Both structures speak one vocabulary.  A checkpoint section maps keys to
object images, ``{key: image}``; the journal carries the same images as
``put`` records (``(section, key, image)``) and removals as ``drop``
records, so restoring a checkpoint is just "put every entry" and replay
applies each ``put`` through the same per-section loader.  Images come
from the generic codec in :mod:`repro.core.codec`: each stateful class
declares its persisted fields once.  Per-event mutations keep compact
redo records instead of images: ``lat_insert``, ``lat_seed``,
``lat_reset``, ``lat_del``, ``stream_obs``, ``stream_flush``, ``counts``,
``instance`` and ``history``.

Recovery loads the newest valid checkpoint and replays its journal, so
the restored monitor's :meth:`~repro.core.engine.SQLCM.state_digest`
equals the digest at the last committed journal record before the crash
— the same replay-stable digest that proves sharded == serial in
:mod:`repro.shard`.  Crash-point fault injection rides the existing
:class:`~repro.core.resilience.FaultInjector` at two new sites
(``durability.checkpoint``, ``durability.append``); the
``monitor_crash`` chaos drill and ``tests/test_durability.py`` kill the
monitor at every site and assert digest equality after rebuild.

Deliberately **not** persisted (see DESIGN.md section 14): the pending
event queue and in-flight dispatch (the journal only commits completed
event groups), the outbox/command side-effect logs (already delivered),
the signature registry's numeric ids (rebuilt on demand; instance counts
are keyed by signature bytes which do round-trip), the governor's open
measurement window, and — between checkpoints — the governor's cost
EMAs, event sequence and last ratios (journaled only at transitions)
and the per-stream ``events_seen``/``where_rejected`` tallies.
"""

from __future__ import annotations

import ast
import copy
import os
import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.actions import (CancelAction, InsertAction, ResetAction,
                                PersistAction, RunExternalAction,
                                SendMailAction, SetTimerAction)
from repro.core.aggregates import AgingSpec
from repro.core.codec import dump, load, register, restore
from repro.core.engine import SQLCM
from repro.core.governor import GovernorPolicy, GovernorTransition
from repro.core.incidents import (INCIDENT_TABLE, CancelBlockerAction,
                                  Incident, IncidentPolicy,
                                  OpenIncidentAction, QuarantineRuleAction,
                                  RemediationRecord, ResetLATAction)
from repro.core.lat import (AggSpec, GroupSpec, LATDefinition, OrderSpec,
                            _Row)
from repro.core.resilience import DeadLetter, RuleHealth
from repro.core.rules import Rule
from repro.core.timers import TimerObject
from repro.errors import DurabilityError, FaultInjected

CHECKPOINT_HEADER = "SQLCM-CHECKPOINT v2"

# the value classes monitor state is built from; every declaratively
# constructed action round-trips, while CallbackAction holds a live
# closure and dumps as None (its rules are re-created by the recovery
# ``setup`` callback or reported as placeholders)
register(Rule, LATDefinition, GroupSpec, AggSpec, OrderSpec, AgingSpec,
         InsertAction, ResetAction, PersistAction, SendMailAction,
         RunExternalAction, CancelAction, SetTimerAction,
         OpenIncidentAction, CancelBlockerAction, QuarantineRuleAction,
         ResetLATAction, GovernorPolicy, GovernorTransition,
         IncidentPolicy, Incident, RemediationRecord, RuleHealth,
         DeadLetter, TimerObject, _Row)


def _literalize(value: Any) -> Any:
    """Coerce a redo record's payload into ``literal_eval``-able data."""
    if value is None or isinstance(value, (bool, int, str, bytes)):
        return value
    if isinstance(value, float):
        # inf/nan have no literal form; clamp to a parseable stand-in
        return value if value == value and abs(value) != float("inf") else 0.0
    if isinstance(value, tuple):
        return tuple(_literalize(v) for v in value)
    if isinstance(value, (list, deque)):
        return [_literalize(v) for v in value]
    if isinstance(value, dict):
        return {_literalize(k): _literalize(v) for k, v in value.items()}
    return str(value)


# ---------------------------------------------------------------------------
# the append-only journal
# ---------------------------------------------------------------------------

@dataclass
class JournalRecord:
    seq: int
    kind: str
    commit: bool
    time: float
    data: Any


class Journal:
    """Append-only logical redo journal with group-commit markers.

    One CRC-framed text line per record::

        <crc32 of payload, 8 hex chars> <repr((seq, kind, commit, time, data))>\\n

    ``commit`` semantics: records appended while the owning monitor is
    inside event dispatch default to ``False`` — the per-event ``counts``
    record at the end of ``_process_event`` carries an explicit
    ``commit=True`` and commits the whole group.  Records appended
    outside dispatch commit alone.  Recovery replays records only up to
    and including the last committed one; an uncommitted tail (crash
    mid-event) is discarded, exactly like a torn tail.

    A fault injected at ``durability.append`` marks the journal **dead**
    (the process crashed as far as the disk is concerned): subsequent
    appends are dropped silently, simulating post-crash execution the
    recovery must not see.  ``partial`` mode additionally writes a torn
    half-line first.  A real ``OSError`` also fails open — monitoring
    must never die because its journal disk did — and bumps the
    ``sqlcm.durability.journal_failed`` metric.
    """

    def __init__(self, sqlcm: SQLCM, dispatching: Callable[[], bool]):
        self._sqlcm = sqlcm
        self._dispatching = dispatching
        self._file = None
        self.path: str | None = None
        self.seq = 0
        self.dead = False
        self.records_written = 0
        self.on_commit: list[Callable[[], None]] = []

    @property
    def clock(self):
        return self._sqlcm.server.clock

    def rotate(self, path: str) -> None:
        """Close the current segment and start a fresh one (post-checkpoint)."""
        self.close()
        self._file = open(path, "w", encoding="utf-8")
        self.path = path
        self.dead = False

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def append(self, kind: str, data: Any, commit: bool | None = None) -> None:
        if self.dead or self._file is None:
            return
        if commit is None:
            commit = not self._dispatching()
        self.seq += 1
        payload = repr((self.seq, kind, bool(commit), self.clock.now,
                        _literalize(data)))
        line = f"{zlib.crc32(payload.encode('utf-8')):08x} {payload}\n"
        try:
            self._sqlcm.check_fault("durability.append")
        except FaultInjected as err:
            if err.mode == "partial":
                # a torn tail: the first half of the line hit the disk
                self._file.write(line[: max(1, len(line) // 2)])
                self._file.flush()
            self.dead = True
            return
        try:
            self._file.write(line)
            self._file.flush()
        except OSError:
            self.dead = True
            self._sqlcm.server.obs.count("sqlcm.durability.journal_failed")
            return
        self.records_written += 1
        if commit:
            for callback in self.on_commit:
                callback()

    def put(self, section: str, key: Any, obj: Any) -> None:
        """Journal ``obj``'s full durable image under ``(section, key)``."""
        self.append("put", (section, dump(key), dump(obj)))

    def drop(self, section: str, key: Any) -> None:
        """Journal the removal of ``(section, key)``."""
        self.append("drop", (section, dump(key)))


def _parse_record(line: bytes) -> JournalRecord | None:
    """One journal line, or None when it is torn, corrupt or malformed."""
    crc_hex, sep, payload = line.partition(b" ")
    if not sep or len(crc_hex) != 8:
        return None
    try:
        if int(crc_hex, 16) != zlib.crc32(payload):
            return None
        value = ast.literal_eval(payload.decode("utf-8"))
    except (ValueError, SyntaxError, TypeError, MemoryError, RecursionError):
        return None  # UnicodeDecodeError is a ValueError
    if type(value) is not tuple or len(value) != 5:
        return None
    return JournalRecord(*value)


def read_journal(path: str) -> tuple[list[JournalRecord], int]:
    """Read a journal segment, tolerating a torn tail and hostile bytes.

    Returns ``(committed_records, discarded)`` where ``discarded`` counts
    valid-but-uncommitted trailing records plus any torn line.  Reading
    stops at the first line that fails to decode, fails its CRC, fails to
    parse into a 5-tuple, or lacks its trailing newline; it never raises
    on the file's content.
    """
    if not os.path.exists(path):
        return [], 0
    with open(path, "rb") as handle:
        pieces = handle.read().split(b"\n")
    # a well-formed file ends with "\n", leaving one empty trailing piece;
    # anything else in the final slot is a torn line
    torn = 1 if pieces.pop() else 0
    records: list[JournalRecord] = []
    for line in pieces:
        record = _parse_record(line)
        if record is None:
            torn = 1
            break
        records.append(record)
    last_commit = -1
    for index, record in enumerate(records):
        if record.commit:
            last_commit = index
    committed = records[: last_commit + 1]
    discarded = len(records) - len(committed) + torn
    return committed, discarded


# ---------------------------------------------------------------------------
# checkpoint file format
# ---------------------------------------------------------------------------

def render_checkpoint(sections: dict[str, dict]) -> str:
    lines = [CHECKPOINT_HEADER]
    table_crc = 0
    for name, payload in sections.items():
        text = repr(payload)
        crc = zlib.crc32(text.encode("utf-8"))
        table_crc = zlib.crc32(f"{name}:{crc:08x}".encode("utf-8"), table_crc)
        lines.append(f"section {name} {crc:08x} {text}")
    lines.append(f"end {table_crc:08x}")
    return "\n".join(lines) + "\n"


def _crc_field(path: str, text: str) -> int:
    try:
        return int(text, 16)
    except ValueError:
        raise DurabilityError(f"{path}: malformed CRC {text[:16]!r}") \
            from None


def parse_checkpoint(path: str) -> dict[str, dict]:
    """Parse and CRC-verify a checkpoint.

    Raises :class:`DurabilityError` for every malformed input (torn,
    bit-flipped, non-UTF-8, a v1 file) and ``OSError`` only when the
    file cannot be read at all.
    """
    with open(path, "rb") as handle:
        content = handle.read()
    try:
        lines = content.decode("utf-8").split("\n")
    except UnicodeDecodeError:
        raise DurabilityError(f"{path}: checkpoint is not UTF-8") from None
    if lines[0] != CHECKPOINT_HEADER:
        raise DurabilityError(f"{path}: bad checkpoint header")
    sections: dict[str, dict] = {}
    table_crc = 0
    ended = False
    for line in lines[1:]:
        if not line:
            continue
        if line.startswith("section "):
            if ended:
                raise DurabilityError(f"{path}: section after end marker")
            try:
                __, name, crc_hex, text = line.split(" ", 3)
            except ValueError:
                raise DurabilityError(f"{path}: malformed section line")
            if _crc_field(path, crc_hex) != zlib.crc32(text.encode("utf-8")):
                raise DurabilityError(f"{path}: CRC mismatch in {name!r}")
            try:
                payload = ast.literal_eval(text)
            except (ValueError, SyntaxError, TypeError, MemoryError,
                    RecursionError) as err:
                raise DurabilityError(
                    f"{path}: unreadable section {name!r}") from err
            if not isinstance(payload, dict):
                raise DurabilityError(f"{path}: section {name!r} is not "
                                      f"a key/image table")
            sections[name] = payload
            table_crc = zlib.crc32(f"{name}:{crc_hex}".encode("utf-8"),
                                   table_crc)
        elif line.startswith("end "):
            if _crc_field(path, line[4:]) != table_crc:
                raise DurabilityError(f"{path}: section table CRC mismatch")
            ended = True
        else:
            raise DurabilityError(f"{path}: unrecognized line")
    if not ended:
        raise DurabilityError(f"{path}: missing end marker (torn write)")
    return sections


# ---------------------------------------------------------------------------
# checkpoint sections: {section: {key: object}}, dumped by the codec
# ---------------------------------------------------------------------------

def build_sections(sqlcm: SQLCM, lats: list | None = None,
                   streams: dict | None = None,
                   counters=None) -> dict[str, dict]:
    """The full monitor state of one serial SQLCM, as checkpoint sections.

    Section order is load order.  ``lats``, ``streams`` (the stream
    section's entries) and ``counters`` replace the monitor's own —
    :func:`build_sections_sharded` feeds merged shard state through them.
    """
    counters = counters if counters is not None else sqlcm.counters()
    incidents = sqlcm._incidents
    if streams is None and sqlcm._streams is not None:
        streams = {None: sqlcm._streams,
                   **{q.name: q for q in sqlcm._streams.queries()}}
    health = {("engine", h.name): h for h in sqlcm.health.known()}
    if sqlcm._streams is not None:
        health.update({("stream", h.name): h
                       for h in sqlcm._streams.health.known()})
    history = {}
    if incidents is not None and incidents.policy.history:
        server = sqlcm.server
        history = {name: [list(row) for __, row in server.table(name).scan()]
                   for name in incidents.history_tables()
                   if server.catalog.has_table(name)}
    sections: dict[str, dict] = {
        "meta": {None: {
            "time": sqlcm.server.clock.now,
            "events_handled": counters.events_handled,
            "rule_firings": counters.rule_firings,
            "rule_errors": counters.rule_errors,
            "instances": counters.instances,
        }},
        "incidents": ({} if incidents is None
                      else {None: incidents, **incidents._incidents}),
        "lats": {lat.definition.name: lat
                 for lat in (sqlcm.lats() if lats is None else lats)},
        "rules": {rule.name: rule for rule in sqlcm._rule_order},
        "counts": counters.rules,
        "streams": streams or {},
        "health": health,
        "governor": {} if sqlcm.governor is None else {None: sqlcm.governor},
        "deadletters": {None: sqlcm.dead_letters},
        "timers": {timer.name.lower(): timer
                   for timer in sqlcm.timer_service.timers()},
        "history": history,
    }
    return {name: {dump(key): dump(obj) for key, obj in entries.items()}
            for name, entries in sections.items() if entries}


_QUERY_TALLIES = ("events_seen", "events_ingested", "where_rejected",
                  "windows_emitted", "alert_count", "errors")
_ENGINE_TALLIES = ("events_seen", "alerts_published", "errors")


def _summed(parts: list, names: tuple[str, ...]):
    merged = copy.copy(parts[0])
    for name in names:
        setattr(merged, name, sum(getattr(part, name) for part in parts))
    return merged


def build_sections_sharded(sharded) -> dict[str, dict]:
    """Checkpoint sections for a ShardedSQLCM: the serial builder over the
    control shard, fed merged LATs, merged stream windows and counters
    summed across shards.  Recovery of a sharded journal always targets a
    *serial* monitor."""
    control = sharded.shards[0].sqlcm
    streams = None
    if control._streams is not None:
        engines = [shard.sqlcm._streams for shard in sharded.shards]
        streams = {None: _summed(engines, _ENGINE_TALLIES)}
        for query in control._streams.queries():
            merged = _summed([engine.query(query.name) for engine in engines],
                             _QUERY_TALLIES)
            merged.window = sharded.merged_window(query.name)
            # per-shard alert rings have no merge order
            merged.alerts = deque(maxlen=query.alerts.maxlen)
            streams[query.name] = merged
    lats = [sharded.merged_lat(name)
            for name in sorted(sharded._lat_definitions)]
    return build_sections(control, lats=lats, streams=streams,
                          counters=sharded.counters())


# ---------------------------------------------------------------------------
# checkpoint restore + journal replay
# ---------------------------------------------------------------------------

@dataclass
class RecoveryReport:
    """What a recovery did; ``sqlcm`` is the rebuilt serial monitor."""

    sqlcm: SQLCM
    generation: int
    checkpoint_path: str
    journal_path: str
    records_replayed: int = 0
    records_discarded: int = 0
    placeholder_rules: list[str] = field(default_factory=list)


class _Restorer:
    """Applies checkpoint sections and journal records to a fresh monitor.

    One ``_load_<section>`` per section applies a ``(key, image)`` entry;
    checkpoint load and journal ``put`` replay share them.
    """

    def __init__(self, sqlcm: SQLCM, report: RecoveryReport):
        self.sqlcm = sqlcm
        self.report = report
        self.pending_timers: dict[str, TimerObject] = {}
        # history rows replay only into a server that did not already
        # hold the history tables (a live supervised restart keeps them)
        self.apply_history = not sqlcm.server.catalog.has_table(
            INCIDENT_TABLE)

    def load_checkpoint(self, sections: dict[str, dict]) -> None:
        for section, entries in sections.items():
            for key, image in entries.items():
                self.put(section, key, image)

    def put(self, section: str, key: Any, image: Any) -> None:
        loader = getattr(self, f"_load_{section}", None)
        if loader is None:
            raise DurabilityError(f"unknown state section {section!r}")
        loader(load(key), image)

    def replay(self, records: list[JournalRecord]) -> None:
        for record in records:
            self.sqlcm.server.clock.advance_to(record.time)
            handler = getattr(self, f"_replay_{record.kind}", None)
            if handler is None:
                raise DurabilityError(
                    f"unknown journal record kind {record.kind!r}")
            handler(record.data)
            self.report.records_replayed += 1

    def finish(self) -> None:
        """Re-arm pending timers (last: their processes need final clock)."""
        for timer in self.pending_timers.values():
            self.sqlcm.set_timer(timer.name, timer.interval, timer.remaining)

    # -- per-section loaders ---------------------------------------------

    def _load_meta(self, key, image: dict) -> None:
        sqlcm = self.sqlcm
        meta = load(image)
        sqlcm.server.clock.advance_to(meta["time"])
        sqlcm.events_handled = meta["events_handled"]
        sqlcm.rule_firings = meta["rule_firings"]
        sqlcm.rule_errors = meta["rule_errors"]
        sqlcm._instance_counts.clear()
        sqlcm._instance_counts.update(meta["instances"])

    def _load_incidents(self, key, image) -> None:
        if key is None:
            manager = self.sqlcm.incident_manager(load(image["policy"]))
            restore(manager, image)
            return
        manager = self.sqlcm.incident_manager()
        incident = load(image)
        manager._incidents[key] = incident
        if incident.active:
            manager._active[incident.key] = key
        elif manager._active.get(incident.key) == key:
            del manager._active[incident.key]

    def _load_lats(self, key: str, image: dict) -> None:
        if not self.sqlcm.has_lat(key):
            self.sqlcm.create_lat(load(image["definition"]))
        restore(self.sqlcm.lat(key), image)

    def _load_rules(self, key: str, image) -> None:
        sqlcm = self.sqlcm
        rule = load(image)
        existing = sqlcm.rules.get(key.lower())
        if existing is not None:
            existing.enabled = rule.enabled
            existing.criticality = rule.criticality
            return
        actions = [action for action in rule.actions if action is not None]
        if len(actions) < len(rule.actions):
            # a live callback cannot be rebuilt from disk; the recovery
            # setup() callback is the supported path — report the rule so
            # the operator knows
            if rule.name not in self.report.placeholder_rules:
                self.report.placeholder_rules.append(rule.name)
            if not actions:
                return
            rule.actions = actions
        sqlcm.add_rule(rule)

    def _load_counts(self, key: str, image: tuple) -> None:
        rule = self.sqlcm.rules.get(key.lower())
        if rule is not None:
            rule.fire_count, rule.evaluation_count = image

    def _load_streams(self, key, image: dict) -> None:
        streams = self.sqlcm.stream_engine()
        if key is None:
            restore(streams, image)
            return
        query = streams._queries.get(key.lower())
        if query is None:
            query = streams.register(image["text"], name=key,
                                     sink_lat=image["sink_lat"])
        restore(query, image)

    def _load_health(self, key: tuple, image) -> None:
        namespace, name = key
        registry = (self.sqlcm.health if namespace == "engine"
                    else self.sqlcm.stream_engine().health)
        registry._health[name] = load(image)

    def _load_governor(self, key, image: dict) -> None:
        restore(self.sqlcm.enable_governor(load(image["policy"])), image)

    def _load_deadletters(self, key, image: dict) -> None:
        restore(self.sqlcm.dead_letters, image)

    def _load_timers(self, key: str, image) -> None:
        self.pending_timers[key] = load(image)

    def _load_history(self, key: str, rows: list) -> None:
        sqlcm = self.sqlcm
        if not self.apply_history or sqlcm._incidents is None:
            return
        sqlcm._incidents._ensure_history()
        if sqlcm.server.catalog.has_table(key):
            table = sqlcm.server.table(key)
            for row in rows:
                table.insert(list(row))

    # -- journal records -------------------------------------------------

    def _replay_put(self, data: tuple) -> None:
        self.put(*data)

    def _replay_drop(self, data: tuple) -> None:
        section, key = data
        sqlcm = self.sqlcm
        streams = sqlcm._streams
        if section == "lats" and sqlcm.has_lat(key):
            sqlcm.drop_lat(key)
        elif section == "rules" and key.lower() in sqlcm.rules:
            sqlcm.remove_rule(key)
        elif section == "streams" and streams is not None \
                and key.lower() in streams._queries:
            streams.remove(key)

    def _replay_lat_insert(self, data: dict) -> None:
        if self.sqlcm.has_lat(data["lat"]):
            self.sqlcm.lat(data["lat"]).insert(
                data["values"], data["weight"], now=data["time"])

    def _replay_lat_seed(self, data: dict) -> None:
        if self.sqlcm.has_lat(data["lat"]):
            self.sqlcm.lat(data["lat"]).seed_row(
                data["values"], now=data["time"])

    def _replay_lat_reset(self, data: dict) -> None:
        if self.sqlcm.has_lat(data["lat"]):
            self.sqlcm.lat(data["lat"]).reset()

    def _replay_lat_del(self, data: dict) -> None:
        if self.sqlcm.has_lat(data["lat"]):
            self.sqlcm.lat(data["lat"]).delete_row(tuple(data["key"]))

    def _replay_stream_obs(self, data: dict) -> None:
        streams = self.sqlcm._streams
        if streams is None:
            return
        query = streams._queries.get(data["stream"].lower())
        if query is None:
            return
        key = tuple(data["key"])
        query.window.observe(key, list(data["values"]), data["time"])
        if query.next_boundary is None:
            query.next_boundary = (
                query.spec.window.pane_index(data["time"]) + 1)
        query.events_ingested += 1

    def _replay_stream_flush(self, data: dict) -> None:
        streams = self.sqlcm._streams
        if streams is None:
            return
        streams.replaying = True
        try:
            streams.flush(data["time"])
        finally:
            streams.replaying = False

    def _replay_counts(self, data: dict) -> None:
        sqlcm = self.sqlcm
        sqlcm.events_handled += 1
        sqlcm.rule_firings += data["firings"]
        sqlcm.rule_errors += data["errors"]
        for name, evals, fires in data["rules"]:
            rule = sqlcm.rules.get(name.lower())
            if rule is not None:
                rule.evaluation_count += evals
                rule.fire_count += fires

    def _replay_instance(self, data: dict) -> None:
        counts = self.sqlcm._instance_counts
        sig = bytes.fromhex(data["sig"])
        counts[sig] = counts.get(sig, 0) + data["delta"]

    def _replay_history(self, data: dict) -> None:
        self._load_history(data["table"],
                           [list(data["values"]) + [data["time"]]])


# ---------------------------------------------------------------------------
# the durability manager
# ---------------------------------------------------------------------------

def _checkpoint_path(directory: str, generation: int) -> str:
    return os.path.join(directory, f"checkpoint-{generation:04d}.ckpt")


def _journal_path(directory: str, generation: int) -> str:
    return os.path.join(directory, f"journal-{generation:04d}.wal")


def _list_generations(directory: str) -> list[int]:
    generations = []
    if os.path.isdir(directory):
        for name in os.listdir(directory):
            if name.startswith("checkpoint-") and name.endswith(".ckpt"):
                try:
                    generations.append(int(name[len("checkpoint-"):-5]))
                except ValueError:
                    continue
    return sorted(generations)


class DurabilityManager:
    """Owns one monitor's on-disk durability state.

    ``attach()`` wires the journal hooks into every subsystem and takes
    the initial checkpoint; ``checkpoint()`` publishes a new generation
    atomically and rotates the journal; :func:`recover` (also exposed as
    a static method) rebuilds a monitor from the newest valid generation.

    ``target`` may be a serial :class:`SQLCM` or a
    :class:`~repro.shard.sharded.ShardedSQLCM` — sharded journals merge
    into the shared segment and recovery always rebuilds a serial
    monitor (the digest proof in :mod:`repro.shard` guarantees equality).
    """

    def __init__(self, target, directory: str,
                 checkpoint_interval: float | None = None):
        self.target = target
        self.directory = directory
        self.checkpoint_interval = checkpoint_interval
        self.sharded = hasattr(target, "shards")
        #: every monitor that journals: the target, or each shard's
        self.monitors = ([shard.sqlcm for shard in target.shards]
                         if self.sharded else [target])
        self.control = self.monitors[0]
        self.journal = Journal(
            self.control,
            dispatching=lambda: any(m._dispatching for m in self.monitors))
        existing = _list_generations(directory)
        self.generation = existing[-1] if existing else 0
        self.last_checkpoint_at: float | None = None
        self.checkpoints_taken = 0
        self.attached = False

    @property
    def clock(self):
        return self.control.server.clock

    # -- wiring ----------------------------------------------------------

    def attach(self) -> "DurabilityManager":
        """Install journal hooks on every subsystem, then checkpoint."""
        os.makedirs(self.directory, exist_ok=True)
        journal = self.journal
        for sqlcm in self.monitors:
            sqlcm.journal = journal
            for lat in sqlcm.lats():
                lat.journal = journal
        if not self.sharded:
            sqlcm = self.target
            sqlcm.health.journal = journal
            if sqlcm._streams is not None:
                sqlcm._streams.health.journal = journal
            sqlcm.dead_letters.journal = journal
        self.attached = True
        self.checkpoint()
        return self

    def detach(self) -> None:
        """Remove every journal hook and close the journal file."""
        for sqlcm in self.monitors:
            sqlcm.journal = None
            for lat in sqlcm.lats():
                lat.journal = None
            sqlcm.health.journal = None
            if sqlcm._streams is not None:
                sqlcm._streams.health.journal = None
            sqlcm.dead_letters.journal = None
        self.journal.close()
        self.attached = False

    close = detach

    # -- checkpointing ---------------------------------------------------

    def checkpoint(self) -> str:
        """Write a new checkpoint generation atomically; rotate the journal.

        Protocol: render the full state, consult the
        ``durability.checkpoint`` fault site (an *exception* fault models
        a crash before the rename — the temp file never becomes visible;
        a *partial* fault models a torn write that does become visible —
        recovery CRC-rejects it and falls back a generation), publish via
        ``os.replace``, and only then start the new journal segment and
        prune generations older than the previous one.
        """
        if self.control._dispatching:
            raise DurabilityError("cannot checkpoint mid-dispatch")
        generation = self.generation + 1
        sections = (build_sections_sharded(self.target) if self.sharded
                    else build_sections(self.target))
        content = render_checkpoint(sections)
        partial: FaultInjected | None = None
        try:
            self.control.check_fault("durability.checkpoint")
        except FaultInjected as err:
            if err.mode != "partial":
                raise  # crash mid-checkpoint: nothing became visible
            partial = err
            content = content[: max(1, int(len(content) * 0.6))]
        path = _checkpoint_path(self.directory, generation)
        temp = path + ".tmp"
        with open(temp, "w", encoding="utf-8") as handle:
            handle.write(content)
        os.replace(temp, path)
        if partial is not None:
            # the torn checkpoint landed, but the journal of the previous
            # generation was never rotated away — recovery falls back to it
            raise partial
        self.generation = generation
        self.journal.rotate(_journal_path(self.directory, generation))
        self._prune()
        self.last_checkpoint_at = self.clock.now
        self.checkpoints_taken += 1
        return path

    def maybe_checkpoint(self, now: float | None = None) -> str | None:
        """Checkpoint when the configured interval has elapsed."""
        if self.checkpoint_interval is None or not self.attached:
            return None
        if self.control._dispatching:
            return None
        now = self.clock.now if now is None else now
        last = self.last_checkpoint_at
        if last is not None and now - last < self.checkpoint_interval:
            return None
        return self.checkpoint()

    def _prune(self) -> None:
        """Keep the current and previous generations; drop older files."""
        for generation in _list_generations(self.directory):
            if generation <= self.generation - 2:
                for path in (_checkpoint_path(self.directory, generation),
                             _journal_path(self.directory, generation)):
                    if os.path.exists(path):
                        os.remove(path)

    def describe(self) -> dict:
        return {
            "directory": self.directory,
            "generation": self.generation,
            "checkpoints_taken": self.checkpoints_taken,
            "last_checkpoint_at": self.last_checkpoint_at,
            "checkpoint_interval": self.checkpoint_interval,
            "journal_records": self.journal.records_written,
            "journal_dead": self.journal.dead,
            "sharded": self.sharded,
        }

    # -- recovery --------------------------------------------------------

    @staticmethod
    def recover(directory: str, *, server=None, driver=None,
                setup: Callable[[SQLCM], None] | None = None,
                sqlcm: SQLCM | None = None) -> RecoveryReport:
        """Rebuild a serial monitor from the newest valid generation.

        Tries checkpoint generations newest-first; a generation whose
        checkpoint fails CRC verification (torn write) is skipped in
        favor of the previous one, whose journal kept growing because
        rotation only happens after a successful checkpoint publish.

        ``setup`` runs against the fresh monitor before any state is
        applied — it is the hook for re-registering components whose
        rules carry live callbacks (AutoRemediator, app rule packs);
        rules that cannot be rebuilt and were not pre-registered are
        listed in ``RecoveryReport.placeholder_rules``.
        """
        generations = _list_generations(directory)
        if not generations:
            raise DurabilityError(f"no checkpoint found in {directory!r}")
        chosen = None
        sections = None
        for generation in reversed(generations):
            path = _checkpoint_path(directory, generation)
            try:
                sections = parse_checkpoint(path)
            except (DurabilityError, OSError):
                continue
            chosen = generation
            break
        if chosen is None or sections is None:
            raise DurabilityError(
                f"no valid checkpoint generation in {directory!r}")
        if sqlcm is None:
            sqlcm = SQLCM(server, driver=driver)
        if setup is not None:
            setup(sqlcm)
        journal_path = _journal_path(directory, chosen)
        report = RecoveryReport(
            sqlcm=sqlcm, generation=chosen,
            checkpoint_path=_checkpoint_path(directory, chosen),
            journal_path=journal_path)
        restorer = _Restorer(sqlcm, report)
        restorer.load_checkpoint(sections)
        records, discarded = read_journal(journal_path)
        report.records_discarded = discarded
        restorer.replay(records)
        restorer.finish()
        return report


# ---------------------------------------------------------------------------
# kill-and-rebuild harness
# ---------------------------------------------------------------------------

class DigestTap:
    """Records ``(virtual time, digest)`` at every committed journal append.

    The last point is the state a correct recovery must reproduce: a
    crash can only lose the uncommitted tail, so the recovered monitor's
    digest must equal the digest at the last commit marker the disk saw.
    """

    def __init__(self, manager: DurabilityManager,
                 digest_fn: Callable[[], int] | None = None):
        self._fn = digest_fn or manager.target.state_digest
        self._clock = manager.clock
        self.points: list[tuple[float, int]] = []
        self._capture()  # the post-attach checkpoint state is point zero
        manager.journal.on_commit.append(self._capture)

    def _capture(self) -> None:
        self.points.append((self._clock.now, self._fn()))

    @property
    def last(self) -> tuple[float, int]:
        return self.points[-1]


def verify_recovery(directory: str, tap: DigestTap, *, server=None,
                    setup: Callable[[SQLCM], None] | None = None
                    ) -> RecoveryReport:
    """Recover from ``directory`` and assert digest equality with ``tap``.

    Raises :class:`DurabilityError` on mismatch; returns the report on
    success.  The recovered monitor's clock is advanced to the capture
    time first (aging aggregates and integrity signatures read the
    clock).
    """
    report = DurabilityManager.recover(directory, server=server, setup=setup)
    target_time, expected = tap.last
    report.sqlcm.server.clock.advance_to(target_time)
    actual = report.sqlcm.state_digest()
    if actual != expected:
        raise DurabilityError(
            f"recovered digest 0x{actual:08x} != pre-crash digest "
            f"0x{expected:08x} (generation {report.generation}, "
            f"{report.records_replayed} records replayed, "
            f"{report.records_discarded} discarded)")
    return report
