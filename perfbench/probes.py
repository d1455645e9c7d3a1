"""Per-layer tracing for the traced run, done entirely from outside.

The program carries no tracing of its own.  ``Probes.install()`` wraps the
public entry points of each layer (named after the modules) with timing
wrappers and ``uninstall()`` puts the originals back.  Wrappers are
installed before the rig is built, because some layers hand bound methods
to the event bus at registration time.

Three kinds of boundary:

* **spans** -- layer boundaries at or above one event (an operation, an
  engine statement, a dispatch, a checkpoint, a shard replay): kept in
  memory as (name, thread, id, parent id, operation id, start ns, end ns)
  and written out once, as JSON lines, when the run ends;
* **timed calls** -- per-rule and per-frame calls (conditions, LAT
  inserts, governor admission, obs frames, journal appends): aggregated
  in place as count, total and self time, so a traced run does not hold
  hundreds of thousands of records;
* **counts** -- hot per-probe boundaries (``MonitoredObject.get``,
  attribution pushes, trace-span begins): a counter only.

Self time is a call's duration minus the time its nested timed calls and
spans cover; the nesting stack is per thread, so shard workers and the
service's pump thread each keep their own tree.
"""

from __future__ import annotations

import json
import os
import threading
from collections import defaultdict
from time import perf_counter_ns

from repro.core import durability
from repro.core import engine as core_engine
from repro.core.condition import CompiledCondition
from repro.core.durability import DurabilityManager, Journal
from repro.core.governor import OverloadGovernor
from repro.core.incidents import IncidentManager
from repro.core.lat import LAT
from repro.core.objects import MonitoredObject
from repro.engine.server import DatabaseServer
from repro.engine.session import Session
from repro.obs.attribution import CostAttribution
from repro.obs.observability import Observability
from repro.obs.tracing import TraceRecorder
from repro.service import client as service_client
from repro.service import server as service_server
from repro.shard.sharded import ShardedSQLCM, ShardState
from repro.stream.engine import StreamEngine

SPAN, TIMED, COUNT = "span", "timed", "count"

#: layers whose self time is monitor work (the numerator of
#: monitor.wall_overhead_ratio); ``engine.*`` is the denominator
MONITOR_LAYERS = ("dispatch", "signatures", "condition", "lat", "stream",
                  "governor", "obs", "incidents", "journal", "checkpoint")


class _ThreadState:
    """One thread's records (merged by ``Probes.collect``)."""

    def __init__(self):
        self.thread = threading.current_thread().name
        self.stack: list[list] = []       # [child ns, span id]
        self.stats: dict = defaultdict(lambda: [0, 0, 0])
        self.counts: dict = defaultdict(int)
        self.spans: list[tuple] = []
        self.next_id = 0
        self.op: int | None = None


class Probes:
    """Installs the wrappers and owns everything they record."""

    def __init__(self):
        self.active = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []
        self._patches: list[tuple] = []
        self._next_op = 0
        self._in_flight = 0
        self._sole_op: int | None = None
        self.spans_kept: list[tuple] = []

    # -- recording --------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._threads.append(state)
        return state

    def _wrap(self, fn, name, kind, on_result=None):
        probes = self

        if kind == COUNT:
            def counted(*args, **kwargs):
                if probes.active:
                    probes._state().counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        def timed(*args, **kwargs):
            if not probes.active:
                return fn(*args, **kwargs)
            state = probes._state()
            label = name(args) if callable(name) else name
            stack = state.stack
            parent = stack[-1][1] if stack else None
            span_id = state.next_id
            state.next_id += 1
            frame = [0, span_id if kind == SPAN else parent]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                took = end - start
                entry = state.stats[label]
                entry[0] += 1
                entry[1] += took
                entry[2] += took - frame[0]
                if stack:
                    stack[-1][0] += took
                if kind == SPAN:
                    op = state.op if state.op is not None \
                        else probes._sole_op
                    state.spans.append((label, state.thread, span_id,
                                        parent, op, start, end))
            if on_result is not None:
                on_result(state, result)
            return result
        return timed

    def _patch(self, owner, attr, name, kind, on_result=None,
               static=False):
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        fn = original.__func__ if static else original
        wrapped = self._wrap(fn, name, kind, on_result)
        setattr(owner, attr, staticmethod(wrapped) if static else wrapped)
        self._patches.append((owner, attr, original))

    def op(self, fn, *args):
        """Run one benchmark operation inside an ``op`` span.

        Spans on the operation's thread carry its id; spans on threads it
        hands work to (shard workers) carry it too while it is the only
        operation in flight."""
        state = self._state()
        with self._lock:
            state.op = self._next_op
            self._next_op += 1
            self._in_flight += 1
            self._sole_op = state.op if self._in_flight == 1 else None
        try:
            return self._op_span(fn, *args)
        finally:
            state.op = None
            with self._lock:
                self._in_flight -= 1
                self._sole_op = None

    # -- installation -----------------------------------------------------

    def install(self) -> "Probes":
        def counter(key, measure):
            def record(state, result):
                state.counts[key] += measure(result)
            return record

        self._op_span = self._wrap(lambda fn, *a: fn(*a), "op", SPAN)
        patch = self._patch
        # engine (repro.engine)
        patch(Session, "execute", "engine.statement", SPAN)
        patch(DatabaseServer, "run", "engine.run", SPAN)
        patch(DatabaseServer, "compile_query", "engine.compile", SPAN)
        # monitor core (repro.core): the whole signature fill of a
        # compile event (plan walks, linearize_*, digest) is timed; it is
        # "signatures" when it computes the plan's signatures and
        # "signatures.copy" when it copies them from the cached plan
        def fill_label(args):
            monitor, payload = args[0], args[1]
            computes = monitor.signatures_needed \
                and payload["entry"].logical_signature is None
            return "signatures" if computes else "signatures.copy"
        patch(core_engine.SQLCM, "_fill_signatures", fill_label, TIMED)
        patch(core_engine.SQLCM, "dispatch_event", "dispatch", SPAN)
        patch(MonitoredObject, "get", "objects.get", COUNT)
        patch(CompiledCondition, "evaluate", "condition", TIMED,
              counter("condition.true", bool))
        patch(LAT, "insert", "lat.insert", TIMED,
              counter("lat.evictions", len))
        patch(LAT, "lookup_object", "lat.lookup", TIMED)
        patch(StreamEngine, "_on_event", "stream.event", TIMED)
        patch(StreamEngine, "flush", "stream.flush", SPAN)
        patch(OverloadGovernor, "admit", "governor.admit", TIMED)
        patch(OverloadGovernor, "observe", "governor.observe", TIMED)
        patch(OverloadGovernor, "note_eval", "governor.note_eval", TIMED)
        patch(IncidentManager, "sweep", "incidents.sweep", SPAN)
        # self-observability (repro.obs): every facade call is obs time
        patch(CostAttribution, "push", "obs.frames", COUNT)
        patch(TraceRecorder, "begin", "obs.spans", COUNT)
        for attr in ("attrib", "span", "account", "count", "gauge",
                     "observe"):
            patch(Observability, attr, f"obs.{attr}", TIMED)
        patch(CostAttribution, "pop", "obs.pop", TIMED)
        patch(TraceRecorder, "end", "obs.end", TIMED)
        # durability; journal bytes are read off each segment as it is
        # rotated away (the open segment's size is read by journal_sizes)
        patch(Journal, "append", "journal.append", TIMED)
        rotate = Journal.rotate

        def rotate_counted(journal, path):
            if self.active and journal.path and os.path.exists(journal.path):
                self._state().counts["journal.bytes"] += \
                    os.path.getsize(journal.path)
            return rotate(journal, path)
        Journal.rotate = rotate_counted
        self._patches.append((Journal, "rotate", rotate))
        patch(DurabilityManager, "checkpoint", "checkpoint", SPAN,
              counter("checkpoint.bytes", os.path.getsize))
        patch(DurabilityManager, "recover", "recover", SPAN, static=True)
        patch(durability, "parse_checkpoint", "recover.parse", SPAN)
        patch(durability, "read_journal", "recover.parse", SPAN)
        # service tier (both ends of the wire)
        for module in (service_client, service_server):
            patch(module, "encode_frame", "service.encode", TIMED,
                  counter("service.bytes", len))
        patch(service_client, "decode_frame", "service.decode", TIMED)
        patch(service_server, "decode_frame", "service.decode", TIMED)
        # shard tier
        patch(ShardState, "replay",
              lambda args: f"shard.busy.{args[0].shard_id}", SPAN)
        for attr in ("merged_lat", "merged_window", "merged_attribution",
                     "state_digest"):
            patch(ShardedSQLCM, attr, "shard.merge", SPAN)
        return self

    @staticmethod
    def journal_sizes(journals) -> int:
        """Bytes in the open segments of ``journals`` right now."""
        return sum(os.path.getsize(j.path) for j in journals
                   if j.path and os.path.exists(j.path))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def collect(self) -> tuple[dict, dict]:
        """Merge every thread's records, then clear them.

        Returns (stats name -> [count, total ns, self ns], counts)."""
        stats: dict = defaultdict(lambda: [0, 0, 0])
        counts: dict = defaultdict(int)
        with self._lock:
            for state in self._threads:
                for name, (n, total, own) in state.stats.items():
                    entry = stats[name]
                    entry[0] += n
                    entry[1] += total
                    entry[2] += own
                for name, n in state.counts.items():
                    counts[name] += n
                self.spans_kept.extend(state.spans)
                state.stats.clear()
                state.counts.clear()
                state.spans = []
        return stats, counts

    def write_spans(self, path: str) -> int:
        """Write every kept span as one JSON line; returns the count."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for name, thread, span_id, parent, op, start, end \
                    in self.spans_kept:
                handle.write(json.dumps({
                    "name": name, "thread": thread, "id": span_id,
                    "parent": parent, "op": op, "start_ns": start,
                    "end_ns": end}) + "\n")
        return len(self.spans_kept)


def self_ns(stats: dict, prefix: str) -> int:
    """Summed self time of every stat named ``prefix`` or ``prefix.*``."""
    return sum(entry[2] for name, entry in stats.items()
               if name == prefix or name.startswith(prefix + "."))


def monitor_self_ns(stats: dict) -> int:
    return sum(self_ns(stats, layer) for layer in MONITOR_LAYERS)
