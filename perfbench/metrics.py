"""Per-layer metrics of the traced run, and the table that names them.

``LAYER_METRICS`` is the one list of per-layer metrics: name, unit, better
direction, and the end-to-end metric and workload the metric should move
(written down before measuring, as the benchmark's prediction).  Every
traced run reports every entry; a layer that does not run on a workload
reads 0 there.  ``BENCHMARK.json`` lists the same names; the self-test
checks that the two agree.
"""

from __future__ import annotations

from probes import Probes, monitor_self_ns, self_ns
from timing import busy_rate

#: (name, unit, better, end-to-end metric and workload it should move)
LAYER_METRICS = [
    ("engine.self_ms_per_op", "ms", "lower",
     "ops_per_s, latency_p50_ms on topk_mixed"),
    ("engine.compiles", "count", "lower",
     "ops_per_s, latency_p50_ms on topk_mixed"),
    ("engine.compile_ms", "ms", "lower",
     "ops_per_s, latency_p50_ms on topk_mixed"),
    ("engine.lock_waits", "count", "lower",
     "latency_tail_ms on topk_mixed and service_ops"),
    ("signatures.calls", "count", "lower", "latency_p50_ms on topk_mixed"),
    ("signatures.us_per_call", "us", "lower", "latency_p50_ms on topk_mixed"),
    ("dispatch.events", "count", "lower",
     "ops_per_s on rule_storm and shard_replay"),
    ("dispatch.self_us_per_event", "us", "lower",
     "ops_per_s on rule_storm and shard_replay"),
    ("dispatch.rule_evals_per_event", "count", "lower",
     "ops_per_s on rule_storm and shard_replay"),
    ("dispatch.fire_ratio", "ratio", "higher",
     "ops_per_s on rule_storm and shard_replay"),
    ("objects.probe_reads_per_event", "count", "lower",
     "ops_per_s on rule_storm and shard_replay"),
    ("condition.evals", "count", "lower",
     "ops_per_s on rule_storm and shard_replay"),
    ("condition.us_per_eval", "us", "lower",
     "ops_per_s on rule_storm and shard_replay"),
    ("condition.true_ratio", "ratio", "higher",
     "ops_per_s on rule_storm and shard_replay"),
    ("lat.us_per_insert", "us", "lower", "ops_per_s on rule_storm"),
    ("lat.evictions_per_insert", "ratio", "lower", "ops_per_s on rule_storm"),
    ("lat.us_per_lookup", "us", "lower", "latency_p50_ms on service_ops"),
    ("lat.bytes", "B", "lower", "peak_rss_mb"),
    ("stream.events", "count", "lower", "latency_p50_ms on service_ops"),
    ("stream.us_per_event", "us", "lower", "latency_p50_ms on service_ops"),
    ("stream.flushes", "count", "lower", "latency_p50_ms on service_ops"),
    ("stream.us_per_flush", "us", "lower", "latency_p50_ms on service_ops"),
    ("governor.admits", "count", "lower", "latency_p50_ms on service_ops"),
    ("governor.us_per_admit", "us", "lower", "latency_p50_ms on service_ops"),
    ("governor.observes", "count", "lower", "latency_p50_ms on service_ops"),
    ("governor.us_per_observe", "us", "lower",
     "latency_p50_ms on service_ops"),
    ("governor.note_evals", "count", "lower",
     "latency_p50_ms on service_ops"),
    ("governor.us_per_note_eval", "us", "lower",
     "latency_p50_ms on service_ops"),
    ("governor.sampled_out_ratio", "ratio", "lower",
     "latency_p50_ms on service_ops"),
    ("governor.transitions", "count", "lower",
     "latency_p50_ms on service_ops"),
    ("obs.frames", "count", "lower", "latency_p50_ms on service_ops"),
    ("obs.spans", "count", "lower", "latency_p50_ms on service_ops"),
    ("obs.us_per_frame", "us", "lower", "latency_p50_ms on service_ops"),
    ("obs.share_of_monitor", "ratio", "lower",
     "latency_p50_ms on service_ops"),
    ("incidents.sweeps", "count", "lower", "latency_p50_ms on service_ops"),
    ("incidents.us_per_sweep", "us", "lower",
     "latency_p50_ms on service_ops"),
    ("incidents.opened", "count", "lower", "latency_p50_ms on service_ops"),
    ("journal.records_per_op", "count", "lower",
     "latency_p50_ms on service_ops"),
    ("journal.bytes_per_op", "B", "lower", "latency_p50_ms on service_ops"),
    ("journal.us_per_append", "us", "lower",
     "latency_p50_ms on service_ops"),
    ("checkpoint.count", "count", "lower", "latency_tail_ms on service_ops"),
    ("checkpoint.ms", "ms", "lower", "latency_tail_ms on service_ops"),
    ("checkpoint.bytes", "B", "lower", "latency_tail_ms on service_ops"),
    ("recover.parse_ms", "ms", "lower", "recovery_s on service_ops"),
    ("recover.replay_ms", "ms", "lower", "recovery_s on service_ops"),
    ("service.bytes_per_request", "B", "lower",
     "latency_p50_ms on service_ops"),
    ("service.wait_ms_per_request", "ms", "lower",
     "latency_p50_ms on service_ops"),
    ("service.queued", "count", "lower", "latency_p50_ms on service_ops"),
    ("service.shed", "count", "lower", "latency_p50_ms on service_ops"),
    ("shard.busy_ms.0", "ms", "lower", "ops_per_s on shard_replay"),
    ("shard.busy_ms.1", "ms", "lower", "ops_per_s on shard_replay"),
    ("shard.skew", "ratio", "lower", "ops_per_s on shard_replay"),
    ("shard.merge_ms", "ms", "lower", "ops_per_s on shard_replay"),
    ("shard.parallelism", "ratio", "higher", "ops_per_s on shard_replay"),
    ("monitor.wall_overhead_ratio", "ratio", "lower",
     "ops_per_s on rule_storm"),
    ("monitor.virtual_overhead_pct", "%", "lower",
     "none (virtual time, the paper's Figure 2 axis)"),
    ("trace.overhead_ratio", "ratio", "lower",
     "none (cost of the traced run itself)"),
]

#: the counts that repeat exactly for a seed on the deterministic
#: workloads (the self-test holds them to that)
DETERMINISTIC_COUNTS = ("dispatch.rule_evals_per_event",
                        "objects.probe_reads_per_event",
                        "lat.evictions_per_insert", "condition.evals",
                        "engine.compiles")


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _snapshot(rig) -> dict:
    governors = [m.governor for m in rig.monitors()
                 if m.governor is not None]
    return {
        "rules": rig.rule_counters(),
        "virtual": rig.virtual(),
        "sampled_out": sum(g.evals_sampled_out for g in governors),
        "transitions": sum(len(g.transitions) for g in governors),
        "opened": sum(m.incident_manager().opened for m in rig.monitors()
                      if m.has_incidents),
        "service": rig.service_counters(),
    }


def layer_metrics(probes: Probes, rig, untraced_rate: float, out) -> None:
    """Run the rig's fixed traced phase and add every layer metric, the
    phase's operations and its oracle answers to ``out`` (an Outcome).
    ``untraced_rate`` is the ``busy_rate`` of the same operations run
    untraced."""
    before = _snapshot(rig)
    journal_start = Probes.journal_sizes(rig.journals())
    # engine events counted off the bus: lock waits, and compiles that
    # missed the plan cache (parse and optimize actually ran)
    seen = {"query.blocked": 0, "query.compile": 0}

    def on_event(event: str, payload: dict) -> None:
        if event == "query.blocked" or not payload.get("cached"):
            seen[event] += 1
    for event in seen:
        rig.server.events.subscribe(event, on_event)

    samples: list[tuple] = []
    probes.active = True
    try:
        attempted, failed = rig.run(ops=rig.traced_ops, samples=samples,
                                    hook=probes.op)
    finally:
        journal_end = Probes.journal_sizes(rig.journals())
        probes.active = False
    traced_rate = busy_rate(samples)
    stats, counts = probes.collect()
    for event in seen:
        rig.server.events.unsubscribe(event, on_event)
    after = _snapshot(rig)
    lat_bytes = sum(lat.memory_bytes() for m in rig.monitors()
                    for lat in m.lats())
    out.attempted += attempted
    out.failed += failed
    out.oracle.extend(rig.check())

    # only the recoveries' spans are read off this collection
    probes.active = True
    try:
        recovery = rig.recover()
    finally:
        probes.active = False
    recover_stats, __ = probes.collect()
    if recovery is not None and not recovery[1]:
        out.oracle.append("recovered state digest != live digest")

    def stat(name: str) -> list:
        return stats.get(name, [0, 0, 0])

    def calls(name: str) -> int:
        return stat(name)[0]

    def mean(name: str, unit_ns: float) -> float:
        """Mean duration of one call of ``name``, in units of unit_ns."""
        return _per(stat(name)[1], calls(name)) / unit_ns

    def add(name: str, value: float) -> None:
        out.add(name, value, UNITS[name])

    us, ms = 1e3, 1e6
    ops = attempted
    engine_ns = self_ns(stats, "engine")
    monitor_ns = monitor_self_ns(stats)
    obs_ns = self_ns(stats, "obs")
    events = calls("dispatch")
    evals = after["rules"][0] - before["rules"][0]
    firings = after["rules"][1] - before["rules"][1]

    add("engine.self_ms_per_op", _per(engine_ns, ops) / ms)
    add("engine.compiles", seen["query.compile"])
    add("engine.compile_ms",
        _per(stat("engine.compile")[2], calls("engine.compile")) / ms)
    add("engine.lock_waits", seen["query.blocked"])
    add("signatures.calls", calls("signatures"))
    add("signatures.us_per_call", mean("signatures", us))
    add("dispatch.events", events)
    add("dispatch.self_us_per_event", _per(stat("dispatch")[2], events) / us)
    add("dispatch.rule_evals_per_event", _per(evals, events))
    add("dispatch.fire_ratio", _per(firings, evals))
    add("objects.probe_reads_per_event", _per(counts["objects.get"], events))
    add("condition.evals", calls("condition"))
    add("condition.us_per_eval", mean("condition", us))
    add("condition.true_ratio",
        _per(counts["condition.true"], calls("condition")))
    add("lat.us_per_insert", mean("lat.insert", us))
    add("lat.evictions_per_insert",
        _per(counts["lat.evictions"], calls("lat.insert")))
    add("lat.us_per_lookup", mean("lat.lookup", us))
    add("lat.bytes", lat_bytes)
    add("stream.events", calls("stream.event"))
    add("stream.us_per_event", mean("stream.event", us))
    add("stream.flushes", calls("stream.flush"))
    add("stream.us_per_flush", mean("stream.flush", us))
    for kind in ("admit", "observe", "note_eval"):
        add(f"governor.{kind}s", calls(f"governor.{kind}"))
        add(f"governor.us_per_{kind}", mean(f"governor.{kind}", us))
    add("governor.sampled_out_ratio",
        _per(after["sampled_out"] - before["sampled_out"],
             calls("governor.admit")))
    add("governor.transitions", after["transitions"] - before["transitions"])
    add("obs.frames", counts["obs.frames"])
    add("obs.spans", counts["obs.spans"])
    add("obs.us_per_frame", _per(obs_ns, counts["obs.frames"]) / us)
    add("obs.share_of_monitor", _per(obs_ns, monitor_ns))
    add("incidents.sweeps", calls("incidents.sweep"))
    add("incidents.us_per_sweep", mean("incidents.sweep", us))
    add("incidents.opened", after["opened"] - before["opened"])
    add("journal.records_per_op", _per(calls("journal.append"), ops))
    add("journal.bytes_per_op",
        _per(counts["journal.bytes"] + journal_end - journal_start, ops))
    add("journal.us_per_append", mean("journal.append", us))
    add("checkpoint.count", calls("checkpoint"))
    add("checkpoint.ms", mean("checkpoint", ms))
    add("checkpoint.bytes",
        _per(counts["checkpoint.bytes"], calls("checkpoint")))
    recoveries, recover_ns = recover_stats.get("recover", [0, 0, 0])[:2]
    parse_ns = recover_stats.get("recover.parse", [0, 0, 0])[1]
    add("recover.parse_ms", _per(parse_ns, recoveries) / ms)
    add("recover.replay_ms", _per(recover_ns - parse_ns, recoveries) / ms)
    service_bytes = counts["service.bytes"]
    add("service.bytes_per_request", _per(service_bytes, ops))
    # the round trip minus the engine and monitor time the service spent
    # (the two clients' waits overlap, so this is a share, not a split)
    waited = stat("op")[1] - engine_ns - monitor_ns if service_bytes else 0
    add("service.wait_ms_per_request", max(0.0, _per(waited, ops)) / ms)
    add("service.queued", after["service"][0] - before["service"][0])
    add("service.shed", after["service"][1] - before["service"][1])
    busy = [stat(f"shard.busy.{k}")[1] for k in range(2)]
    replays = calls("op") if any(busy) else 0
    for k in range(2):
        add(f"shard.busy_ms.{k}", _per(busy[k], replays) / ms)
    shard_events = getattr(rig, "last_result", {}).get("shard_events")
    add("shard.skew", _per(max(shard_events), sum(shard_events)
                           / len(shard_events)) if shard_events else 0.0)
    add("shard.merge_ms", _per(self_ns(stats, "shard.merge"), replays) / ms)
    add("shard.parallelism", _per(sum(busy), stat("op")[1]) if replays
        else 0.0)
    virtual_engine = after["virtual"][0] - before["virtual"][0]
    virtual_monitor = after["virtual"][1] - before["virtual"][1]
    add("monitor.wall_overhead_ratio", _per(monitor_ns, engine_ns))
    add("monitor.virtual_overhead_pct",
        100.0 * _per(virtual_monitor, virtual_engine))
    add("trace.overhead_ratio", _per(untraced_rate, traced_rate))

    wall_ratio = out.metrics["monitor.wall_overhead_ratio"][0]
    out.notes.append(
        "monitor cost, wall vs virtual: monitor.wall_overhead_ratio = "
        + (f"{wall_ratio:.3f} (monitor wall time / engine self wall time)"
           if engine_ns else "n/a (no engine in the loop)")
        + f" vs monitor.virtual_overhead_pct = "
        f"{out.metrics['monitor.virtual_overhead_pct'][0]:.3f}% "
        f"(the paper's Figure 2 reports < 4%)")
    out.notes.append(
        f"trace.overhead_ratio = {untraced_rate:.3f} / "
        f"{traced_rate:.3f} ops per busy second (untraced / traced) = "
        f"{out.metrics['trace.overhead_ratio'][0]:.3f}")
    out.notes.append(f"traced phase: {ops} operations")


UNITS = {name: unit for name, unit, __, __ in LAYER_METRICS}
MOVES = {name: moves for name, __, __, moves in LAYER_METRICS}
