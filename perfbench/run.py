"""Wall-clock benchmark of the SQLCM reproduction, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload rule_storm --seed 1 \
        --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seconds 10

``--trace 0`` measures the end-to-end metrics with nothing wrapped: set
up ``SETUPS`` times (``setup_s`` is the median), warm up, read the peak
resident memory, run the closed loop for ``--seconds``, check the
workload's oracle, then (service_ops only) time the monitor's recovery
from its durability directory.  ``--trace 1`` first runs the same loop
untraced for half the time, then installs the probes of ``probes.py``,
builds a fresh rig and runs a fixed number of operations traced, so the
per-layer counts repeat exactly for a seed; ``trace.overhead_ratio`` is
the untraced over the traced rate of those same operations.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; with
``--trace 0`` its metrics are ``setup_s`` and ``peak_rss_mb``, the rest
are printed above it.  The exit code is non-zero when any operation
failed or any oracle check did not hold.  The metric names, their units
and the layer each per-layer metric belongs to are listed in
``metrics.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from timing import LADDER, busy_rate, tail_latency, throughput

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: trace files and scratch durability directories (ignored by git)
OUT = HERE / "out"
#: set-ups per run; setup_s is their median
SETUPS = 3
WORKLOADS = ("rule_storm", "topk_mixed", "service_ops", "shard_replay")


def _load_program() -> None:
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: the program's sources are missing "
                 f"(expected {source / 'repro'}); run from a full checkout")
    sys.path.insert(0, str(source))


def build(rig_cls, seed: int, workdir: str, repeats: int):
    """Build the rig ``repeats`` times; returns (last rig, set-up times)."""
    rig = None
    times = []
    for __ in range(repeats):
        if rig is not None:
            rig.close()
            rig = None
        gc.collect()
        start = time.perf_counter()
        rig = rig_cls(seed, workdir)
        times.append(time.perf_counter() - start)
    return rig, times


def timed_loop(rig, seconds: float, samples: list) -> tuple[int, int, float]:
    """Run the closed loop of a warmed-up rig for ``seconds``; returns
    (attempted, failed, operations per second)."""
    gc.collect()
    gc.freeze()
    start = time.perf_counter()
    attempted, failed = rig.run(deadline=start + seconds, samples=samples)
    gc.unfreeze()
    return attempted, failed, throughput(samples, start)


class Outcome:
    """What one run attempted, what failed and what it measured."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.oracle: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}
        #: printed with the metrics but left out of the result line:
        #: error_ratio, which is 0 by design (the result carries attempted
        #: and failed), and the timings of the loop (ops_per_s,
        #: latency_p50_ms, latency_tail_ms, recovery_s).  On a shared
        #: two-vCPU host whose speed shifts by up to 2x for minutes at a
        #: time, their spread over ten runs exceeds the largest bound a
        #: metric may have, so a gate on them would fail unchanged code
        self.shown: dict[str, tuple[float, str]] = {}
        self.notes: list[str] = []
        #: per-layer metric -> the end-to-end metric it should move
        self.moves: dict[str, str] = {}

    def add(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    @property
    def correct(self) -> bool:
        return not self.oracle and self.failed == 0


def run_untraced(rig_cls, args, workdir: str) -> Outcome:
    out = Outcome()
    rig, setups = build(rig_cls, args.seed, workdir, SETUPS)
    try:
        samples: list[tuple] = []
        rig.warmup()
        # the high-water mark of set-up plus warm-up, a fixed amount of
        # work.  The timed loop is left out: completed-query tracking
        # keeps every statement (~3 KB each on topk_mixed), so memory
        # there grows with the statements the host managed to run, and a
        # faster program would read as a memory regression
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted, failed, ops_per_s = timed_loop(rig, args.seconds, samples)
        out.attempted, out.failed = attempted, failed
        out.notes.append(f"inputs crc32 = 0x{rig.inputs_digest():08x}")
        out.oracle = rig.check()
        recovery = rig.recover()
        if recovery is not None:
            out.shown["recovery_s"] = (recovery[0], "s")
            if not recovery[1]:
                out.oracle.append("recovered state digest != live digest")
    finally:
        rig.close()
    latencies = [latency for __, latency, __ in samples]
    tail, percentile, count = tail_latency(latencies)
    out.add("setup_s", statistics.median(setups), "s")
    out.shown["ops_per_s"] = (ops_per_s, "1/s")
    out.shown["latency_p50_ms"] = (statistics.median(latencies) * 1e3, "ms")
    out.shown["latency_tail_ms"] = (tail * 1e3, "ms")
    out.add("peak_rss_mb", peak_rss_mb, "MB")
    ladder = "/".join(f"p{q:g}" for q in LADDER)
    out.notes.append(f"latency_tail_ms is p{percentile:g} of {count} "
                     f"samples: the highest of {ladder} with at least ten "
                     f"samples beyond it")
    return out


def run_traced(rig_cls, args, workdir: str) -> Outcome:
    from metrics import MOVES, layer_metrics
    from probes import Probes

    out = Outcome()
    out.moves = MOVES
    # untraced reference, on its own rig of the same seed; its first
    # traced_ops operations are the very operations the traced phase
    # runs, from the same state
    rig, __ = build(rig_cls, args.seed, workdir, 1)
    samples: list[tuple] = []
    try:
        rig.warmup()
        attempted, failed, __ = timed_loop(rig, args.seconds / 2, samples)
    finally:
        rig.close()
    out.attempted, out.failed = attempted, failed
    untraced_rate = busy_rate(samples[:rig_cls.traced_ops])

    probes = Probes().install()
    try:
        rig, __ = build(rig_cls, args.seed, workdir, 1)
        try:
            rig.warmup()
            out.notes.append(f"inputs crc32 = 0x{rig.inputs_digest():08x}")
            # as in timed_loop: the collector does not rescan set-up
            gc.collect()
            gc.freeze()
            try:
                layer_metrics(probes, rig, untraced_rate, out)
            finally:
                gc.unfreeze()
        finally:
            rig.close()
    finally:
        probes.uninstall()
    path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
    spans = probes.write_spans(str(path))
    out.notes.append(f"{spans} spans written to "
                     f"{path.relative_to(ROOT)}")
    return out


def report(args, out: Outcome) -> None:
    mode = "traced" if args.trace else "timed"
    print(f"# perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} ({mode} run)")
    # a wrong oracle answer counts as one more failed operation
    failed = out.failed + len(out.oracle)
    out.shown["error_ratio"] = (failed / max(1, out.attempted), "ratio")
    for name, (value, unit) in {**out.metrics, **out.shown}.items():
        moves = out.moves.get(name)
        line = f"{name:<34} {value:>16.6f} {unit:<6}"
        print(f"{line}  moves {moves}" if moves else line.rstrip())
    for note in out.notes:
        print(f"# {note}")
    print(f"# error_ratio = {failed}/{out.attempted}: failed operations "
          f"(SQL errors, shed replies, wrong oracle answers) over attempted")
    for failure in out.oracle:
        print(f"# ORACLE FAILED: {failure}")
    print(json.dumps({
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in out.metrics.items()},
    }))


def run_all(args) -> int:
    """Every workload, each in its own process; exits non-zero if any
    run failed.  The last line sums the runs."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=str(ROOT), capture_output=True, text=True, timeout=900)
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            status = 1
            summary["correct"] = False
            continue
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(summary))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _load_program()
    if args.workload == "all":
        return run_all(args)
    from workloads import RIGS

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=str(OUT))
    try:
        runner = run_traced if args.trace else run_untraced
        out = runner(RIGS[args.workload], args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report(args, out)
    return 0 if out.correct else 1


if __name__ == "__main__":
    sys.exit(main())
