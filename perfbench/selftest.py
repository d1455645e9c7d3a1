"""Self-test of the benchmark itself.

Run from the repository root::

    python3 perfbench/selftest.py [--seconds 2]

It checks that

* ``BENCHMARK.json`` names exactly the metrics the runs print, with the
  same units (``metrics.py`` is the source of the per-layer list);
* two traced runs with the same seed give exactly equal deterministic
  counts (``metrics.DETERMINISTIC_COUNTS``) on rule_storm, topk_mixed and
  shard_replay -- later changes may rest count-based claims on them;
* a second seed changes every workload's generated inputs and still
  passes every oracle.

Exits non-zero, listing the failures, when any check does not hold.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DETERMINISTIC_WORKLOADS = ("rule_storm", "topk_mixed", "shard_replay")
WORKLOADS = ("rule_storm", "topk_mixed", "service_ops", "shard_replay")


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run; returns its result plus the inputs digest."""
    child = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=600)
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited "
                           f"{child.returncode}: {child.stderr[-2000:]}"
                           f"{child.stdout[-2000:]}")
    result = json.loads(lines[-1])
    digests = re.findall(r"inputs crc32 = (0x[0-9a-f]+)", child.stdout)
    result["inputs"] = digests[-1] if digests else None
    return result


def check_names(failures: list[str], untraced: dict, traced: dict) -> None:
    from metrics import LAYER_METRICS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    table = {name: unit for name, unit, __, __ in LAYER_METRICS}
    if listed != table:
        failures.append("BENCHMARK.json per_layer differs from "
                        "metrics.LAYER_METRICS")
    for kind, result in (("end_to_end", untraced), ("per_layer", traced)):
        wanted = {m["name"]: m["unit"] for m in spec[kind]}
        printed = {name: metric["unit"]
                   for name, metric in result["metrics"].items()}
        if wanted != printed:
            failures.append(f"{kind} metrics printed {sorted(printed)} "
                            f"!= listed {sorted(wanted)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=float, default=2.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    from metrics import DETERMINISTIC_COUNTS

    failures: list[str] = []
    first_inputs = {}
    traced_result = None
    for workload in DETERMINISTIC_WORKLOADS:
        first = run(workload, args.seed, args.seconds, 1)
        second = run(workload, args.seed, args.seconds, 1)
        traced_result = first
        first_inputs[workload] = first["inputs"]
        for name in DETERMINISTIC_COUNTS:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            status = "ok" if a == b else "DIFFERS"
            print(f"{workload:<13} {name:<32} {a!r:>12} {b!r:>12} {status}")
            if a != b:
                failures.append(f"{workload}: {name} {a!r} != {b!r} for "
                                f"seed {args.seed}")
    untraced_result = None
    other = args.seed + 1
    for workload in WORKLOADS:
        if workload not in first_inputs:
            first_inputs[workload] = run(workload, args.seed, args.seconds,
                                         0)["inputs"]
        result = run(workload, other, args.seconds, 0)
        untraced_result = result
        changed = result["inputs"] != first_inputs[workload]
        print(f"{workload:<13} seed {other}: correct={result['correct']} "
              f"inputs {first_inputs[workload]} -> {result['inputs']}")
        if not result["correct"]:
            failures.append(f"{workload}: seed {other} failed its oracle")
        if not changed:
            failures.append(f"{workload}: seed {other} did not change "
                            f"the inputs")
    check_names(failures, untraced_result, traced_result)
    for failure in failures:
        print(f"FAILED: {failure}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
