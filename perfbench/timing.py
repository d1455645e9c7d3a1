"""Summaries of the closed loop's samples, shared by both run modes."""

from __future__ import annotations

import math
import statistics


#: ops_per_s is the median rate over this many slices of the loop
WINDOWS = 10

#: the percentiles a tail may be reported at
LADDER = (50.0, 90.0, 95.0, 99.0, 99.9, 99.99)


def tail_latency(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest percentile of ``LADDER``
    with at least ten samples beyond it (nearest rank).  A fixed ladder
    keeps the reported percentile the same from run to run of a workload
    where the exact ten-beyond rank would wander with the sample count."""
    ordered = sorted(latencies)
    n = len(ordered)
    chosen = LADDER[0]
    for percentile in LADDER:
        if n - math.ceil(n * percentile / 100.0) >= 10:
            chosen = percentile
    rank = max(1, math.ceil(n * chosen / 100.0))
    return ordered[rank - 1], chosen, n


def throughput(samples: list[tuple], start: float) -> float:
    """Operations per second: the median rate over ``WINDOWS`` runs of
    consecutive operations, each rate = units done / wall time from the
    previous window's last completion to this window's.  The median
    leaves out a stretch of the loop that something outside the
    benchmark slowed, which a whole-loop rate would carry."""
    windows = min(WINDOWS, len(samples))
    rates = []
    previous = start
    for k in range(windows):
        chunk = samples[len(samples) * k // windows:
                        len(samples) * (k + 1) // windows]
        end = chunk[-1][0]
        rates.append(sum(units for __, __, units in chunk) / (end - previous))
        previous = end
    return statistics.median(rates) if rates else 0.0


def busy_rate(samples: list[tuple]) -> float:
    """Units done per second spent inside the operations (think time
    and gaps between operations left out)."""
    busy = sum(latency for __, latency, __ in samples)
    return sum(units for __, __, units in samples) / busy if busy else 0.0
