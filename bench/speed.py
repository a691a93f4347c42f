"""The machine-speed reference that the benchmark's timings are scaled by.

The shared host this benchmark runs on changes speed by +-20% within a
minute, for every process alike, so raw wall times of the same
query set differ that much between runs.  A fixed piece of benchmark code
that does the same kind of interpreter work as sfclosure (tuples, sets, and
dict lookups: the transformation monoid T_4 of gen.py) is timed between
queries, and every query time is scaled by REFERENCE_MS / (its neighbouring
reference time).  A scaled millisecond is a millisecond on a machine where
one reference round takes REFERENCE_MS.  The reference never calls
sfclosure, so a change to the program moves the scaled times as it moves
the raw ones.
"""

from __future__ import annotations

import gc
import statistics
import time

import gen

# one round's time at the scale the benchmark reports in; about its median
# on the 2-vCPU host where the benchmark was defined
REFERENCE_MS = 0.5
ROUNDS = 5
# wall time between two reference samples inside a pass
EVERY_S = 0.2
# a stretch of queries between two samples is scaled by the median of this
# many samples on each side of it, about a second of the machine's speed
WINDOW = 3

_T4 = gen.transformation_dfa(4)["delta"]


def reference_ms() -> float:
    """Median time of ROUNDS reference rounds, in ms, with the cyclic
    collector off so that the program's heap does not enter it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(ROUNDS):
            start = time.perf_counter()
            gen.transformation_monoid(_T4, 1000)
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times) * 1000.0


def scale(ref_ms: float) -> float:
    """Factor from raw to scaled time for a reference sample of ref_ms."""
    return REFERENCE_MS / ref_ms
