"""A fixed slice of pure-Python work that says how fast the host is right now.

The benchmark may get a two-core share of a busy host, whose speed drifts by
tens of percent within seconds and by up to half between minutes: on such a
share the same replay input's median time moved between 65 and 98 ms over
five consecutive 36-second runs.
So every worker times a burst of reference slices before and after each
timed call, and scales the call's wall time by `NOMINAL_S` over the median
slice time around it.  The result is the time the call would have taken on a
host where the slice takes exactly `NOMINAL_S`.  The slice is benchmark code
that no change to the kernel can touch, so a change that makes the kernel
slower or faster moves the scaled time as much as the raw one.

The slice builds and reads a graph of tuples and a dict of strings, the kind
of work the kernel does, with the garbage collector off, so that a bigger or
smaller kernel heap does not change its time.

This module imports nothing from `izf`.
"""

from __future__ import annotations

import gc
import statistics
import time

NOMINAL_S = 0.0004  # defines the nominal host; about the slice's median on a two-core VM
NODES = 700
BURST = 4  # slices timed between two operations


def reference_slice() -> float:
    """Run the fixed slice once; return its wall time in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        nodes = [(0,)]
        for i in range(1, NODES):
            nodes.append((i, nodes[i // 2], nodes[(i - 1) // 3]))
        seen: dict[int, int] = {}
        for node in nodes:
            seen[node[0] % 61] = seen.get(node[0] % 61, 0) + len(node)
        words = {str(i): i for i in range(NODES)}
        if sum(seen.values()) + sum(words.values()) != 3 * NODES - 2 + NODES * (NODES - 1) // 2:
            raise AssertionError("reference slice computed a wrong sum")
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def burst() -> list[float]:
    return [reference_slice() for _ in range(BURST)]


def scale(seconds: float, refs: list[float]) -> float:
    """`seconds` of work, timed while the slices took `refs`, on the nominal host."""
    return seconds * NOMINAL_S / statistics.median(refs)
