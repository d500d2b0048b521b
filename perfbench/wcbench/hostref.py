"""Host-speed reference: a fixed piece of pure-Python work timed between ops.

On a shared host the same op can take 1.7x longer from one second to the
next because other tenants contend for the core.  The reference is timed
right before and right after every op, in the same process, so it sees the
same contention; an op's scaled latency is its wall time times
``REF_NS / reference time around it``.  The reference runs no numpy and no
program code, so a change to the program cannot change it, and it needs no
import before a set-up is timed.

``REF_NS`` is the reference's fastest time on the host the benchmark was
tuned on (Intel Xeon at 2.1 GHz, 2 vCPUs, CPython 3.11): scaled times read
as that host's wall time with its core to itself.
"""

from __future__ import annotations

import time

REF_NS = 620_000


def reference() -> float:
    s = 0.0
    for i in range(4000):
        s += (i * 0.5) ** 0.5 + (i % 7) * 1.25
    d: dict[int, int] = {}
    for i in range(500):
        d[i & 63] = d.get(i & 63, 0) + i
    return s + len(d)


def timed_reference(runs: int = 1) -> float:
    """Mean wall time of ``runs`` reference runs, ns."""
    t0 = time.perf_counter_ns()
    for _ in range(runs):
        reference()
    return (time.perf_counter_ns() - t0) / runs


def scaled(ns: float, before_ns: float, after_ns: float) -> float:
    """``ns`` measured between two reference runs, at the reference speed."""
    return ns * 2.0 * REF_NS / (before_ns + after_ns)
