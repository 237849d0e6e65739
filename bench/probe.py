"""Host-speed probe: turns wall seconds into reference seconds.

On a shared host the same pass can take twice as long a few seconds later
because another tenant got busy; medians do not remove a slowdown that lasts
longer than a run.  A fixed pure-Python loop, timed right before and right
after each measured segment, says how fast the host ran during it.  Dividing
by that speed gives *reference seconds*: what the segment would have taken
on a host where the probe takes :data:`REF_S`.  The loop is bench code, so
no change to the simulator can change it.

The loop allocates no object the cycle collector tracks, so it never
triggers (or absorbs) a garbage collection of the simulator's heap.
"""

from __future__ import annotations

import heapq
from time import perf_counter

#: Reference probe duration [s]: the host speed every reported time and
#: rate is scaled to.
REF_S = 0.5e-3
LOOPS = 2000

_HEAP = [float(i) for i in range(64)]
_TABLE = dict.fromkeys(range(64), 0.0)


def probe_s() -> float:
    """Seconds the fixed loop takes on the host right now (about 0.5 ms)."""
    heap, table, replace = _HEAP, _TABLE, heapq.heapreplace
    t0 = perf_counter()
    for i in range(LOOPS):
        k = i & 63
        x = replace(heap, heap[0] + 0.5 + k * 1e-3)
        table[k] = x - table[k] * 0.5
    return perf_counter() - t0


class RefClock:
    """Times consecutive segments, probing the host between them."""

    def __init__(self) -> None:
        self._last = probe_s()

    def time(self, fn, *args, **kwargs):
        """``(fn(*args, **kwargs), wall seconds, reference seconds)``."""
        t0 = perf_counter()
        value = fn(*args, **kwargs)
        wall = perf_counter() - t0
        now = probe_s()
        ref = wall * 2.0 * REF_S / (self._last + now)
        self._last = now
        return value, wall, ref
