"""A fixed chunk of pure-Python work that measures the host's speed.

The measurement host is a shared virtual machine whose single-thread
speed changes by itself: a fixed piece of work timed back to back reads
anywhere from about 120 to 220 ms, with process CPU time equal to wall
time, and the mix of fast and slow spells changes from minute to
minute.  A wall-clock figure of a CPU-bound phase follows that
speed, so on its own it cannot tell a program change from the host.

:func:`chunk_s` times one chunk of fixed work that uses nothing from
``repro`` (a binary heap, a dict and integer arithmetic, the operations
an event-driven simulator spends its time on).  Timed right after a
window of program work, it gives that window's host speed, and
:func:`normalise` rescales the window's wall time to the reference speed
at which one chunk takes :data:`REF_MS` milliseconds.  A program change
moves the window and not the chunk, so it moves the normalised figure
by the same share as the wall time.

serve-mapped's closed loop cannot stop for a chunk (the daemon would
idle), and chunks timed between its phases did not follow its rate.
There the load generator's own work is the calibration: the thread CPU
time it spends encoding requests, fixed work per request that the daemon
does not change, summed over the same phase (``loadgen.Connection``).
"""

from __future__ import annotations

import heapq
import statistics
import time

#: Milliseconds one chunk takes at the reference host speed.  It sets
#: the scale of the normalised figures, not their spread; beside the
#: simulator a chunk reads about 9-11 ms, so normalised netsim times come
#: out at about 0.7 of the wall times printed beside them.
REF_MS = 7.0

_ITEMS = 3000


def _work() -> int:
    # The heap holds tuples, as the simulator's event queue does: a chunk
    # of ints only stays in the first-level caches and did not follow
    # the simulator's slow spells (quartile spread of normalised netsim
    # figures over five seeds 0.08-0.11 with ints, 0.02-0.04 with tuples).
    heap: list = []
    table: dict = {}
    x = 12345
    for i in range(_ITEMS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, (x & 0xFFFF, i))
        table[x & 4095] = i
    total = 0
    while heap:
        key, _ = heapq.heappop(heap)
        total += table.get(key & 4095, 0)
    return total


def chunk_s() -> float:
    """Wall seconds of one chunk of fixed work."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def median_chunk_s(chunks: int) -> float:
    """Median wall seconds over ``chunks`` consecutive chunks."""
    return statistics.median(chunk_s() for _ in range(chunks))


def normalise(wall_s: float, calib_s: float,
              ref_s: float = REF_MS / 1e3) -> float:
    """``wall_s`` rescaled to the reference host speed, given the seconds
    ``calib_s`` a piece of fixed work took next to it, and the seconds
    ``ref_s`` it takes at the reference speed (by default one chunk)."""
    return wall_s * ref_s / calib_s
