"""Deterministic event scheduler with controllable tie-breaking.

A seeded min-heap of ``(time, tie, seq)`` keys.  Events at distinct
times run in time order; events at the *same* time run in an order
chosen by the tie-break policy:

* ``"fifo"`` — insertion order (seq ascending);
* ``"lifo"`` — reverse insertion order;
* ``"seeded"`` — a deterministic pseudo-random permutation of the ties,
  derived from the scheduler seed and the event sequence number.

The conformance suite runs the same workload under all three policies
and asserts the delivered paths are identical — routing decisions are
pure functions of ``(table, header, label)``, so interleaving must not
be able to change where a packet goes.  Only queueing *delays* (and,
under overload, which packet a bounded queue drops) may depend on the
policy; for a fixed policy and seed those are deterministic too.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

__all__ = ["EventScheduler", "TIE_BREAK_POLICIES"]

TIE_BREAK_POLICIES = ("fifo", "lifo", "seeded")

# Deterministic integer hash (splitmix64 finalizer) — no Date/Math
# randomness, so replays are exact across processes and platforms.
_MASK = (1 << 64) - 1


def _mix(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


class EventScheduler:
    """A deterministic discrete-event queue."""

    def __init__(self, tie_break: str = "fifo", seed: int = 0):
        if tie_break not in TIE_BREAK_POLICIES:
            raise ValueError(
                f"unknown tie-break policy {tie_break!r}; "
                f"pick one of {TIE_BREAK_POLICIES}"
            )
        self.tie_break = tie_break
        self.seed = seed
        # The seeded policy's salt, mixed once here so that a tie key
        # costs one ``_mix`` per event.
        self._salt = _mix(seed)
        self._heap: List[Tuple[float, int, int, Callable[[], None]]] = []
        self._seq = 0
        self.now = 0.0
        self.events_run = 0

    def __len__(self) -> int:
        return len(self._heap)

    def _tie(self, seq: int) -> int:
        if self.tie_break == "fifo":
            return seq
        if self.tie_break == "lifo":
            return -seq
        return _mix(seq ^ self._salt)

    def schedule(self, time: float, action: Callable[[], None]) -> None:
        """Enqueue ``action`` to run at simulated ``time``."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule into the past: {time} < now={self.now}"
            )
        seq = self._seq
        self._seq += 1
        heapq.heappush(self._heap, (time, self._tie(seq), seq, action))

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> int:
        """Drain the queue; returns the number of events executed.

        ``until`` stops the clock (events beyond it stay queued);
        ``max_events`` bounds runaway loops (raises ``RuntimeError``).
        """
        executed = 0
        while self._heap:
            time, _, _, action = self._heap[0]
            if until is not None and time > until:
                break
            heapq.heappop(self._heap)
            self.now = time
            action()
            executed += 1
            self.events_run += 1
            if max_events is not None and executed >= max_events:
                if self._heap:
                    raise RuntimeError(
                        f"scheduler exceeded {max_events} events — likely a "
                        "routing loop or a self-rescheduling action"
                    )
                break
        return executed
