"""Admission, batching, deadline and retry policy for the daemon.

One frozen dataclass holds every robustness knob so the server, the
bench harness and the tests configure identical behavior from one
place.  The semantics (enforced by :mod:`repro.serve.batcher`):

* **Bounded queue.**  At most ``max_queue`` requests may be waiting for
  a batch slot; request ``max_queue + 1`` is shed immediately with an
  ``overloaded`` response — explicit load shedding instead of unbounded
  latency growth.
* **Micro-batches.**  Waiting requests, whatever their ops, are
  coalesced into batches of at most ``max_batch`` and answered through
  the vectorized kernels, one tree selection per batch.  Batching is
  work-conserving: there is no coalescing timer, a batch is whatever
  queued up while the previous one ran, so a lone request is answered
  at once and batches grow only with load.
* **Deadlines.**  Every request carries an absolute deadline (its
  ``deadline_ms``, else ``default_deadline``).  A request whose
  deadline passes — in the queue or mid-execution — resolves to a
  ``timeout`` response; it never hangs and is never silently dropped.
* **Retry with backoff.**  A batch execution that raises is retried up
  to ``max_retries`` times, sleeping ``backoff_base * backoff_factor^i``
  between attempts; only then do its requests fail with ``error``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

__all__ = ["AdmissionPolicy"]


@dataclass(frozen=True)
class AdmissionPolicy:
    """The daemon's robustness knobs (see module docstring)."""

    max_batch: int = 32
    max_queue: int = 256
    default_deadline: float = 2.0
    max_retries: int = 2
    backoff_base: float = 0.01
    backoff_factor: float = 4.0

    def __post_init__(self):
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {self.max_queue}")
        if self.default_deadline <= 0:
            raise ValueError(
                f"default_deadline must be > 0, got {self.default_deadline}"
            )
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_base < 0 or self.backoff_factor < 1:
            raise ValueError("backoff_base >= 0 and backoff_factor >= 1 required")

    def deadline_at(self, now: float, deadline_ms: Optional[float]) -> float:
        """The absolute deadline for a request arriving at ``now``."""
        if deadline_ms is None:
            return now + self.default_deadline
        return now + deadline_ms / 1000.0

    def deadlines_at(
        self, now: float, deadline_ms: Sequence[Optional[float]]
    ) -> List[float]:
        """:meth:`deadline_at` for each of a batch's requests, all
        arriving at ``now``: one computation per distinct value."""
        if not any(deadline_ms):  # every request takes the default
            return [now + self.default_deadline] * len(deadline_ms)
        at: Dict[Optional[float], float] = {}
        out = []
        for value in deadline_ms:
            deadline = at.get(value)
            if deadline is None:
                deadline = at[value] = self.deadline_at(now, value)
            out.append(deadline)
        return out

    def backoff_delay(self, attempt: int) -> float:
        """Sleep before retry ``attempt`` (0-based)."""
        return self.backoff_base * (self.backoff_factor ** attempt)
