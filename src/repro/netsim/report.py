"""Observer-side accounting: turn a finished run into numbers + gates.

:class:`SimReport` is computed *after* the event queue drains, entirely
from the simulator's observer-plane records (delivered envelopes, drop
ledger, the metric as a batched stretch oracle).  ``check_contract``
turns the paper's guarantees into hard gates that raise
:class:`~repro.errors.InvariantViolation` — the bench stage and the
smoke script both call it, so a regression fails loudly instead of
shipping a quietly-degraded BENCH row.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional

from ..errors import InvariantViolation, check

__all__ = ["SimReport", "percentile"]


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty list."""
    if not values:
        raise ValueError("percentile of an empty list")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


class SimReport:
    """Aggregate results of one simulator run."""

    def __init__(self, sim) -> None:
        self.name = sim.compiled.name
        self.n = sim.compiled.n
        self.zeta = sim.compiled.zeta
        self.f = sim.compiled.f
        self.gamma_budget = sim.compiled.gamma
        self.hop_budget = sim.compiled.hop_budget
        self.injected = sim.injected
        self.delivered = len(sim.delivered)
        self.drop_counts = dict(sim.drop_counts)
        self.dropped = sum(self.drop_counts.values())
        self.kills = len(sim.faults)
        self.sim_time = sim.now
        self.events = sim.scheduler.events_run

        self.hops: List[int] = [e.hops for e in sim.delivered]
        self.header_bits: List[int] = [e.max_header_bits for e in sim.delivered]
        self.stretches: List[float] = sim.stretches(sim.delivered)

    # -- derived numbers -------------------------------------------------

    @property
    def delivery_rate(self) -> float:
        return self.delivered / self.injected if self.injected else 0.0

    @property
    def max_hops(self) -> int:
        return max(self.hops) if self.hops else 0

    @property
    def max_header_bits(self) -> int:
        return max(self.header_bits) if self.header_bits else 0

    @property
    def max_stretch(self) -> float:
        return max(self.stretches) if self.stretches else 0.0

    def stretch_percentile(self, q: float) -> float:
        return percentile(self.stretches, q) if self.stretches else 0.0

    def to_dict(self) -> Dict[str, Any]:
        """Schema-stable summary (BENCH rows, CLI ``--json``)."""
        return {
            "scheme": self.name,
            "n": self.n,
            "zeta": self.zeta,
            "f": self.f,
            "injected": self.injected,
            "delivered": self.delivered,
            "delivery_rate": round(self.delivery_rate, 6),
            "dropped": dict(sorted(self.drop_counts.items())),
            "kills": self.kills,
            "events": self.events,
            "sim_time": round(self.sim_time, 6),
            "hops_max": self.max_hops,
            "hops_mean": (
                round(sum(self.hops) / len(self.hops), 4) if self.hops else 0.0
            ),
            "header_bits_max": self.max_header_bits,
            "stretch_p50": round(self.stretch_percentile(50.0), 6),
            "stretch_p99": round(self.stretch_percentile(99.0), 6),
            "stretch_max": round(self.max_stretch, 6),
            "gamma_budget": self.gamma_budget,
            "hop_budget": self.hop_budget,
        }

    # -- gates -----------------------------------------------------------

    def check_contract(
        self,
        min_delivery: float = 1.0,
        gamma: Optional[float] = None,
        header_budget: Optional[int] = None,
        hop_budget: Optional[int] = None,
        expected_kills: Optional[int] = None,
    ) -> "SimReport":
        """Assert the run obeyed the paper's contracts; returns self.

        * delivery rate at least ``min_delivery`` (faulty runs pass a
          budget < 1 covering messages lost *to* dead nodes);
        * p99 delivered stretch within ``gamma`` (default: the
          compiled scheme's measured budget);
        * worst per-hop header within ``header_budget`` bits;
        * delivered hop counts within ``hop_budget`` (default: the
          scheme's contractual budget — 2 hops for Theorems 5.1/1.3);
        * the fault plane killed exactly ``expected_kills`` nodes.
        """
        check(
            self.injected > 0,
            "contract check on a run with no injected messages",
        )
        if self.delivery_rate < min_delivery:
            raise InvariantViolation(
                f"{self.name}: delivered {self.delivered}/{self.injected} "
                f"({self.delivery_rate:.4f}) below the {min_delivery:.4f} "
                f"budget; drops: {self.drop_counts}"
            )
        if gamma is None:
            gamma = self.gamma_budget
        if gamma is not None and self.stretches:
            p99 = self.stretch_percentile(99.0)
            if p99 > gamma + 1e-9:
                raise InvariantViolation(
                    f"{self.name}: p99 delivered stretch {p99:.4f} exceeds "
                    f"the γ={gamma:.4f} budget"
                )
        if header_budget is not None and self.max_header_bits > header_budget:
            raise InvariantViolation(
                f"{self.name}: worst per-hop header {self.max_header_bits} "
                f"bits exceeds the {header_budget}-bit budget"
            )
        if hop_budget is None:
            hop_budget = self.hop_budget
        if hop_budget is not None and self.hops and self.max_hops > hop_budget:
            raise InvariantViolation(
                f"{self.name}: a delivered message took {self.max_hops} hops "
                f"against a {hop_budget}-hop budget"
            )
        if expected_kills is not None and self.kills != expected_kills:
            raise InvariantViolation(
                f"{self.name}: fault plane killed {self.kills} nodes, "
                f"expected {expected_kills}"
            )
        return self

    def summary(self) -> str:
        """One human line (the CLI prints it)."""
        parts = [
            f"{self.name}: n={self.n}",
            f"delivered {self.delivered}/{self.injected} "
            f"({100.0 * self.delivery_rate:.2f}%)",
            f"hops<= {self.max_hops}",
            f"header<= {self.max_header_bits}b",
        ]
        if self.stretches:
            parts.append(
                f"stretch p50/p99/max "
                f"{self.stretch_percentile(50.0):.3f}/"
                f"{self.stretch_percentile(99.0):.3f}/"
                f"{self.max_stretch:.3f}"
            )
        if self.kills:
            parts.append(f"kills={self.kills}")
        drops = {k: v for k, v in self.drop_counts.items() if v}
        if drops:
            parts.append(f"drops={drops}")
        return "  ".join(parts)
