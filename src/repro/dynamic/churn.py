"""Churn injection: interleaved mutations + queries with per-batch audits.

The static chaos harness (:mod:`repro.resilience.chaos`) kills points
of a *fixed* structure; this injector mutates the structure itself.
Each round applies a seeded batch of inserts/deletes through
:class:`~repro.dynamic.cover.DynamicRobustCover`, fires queries at the
new generation, and re-verifies the paper's contracts before the
next round:

* **Table 1 stretch** — the cover must dominate and γ-approximate a
  sample of active pairs (``TreeCover.verify``).
* **Thm 4.2 pool structure** — a fault-tolerant spanner built *on the
  mutated cover* must pass ``validate_ft_spanner`` (every replica pool
  non-empty, ≤ f+1, duplicate-free).
* **Differential oracle** (opt-in, expensive) — the mutated state must
  be tree-for-tree identical to a from-scratch rebuild on the same
  final point set.

Mid-mutation process kills are exercised one level up, in
``scripts/churn_smoke.sh`` (``kill -9`` between journal append and
patch apply, then restart + replay).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import check
from ..observability import OBS, trace
from .cover import DynamicRobustCover

__all__ = ["ChurnHarness", "states_identical"]

_C_BATCHES = OBS.registry.counter("dynamic.churn_batches")


def states_identical(a: DynamicRobustCover, b: DynamicRobustCover) -> bool:
    """Tree-for-tree, float-for-float structural equality of two covers."""
    if a.n != b.n or a.active != b.active or len(a.trees) != len(b.trees):
        return False
    for ta, tb in zip(a.trees, b.trees):
        if (
            ta.tree.parents != tb.tree.parents
            or ta.tree.weights != tb.tree.weights
            or ta.rep_point != tb.rep_point
            or ta.vertex_of_point != tb.vertex_of_point
        ):
            return False
    return True


class ChurnHarness:
    """Seeded interleaved mutation/query schedules over a dynamic cover."""

    def __init__(
        self,
        dynamic: DynamicRobustCover,
        gamma: Optional[float] = None,
        seed: int = 0,
        f: int = 1,
        k: int = 3,
        verify_ft: bool = True,
        verify_rebuild: bool = False,
    ):
        self.dynamic = dynamic
        #: Stretch bound to enforce per batch; ``None`` records the
        #: measured stretch without gating on it.
        self.gamma = gamma
        self.seed = seed
        self.f = f
        self.k = k
        self.verify_ft = verify_ft
        self.verify_rebuild = verify_rebuild
        self.rounds: List[Dict[str, object]] = []

    def _make_ops(
        self, rng: random.Random, batch_size: int, insert_fraction: float
    ) -> List[Tuple[str, object]]:
        dyn = self.dynamic
        lo = dyn.coords[dyn.active].min(axis=0)
        hi = dyn.coords[dyn.active].max(axis=0)
        span = [max(h - l, 1.0) for l, h in zip(lo, hi)]
        ops: List[Tuple[str, object]] = []
        live = set(dyn.active)
        for _ in range(batch_size):
            if rng.random() < insert_fraction or len(live) <= 3:
                point = [
                    float(l - 0.1 * s + rng.random() * 1.2 * s)
                    for l, s in zip(lo, span)
                ]
                ops.append(("insert", point))
            else:
                victim = rng.choice(sorted(live))
                live.discard(victim)
                ops.append(("delete", victim))
        return ops

    def run_batch(
        self,
        batch_size: int = 4,
        queries: int = 16,
        insert_fraction: float = 0.5,
        round_seed: Optional[int] = None,
    ) -> Dict[str, object]:
        """One churn round: mutate, query, audit.  Returns the record."""
        rng = random.Random(
            self.seed * 1_000_003 + (round_seed if round_seed is not None else len(self.rounds))
        )
        dyn = self.dynamic
        ops = self._make_ops(rng, batch_size, insert_fraction)
        with trace("dynamic.churn_batch", ops=len(ops)):
            report = dyn.apply(ops)

            pairs = dyn.active_pairs(count=queries, seed=rng.randrange(1 << 30))
            worst = 0.0
            for u, v in pairs:
                base = dyn.metric.distance(u, v)
                _, best = dyn.cover.best_tree(u, v)
                check(
                    best + 1e-9 >= base,
                    f"cover under-estimates pair ({u}, {v}) after churn",
                )
                if base > 0:
                    worst = max(worst, best / base)
            if self.gamma is not None:
                check(
                    worst <= self.gamma + 1e-9,
                    f"stretch {worst:.4f} blew the gamma={self.gamma} "
                    "contract after a churn batch",
                )

            ft_ok = None
            if self.verify_ft:
                from ..resilience.validation import validate_ft_spanner
                from ..spanners.fault_tolerant import FaultTolerantSpanner

                spanner = FaultTolerantSpanner(
                    dyn.metric, self.f, self.k, cover=dyn.cover, validate=False
                )
                validate_ft_spanner(spanner)
                ft_ok = True

            rebuild_ok = None
            if self.verify_rebuild:
                rebuild_ok = states_identical(dyn, dyn.rebuild())
                check(rebuild_ok, "mutated state diverged from a from-scratch rebuild")

        record: Dict[str, object] = {
            "ops": [(kind, arg if kind == "delete" else list(arg)) for kind, arg in ops],
            "patch": report.to_dict(),
            "queries": len(pairs),
            "measured_stretch": round(worst, 6),
            "ft_pools_ok": ft_ok,
            "rebuild_identical": rebuild_ok,
            "active": len(dyn.active),
        }
        self.rounds.append(record)
        if OBS.enabled:
            _C_BATCHES.inc()
        return record

    def run(
        self,
        batches: int = 5,
        batch_size: int = 4,
        queries: int = 16,
        insert_fraction: float = 0.5,
    ) -> List[Dict[str, object]]:
        """``batches`` churn rounds; returns one record per round."""
        return [
            self.run_batch(batch_size, queries, insert_fraction)
            for _ in range(batches)
        ]
