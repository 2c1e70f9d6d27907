"""The dynamic robust cover: insert/delete as rebuilds over the live points.

:class:`DynamicRobustCover` wraps the Theorem 4.1 construction in a
mutable shell.  The point-index space is append-only — inserts take
the next index, deletes tombstone one — so client-visible ids stay
stable across any mutation history.  Each generation is
:func:`~repro.treecover.dumbbell.robust_tree_cover` over a
:class:`~repro.metrics.doubling.NetHierarchy` whose bottom net is the
live (active) points, on the pinned level range: tombstoned indices
belong to no net and stay singleton leaves that never represent a
vertex, so the trees are index-map-isomorphic to the static cover of
the live points alone.

One mutation path: every batch rebuilds nets, pairing sweep and every
tree.  Each active point is a net point on the bottom levels of the
pinned range, a band wider than the ``phases`` interleave, so every
``(phase, set)`` merge script changes on any insert or delete
(``docs/DYNAMIC.md`` has the measurement); :meth:`DynamicRobustCover.apply`
amortizes one build over a whole batch.  A mutation that breaks out
of the pinned level range re-pins it before the build.

The structure is a pure function of ``(coords, active, pinned range,
eps)``, so a journal replay converges to the identical state and
:meth:`DynamicRobustCover.rebuild` reproduces any mutated generation
tree for tree.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import check
from ..metrics.doubling import NetHierarchy, scale_levels
from ..metrics.euclidean import EuclideanMetric
from ..observability import OBS, trace
from ..treecover.dumbbell import robust_tree_cover

__all__ = ["DynamicRobustCover", "PatchReport", "pinned_levels"]

_C_INSERTS = OBS.registry.counter("dynamic.inserts")
_C_DELETES = OBS.registry.counter("dynamic.deletes")
_C_PATCHED = OBS.registry.counter("dynamic.trees_patched")
_C_REBUILDS = OBS.registry.counter("dynamic.full_rebuilds")
_G_ACTIVE = OBS.registry.gauge("dynamic.active_points")


def pinned_levels(metric: EuclideanMetric, eps: float) -> Tuple[int, int]:
    """The level range :func:`robust_tree_cover` would use for ``metric``.

    Pinning the range is what makes mutation histories deterministic:
    the construction on ``(coords, active, i_min, i_max, eps)`` is a
    pure function, so a journal replay converges to the identical
    structure.
    """
    lo, hi = scale_levels(metric)
    lo -= math.ceil(math.log2(1.0 / eps)) + 2
    return lo, hi


class PatchReport:
    """What one applied mutation batch did (for benches and /metrics)."""

    def __init__(
        self,
        ops: int,
        trees_total: int,
        trees_replayed: int,
        rebuilt: bool,
        repinned: bool,
    ):
        self.ops = ops
        self.trees_total = trees_total
        self.trees_replayed = trees_replayed
        self.rebuilt = rebuilt
        self.repinned = repinned

    @property
    def touched_fraction(self) -> float:
        return self.trees_replayed / self.trees_total if self.trees_total else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "ops": self.ops,
            "trees_total": self.trees_total,
            "trees_replayed": self.trees_replayed,
            "touched_fraction": round(self.touched_fraction, 4),
            "rebuilt": self.rebuilt,
            "repinned": self.repinned,
        }


class DynamicRobustCover:
    """A robust tree cover that absorbs inserts and deletes.

    Construct with :meth:`from_metric` (fresh) or :meth:`restore`
    (from compacted checkpoint metadata).  Mutate with :meth:`insert`,
    :meth:`delete`, or batched :meth:`apply`; read the current
    generation through :attr:`metric`, :attr:`cover`, and
    :attr:`active`.  Not thread-safe — callers (the serving stack)
    serialize mutations through ``CheckpointService``'s mutate lock.
    """

    def __init__(
        self,
        coords: np.ndarray,
        active: Sequence[int],
        eps: float,
        i_min: int,
        i_max: int,
        base_n: int,
        workers: Optional[int] = None,
        applied_seq: int = 0,
    ):
        check(0 < eps < 1, "eps must lie in (0, 1)", ValueError)
        self.coords = np.asarray(coords, dtype=float)
        self.active: List[int] = sorted(int(a) for a in active)
        check(len(self.active) >= 2, "a dynamic cover needs >= 2 active points", ValueError)
        self.eps = eps
        self.i_min = int(i_min)
        self.i_max = int(i_max)
        self.base_n = int(base_n)
        self.workers = workers
        #: Journal sequence number folded into this structure (managed
        #: by the journal-aware caller; rides into compact metadata).
        self.applied_seq = int(applied_seq)
        self.metric = EuclideanMetric(self.coords)
        self.last_report: Optional[PatchReport] = None
        with trace("dynamic.rebuild", n=self.n, active=len(self.active)):
            self._replay()

    # -- constructors --------------------------------------------------

    @classmethod
    def from_metric(
        cls,
        metric: EuclideanMetric,
        eps: float = 0.5,
        workers: Optional[int] = None,
    ) -> "DynamicRobustCover":
        """Start a dynamic cover from a static metric (all points active).

        The initial generation is tree-for-tree identical to
        ``robust_tree_cover(metric, eps)``.
        """
        lo, hi = pinned_levels(metric, eps)
        return cls(
            metric.points,
            range(metric.n),
            eps,
            lo,
            hi,
            base_n=metric.n,
            workers=workers,
        )

    @classmethod
    def restore(
        cls,
        base_metric: EuclideanMetric,
        meta: Dict[str, object],
        workers: Optional[int] = None,
    ) -> "DynamicRobustCover":
        """Rebuild from the ``dynamic`` metadata of a compacted checkpoint."""
        check(
            int(meta["base_n"]) == base_metric.n,
            f"dynamic checkpoint was compacted at base_n={meta['base_n']} "
            f"but the supplied metric has n={base_metric.n}",
            ValueError,
        )
        extra = meta.get("extra_points") or []
        coords = base_metric.points
        if extra:
            coords = np.vstack([coords, np.asarray(extra, dtype=float)])
        return cls(
            coords,
            meta["active"],
            float(meta["eps"]),
            int(meta["i_min"]),
            int(meta["i_max"]),
            base_n=base_metric.n,
            workers=workers,
            applied_seq=int(meta.get("applied_seq", 0)),
        )

    def state_meta(self) -> Dict[str, object]:
        """The metadata a ``compact`` folds into the checkpoint."""
        extra = self.coords[self.base_n :]
        return {
            "format": "repro.dynamic-meta/1",
            "base_n": self.base_n,
            "extra_points": [list(map(float, row)) for row in extra],
            "active": list(self.active),
            "applied_seq": self.applied_seq,
            "eps": self.eps,
            "i_min": self.i_min,
            "i_max": self.i_max,
        }

    # -- current generation --------------------------------------------

    @property
    def n(self) -> int:
        """Size of the index space (tombstones included)."""
        return int(self.coords.shape[0])

    @property
    def active_mask(self) -> List[bool]:
        return self._mask_list()

    def is_active(self, point_id: int) -> bool:
        return 0 <= point_id < self.n and bool(self._mask[point_id])

    def _replay(self) -> None:
        """Build the cover over the live points and install it as the
        current generation, retiring the previous cover."""
        hierarchy = NetHierarchy(
            self.metric, self.i_min, self.i_max, points=self.active
        )
        cover = robust_tree_cover(
            self.metric, self.eps, hierarchy=hierarchy, workers=self.workers
        )
        old = getattr(self, "cover", None)
        self.trees = list(cover.trees)
        self.cover = cover
        self._mask = self._mask_list()
        if old is not None:
            old.retire("a mutation superseded this generation")
        if OBS.enabled:
            _G_ACTIVE.set(len(self.active))

    def _mask_list(self) -> List[bool]:
        mask = [False] * self.n
        for a in self.active:
            mask[a] = True
        return mask

    def rebuild(self) -> "DynamicRobustCover":
        """A from-scratch cover on this exact ``(coords, active, range)``:
        any mutated state equals it, tree for tree."""
        return DynamicRobustCover(
            self.coords,
            self.active,
            self.eps,
            self.i_min,
            self.i_max,
            base_n=self.base_n,
            workers=self.workers,
            applied_seq=self.applied_seq,
        )

    # -- mutation ------------------------------------------------------

    def insert(self, point: Sequence[float]) -> PatchReport:
        """Insert one point; returns what the mutation did."""
        return self.apply([("insert", point)])

    def delete(self, point_id: int) -> PatchReport:
        """Tombstone one active point."""
        return self.apply([("delete", point_id)])

    def apply(self, ops: Sequence[Tuple[str, object]]) -> PatchReport:
        """Apply a batch of ``("insert", coords) | ("delete", id)`` ops.

        The cover is rebuilt once for the whole batch — the
        amortization lever the dynamic bench measures.  Raises
        ``ValueError`` on invalid ops (duplicate of an active point,
        deleting an unknown/dead id, draining below 2 active points)
        *before* any state changes, so a failed batch is a no-op.
        """
        ops = list(ops)
        check(bool(ops), "empty mutation batch", ValueError)
        new_coords, new_active = self._validate_batch(ops)

        self.coords = np.asarray(new_coords, dtype=float)
        self.active = new_active
        self.metric = EuclideanMetric(self.coords)

        repinned = not self._range_still_valid()
        if repinned:
            self.i_min, self.i_max = pinned_levels(
                EuclideanMetric(self.coords[self.active]), self.eps
            )

        with trace("dynamic.apply", ops=len(ops)):
            self._replay()

        # Every tree is rebuilt, so the report is the same whole-cover
        # record for every batch; its shape is the wire contract of the
        # insert/delete responses.
        report = PatchReport(
            ops=len(ops),
            trees_total=len(self.trees),
            trees_replayed=len(self.trees),
            rebuilt=True,
            repinned=repinned,
        )
        if OBS.enabled:
            inserts = sum(1 for op in ops if op[0] == "insert")
            _C_INSERTS.inc(inserts)
            _C_DELETES.inc(len(ops) - inserts)
            _C_PATCHED.inc(report.trees_replayed)
            _C_REBUILDS.inc()
        self.last_report = report
        return report

    def _validate_batch(
        self, ops: Sequence[Tuple[str, object]]
    ) -> Tuple[np.ndarray, List[int]]:
        """Validate all ops against a simulated state; returns the new
        (coords, active) without mutating self."""
        coords = self.coords
        active = set(self.active)
        appended: List[List[float]] = []
        dim = int(coords.shape[1])
        for kind, arg in ops:
            if kind == "insert":
                row = [float(x) for x in arg]  # type: ignore[union-attr]
                check(len(row) == dim, f"insert expects {dim} coordinates", ValueError)
                check(
                    all(math.isfinite(x) for x in row),
                    "insert coordinates must be finite",
                    ValueError,
                )
                live = sorted(active)
                pts = np.vstack([coords, np.asarray(appended + [row], dtype=float)])
                d = np.linalg.norm(pts[live] - np.asarray(row, dtype=float), axis=1)
                check(
                    float(d.min()) > 0.0,
                    "insert duplicates an active point (distance 0)",
                    ValueError,
                )
                active.add(len(coords) + len(appended))
                appended.append(row)
            elif kind == "delete":
                pid = int(arg)  # type: ignore[arg-type]
                check(
                    pid in active,
                    f"delete of unknown or already-deleted point {pid}",
                    ValueError,
                )
                check(
                    len(active) > 2,
                    "refusing to delete below 2 active points",
                    ValueError,
                )
                active.discard(pid)
            else:
                raise ValueError(f"unknown mutation op {kind!r}")
        new_coords = (
            np.vstack([coords, np.asarray(appended, dtype=float)])
            if appended
            else coords
        )
        return new_coords, sorted(active)

    def _range_still_valid(self) -> bool:
        """Would the pinned range still be chosen wide enough?

        The bottom level must sit below the smallest active pairwise
        distance (so ``N_{i_min}`` = all active points is a valid net)
        and the top at or above the active diameter.
        """
        live = EuclideanMetric(self.coords[self.active])
        lo, hi = pinned_levels(live, self.eps)
        return self.i_min <= lo and self.i_max >= hi

    # -- verification --------------------------------------------------

    def active_pairs(self, count: int = 200, seed: int = 0) -> List[Tuple[int, int]]:
        """A deterministic sample of distinct *active* point pairs."""
        from ..metrics.base import sample_pairs

        live = self.active
        pairs = sample_pairs(len(live), count, seed=seed)
        return [(live[a], live[b]) for a, b in pairs]
