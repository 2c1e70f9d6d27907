"""Two-step navigation on metric spaces (Theorem 1.2), built from a cover.

Given any metric that admits a ``(γ, ζ)``-tree cover, build one
navigable 1-spanner per tree (Theorem 1.1) and answer a query
``(u, v)`` by (1) picking the tree that approximates the pair best —
O(1) via the home tree for Ramsey covers, an O(ζ) selection otherwise —
and (2) running the O(k) tree navigation inside it.  The union of all
per-tree spanner edges, mapped back to metric points through the
vertices' representative points, is a γ-spanner ``H_X`` with
hop-diameter ``k`` and ``O(n·αk(n)·ζ)`` edges.

:class:`MetricNavigator` only builds: after the per-tree 𝒟_T builds it
fills the flat query state of
:class:`~repro.core.mapped_navigator.PackedMetricNavigator` (which
answers every query) from the cover, and keeps the cover for what needs
it — spanner edges, checkpoint fingerprints and :meth:`verify_query`.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import check
from ..graphs.graph import Graph
from ..metrics.base import Metric
from ..observability import trace
from ..parallel import map_per_tree
from ..treecover.base import TreeCover
from .mapped_navigator import PackedMetricNavigator
from .navigation import TreeNavigator

__all__ = ["MetricNavigator"]


def _build_tree_navigator(ctx, index: int) -> TreeNavigator:
    """Per-tree fan-out unit: build the 𝒟_T structure of one cover tree.

    Module-level so it crosses the worker boundary by reference; the
    cover trees and ``k`` ride the worker context.  Sharing the cover
    tree's :class:`TreeMetric` means the LCA index built for the batch
    edge-weight fill is the same one later distance queries reuse.
    """
    trees, k = ctx.payload
    cover_tree = trees[index]
    return TreeNavigator(
        cover_tree.tree,
        k,
        required=list(cover_tree.vertex_of_point),
        _metric=cover_tree.tree_metric,
    )


class MetricNavigator(PackedMetricNavigator):
    """Navigable k-hop spanner over a metric space with a tree cover.

    Parameters
    ----------
    metric:
        The underlying metric space.
    cover:
        A (γ, ζ)-tree cover of it (any construction from
        :mod:`repro.treecover`).
    k:
        Hop-diameter parameter (>= 2) passed to every per-tree
        navigator.
    workers:
        Worker processes for the per-tree 𝒟_T builds (the trees of a
        cover are independent).  ``None`` defers to ``REPRO_WORKERS``,
        0/1 builds serially; results are identical either way.

    Every query method is inherited: the answers are those of a
    :class:`PackedMetricNavigator` over the same arrays, bit for bit.
    """

    def __init__(
        self,
        metric: Metric,
        cover: TreeCover,
        k: int,
        workers: Optional[int] = None,
    ):
        self.metric = metric
        self.cover = cover
        self.k = k
        with trace("navigator.build", n=metric.n, k=k, trees=len(cover.trees)):
            navigators = map_per_tree(
                _build_tree_navigator,
                range(len(cover.trees)),
                workers=workers,
                payload=(cover.trees, k),
            )
            self.navigators: List[TreeNavigator] = navigators
            # The query state of the base class, filled from the cover.
            # The index is built here, not on first query, so a snapshot
            # keeps answering after a mutation retires its cover.
            trees = cover.trees
            self.index = cover.packed_index()
            self.packs = [navigator.pack for navigator in navigators]
            self.vop = np.asarray(
                [ct.vertex_of_point for ct in trees], dtype=np.int32
            ).reshape(len(trees), metric.n)
            self.rep_off = np.zeros(len(trees) + 1, dtype=np.int64)
            self.rep_off[1:] = np.cumsum([len(ct.rep_point) for ct in trees])
            self.rep = np.fromiter(
                chain.from_iterable(ct.rep_point for ct in trees),
                dtype=np.int32,
                count=int(self.rep_off[-1]),
            )
            self.home = (
                np.asarray(cover.home, dtype=np.int32)
                if cover.home is not None
                else None
            )

    # ------------------------------------------------------------------
    # The spanner H_X

    def spanner_edges(self) -> Dict[Tuple[int, int], float]:
        """Edges of ``H_X`` as point pairs with metric weights."""
        edges: Dict[Tuple[int, int], float] = {}
        for index, navigator in enumerate(self.navigators):
            rep = self.cover.trees[index].rep_point
            for (a, b) in navigator.edges:
                pa, pb = rep[a], rep[b]
                if pa == pb:
                    continue
                key = (pa, pb) if pa < pb else (pb, pa)
                if key not in edges:
                    edges[key] = self.metric.distance(pa, pb)
        return edges

    def spanner(self) -> Graph:
        """``H_X`` as a weighted graph on the metric's points."""
        g = Graph(self.metric.n)
        for (a, b), w in self.spanner_edges().items():
            g.add_edge(a, b, w)
        return g

    @property
    def num_edges(self) -> int:
        return len(self.spanner_edges())

    # ------------------------------------------------------------------
    # Checkpointing

    def aux_fingerprint(self) -> Dict[str, object]:
        """Fingerprint of the per-tree auxiliary state, for checkpoints.

        The navigation structures 𝒟_T rebuild deterministically from a
        cover in milliseconds, so checkpoints persist the cover plus
        this fingerprint — per tree, the 1-spanner edge count and a
        CRC32 of the canonically encoded sorted edge list — instead of
        the structures themselves.  On load the rebuilt navigators are
        checked against it, turning "the cover round-tripped" into "the
        auxiliary state round-tripped" without storing O(n·α_k(n)·ζ)
        edges.
        """
        import zlib

        from ..checkpoint.format import canonical_bytes

        per_tree = []
        for navigator in self.navigators:
            edge_list = sorted(
                [a, b, w] for (a, b), w in navigator.edges.items()
            )
            per_tree.append(
                {
                    "edges": len(edge_list),
                    "crc32": zlib.crc32(canonical_bytes(edge_list)) & 0xFFFFFFFF,
                }
            )
        return {"k": self.k, "per_tree": per_tree}

    def verify_aux_fingerprint(self, fingerprint: Dict[str, object]) -> None:
        """Check the rebuilt 𝒟_T state against a saved fingerprint;
        raises :class:`~repro.errors.InvariantViolation` on mismatch."""
        check(
            fingerprint.get("k") == self.k,
            f"navigator was saved with k={fingerprint.get('k')}, "
            f"rebuilt with k={self.k}",
        )
        per_tree = fingerprint.get("per_tree")
        check(
            isinstance(per_tree, list) and len(per_tree) == len(self.navigators),
            "fingerprint covers a different number of trees",
        )
        actual = self.aux_fingerprint()["per_tree"]
        for index, (saved, rebuilt) in enumerate(zip(per_tree, actual)):
            check(
                saved == rebuilt,
                f"tree {index}: rebuilt 1-spanner {rebuilt} differs from "
                f"saved fingerprint {saved}",
            )

    # ------------------------------------------------------------------
    # Verification

    def verify_query(self, u: int, v: int, gamma: Optional[float] = None) -> None:
        """Check hop and stretch guarantees for one query; raises
        :class:`~repro.errors.InvariantViolation` on violation.

        The path must (a) start and end correctly, (b) respect the hop
        budget, (c) consist of spanner edges, (d) weigh no more than the
        best cover-tree distance for the pair (which in turn is at most
        γ·δ(u, v) if ``gamma`` is the cover's stretch on this pair).
        """
        path = self.find_path(u, v)
        check(path[0] == u and path[-1] == v, "endpoints mismatch")
        check(
            len(path) - 1 <= self.k,
            f"path for ({u}, {v}) has {len(path) - 1} hops, budget {self.k}",
        )
        edges = self.spanner_edges()
        for a, b in zip(path, path[1:]):
            key = (a, b) if a < b else (b, a)
            check(key in edges, f"hop ({a}, {b}) is not a spanner edge")
        base = self.metric.distance(u, v)
        if base > 0:
            weight = self.path_weight(path)
            _, best = self.best_tree(u, v)
            check(
                weight <= best + 1e-6 * max(1.0, best),
                f"path weight {weight} exceeds the tree distance {best}",
            )
            if gamma is not None:
                check(
                    weight <= gamma * base + 1e-6,
                    f"path weight {weight} exceeds {gamma} x {base}",
                )
