"""Tree-cover containers and verification.

A *(γ, ζ)-tree cover* of a metric ``(X, δ)`` (Section 1.2 of the paper)
is a collection of ζ dominating trees such that every pair of points has
a tree preserving its distance to within γ.  A *Ramsey* cover
additionally gives every point a home tree good for **all** its pairs.

:class:`CoverTree` wraps one dominating tree: a rooted weighted
:class:`~repro.graphs.tree.Tree` whose vertices each carry a
*representative point*; metric points occupy a designated vertex each
(possibly internal).  Edge weights are metric distances between the
representatives of the endpoints, so tree distances dominate metric
distances by the triangle inequality whenever each point's designated
vertex has itself as representative.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import StalePackError, check
from ..graphs.lca import PairWorkspace, euler_tour, tour_weighted_depths
from ..graphs.tree import Tree
from ..metrics.base import Metric, sample_pairs
from ..metrics.tree_metric import TreeMetric
from ..observability import OBS
from .packed_index import PackedCoverIndex

__all__ = ["CoverTree", "TreeCover"]

# Trees consulted per best-tree selection: 1 for Ramsey home-tree
# lookups, ζ for the ordinary scan — the O(1) vs O(ζ) contrast of
# Section 3.2 made measurable.  The packed index answers the scan with
# vectorized array ops but still *consults* ζ oracles, so the
# histogram's semantics are unchanged.
_C_SELECTIONS = OBS.registry.counter("cover.selections")
_H_CONSULTED = OBS.registry.histogram("cover.trees_consulted")


class CoverTree:
    """One dominating tree of a cover.

    Parameters
    ----------
    tree:
        Rooted weighted tree; vertex count may exceed the number of
        metric points (Steiner vertices).
    vertex_of_point:
        ``vertex_of_point[p]`` is the tree vertex hosting metric point
        ``p``.
    rep_point:
        ``rep_point[v]`` is the metric point represented by tree vertex
        ``v`` (for a point's own vertex this is the point itself).
    """

    def __init__(self, tree: Tree, vertex_of_point: Sequence[int], rep_point: Sequence[int]):
        self.tree = tree
        self.vertex_of_point = list(vertex_of_point)
        self.rep_point = list(rep_point)
        if len(self.rep_point) != tree.n:
            raise ValueError("rep_point must cover every tree vertex")
        self._tree_metric: Optional[TreeMetric] = None

    @property
    def tree_metric(self) -> TreeMetric:
        if self._tree_metric is None:
            self._tree_metric = TreeMetric(self.tree)
        return self._tree_metric

    def __getstate__(self):
        # LCA state is derived; crossing a pickle boundary (parallel
        # worker results, checkpoints) ships only the raw arrays.
        state = dict(self.__dict__)
        state["_tree_metric"] = None
        return state

    def reset_derived(self) -> None:
        """Drop the derived LCA/level-ancestor state so it is recomputed.

        Checkpoint recovery calls this after swapping a repaired tree
        in: the raw arrays are authoritative, everything derived from
        them (the sparse-table LCA index inside :class:`TreeMetric`) is
        rebuilt lazily on next use.
        """
        self._tree_metric = None

    def tree_distance(self, p: int, q: int) -> float:
        """Distance between two metric points inside this tree (O(1))."""
        return self.tree_metric.distance(self.vertex_of_point[p], self.vertex_of_point[q])

    def tree_distances_many(
        self,
        ps: Sequence[int],
        qs: Sequence[int],
        out: Optional[np.ndarray] = None,
        workspace: Optional[PairWorkspace] = None,
    ) -> np.ndarray:
        """Elementwise tree distances for many point pairs in one sweep.

        One vectorized sparse-table LCA batch per call instead of one
        python-level query per pair — the kernel the O(ζ)-scan tree
        selection of :meth:`TreeCover.best_trees` and the pruning
        passes of :func:`~repro.treecover.prune.prune_cover` are built
        on.  The first-visit table is composed with the point → host
        vertex map at point level, so a pair costs gathers only; with ``out``
        and a ``workspace`` (see
        :meth:`~repro.graphs.lca.LcaIndex.distance_many`) a pass over
        many trees reuses the same arrays for every tree.
        """
        return self.tree_metric.pair_distances(
            ps, qs, out=out, workspace=workspace, hosts=self.vertex_of_point
        )

    def weighted_euler_tour(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(first-visit positions, tour vertices, tour depths, weighted
        root distance of each vertex).

        Reuses the tour and weighted depths of this tree's LCA index
        when one is already built; otherwise walks the tree without
        building an index (or the tree's child lists).
        """
        metric = self._tree_metric
        built = None if metric is None else metric.built_lca_index()
        if built is not None:
            return (built.first, built.tour, built.tour_depth,
                    built.wd_tour[built.first])
        first, tour, depths = euler_tour(self.tree)
        return first, tour, depths, tour_weighted_depths(self.tree, first, tour)

    def tree_path_points(self, p: int, q: int) -> List[int]:
        """The tree path between two points, as representative points."""
        path = self.tree.path(self.vertex_of_point[p], self.vertex_of_point[q])
        return [self.rep_point[v] for v in path]

    def descendant_points(self) -> List[List[int]]:
        """For each tree vertex, the metric points hosted in its subtree.

        Used by the fault-tolerant constructions (the sets ``R(v)`` of
        Theorem 4.2 are prefixes of these lists).  Points hosted at
        internal vertices count as descendants of that vertex.
        """
        below: List[List[int]] = [[] for _ in range(self.tree.n)]
        host = [-1] * self.tree.n
        for p, v in enumerate(self.vertex_of_point):
            host[v] = p
        for v in self.tree.postorder():
            if host[v] != -1:
                below[v].append(host[v])
            for c in self.tree.children[v]:
                below[v].extend(below[c])
        return below

    def replica_sets(self, f: int) -> List[List[int]]:
        """The replica set ``R(v)`` of Theorem 4.2 for every tree vertex:
        the first ``f + 1`` of its descendant points (all of them when
        the subtree holds fewer)."""
        return [pool[: f + 1] for pool in self.descendant_points()]

    def check_dominating(self, metric: Metric, pairs: Sequence[Tuple[int, int]]) -> None:
        """Check domination (δ_T >= δ_X) on the given pairs; raises
        :class:`~repro.errors.InvariantViolation` on violation."""
        for p, q in pairs:
            td = self.tree_distance(p, q)
            md = metric.distance(p, q)
            check(
                td >= md - 1e-6 * max(1.0, md),
                f"tree distance {td} below metric distance {md} for ({p}, {q})",
            )


class TreeCover:
    """A collection of dominating trees over one metric."""

    def __init__(
        self,
        metric: Metric,
        trees: List[CoverTree],
        home: Optional[List[int]] = None,
    ):
        self.metric = metric
        self.trees = trees
        #: Ramsey covers: home[p] = index of the tree covering p against
        #: every other point; ``None`` for ordinary covers.
        self.home = home
        # Derived query state: the packed selection index, built by the
        # first navigator over this cover or the first scalar selection.
        self._packed: Optional[PackedCoverIndex] = None
        self._packed_failed = False
        # Set by the dynamic layer when a mutation supersedes this
        # cover; see :meth:`retire`.
        self._retired_reason: Optional[str] = None

    @property
    def size(self) -> int:
        """The number of trees ζ."""
        return len(self.trees)

    def __getstate__(self):
        # The packed index is derived (and may hold memmap views);
        # rebuild lazily on the receiving side.
        state = dict(self.__dict__)
        state["_packed"] = None
        state["_packed_failed"] = False
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        # Covers pickled before these fields existed.
        self.__dict__.setdefault("_packed", None)
        self.__dict__.setdefault("_packed_failed", False)
        self.__dict__.setdefault("_retired_reason", None)

    def retire(self, reason: str) -> None:
        """Mark this cover as superseded by a mutation.

        The dynamic layer calls this on the pre-mutation cover when it
        swaps a new generation in.  An already-built packed arena
        keeps answering (in-flight query batches hold a snapshot of
        *this* generation, for which its preorder positions are still
        correct), but building a *new* arena from a retired cover is
        refused with :class:`~repro.errors.StalePackError` — its
        positions would describe trees that no longer serve.
        """
        self._retired_reason = reason

    @property
    def retired(self) -> bool:
        return self._retired_reason is not None

    def packed_index(self, build: bool = True) -> Optional[PackedCoverIndex]:
        """The packed best-tree index, built on first use.

        Returns ``None`` when over the size budget (the legacy scan
        stays in charge) or when ``build=False`` and it does not exist
        yet.  Raises :class:`~repro.errors.StalePackError` when asked
        to *build* an arena for a cover that a mutation has retired.
        """
        if self._packed is None and build and not self._packed_failed:
            if self._retired_reason is not None:
                raise StalePackError(
                    "refusing to build a packed query arena from a retired "
                    f"cover ({self._retired_reason})"
                )
            self._packed = PackedCoverIndex.build(self.trees)
            if self._packed is None:
                self._packed_failed = True
        return self._packed

    def invalidate_query_state(self) -> None:
        """Drop the packed index (tree content changed)."""
        self._packed = None
        self._packed_failed = False

    def replace_tree(self, index: int, cover_tree: CoverTree) -> None:
        """Swap one tree of the cover for a freshly built replacement.

        The per-tree repair path of checkpoint recovery: only the
        corrupted tree is replaced, the other ζ − 1 trees (and the home
        table, which indexes trees positionally) stay untouched.
        """
        if not 0 <= index < len(self.trees):
            raise IndexError(f"no tree {index} in a cover of {len(self.trees)}")
        cover_tree.reset_derived()
        self.trees[index] = cover_tree
        self.invalidate_query_state()

    def best_tree(self, p: int, q: int) -> Tuple[int, float]:
        """The tree index minimizing the tree distance for the pair.

        Ramsey covers answer from the home tree in O(1); ordinary covers
        scan all ζ trees (O(ζ), as in Section 3.2 of the paper).
        """
        if OBS.enabled:
            _C_SELECTIONS.inc()
            _H_CONSULTED.observe(1 if self.home is not None else len(self.trees))
        if self.home is not None:
            index = self.home[p]
            packed = self.packed_index(build=False)
            if packed is not None:
                return index, packed.distance(index, p, q)
            return index, self.trees[index].tree_distance(p, q)
        packed = self.packed_index()
        if packed is not None:
            return packed.best_pair(p, q)
        best_index = -1
        best = float("inf")
        for index, cover_tree in enumerate(self.trees):
            d = cover_tree.tree_distance(p, q)
            if d < best:
                best = d
                best_index = index
        return best_index, best

    def best_trees(self, pairs: Sequence[Tuple[int, int]]) -> List[Tuple[int, float]]:
        """:meth:`best_tree` for many pairs at once.

        Ordinary covers still scan all ζ trees, but each tree answers
        every pair in one vectorized LCA batch, so the python-level work
        is O(ζ) instead of O(ζ · pairs).  Ties resolve to the lowest
        tree index, exactly like the scalar scan.
        """
        pairs = list(pairs)
        if not pairs:
            return []
        if OBS.enabled:
            _C_SELECTIONS.inc(len(pairs))
            consulted = 1 if self.home is not None else len(self.trees)
            for _ in pairs:
                _H_CONSULTED.observe(consulted)
        # The packed index also answers batches; use it when a navigator
        # or a scalar selection already paid for the build (never build
        # it for a batch — the vectorized scan below is O(ζ) python).
        packed = self.packed_index(build=False)
        if self.home is not None:
            if packed is not None:
                homes = [self.home[p] for p, _ in pairs]
                d = packed.distances(
                    homes, [p for p, _ in pairs], [q for _, q in pairs]
                )
                return list(zip(homes, d.tolist()))
            return [
                (self.home[p], self.trees[self.home[p]].tree_distance(p, q))
                for p, q in pairs
            ]
        ps = [p for p, _ in pairs]
        qs = [q for _, q in pairs]
        if packed is not None:
            return packed.best_pairs(ps, qs)
        best = np.full(len(pairs), np.inf)
        best_index = np.full(len(pairs), -1, dtype=np.int64)
        for index, cover_tree in enumerate(self.trees):
            d = np.asarray(cover_tree.tree_distances_many(ps, qs), dtype=float)
            better = d < best
            if better.any():
                best[better] = d[better]
                best_index[better] = index
        return list(zip(best_index.tolist(), best.tolist()))

    def pruned(self, eps: float = 0.05, **kwargs) -> "TreeCover":
        """A contract-preserving pruned copy of this cover.

        Greedy set cover over the pair-coverage matrix: trees whose
        within-stretch coverage is dominated by the retained set are
        dropped, and the result is re-audited against the derived
        ``(γ, ζ)`` contract before it is returned.  Retained trees are
        the *same objects*, so query answers on them are bit-identical.
        See :func:`repro.treecover.prune.prune_cover` (which also
        returns the :class:`~repro.treecover.prune.PruneReport` evidence
        and accepts ``gamma``/``max_pairs``/``seed``/``workers``).
        """
        from .prune import prune_cover

        return prune_cover(self, eps=eps, **kwargs).cover

    def memory_bytes(self) -> int:
        """Array-byte accounting of the cover's structural state.

        Counts the per-tree parent/weight arrays plus the
        vertex-of-point and representative tables at their serialized
        widths (int64 parent + float64 weight per vertex, int64 per
        point mapping) and the home table if present — deliberately not
        ``sys.getsizeof``, which would measure python object headers
        instead of the data.  Derived state (LCA tables, packed arena)
        is excluded; see ``PackedCoverIndex.nbytes`` for the arena.
        """
        total = 0
        for cover_tree in self.trees:
            total += 16 * cover_tree.tree.n  # parent (i8) + weight (f8)
            total += 8 * len(cover_tree.vertex_of_point)
            total += 8 * len(cover_tree.rep_point)
        if self.home is not None:
            total += 8 * len(self.home)
        return total

    def stretch(self, p: int, q: int) -> float:
        """The stretch the cover achieves for one pair."""
        base = self.metric.distance(p, q)
        if base == 0:
            return 1.0
        return self.best_tree(p, q)[1] / base

    def measured_stretch(
        self, pairs: Optional[Sequence[Tuple[int, int]]] = None, sample: int = 500
    ) -> Tuple[float, float]:
        """(max, mean) stretch over the given or sampled pairs."""
        if pairs is None:
            pairs = sample_pairs(self.metric.n, sample)
        pairs = list(pairs)
        tree_d = [d for _, d in self.best_trees(pairs)]
        values = []
        for (p, q), d in zip(pairs, tree_d):
            base = self.metric.distance(p, q)
            values.append(1.0 if base == 0 else d / base)
        return max(values), sum(values) / len(values)

    def verify(
        self,
        gamma: float,
        pairs: Optional[Sequence[Tuple[int, int]]] = None,
        sample: int = 300,
    ) -> None:
        """Check domination and stretch <= gamma on sampled pairs;
        raises :class:`~repro.errors.InvariantViolation` on violation."""
        if pairs is None:
            pairs = sample_pairs(self.metric.n, sample)
        for cover_tree in self.trees:
            cover_tree.check_dominating(self.metric, pairs)
        worst, _ = self.measured_stretch(pairs)
        check(worst <= gamma + 1e-6, f"cover stretch {worst} exceeds gamma {gamma}")
