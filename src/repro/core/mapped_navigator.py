"""The navigation query (Theorem 1.2) answered from flat arrays.

A query ``(u, v)`` takes two steps: pick the cover tree that
approximates the pair best, then run the O(k) tree navigation of
Theorem 1.1 inside it.  :class:`PackedMetricNavigator` answers both
from plain arrays and is the only implementation of the query surface:

* tree selection — the :class:`PackedCoverIndex` tables, or the Ramsey
  home table plus the index's single-tree distance;
* tree navigation — one :class:`~repro.core.packed_query.QueryPack`
  per cover tree;
* the per-tree host-vertex (``vop``) and representative-point
  (``rep`` / ``rep_off``) tables that map points in and vertices out.

In-memory and memory-mapped navigators differ only in where those
arrays come from.  :class:`~repro.core.metric_navigator.MetricNavigator`
builds them from a cover on the heap (and keeps the cover for what
needs it: spanner edges, fingerprints, routing, chaos).  A navigator
loaded with ``mmap=True`` attaches them from the checkpoint raw-array
section (:func:`navigator_arrays`): the fields are read-only
``np.ndarray`` views of the file mapping, so a worker attaches in
milliseconds and N workers share one physical copy of the pages
through the page cache.  Such a navigator has no cover (:attr:`cover`
is ``None``), and the serving layer refuses what needs one with typed
errors.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..observability import OBS
from ..treecover.packed_index import PackedCoverIndex
from .packed_query import (
    dedup_path,
    pack_suite_arrays,
    publish_tally,
    suite_from_arrays,
)

__all__ = ["PackedMetricNavigator", "navigator_arrays"]

_C_QUERIES = OBS.registry.counter("navigator.queries")
_H_HOPS = OBS.registry.histogram("navigator.hops")
_H_TREE = OBS.registry.histogram("navigator.tree_chosen")


def navigator_arrays(navigator) -> Dict[str, np.ndarray]:
    """Every raw array a :class:`PackedMetricNavigator` needs.

    ``cov/*`` carries tree selection (the :class:`PackedCoverIndex`
    tables, per-tree host vertices and representative points, and the
    Ramsey home table when the cover has one); ``pk/*`` carries the
    per-tree :class:`~repro.core.packed_query.QueryPack` forest.  Raises
    :class:`ValueError` when the cover exceeds the packed-index budget
    (such covers can only serve in-memory).
    """
    if navigator.index is None:
        raise ValueError(
            f"cover with {navigator.num_trees} trees exceeds the "
            "packed-index budget (REPRO_PACKED_INDEX_MAX_MB); cannot "
            "write a mapped checkpoint"
        )
    arrays = dict(navigator.index.arrays())
    arrays.update(pack_suite_arrays(navigator.packs))
    arrays["cov/vop"] = navigator.vop
    arrays["cov/rep"] = navigator.rep
    arrays["cov/rep_off"] = navigator.rep_off
    if navigator.home is not None:
        arrays["cov/home"] = navigator.home
    return arrays


class PackedMetricNavigator:
    """Navigation queries straight off flat arrays.

    Construct from the arrays of :func:`navigator_arrays` — in practice
    via :func:`repro.checkpoint.load_navigator_checkpoint` with
    ``mmap=True``, where they come back CRC-verified and read-only —
    or build from a cover with
    :class:`~repro.core.metric_navigator.MetricNavigator`.

    Query state (shared by both):

    ``index``
        the :class:`PackedCoverIndex`; ``None`` only for an in-memory
        cover over ``REPRO_PACKED_INDEX_MAX_MB``, whose selection falls
        back to the cover's O(ζ) scan;
    ``packs``
        the root :class:`~repro.core.packed_query.QueryPack` per tree;
    ``vop`` / ``rep`` / ``rep_off``
        int32 ``(ζ, n)`` host vertex of each point per tree, and the
        concatenated representative point of each tree vertex with its
        per-tree offsets;
    ``home``
        the Ramsey home tree per point (int32), or ``None``.
    """

    #: Mapped navigators carry no cover object: spanner materialization,
    #: routing-scheme construction and per-tree chaos surgery all need
    #: the python cover and are unavailable in mapped mode.
    cover = None

    def __init__(self, metric, k: int, arrays: Dict[str, np.ndarray]):
        self.metric = metric
        self.k = k
        self.index: Optional[PackedCoverIndex] = PackedCoverIndex.from_arrays(
            arrays
        )
        self.packs = suite_from_arrays(arrays)
        self.vop = arrays["cov/vop"]
        self.rep = arrays["cov/rep"]
        self.rep_off = arrays["cov/rep_off"]
        self.home = arrays.get("cov/home")

    @property
    def num_trees(self) -> int:
        """Trees serving queries."""
        return len(self.packs)

    def _check_pair(self, u: int, v: int) -> None:
        n = self.metric.n
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"point pair ({u}, {v}) outside [0, {n})")

    # ------------------------------------------------------------------
    # Tree selection (same tie-breaks as TreeCover.best_tree)

    def best_tree(self, u: int, v: int) -> Tuple[int, float]:
        """The tree answering ``(u, v)`` and its tree distance.

        O(1) with a Ramsey cover (the home tree of ``u``); otherwise
        the lowest tree index minimizing the tree distance, read off
        the packed index in a few vectorized ops over ζ entries.
        """
        self._check_pair(u, v)
        return self._best_tree(u, v)

    def _best_tree(self, u: int, v: int) -> Tuple[int, float]:
        if self.index is None:
            return self.cover.best_tree(u, v)
        if self.home is not None:
            t = int(self.home[u])
            return t, self.index.distance(t, u, v)
        return self.index.best_pair(u, v)

    def _best_trees(
        self, ps: Sequence[int], qs: Sequence[int]
    ) -> List[Tuple[int, float]]:
        if self.index is None:
            return self.cover.best_trees(list(zip(ps, qs)))
        if self.home is not None:
            homes = self.home[np.asarray(ps, dtype=np.int64)]
            dist = self.index.distances(homes, ps, qs)
            return list(zip(homes.tolist(), dist.tolist()))
        return self.index.best_pairs(ps, qs)

    def check_pairs(self, us: Sequence[int], vs: Sequence[int]) -> None:
        """Raise :class:`ValueError` naming the first pair outside
        ``[0, n)``: one range check for a whole batch."""
        n = self.metric.n
        if us and (min(us) < 0 or max(us) >= n or min(vs) < 0
                   or max(vs) >= n):
            for u, v in zip(us, vs):
                self._check_pair(u, v)

    def select_trees(
        self, us: Sequence[int], vs: Sequence[int]
    ) -> Tuple[List[int], List[float]]:
        """Batched :meth:`best_tree` as two columns, the chosen tree and
        its tree distance per pair (``-1`` and ``0.0`` where u == v).

        The ids must lie in ``[0, n)``: a batch is range-checked once,
        by :meth:`check_pairs`, before it gets here.
        """
        m = len(us)
        at = [i for i in range(m) if us[i] != vs[i]]
        if len(at) == m:
            best = self._best_trees(us, vs) if m else []
            return [t for t, _ in best], [d for _, d in best]
        trees = [-1] * m
        dists = [0.0] * m
        if at:
            best = self._best_trees([us[i] for i in at], [vs[i] for i in at])
            for i, (t, d) in zip(at, best):
                trees[i] = t
                dists[i] = d
        return trees, dists

    # ------------------------------------------------------------------
    # Queries

    def find_path(self, u: int, v: int) -> List[int]:
        """A <= k hop path between metric points, as point ids.

        The path's weight (sum of metric distances of consecutive
        points) is at most the cover stretch γ times δ(u, v).
        """
        path, _ = self.find_path_with_tree(u, v)
        return path

    def _tree_path(self, index: int, u: int, v: int) -> List[int]:
        # ndarray.item reads a Python int straight from the array; an
        # index expression would build a numpy scalar first.
        vop = self.vop
        vertex_path = self.packs[index].raw_path(
            vop.item(index, u), vop.item(index, v)
        )
        rep = self.rep
        base = self.rep_off.item(index)
        return dedup_path([rep.item(base + x) for x in vertex_path])

    def find_path_with_tree(self, u: int, v: int) -> Tuple[List[int], int]:
        """Like :meth:`find_path` but also reports the tree used
        (``-1`` for ``u == v``)."""
        self._check_pair(u, v)
        if u == v:
            return [u], -1
        index, _ = self._best_tree(u, v)
        points = self._tree_path(index, u, v)
        if OBS.enabled:
            _C_QUERIES.inc()
            _H_HOPS.observe(len(points) - 1)
            _H_TREE.observe(index)
        return points, index

    def best_trees(
        self, pairs: Sequence[Tuple[int, int]]
    ) -> List[Tuple[int, float]]:
        """Batched :meth:`best_tree`, one selection for all pairs:
        ``(tree_index, tree_distance)`` per pair, ``(-1, 0.0)`` if u == v."""
        pairs = list(pairs)
        us = [u for u, _ in pairs]
        vs = [v for _, v in pairs]
        self.check_pairs(us, vs)
        return list(zip(*self.select_trees(us, vs)))

    def find_paths(
        self,
        pairs: Sequence[Tuple[int, int]],
        trees: Optional[Sequence[int]] = None,
    ) -> List[Tuple[List[int], int]]:
        """Batched :meth:`find_path_with_tree` over many pairs.

        Tree selection runs once for all pairs; only the O(k) tree
        navigation remains per pair.  Returns ``(point_path,
        tree_index)`` per pair, in input order.  ``trees``, the indexes
        :meth:`select_trees` chose for ``pairs``, skips the selection
        (and its range check).  The counters move once per call.
        """
        pairs = list(pairs)
        if trees is None:
            trees = [index for index, _ in self.best_trees(pairs)]
        # memoryview reads are Python ints, not numpy scalars.
        vop = memoryview(self.vop)
        rep = memoryview(self.rep)
        rep_off = memoryview(self.rep_off)
        packs = self.packs
        tally = [0, 0]
        results = []
        for (u, v), index in zip(pairs, trees):
            if u == v:
                results.append(([u], -1))
                continue
            base = rep_off[index]
            vertex_path = packs[index].raw_path(
                vop[index, u], vop[index, v], tally
            )
            results.append(
                (dedup_path([rep[base + x] for x in vertex_path]), index)
            )
        if OBS.enabled:
            publish_tally(tally)
            navigated = [result for result in results if result[1] >= 0]
            _C_QUERIES.inc(len(navigated))
            _H_HOPS.observe_many([len(path) - 1 for path, _ in navigated])
            _H_TREE.observe_many([index for _, index in navigated])
        return results

    def approx_distance(self, u: int, v: int) -> float:
        """A γ-approximate distance without reporting the path.

        O(1) with a Ramsey cover, O(ζ) otherwise — the distance-oracle
        view the paper contrasts with (Question 1.2): unlike [MN06]-style
        oracles, the matching path is always available via
        :meth:`find_path` and lives on the spanner.
        """
        self._check_pair(u, v)
        if u == v:
            return 0.0
        return self._best_tree(u, v)[1]

    def approx_distances(self, pairs: Sequence[Tuple[int, int]]) -> np.ndarray:
        """Batched :meth:`approx_distance`."""
        return np.array(
            [distance for _, distance in self.best_trees(pairs)], dtype=float
        )

    def path_weight(self, path: List[int]) -> float:
        """Metric weight of a reported point path."""
        return sum(map(self.metric.distance, path, path[1:]))

    def query_stretch(self, u: int, v: int) -> Tuple[int, float]:
        """(hops, stretch) of the reported path for one pair."""
        path = self.find_path(u, v)
        base = self.metric.distance(u, v)
        stretch = self.path_weight(path) / base if base > 0 else 1.0
        return len(path) - 1, stretch
