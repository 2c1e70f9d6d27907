"""Read-only navigator served from memory-mapped checkpoint arrays.

``MetricNavigator`` answers queries from per-tree python object graphs
(Φ recursion trees, contracted-tree dicts) that every serving process
must rebuild from the cover — O(n·ζ) work and O(n·ζ) private heap per
worker.  :class:`PackedMetricNavigator` is the zero-copy alternative:
all query state lives in the flat arrays of the checkpoint raw-array
section (:func:`navigator_arrays`), so a worker attaches by memory-mapping
the file in milliseconds — the fields are plain read-only ``np.ndarray``
views of the mapping — and N workers share one physical copy of the
pages through the page cache.

The mapped navigator answers ``find_path`` / ``find_paths`` /
``approx_distance(s)`` bit-identically to the in-memory navigator it
was packed from (same tree selection tie-breaks, same float op order,
same counters).  What it cannot do — anything that needs the cover's
python objects — is explicit: :attr:`cover` is ``None``,
:attr:`supports_routing` is ``False``, and the serving layer degrades
those operations with typed errors instead of crashing.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..observability import OBS
from ..treecover.packed_index import PackedCoverIndex
from .navigation import dedup_path
from .packed_query import pack_suite_arrays, suite_from_arrays

__all__ = ["PackedMetricNavigator", "navigator_arrays"]

# Same registry names as metric_navigator.py: the registry dedups by
# name, so mapped and in-memory navigators feed one set of instruments.
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
    cover = navigator.cover
    index = cover.packed_index()
    if index is None:
        raise ValueError(
            f"cover with {cover.size} trees exceeds the packed-index "
            "budget (REPRO_PACKED_INDEX_MAX_MB); cannot write a mapped "
            "checkpoint"
        )
    arrays = dict(index.arrays())
    arrays.update(pack_suite_arrays(navigator.navigators))
    zeta = cover.size
    n = cover.metric.n
    vop = np.empty((zeta, n), dtype=np.int32)
    rep_off = np.zeros(zeta + 1, dtype=np.int64)
    reps: List[np.ndarray] = []
    for t, cover_tree in enumerate(cover.trees):
        vop[t] = np.asarray(cover_tree.vertex_of_point, dtype=np.int32)
        rep = np.asarray(cover_tree.rep_point, dtype=np.int32)
        reps.append(rep)
        rep_off[t + 1] = rep_off[t] + len(rep)
    arrays["cov/vop"] = vop
    arrays["cov/rep"] = np.concatenate(reps)
    arrays["cov/rep_off"] = rep_off
    if cover.home is not None:
        arrays["cov/home"] = np.asarray(cover.home, dtype=np.int32)
    return arrays


class PackedMetricNavigator:
    """Navigation queries straight off (memory-mapped) flat arrays.

    Construct via :func:`repro.checkpoint.load_navigator_checkpoint`
    with ``mmap=True``; the arrays come back CRC-verified and
    read-only.  Mirrors the query surface of
    :class:`~repro.core.metric_navigator.MetricNavigator`
    (``find_path`` / ``find_paths`` / ``find_path_with_tree`` /
    ``approx_distance`` / ``approx_distances`` / ``path_weight`` /
    ``query_stretch``) with bit-identical answers.
    """

    #: Mapped navigators carry no cover object: spanner materialization,
    #: routing-scheme construction and per-tree chaos surgery all need
    #: the python cover and are unavailable in mapped mode.
    cover = None
    supports_routing = False
    mapped = True

    def __init__(self, metric, k: int, arrays: Dict[str, np.ndarray]):
        self.metric = metric
        self.k = k
        self.index = PackedCoverIndex.from_arrays(arrays)
        self.packs = suite_from_arrays(arrays)
        self.vop = arrays["cov/vop"]
        self.rep = arrays["cov/rep"]
        self.rep_off = arrays["cov/rep_off"]
        self.home = arrays.get("cov/home")

    @property
    def num_trees(self) -> int:
        return len(self.packs)

    # ------------------------------------------------------------------
    # Tree selection (same tie-breaks as TreeCover.best_tree)

    def best_tree(self, u: int, v: int) -> Tuple[int, float]:
        if self.home is not None:
            t = int(self.home[u])
            return t, self.index.distance(t, u, v)
        return self.index.best_pair(u, v)

    def _best_trees(
        self, pairs: Sequence[Tuple[int, int]]
    ) -> List[Tuple[int, float]]:
        ps = [u for u, _ in pairs]
        qs = [v for _, v in pairs]
        if self.home is not None:
            homes = self.home[np.asarray(ps, dtype=np.int64)]
            dist = self.index.distances(homes, ps, qs)
            return list(zip(homes.tolist(), dist.tolist()))
        return self.index.best_pairs(ps, qs)

    # ------------------------------------------------------------------
    # Queries

    def find_path(self, u: int, v: int) -> List[int]:
        path, _ = self.find_path_with_tree(u, v)
        return path

    def _tree_path(self, index: int, u: int, v: int) -> List[int]:
        vertex_path = self.packs[index].find_path(
            int(self.vop[index, u]), int(self.vop[index, v])
        )
        base = int(self.rep_off[index])
        return dedup_path([int(self.rep[base + x]) for x in vertex_path])

    def find_path_with_tree(self, u: int, v: int) -> Tuple[List[int], int]:
        if u == v:
            return [u], -1
        index, _ = self.best_tree(u, v)
        points = self._tree_path(index, u, v)
        if OBS.enabled:
            _C_QUERIES.inc()
            _H_HOPS.observe(len(points) - 1)
            _H_TREE.observe(index)
        return points, index

    def find_paths(
        self, pairs: Sequence[Tuple[int, int]]
    ) -> List[Tuple[List[int], int]]:
        pairs = list(pairs)
        results: List[Optional[Tuple[List[int], int]]] = [None] * len(pairs)
        nontrivial: List[Tuple[int, int, int]] = []
        for t, (u, v) in enumerate(pairs):
            if u == v:
                results[t] = ([u], -1)
            else:
                nontrivial.append((t, u, v))
        if nontrivial:
            best = self._best_trees([(u, v) for _, u, v in nontrivial])
            obs = OBS.enabled
            for (t, u, v), (index, _) in zip(nontrivial, best):
                points = self._tree_path(index, u, v)
                if obs:
                    _C_QUERIES.inc()
                    _H_HOPS.observe(len(points) - 1)
                    _H_TREE.observe(index)
                results[t] = (points, index)
        return results  # type: ignore[return-value]

    def approx_distance(self, u: int, v: int) -> float:
        if u == v:
            return 0.0
        return self.best_tree(u, v)[1]

    def approx_distances(self, pairs: Sequence[Tuple[int, int]]) -> np.ndarray:
        pairs = list(pairs)
        out = np.zeros(len(pairs))
        nontrivial = [t for t, (u, v) in enumerate(pairs) if u != v]
        if nontrivial:
            best = self._best_trees([pairs[t] for t in nontrivial])
            for t, (_, d) in zip(nontrivial, best):
                out[t] = d
        return out

    def path_weight(self, path: List[int]) -> float:
        return sum(self.metric.distance(a, b) for a, b in zip(path, path[1:]))

    def query_stretch(self, u: int, v: int) -> Tuple[int, float]:
        path = self.find_path(u, v)
        base = self.metric.distance(u, v)
        stretch = self.path_weight(path) / base if base > 0 else 1.0
        return len(path) - 1, stretch
