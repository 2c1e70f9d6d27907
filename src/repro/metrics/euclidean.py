"""Euclidean point-set metrics, with KD-tree accelerated neighbor queries.

Low-dimensional Euclidean spaces are the paper's motivating setting; the
doubling-metric constructions (net hierarchies, robust tree covers) use
the KD-tree batch kernels (:meth:`EuclideanMetric.ball_many`,
:meth:`EuclideanMetric.nearest_many`) to avoid quadratic scans.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

from ..observability import OBS
from .base import Metric

if TYPE_CHECKING:
    from scipy.spatial import cKDTree

__all__ = [
    "EuclideanMetric",
    "random_points",
    "clustered_points",
    "grid_points",
]

_C_SCALAR = OBS.registry.counter("kernel.euclidean.scalar_calls")
_C_BATCH = OBS.registry.counter("kernel.euclidean.batch_calls")
_C_BATCH_VALUES = OBS.registry.counter("kernel.euclidean.batch_values")


class EuclideanMetric(Metric):
    """The metric induced by an ``(n, d)`` array of points."""

    supports_batch = True

    def __init__(self, points: Sequence[Sequence[float]]):
        self.points = np.asarray(points, dtype=float)
        if self.points.ndim != 2:
            raise ValueError("points must be a 2-D array (n, d)")
        super().__init__(len(self.points))
        self.dim = self.points.shape[1]
        # Plain-python coordinate rows: the scalar distance below runs
        # millions of times inside decompositions, and a float-list loop
        # with math.sqrt beats any per-call numpy allocation by ~4x.
        self._coords: List[List[float]] = self.points.tolist()
        self._kdtree: Optional[cKDTree] = None

    @property
    def kdtree(self) -> cKDTree:
        if self._kdtree is None:
            from scipy.spatial import cKDTree

            self._kdtree = cKDTree(self.points)
        return self._kdtree

    def distance(self, u: int, v: int) -> float:
        if OBS.enabled:
            _C_SCALAR.inc()
        pu = self._coords[u]
        pv = self._coords[v]
        s = 0.0
        for a, b in zip(pu, pv):
            t = a - b
            s += t * t
        return math.sqrt(s)

    # ------------------------------------------------------------------
    # Batch kernels (all C-vectorized)

    def distances_from(self, u: int) -> np.ndarray:
        """Vectorized distances from ``u`` to every point."""
        if OBS.enabled:
            _C_BATCH.inc()
            _C_BATCH_VALUES.inc(self.n)
        return self._norms(self.points - self.points[u])

    def pairwise(self, rows: Sequence[int], cols: Sequence[int]) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if OBS.enabled:
            _C_BATCH.inc()
            _C_BATCH_VALUES.inc(rows.size * cols.size)
        from scipy.spatial.distance import cdist

        return cdist(self.points[rows], self.points[cols])

    def pair_distances(self, us: Sequence[int], vs: Sequence[int]) -> np.ndarray:
        if len(us) != len(vs):
            raise ValueError("us and vs must have equal length")
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        if OBS.enabled:
            _C_BATCH.inc()
            _C_BATCH_VALUES.inc(us.size)
        return self._norms(self.points[us] - self.points[vs])

    @staticmethod
    def _norms(diff: np.ndarray) -> np.ndarray:
        """Row norms summed column by column, in :meth:`distance`'s
        order, so every value is bit-identical to it.  (``np.linalg.norm``
        sums eight or more squares pairwise and can differ in the last
        bit from dimension 8 on.)"""
        total = np.zeros(len(diff))
        for column in diff.T:
            total += column * column
        return np.sqrt(total)

    def ball_many(
        self,
        centers: Sequence[int],
        radius: float,
        within: Optional[Sequence[int]] = None,
    ) -> List[List[int]]:
        """Batched KD-tree ball queries (one C call for all centers).

        With ``within``, a KD-tree over just that candidate subset is
        built, so the work scales with the candidate density rather than
        the full point set — the shape net constructions sweep.
        """
        centers = np.asarray(centers, dtype=np.int64)
        if within is None:
            hits = self.kdtree.query_ball_point(
                self.points[centers], radius, return_sorted=True, workers=-1
            )
            return [list(h) for h in hits]
        from scipy.spatial import cKDTree

        within = np.asarray(within, dtype=np.int64)
        subtree = cKDTree(self.points[within])
        hits = subtree.query_ball_point(
            self.points[centers], radius, return_sorted=True, workers=-1
        )
        return [within[h].tolist() for h in hits]

    def nearest_many(
        self,
        points: Sequence[int],
        candidates: Sequence[int],
        return_distance: bool = False,
    ):
        candidates = np.asarray(list(candidates), dtype=np.int64)
        if candidates.size == 0:
            raise ValueError("nearest_many needs at least one candidate")
        from scipy.spatial import cKDTree

        points = np.asarray(points, dtype=np.int64)
        subtree = cKDTree(self.points[candidates])
        dist, idx = subtree.query(self.points[points], k=1)
        ids = candidates[idx]
        if return_distance:
            return ids, np.asarray(dist, dtype=float)
        return ids

    # ------------------------------------------------------------------
    # Scalar neighborhood queries

    def neighbors_within(self, u: int, radius: float) -> List[int]:
        """Indices of points within ``radius`` of point ``u`` (inclusive)."""
        return sorted(self.kdtree.query_ball_point(self.points[u], radius))

    def ball(self, center: int, radius: float) -> List[int]:  # noqa: D102
        return self.neighbors_within(center, radius)


def random_points(n: int, dim: int = 2, seed: int = 0, scale: float = 1000.0) -> EuclideanMetric:
    """``n`` uniform points in ``[0, scale]^dim``."""
    rng = np.random.default_rng(seed)
    return EuclideanMetric(rng.uniform(0.0, scale, size=(n, dim)))


def clustered_points(
    n: int, dim: int = 2, clusters: int = 8, seed: int = 0, scale: float = 1000.0
) -> EuclideanMetric:
    """Points drawn around random cluster centers — high aspect ratio.

    This distribution stresses net hierarchies across many scales, the
    regime where bounded hop-diameter spanners beat ``O(log rho)``-hop
    oracles (Section 1.1 of the paper).
    """
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.0, scale, size=(clusters, dim))
    assignment = rng.integers(0, clusters, size=n)
    jitter = rng.normal(0.0, scale / (100.0 * clusters), size=(n, dim))
    return EuclideanMetric(centers[assignment] + jitter)


def grid_points(side: int, dim: int = 2, spacing: float = 1.0) -> EuclideanMetric:
    """A ``side^dim`` regular grid (deterministic, worst-case-ish packing)."""
    axes = [np.arange(side, dtype=float) * spacing] * dim
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    return EuclideanMetric(pts)
