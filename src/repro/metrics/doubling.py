"""Net hierarchies and doubling-metric utilities.

A ``2^i``-net of a metric (Section 4.2 of the paper) is a subset ``N``
with pairwise distances ``> 2^i`` that covers every point within ``2^i``.
:class:`NetHierarchy` maintains nested nets ``N_{i_min} ⊇ ... ⊇ N_{i_max}``
— the backbone of the robust tree cover construction (Theorem 4.1).

Levels may be negative; level ``i`` always corresponds to radius ``2^i``.

The construction paths consume the batch kernel layer of
:class:`~repro.metrics.base.Metric`: for batch-capable metrics the greedy
net prefetches every candidate ball in one vectorized sweep (a KD-tree
sub-tree restricted to the candidates for Euclidean inputs) instead of
issuing one python-level ball query per net point.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from .base import Metric
from .euclidean import EuclideanMetric

if TYPE_CHECKING:
    from scipy.spatial import cKDTree

__all__ = ["NetHierarchy", "greedy_net", "doubling_constant_estimate", "scale_levels"]

#: Below this many candidates a python loop beats batch-call setup.
_PREFETCH_MIN = 16


def greedy_net(metric: Metric, candidates: Sequence[int], radius: float) -> List[int]:
    """A greedy ``radius``-net of ``candidates``.

    Iterates candidates in order, keeping each point not yet covered and
    marking its ``radius``-ball as covered.  The kept set has pairwise
    distance ``> radius`` and covers every candidate within ``radius``.

    Batch-capable metrics prefetch all candidate balls in one vectorized
    sweep; the output is point-for-point identical to the scalar path
    (the greedy scan only consumes ball *membership*, which both paths
    compute exactly).
    """
    candidates = list(candidates)
    if isinstance(metric, EuclideanMetric) and len(candidates) >= _PREFETCH_MIN:
        # Position-space sweep: one parallel KD-tree ball query over a
        # sub-tree of just the candidates, then a boolean-mask scan —
        # no id translation, no per-point python KD calls.
        from scipy.spatial import cKDTree

        pts = metric.points[candidates]
        hits = cKDTree(pts).query_ball_point(pts, radius, workers=-1)
        covered = np.zeros(len(candidates), dtype=bool)
        net: List[int] = []
        for index, p in enumerate(candidates):
            if covered[index]:
                continue
            net.append(p)
            covered[hits[index]] = True
        return net
    if metric.supports_batch and len(candidates) >= _PREFETCH_MIN:
        balls = metric.ball_many(candidates, radius, within=candidates)
        covered_ids = set()
        net = []
        for index, p in enumerate(candidates):
            if p in covered_ids:
                continue
            net.append(p)
            covered_ids.update(balls[index])
        return net
    candidate_set = set(candidates)
    covered = set()
    net = []
    for p in candidates:
        if p in covered:
            continue
        net.append(p)
        for q in metric.ball(p, radius):
            if q in candidate_set:
                covered.add(q)
    return net


def scale_levels(
    metric: Metric, sample_pairs_count: int = 2000, exact_threshold: int = 2048
) -> "tuple[int, int]":
    """The (i_min, i_max) level range spanning min distance to diameter.

    ``2^{i_min}`` is below the smallest positive pairwise distance and
    ``2^{i_max}`` is at least the diameter.  Exact via KD-tree nearest
    neighbors for Euclidean inputs and via vectorized row sweeps for any
    batch-capable metric; for purely scalar metrics the quadratic scan
    is kept up to ``exact_threshold`` points and sampled above it (with
    two safety levels subtracted from the estimated minimum, and a
    triangle-inequality upper bound on the diameter).
    """
    if isinstance(metric, EuclideanMetric):
        dist, _ = metric.kdtree.query(metric.points, k=2)
        d_min = float(np.min(dist[:, 1]))
        lo = metric.points.min(axis=0)
        hi = metric.points.max(axis=0)
        d_max = float(np.linalg.norm(hi - lo))
        slack = 0
    elif metric.supports_batch:
        d_min = math.inf
        d_max = 0.0
        for u in range(metric.n - 1):
            row = metric.distances_from(u)[u + 1 :]
            positive = row[row > 0]
            if positive.size:
                d_min = min(d_min, float(positive.min()))
            if row.size:
                d_max = max(d_max, float(row.max()))
        slack = 0
    elif metric.n <= exact_threshold:
        d_min = math.inf
        d_max = 0.0
        for u in range(metric.n):
            for v in range(u + 1, metric.n):
                d = metric.distance(u, v)
                if d > 0:
                    d_min = min(d_min, d)
                d_max = max(d_max, d)
        slack = 0
    else:
        # Sampled estimate for big scalar-only metrics: nearest sampled
        # neighbor for the minimum, anchor sweep (triangle inequality
        # doubles it into an upper bound) for the diameter.
        from .base import sample_pairs as _sample_pairs

        d_min = math.inf
        for u, v in _sample_pairs(metric.n, sample_pairs_count, seed=0):
            d = metric.distance(u, v)
            if d > 0:
                d_min = min(d_min, d)
        anchor_row = [metric.distance(0, v) for v in range(metric.n)]
        d_max = 2.0 * max(anchor_row)
        slack = 2  # the sample may have missed a closer pair
    if d_min == 0 or math.isinf(d_min):
        raise ValueError("metric has duplicate points or a single point")
    i_min = math.floor(math.log2(d_min)) - 1 - slack
    i_max = math.ceil(math.log2(max(d_max, d_min))) + 1
    return i_min, i_max


class NetHierarchy:
    """Nested ``2^i``-nets ``N_i`` for ``i_min <= i <= i_max``.

    ``N_{i_min}`` contains every point of ``points`` (default: the whole
    metric; ``2^{i_min}`` is below the minimum distance, so the point
    set is a valid net); ``N_{i_max}`` is typically a single point.
    A subset ``points`` (ascending, as the dynamic cover's live points
    are) builds the hierarchy of that subset inside the metric's index
    space: the points outside it belong to no net.
    """

    def __init__(
        self,
        metric: Metric,
        i_min: Optional[int] = None,
        i_max: Optional[int] = None,
        points: Optional[Sequence[int]] = None,
    ):
        self.metric = metric
        if i_min is None or i_max is None:
            lo, hi = scale_levels(metric)
            i_min = lo if i_min is None else i_min
            i_max = hi if i_max is None else i_max
        if i_max < i_min:
            raise ValueError("i_max must be >= i_min")
        self.i_min = i_min
        self.i_max = i_max
        self.nets: Dict[int, List[int]] = {}
        self._kdtrees: Dict[int, cKDTree] = {}

        current = list(range(metric.n) if points is None else points)
        self.nets[i_min] = current
        for i in range(i_min + 1, i_max + 1):
            current = greedy_net(metric, current, 2.0**i)
            self.nets[i] = current

    def net(self, i: int) -> List[int]:
        """Net at level ``i`` (clamped to the built range)."""
        return self.nets[min(max(i, self.i_min), self.i_max)]

    def _level_kdtree(self, level: int) -> cKDTree:
        tree = self._kdtrees.get(level)
        if tree is None:
            from scipy.spatial import cKDTree

            pts = self.metric.points[self.nets[level]]
            tree = cKDTree(pts)
            self._kdtrees[level] = tree
        return tree

    def net_points_within(self, i: int, point: int, radius: float) -> List[int]:
        """Points of ``N_i`` within ``radius`` of ``point``."""
        level = min(max(i, self.i_min), self.i_max)
        if isinstance(self.metric, EuclideanMetric):
            tree = self._level_kdtree(level)
            hits = tree.query_ball_point(self.metric.points[point], radius)
            net = self.nets[level]
            return [net[j] for j in hits]
        if self.metric.supports_batch:
            net = self.nets[level]
            row = self.metric.pairwise([point], net)[0]
            return [net[j] for j in np.nonzero(row <= radius)[0]]
        return [
            q for q in self.nets[level] if self.metric.distance(point, q) <= radius
        ]

    def net_points_within_many(
        self, i: int, points: Sequence[int], radius: float
    ) -> List[List[int]]:
        """:meth:`net_points_within` for many query points in one sweep.

        One batched ball query (restricted to the level's net) instead of
        ``len(points)`` python-level calls — the shape the pairing-cover
        and gather sweeps of the robust tree cover need.
        """
        level = min(max(i, self.i_min), self.i_max)
        net = self.nets[level]
        if isinstance(self.metric, EuclideanMetric):
            tree = self._level_kdtree(level)
            hits = tree.query_ball_point(self.metric.points[list(points)], radius)
            return [[net[j] for j in h] for h in hits]
        if self.metric.supports_batch:
            return self.metric.ball_many(points, radius, within=net)
        return [
            [q for q in net if self.metric.distance(p, q) <= radius] for p in points
        ]

    def verify(self) -> None:
        """Check the net properties (used by tests; O(n^2) per level);
        raises :class:`~repro.errors.InvariantViolation` on violation."""
        from ..errors import check

        for i in range(self.i_min + 1, self.i_max + 1):
            radius = 2.0**i
            net = self.nets[i]
            prev = self.nets[i - 1]
            net_set = set(net)
            check(net_set <= set(prev), f"nets not nested at level {i}")
            for a_idx, a in enumerate(net):
                for b in net[a_idx + 1 :]:
                    check(
                        self.metric.distance(a, b) > radius,
                        f"net points too close at level {i}",
                    )
            for p in prev:
                check(
                    any(self.metric.distance(p, q) <= radius for q in net),
                    f"point {p} uncovered at level {i}",
                )


def doubling_constant_estimate(metric: Metric, samples: int = 30, seed: int = 0) -> float:
    """A crude empirical doubling-constant estimate.

    For sampled (center, radius) pairs, greedily covers the ball with
    half-radius balls and returns the largest cover size found.  Used in
    tests to confirm Euclidean inputs look doubling and expander metrics
    do not.
    """
    import random as _random

    rng = _random.Random(seed)
    worst = 1.0
    for _ in range(samples):
        center = rng.randrange(metric.n)
        far = max(range(metric.n), key=lambda v: metric.distance(center, v))
        radius = metric.distance(center, far) * rng.uniform(0.3, 1.0)
        if radius <= 0:
            continue
        ball = metric.ball(center, radius)
        cover = greedy_net(metric, ball, radius / 2.0)
        worst = max(worst, float(len(cover)))
    return worst
