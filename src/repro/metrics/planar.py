"""Planar-graph metrics.

Fixed-minor-free metrics in the paper are shortest-path metrics of
planar graphs; the tree-cover construction for them needs the *graph*
(for shortest-path separators), not only the distances, so this class
keeps the adjacency structure alongside cached Dijkstra distances.
"""

from __future__ import annotations

import heapq
import random
from typing import Dict, List, Tuple

import numpy as np

from .base import Metric

__all__ = ["PlanarGraphMetric", "grid_graph_metric", "delaunay_metric"]


class PlanarGraphMetric(Metric):
    """Shortest-path metric of an (assumed planar) weighted graph."""

    def __init__(self, n: int, edges: List[Tuple[int, int, float]]):
        super().__init__(n)
        self.adj: List[Dict[int, float]] = [dict() for _ in range(n)]
        for u, v, w in edges:
            if u == v:
                continue
            w = float(w)
            current = self.adj[u].get(v)
            if current is None or w < current:
                self.adj[u][v] = w
                self.adj[v][u] = w
        self._dist_cache: Dict[int, np.ndarray] = {}
        if len(self.sssp(0)) != n or np.isinf(self.sssp(0)).any():
            raise ValueError("graph is not connected")

    def edges(self):
        for u in range(self.n):
            for v, w in self.adj[u].items():
                if u < v:
                    yield u, v, w

    def sssp(self, source: int) -> np.ndarray:
        """All distances from ``source`` (cached Dijkstra)."""
        cached = self._dist_cache.get(source)
        if cached is not None:
            return cached
        dist = np.full(self.n, np.inf)
        dist[source] = 0.0
        heap = [(0.0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in self.adj[u].items():
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        self._dist_cache[source] = dist
        return dist

    def sssp_tree(self, source: int) -> List[int]:
        """Parent array of a shortest-path tree rooted at ``source``."""
        dist = np.full(self.n, np.inf)
        parent = [-1] * self.n
        dist[source] = 0.0
        heap = [(0.0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in self.adj[u].items():
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    parent[v] = u
                    heapq.heappush(heap, (nd, v))
        return parent

    def distance(self, u: int, v: int) -> float:
        return float(self.sssp(u)[v])


def grid_graph_metric(side: int, seed: int = 0) -> PlanarGraphMetric:
    """A ``side x side`` grid with random edge weights."""
    rng = random.Random(seed)
    edges = []
    for r in range(side):
        for c in range(side):
            v = r * side + c
            if c + 1 < side:
                edges.append((v, v + 1, rng.uniform(1.0, 10.0)))
            if r + 1 < side:
                edges.append((v, v + side, rng.uniform(1.0, 10.0)))
    return PlanarGraphMetric(side * side, edges)


def delaunay_metric(n: int, seed: int = 0, scale: float = 1000.0) -> PlanarGraphMetric:
    """Delaunay triangulation of random points — a natural planar graph.

    Edge weights are Euclidean lengths, so the metric is a planar
    perturbation of the underlying point set's metric.
    """
    from scipy.spatial import Delaunay

    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, scale, size=(n, 2))
    tri = Delaunay(pts)
    edges = set()
    for simplex in tri.simplices:
        for a in range(3):
            u, v = int(simplex[a]), int(simplex[(a + 1) % 3])
            edges.add((min(u, v), max(u, v)))
    weighted = [
        (u, v, float(np.linalg.norm(pts[u] - pts[v]))) for u, v in sorted(edges)
    ]
    return PlanarGraphMetric(n, weighted)
