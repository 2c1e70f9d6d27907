"""Edge cases and failure modes across the library."""

import math

import numpy as np
import pytest

from repro.core import MetricNavigator, TreeNavigator
from repro.errors import MetricValidationError
from repro.graphs import Graph, Tree, path_tree, random_tree
from repro.metrics import (
    EuclideanMetric,
    Metric,
    MatrixMetric,
    NetHierarchy,
    check_metric_axioms,
    scale_levels,
)
from repro.spanners import hop_diameter, measured_stretch
from repro.treecover import robust_tree_cover


class TestZeroAndTinyWeights:
    def test_navigator_with_zero_weight_edges(self):
        """Zero-weight edges (co-located points in a tree metric) keep
        stretch-1 paths well defined."""
        parents = [-1] + list(range(9))
        weights = [0.0, 1.0, 0.0, 2.0, 0.0, 3.0, 0.0, 1.0, 0.0, 1.0]
        tree = Tree(parents, weights)
        nav = TreeNavigator(tree, 2)
        for u in range(10):
            for v in range(u + 1, 10):
                nav.verify_path(u, v, nav.find_path(u, v))

    def test_two_vertex_tree(self):
        tree = Tree([-1, 0], [0.0, 5.0])
        nav = TreeNavigator(tree, 2)
        assert nav.find_path(0, 1) == [0, 1]

    def test_k_larger_than_n(self):
        tree = random_tree(5, seed=0)
        nav = TreeNavigator(tree, 50)
        for u in range(5):
            for v in range(u + 1, 5):
                nav.verify_path(u, v, nav.find_path(u, v))


class TestDegenerateMetrics:
    def test_duplicate_points_rejected_by_scale_levels(self):
        metric = EuclideanMetric([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError):
            scale_levels(metric)

    def test_duplicate_points_rejected_by_robust_cover(self):
        metric = EuclideanMetric([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError):
            robust_tree_cover(metric, eps=0.4)

    def test_single_point_metric_rejected(self):
        with pytest.raises(ValueError):
            scale_levels(EuclideanMetric([[1.0, 2.0]]))

    def test_empty_metric_rejected(self):
        with pytest.raises(ValueError):
            MatrixMetric(np.zeros((0, 0)))

    def test_axiom_checker_catches_asymmetry(self):
        class Broken(Metric):
            def distance(self, u, v):
                return 1.0 if u < v else 2.0 if u > v else 0.0

        with pytest.raises(MetricValidationError):
            check_metric_axioms(Broken(5), trials=300)

    def test_axiom_checker_catches_triangle_violation(self):
        matrix = np.array([
            [0.0, 1.0, 10.0],
            [1.0, 0.0, 1.0],
            [10.0, 1.0, 0.0],
        ])
        with pytest.raises(MetricValidationError):
            check_metric_axioms(MatrixMetric(matrix), trials=500)


class TestCollinearAndGridGeometry:
    def test_collinear_points(self):
        """Line metrics — the lower-bound family — through the full
        doubling pipeline."""
        pts = [[float(3**i), 0.0] for i in range(10)]
        metric = EuclideanMetric(pts)
        cover = robust_tree_cover(metric, eps=0.4)
        nav = MetricNavigator(metric, cover, 2)
        for u in range(10):
            for v in range(u + 1, 10):
                nav.verify_query(u, v)

    def test_grid_ties_in_nets(self):
        from repro.metrics import grid_points

        metric = grid_points(7, dim=2, spacing=10.0)
        hierarchy = NetHierarchy(metric)
        hierarchy.verify()


class TestAdjacentCutVertices:
    def test_double_star_forces_adjacent_cuts(self):
        """Two adjacent hubs both exceed the decomposition threshold, so
        Decompose cuts neighbouring vertices — the contracted-tree corner
        case the paper's prose elides (cut-cut edges keep it connected)."""
        from repro.core.decompose import PackedTree, decompose_packed
        import itertools

        parents = [-1, 0] + [0] * 20 + [1] * 20
        tree = Tree(parents, [0.0] + [1.0] * 41)
        pt = PackedTree.from_tree(tree)
        cuts = [pt.ids[j] for j in decompose_packed(pt, set(range(42)), 7)]
        assert 0 in cuts and 1 in cuts  # the adjacent hubs
        for k in (3, 4, 5):
            nav = TreeNavigator(tree, k)
            for u, v in itertools.combinations(range(42), 2):
                nav.verify_path(u, v, nav.find_path(u, v))


class TestSpannerMeasureEdgeCases:
    def test_hop_diameter_saturates_on_disconnected_pairs(self):
        g = Graph(4)
        g.add_edge(0, 1, 1.0)
        g.add_edge(2, 3, 1.0)
        metric = MatrixMetric(np.array([
            [0.0, 1.0, 1.0, 1.0],
            [1.0, 0.0, 1.0, 1.0],
            [1.0, 1.0, 0.0, 1.0],
            [1.0, 1.0, 1.0, 0.0],
        ]))
        assert hop_diameter(g, metric, 10.0, [(0, 2)], max_k=8) == 9

    def test_measured_stretch_ignores_zero_distance(self):
        metric = MatrixMetric(np.array([[0.0, 0.0], [0.0, 0.0]]))
        g = Graph(2)
        g.add_edge(0, 1, 0.0)
        assert measured_stretch(g, metric, [(0, 1)]) == 1.0


class TestPathTreeExtremes:
    def test_deep_path_k2_depth_exactly_logarithmic(self):
        n = 2048
        nav = TreeNavigator(path_tree(n, seed=0), 2)
        assert nav.phi_depth() <= math.ceil(math.log2(n)) + 1

    def test_every_k2_query_routes_through_single_cut(self):
        """On a path with k=2, every non-adjacent-in-Φ pair's middle
        vertex must separate them on the line."""
        n = 256
        tree = path_tree(n, seed=1)
        nav = TreeNavigator(tree, 2)
        import random

        rng = random.Random(2)
        for _ in range(200):
            u, v = sorted(rng.sample(range(n), 2))
            path = nav.find_path(u, v)
            if len(path) == 3:
                assert u < path[1] < v
