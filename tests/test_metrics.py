"""Tests for metric substrates: Euclidean, general, tree, planar, nets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import random_tree
from repro.metrics import (
    EuclideanMetric,
    MatrixMetric,
    NetHierarchy,
    TreeMetric,
    aspect_ratio,
    check_metric_axioms,
    clustered_points,
    delaunay_metric,
    doubling_constant_estimate,
    graph_metric,
    greedy_net,
    grid_graph_metric,
    grid_points,
    random_graph_metric,
    random_metric,
    random_points,
    sample_pairs,
    scale_levels,
)


class TestEuclidean:
    def test_axioms(self):
        check_metric_axioms(random_points(60, dim=3, seed=0))

    def test_distance_matches_numpy(self):
        m = random_points(20, dim=2, seed=1)
        for u in range(20):
            row = m.distances_from(u)
            for v in range(20):
                assert abs(row[v] - m.distance(u, v)) < 1e-9

    @pytest.mark.parametrize("dim", [2, 3, 8, 9, 16])
    def test_batch_kernels_are_bit_identical_to_distance(self, dim):
        """``pair_distances`` and ``distances_from`` sum the squares in
        :meth:`distance`'s order; ``np.linalg.norm`` differed in the
        last bit on thousands of pairs from dimension 8 on."""
        m = random_points(300, dim, seed=dim)
        rng = np.random.default_rng(dim)
        us = rng.integers(0, 300, 2000).tolist()
        vs = rng.integers(0, 300, 2000).tolist()
        assert m.pair_distances(us, vs).tolist() == [
            m.distance(u, v) for u, v in zip(us, vs)]
        for u in range(0, 300, 15):
            assert m.distances_from(u).tolist() == [
                m.distance(u, v) for v in range(300)]

    def test_neighbors_within_matches_scan(self):
        m = random_points(80, dim=2, seed=2)
        for u in (0, 10, 79):
            r = 200.0
            expected = sorted(v for v in range(80) if m.distance(u, v) <= r)
            assert m.neighbors_within(u, r) == expected

    def test_grid_points_count_and_spacing(self):
        m = grid_points(5, dim=2, spacing=3.0)
        assert m.n == 25
        assert abs(m.distance(0, 1) - 3.0) < 1e-9

    def test_clustered_points_have_high_aspect_ratio(self):
        uniform = random_points(100, seed=3)
        clustered = clustered_points(100, clusters=5, seed=3)
        assert aspect_ratio(clustered, sample=300) > aspect_ratio(uniform, sample=300)

    def test_rejects_one_dimensional_input(self):
        with pytest.raises(ValueError):
            EuclideanMetric([1.0, 2.0, 3.0])


class TestGeneralMetrics:
    def test_random_metric_axioms(self):
        check_metric_axioms(random_metric(40, seed=4), trials=400)

    def test_matrix_metric_rejects_non_square(self):
        with pytest.raises(ValueError):
            MatrixMetric([[0.0, 1.0]])

    def test_graph_metric_matches_dijkstra_triangle(self):
        m = random_graph_metric(50, seed=5)
        check_metric_axioms(m, trials=400)

    def test_graph_metric_rejects_disconnected(self):
        with pytest.raises(ValueError):
            graph_metric(4, [(0, 1, 1.0), (2, 3, 1.0)])

    def test_expander_not_doubling(self):
        """Random graph metrics should look less doubling than grids."""
        expander = random_graph_metric(120, degree=6, seed=6)
        euclid = random_points(120, dim=2, seed=6)
        assert doubling_constant_estimate(expander, samples=20) >= (
            doubling_constant_estimate(euclid, samples=20)
        )


class TestTreeMetric:
    def test_matches_tree_distance(self):
        t = random_tree(60, seed=7)
        tm = TreeMetric(t)
        for u in range(0, 60, 5):
            for v in range(0, 60, 7):
                assert abs(tm.distance(u, v) - t.distance(u, v)) < 1e-9

    def test_axioms(self):
        check_metric_axioms(TreeMetric(random_tree(50, seed=8)), trials=300)

    def test_path_realizes_distance(self):
        t = random_tree(40, seed=9)
        tm = TreeMetric(t)
        path = tm.path(3, 29)
        total = sum(t.distance(a, b) for a, b in zip(path, path[1:]))
        assert abs(total - tm.distance(3, 29)) < 1e-9


class TestPlanarMetrics:
    def test_grid_graph_axioms(self):
        check_metric_axioms(grid_graph_metric(6, seed=10), trials=300)

    def test_delaunay_axioms(self):
        check_metric_axioms(delaunay_metric(60, seed=11), trials=300)

    def test_delaunay_dominates_euclidean(self):
        """Graph distances are at least the underlying point distances."""
        m = delaunay_metric(50, seed=12)
        # Reconstruct endpoints from the sssp tree weights indirectly:
        # any edge weight equals the Euclidean length, so graph distance
        # between adjacent vertices equals it, and longer routes only grow.
        for u, v, w in m.edges():
            assert abs(m.distance(u, v) - w) < 1e-9 or m.distance(u, v) <= w

    def test_sssp_tree_is_consistent(self):
        m = grid_graph_metric(5, seed=13)
        parent = m.sssp_tree(0)
        dist = m.sssp(0)
        for v in range(1, m.n):
            p = parent[v]
            assert p != -1
            assert abs(dist[p] + m.adj[p][v] - dist[v]) < 1e-9


class TestNets:
    def test_greedy_net_properties(self):
        m = random_points(100, seed=14)
        net = greedy_net(m, list(range(100)), 120.0)
        for i, a in enumerate(net):
            for b in net[i + 1 :]:
                assert m.distance(a, b) > 120.0
        for p in range(100):
            assert any(m.distance(p, q) <= 120.0 for q in net)

    def test_hierarchy_verify(self):
        m = random_points(150, seed=15)
        h = NetHierarchy(m)
        h.verify()

    def test_hierarchy_top_is_small_bottom_is_everything(self):
        m = random_points(120, seed=16)
        h = NetHierarchy(m)
        assert len(h.nets[h.i_min]) == 120
        assert len(h.nets[h.i_max]) <= 2

    def test_net_points_within_matches_scan(self):
        m = random_points(90, seed=17)
        h = NetHierarchy(m)
        mid = (h.i_min + h.i_max) // 2
        net = set(h.nets[mid])
        for p in (0, 40, 89):
            r = 2.0 ** (mid + 1)
            expected = sorted(q for q in net if m.distance(p, q) <= r)
            assert sorted(h.net_points_within(mid, p, r)) == expected

    def test_scale_levels_bracket_distances(self):
        m = random_points(60, seed=18)
        lo, hi = scale_levels(m)
        d = [m.distance(u, v) for u, v in sample_pairs(60, 200)]
        assert 2.0**lo <= min(x for x in d if x > 0)
        assert 2.0**hi >= max(d)

    def test_hierarchy_works_on_general_metric(self):
        m = random_metric(50, seed=19)
        h = NetHierarchy(m)
        h.verify()


@given(st.integers(min_value=5, max_value=60), st.integers(min_value=0, max_value=100))
@settings(max_examples=25, deadline=None)
def test_property_sample_pairs_distinct_and_in_range(n, seed):
    pairs = sample_pairs(n, 30, seed=seed)
    assert len(pairs) == len(set(pairs))
    for u, v in pairs:
        assert 0 <= u < v < n
