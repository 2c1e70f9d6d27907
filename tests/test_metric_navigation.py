"""Tests for Theorem 1.2: two-step navigation over tree covers."""

import random
import time

import pytest

from repro.core import MetricNavigator
from repro.metrics import (
    grid_graph_metric,
    random_graph_metric,
    random_points,
    sample_pairs,
)
from repro.treecover import (
    planar_tree_cover,
    ramsey_tree_cover,
    robust_tree_cover,
)


def home_stretch(cover, metric):
    worst = 1.0
    for p in range(metric.n):
        tree = cover.trees[cover.home[p]]
        for q in range(0, metric.n, 5):
            if q != p:
                worst = max(worst, tree.tree_distance(p, q) / metric.distance(p, q))
    return worst


class TestDoublingNavigation:
    def setup_method(self):
        self.metric = random_points(90, dim=2, seed=0)
        self.cover = robust_tree_cover(self.metric, eps=0.45)
        self.gamma = self.cover.measured_stretch(sample_pairs(90, 300))[0]

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_queries_meet_all_guarantees(self, k):
        nav = MetricNavigator(self.metric, self.cover, k)
        pairs = sample_pairs(90, 100, seed=k)
        gamma = max(self.cover.stretch(u, v) for u, v in pairs)
        for u, v in pairs:
            nav.verify_query(u, v, gamma + 1e-9)

    def test_path_is_list_of_points(self):
        nav = MetricNavigator(self.metric, self.cover, 2)
        path = nav.find_path(0, 89)
        assert all(0 <= p < 90 for p in path)
        assert path[0] == 0 and path[-1] == 89

    def test_identity(self):
        nav = MetricNavigator(self.metric, self.cover, 2)
        assert nav.find_path(7, 7) == [7]

    def test_reported_tree_achieves_best_distance(self):
        nav = MetricNavigator(self.metric, self.cover, 2)
        _, index = nav.find_path_with_tree(3, 50)
        best_index, best = self.cover.best_tree(3, 50)
        assert index == best_index

    def test_spanner_size_scales_with_zeta(self):
        """|H_X| = O(n·αk(n)·ζ): a richer cover gives a bigger H_X."""
        rich_cover = robust_tree_cover(self.metric, eps=0.25)
        base = MetricNavigator(self.metric, self.cover, 2).num_edges
        rich = MetricNavigator(self.metric, rich_cover, 2).num_edges
        assert rich_cover.size > self.cover.size
        assert rich > base

    def test_query_stretch_helper(self):
        nav = MetricNavigator(self.metric, self.cover, 3)
        hops, stretch = nav.query_stretch(2, 77)
        assert hops <= 3
        assert 1.0 <= stretch <= self.gamma + 1e-9


class TestGeneralNavigation:
    def setup_method(self):
        self.metric = random_graph_metric(70, seed=1)
        self.cover = ramsey_tree_cover(self.metric, ell=2, seed=2)
        self.gamma = home_stretch(self.cover, self.metric)

    @pytest.mark.parametrize("k", [2, 3])
    def test_queries(self, k):
        nav = MetricNavigator(self.metric, self.cover, k)
        for u, v in sample_pairs(70, 120, seed=k):
            nav.verify_query(u, v)

    def test_constant_time_tree_choice(self):
        """Ramsey home lookup beats the O(ζ) scan structurally: the
        chosen tree is always the home tree of one endpoint."""
        nav = MetricNavigator(self.metric, self.cover, 2)
        for u, v in sample_pairs(70, 50, seed=9):
            _, index = nav.find_path_with_tree(u, v)
            assert index == self.cover.home[u]


class TestPlanarNavigation:
    def test_queries(self):
        metric = grid_graph_metric(9, seed=3)
        cover = planar_tree_cover(metric)
        for k in (2, 3):
            nav = MetricNavigator(metric, cover, k)
            pairs = sample_pairs(metric.n, 120, seed=k)
            gamma = max(cover.stretch(u, v) for u, v in pairs)
            assert gamma <= 3.0 + 1e-6
            for u, v in pairs:
                nav.verify_query(u, v, gamma + 1e-9)


class TestQueryWorkScaling:
    def _count_distance_evaluations(self, metric, cover, queries):
        """Single-tree distance evaluations per find_path (the O(ζ)
        scan), whether a cover tree's oracle or the packed index's
        single-tree distance answers them."""
        from repro.treecover.base import CoverTree
        from repro.treecover.packed_index import PackedCoverIndex

        nav = MetricNavigator(metric, cover, 2)
        counter = {"calls": 0}
        originals = {
            CoverTree: CoverTree.tree_distance,
            PackedCoverIndex: PackedCoverIndex.distance,
        }

        def counting(original):
            def count(self, *args):
                counter["calls"] += 1
                return original(self, *args)
            return count

        CoverTree.tree_distance = counting(originals[CoverTree])
        PackedCoverIndex.distance = counting(originals[PackedCoverIndex])
        try:
            for u, v in queries:
                nav.find_path(u, v)
        finally:
            CoverTree.tree_distance = originals[CoverTree]
            PackedCoverIndex.distance = originals[PackedCoverIndex]
        return counter["calls"] / len(queries)

    def _count_batch_scans(self, metric, cover, pairs, monkeypatch):
        """Per-tree LCA batches made by one find_paths and one
        approx_distances call."""
        from repro.treecover.base import CoverTree

        nav = MetricNavigator(metric, cover, 2)
        counter = {"calls": 0}
        original = CoverTree.tree_distances_many

        def counting(self, ps, qs):
            counter["calls"] += 1
            return original(self, ps, qs)

        monkeypatch.setattr(CoverTree, "tree_distances_many", counting)
        nav.find_paths(pairs)
        after_paths = counter["calls"]
        nav.approx_distances(pairs)
        return after_paths, counter["calls"] - after_paths

    def test_scan_cost_is_zeta_not_n(self, monkeypatch):
        """O(k + ζ) query: legacy tree selection evaluates exactly ζ
        tree distances per query, independent of n (deterministic
        version of the paper's τ bound — wall-clock is measured in the
        benches).  The packed selection index replaces all of those
        scalar oracle calls with vectorized array ops."""
        metric = random_points(120, dim=2, seed=4)
        # Packed index disabled: the scalar scan consults every oracle.
        monkeypatch.setenv("REPRO_PACKED_INDEX_MAX_MB", "0")
        cover = robust_tree_cover(metric, eps=0.6)
        per_query = self._count_distance_evaluations(
            metric, cover, sample_pairs(120, 40, seed=5)
        )
        assert per_query == cover.size
        # Packed index enabled (the default): zero scalar oracle calls.
        monkeypatch.delenv("REPRO_PACKED_INDEX_MAX_MB")
        cover.invalidate_query_state()
        per_query = self._count_distance_evaluations(
            metric, cover, sample_pairs(120, 40, seed=5)
        )
        assert per_query == 0.0

    def test_batches_select_from_the_packed_index(self, monkeypatch):
        """Batched queries select trees from the packed index the
        navigator builds; only a cover over the index budget falls back
        to one vectorized LCA batch per tree."""
        metric = random_points(80, dim=2, seed=4)
        pairs = sample_pairs(80, 30, seed=5)
        cover = robust_tree_cover(metric, eps=0.6)
        assert self._count_batch_scans(metric, cover, pairs, monkeypatch) \
            == (0, 0)
        monkeypatch.setenv("REPRO_PACKED_INDEX_MAX_MB", "0")
        cover.invalidate_query_state()
        assert self._count_batch_scans(metric, cover, pairs, monkeypatch) \
            == (cover.size, cover.size)

    def test_snapshot_answers_after_its_cover_is_retired(self):
        """A navigator keeps answering after a mutation retires the
        cover it was built from (in-flight batches hold such a
        snapshot); only building a new index from the cover is refused."""
        from repro.errors import StalePackError

        metric = random_points(60, dim=2, seed=8)
        cover = robust_tree_cover(metric, eps=0.6)
        nav = MetricNavigator(metric, cover, 3)
        pairs = sample_pairs(60, 25, seed=9)
        before = nav.find_paths(pairs)
        cover.retire("a mutation superseded this generation")
        assert nav.find_paths(pairs) == before
        assert [nav.find_path_with_tree(u, v) for u, v in pairs] == before
        cover.invalidate_query_state()
        with pytest.raises(StalePackError):
            MetricNavigator(metric, cover, 3)

    def test_ramsey_scan_cost_is_constant(self):
        metric = random_graph_metric(80, seed=6)
        cover = ramsey_tree_cover(metric, ell=2, seed=7)
        per_query = self._count_distance_evaluations(
            metric, cover, sample_pairs(80, 40, seed=8)
        )
        assert per_query == 1.0  # home-tree lookup only


@pytest.fixture(scope="module", params=["robust", "ramsey"])
def forty_point_cover(request):
    metric = random_points(40, dim=2, seed=3)
    if request.param == "robust":
        return metric, robust_tree_cover(metric, eps=0.6)
    return metric, ramsey_tree_cover(metric, ell=2, seed=4)


class TestPointIdValidation:
    """Ids outside [0, n) are refused before any lookup: a negative id
    must not wrap around to the last points, and a too-large one must
    not surface as a bare IndexError."""

    @pytest.mark.parametrize("mode", ["in_memory", "mapped"])
    def test_out_of_range_ids_raise_value_error(self, forty_point_cover, mode):
        from repro.core import PackedMetricNavigator, navigator_arrays

        metric, cover = forty_point_cover
        nav = MetricNavigator(metric, cover, 3)
        if mode == "mapped":
            nav = PackedMetricNavigator(metric, 3, navigator_arrays(nav))
        for u, v in [(-1, 5), (5, -1), (40, 5), (5, 40), (-1, -1)]:
            match = rf"\({u}, {v}\) outside \[0, 40\)"
            with pytest.raises(ValueError, match=match):
                nav.find_path(u, v)
            with pytest.raises(ValueError, match=match):
                nav.find_path_with_tree(u, v)
            with pytest.raises(ValueError, match=match):
                nav.approx_distance(u, v)
            with pytest.raises(ValueError, match=match):
                nav.best_tree(u, v)
            with pytest.raises(ValueError, match=match):
                nav.query_stretch(u, v)
            with pytest.raises(ValueError, match=match):
                nav.find_paths([(0, 1), (u, v)])
            with pytest.raises(ValueError, match=match):
                nav.approx_distances([(0, 1), (u, v)])
        assert nav.find_path(39, 5)[0] == 39


def test_one_pair_selection_equals_its_batch_entry(forty_point_cover):
    """A batch of one pair takes the packed index's single-pair path;
    every pair gets the tree, distance and path, bit for bit, that one
    batch of all pairs gives it (u == v included)."""
    metric, cover = forty_point_cover
    nav = MetricNavigator(metric, cover, 3)
    pairs = [(u, v) for u in range(metric.n) for v in range(metric.n)]
    assert [nav.best_trees([pair])[0] for pair in pairs] == \
        nav.best_trees(pairs)
    assert [nav.find_paths([pair])[0] for pair in pairs] == \
        nav.find_paths(pairs)
    assert [nav.approx_distances([pair])[0] for pair in pairs] == \
        nav.approx_distances(pairs).tolist()
