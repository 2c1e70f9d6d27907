"""Tests for shallow-light trees (Section 1.3) and the centroid ablation."""

import pytest

from repro.apps import approximate_spt, base_mst, mst_weight, shallow_light_tree
from repro.core import MetricNavigator, decompose_centroid
from repro.core.decompose import PackedTree, decompose_packed, split_packed
from repro.graphs import Graph, random_tree
from repro.metrics import random_points
from repro.treecover import robust_tree_cover


@pytest.fixture(scope="module")
def navigator():
    metric = random_points(100, dim=2, seed=0)
    cover = robust_tree_cover(metric, eps=0.45)
    return MetricNavigator(metric, cover, 3)


def tree_graph(parent, metric):
    g = Graph(len(parent))
    for v, p in enumerate(parent):
        if p != -1:
            g.add_edge(p, v, metric.distance(p, v))
    return g


class TestShallowLightTree:
    def test_is_a_spanning_tree_inside_the_spanner(self, navigator):
        parent, dist = shallow_light_tree(navigator, 0, beta=2.0)
        g = tree_graph(parent, navigator.metric)
        assert g.num_edges == navigator.metric.n - 1
        spanner_edges = navigator.spanner_edges()
        for u, v, _ in g.edges():
            assert (min(u, v), max(u, v)) in spanner_edges

    def test_root_stretch_bounded(self, navigator):
        metric = navigator.metric
        gamma = max(
            navigator.cover.stretch(0, v) for v in range(1, metric.n)
        )
        parent, dist = shallow_light_tree(navigator, 0, beta=2.0)
        worst = max(dist[v] / metric.distance(0, v) for v in range(1, metric.n))
        # Classic bound ~ gamma * (1 + beta); allow slack for the
        # approximate MST detours.
        assert worst <= gamma * 3.0 + 3.0

    def test_lightness_beats_spt(self, navigator):
        metric = navigator.metric
        mst_w = mst_weight(base_mst(metric))
        slt_parent, _ = shallow_light_tree(navigator, 0, beta=2.0)
        spt_parent, _ = approximate_spt(navigator, 0)
        slt_light = tree_graph(slt_parent, metric).total_weight() / mst_w
        spt_light = tree_graph(spt_parent, metric).total_weight() / mst_w
        assert slt_light < spt_light

    def test_beta_trades_lightness_for_depth(self, navigator):
        metric = navigator.metric
        mst_w = mst_weight(base_mst(metric))
        light = {}
        for beta in (1.2, 4.0):
            parent, _ = shallow_light_tree(navigator, 0, beta=beta)
            light[beta] = tree_graph(parent, metric).total_weight() / mst_w
        assert light[4.0] <= light[1.2] + 1e-9

    def test_rejects_beta_at_most_one(self, navigator):
        with pytest.raises(ValueError):
            shallow_light_tree(navigator, 0, beta=1.0)


class TestCentroidDecomposeAblation:
    @pytest.mark.parametrize("ell", [2, 5, 12])
    def test_same_component_guarantee(self, ell):
        pt = PackedTree.from_tree(random_tree(120, seed=1))
        required = set(range(120))
        cuts = decompose_centroid(pt, required, ell)
        comps_ids, _, _, _ = split_packed(pt, cuts)
        for ids in comps_ids:
            assert len(set(ids) & required) <= ell

    def test_cut_counts_comparable_to_greedy(self):
        pt = PackedTree.from_tree(random_tree(200, seed=2))
        required = set(range(200))
        for ell in (4, 10, 30):
            greedy = len(decompose_packed(pt, required, ell))
            centroid = len(decompose_centroid(pt, required, ell))
            assert centroid <= 3 * greedy + 3
