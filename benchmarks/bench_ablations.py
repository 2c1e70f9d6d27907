"""Ablation benches for the design choices DESIGN.md calls out.

* level ancestors: ladders + jumps (O(1)) vs binary lifting (O(log n));
* Decompose: greedy postorder cutter vs recursive centroid cutting;
* baseline spanners: WSPD/greedy/Θ construction cost at equal stretch.
"""

import random

import pytest

from repro.core import TreeNavigator
from repro.core.decompose import PackedTree, decompose_centroid, decompose_packed
from repro.graphs import LadderLevelAncestor, LiftingLevelAncestor, random_tree
from repro.spanners import greedy_spanner, theta_graph, wspd_spanner


@pytest.fixture(scope="module")
def ancestor_tree():
    return random_tree(20000, seed=40)


@pytest.fixture(scope="module")
def ancestor_queries(ancestor_tree):
    depth = ancestor_tree.depths()
    rng = random.Random(0)
    queries = []
    for _ in range(5000):
        v = rng.randrange(ancestor_tree.n)
        queries.append((v, rng.randrange(depth[v] + 1)))
    return queries


def test_level_ancestor_ladders(benchmark, ancestor_tree, ancestor_queries):
    la = LadderLevelAncestor(ancestor_tree)

    def run():
        total = 0
        for v, d in ancestor_queries:
            total += la.ancestor_at_depth(v, d)
        return total

    benchmark(run)


def test_level_ancestor_lifting(benchmark, ancestor_tree, ancestor_queries):
    la = LiftingLevelAncestor(ancestor_tree)

    def run():
        total = 0
        for v, d in ancestor_queries:
            total += la.ancestor_at_depth(v, d)
        return total

    benchmark(run)


def test_decompose_greedy(benchmark):
    pt = PackedTree.from_tree(random_tree(20000, seed=41))
    required = set(range(20000))
    cuts = benchmark(decompose_packed, pt, required, 100)
    assert len(cuts) <= 20000 // 100 + 1


def test_decompose_centroid(benchmark):
    pt = PackedTree.from_tree(random_tree(20000, seed=41))
    required = set(range(20000))
    cuts = benchmark(decompose_centroid, pt, required, 100)
    assert cuts


def test_baseline_wspd_spanner(benchmark, euclidean_200):
    graph = benchmark(wspd_spanner, euclidean_200, 8.0)
    assert graph.num_edges > 0


def test_baseline_greedy_spanner(benchmark, euclidean_200):
    graph = benchmark(greedy_spanner, euclidean_200, 2.0)
    assert graph.num_edges > 0


def test_baseline_theta_graph(benchmark, euclidean_200):
    graph = benchmark(theta_graph, euclidean_200, 8)
    assert graph.num_edges > 0


def test_navigator_on_deep_vs_shallow_trees(benchmark):
    """Construction cost is shape-robust: star vs path at equal n."""
    from repro.graphs import path_tree, star_tree

    def build_both():
        a = TreeNavigator(path_tree(4096, seed=42), 2).num_edges
        b = TreeNavigator(star_tree(4096), 2).num_edges
        return a, b

    path_edges, star_edges = benchmark(build_both)
    assert star_edges < path_edges  # stars are already 2-hop navigable
