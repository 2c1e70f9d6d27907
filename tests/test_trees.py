"""Tests for the tree substrate: Tree, LCA, level ancestors."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import (
    LadderLevelAncestor,
    LcaIndex,
    LiftingLevelAncestor,
    Tree,
    balanced_tree,
    caterpillar_tree,
    path_tree,
    random_tree,
    star_tree,
)


def brute_lca(tree, u, v):
    depth = tree.depths()
    while depth[u] > depth[v]:
        u = tree.parents[u]
    while depth[v] > depth[u]:
        v = tree.parents[v]
    while u != v:
        u, v = tree.parents[u], tree.parents[v]
    return u


random_parents = st.integers(min_value=2, max_value=80).flatmap(
    lambda n: st.tuples(
        st.just(n), st.lists(st.randoms(use_true_random=False), min_size=1, max_size=1)
    )
)


def make_random_tree(n, seed):
    return random_tree(n, seed=seed)


class TestTreeBasics:
    def test_single_vertex(self):
        t = Tree([-1])
        assert t.n == 1 and t.root == 0
        assert t.preorder() == [0]
        assert t.distance(0, 0) == 0.0

    def test_rejects_no_root(self):
        with pytest.raises(ValueError):
            Tree([0, 0])

    def test_rejects_two_roots(self):
        with pytest.raises(ValueError):
            Tree([-1, -1])

    def test_rejects_cycle(self):
        with pytest.raises(ValueError):
            Tree([-1, 2, 1])

    def test_rejects_weight_length_mismatch(self):
        with pytest.raises(ValueError):
            Tree([-1, 0], [0.0])

    def test_path_endpoints_and_uniqueness(self):
        t = random_tree(60, seed=5)
        rng = random.Random(1)
        for _ in range(50):
            u, v = rng.randrange(60), rng.randrange(60)
            path = t.path(u, v)
            assert path[0] == u and path[-1] == v
            assert len(set(path)) == len(path)
            for a, b in zip(path, path[1:]):
                assert t.parents[a] == b or t.parents[b] == a

    def test_distance_symmetric_and_triangle(self):
        t = random_tree(40, seed=2)
        rng = random.Random(3)
        for _ in range(40):
            u, v, w = (rng.randrange(40) for _ in range(3))
            assert abs(t.distance(u, v) - t.distance(v, u)) < 1e-9
            assert t.distance(u, v) <= t.distance(u, w) + t.distance(w, v) + 1e-9

    def test_from_edges_round_trip(self):
        t = random_tree(30, seed=7)
        rebuilt = Tree.from_edges(30, list(t.edges()), root=t.root)
        for u in range(0, 30, 3):
            for v in range(0, 30, 4):
                assert abs(t.distance(u, v) - rebuilt.distance(u, v)) < 1e-9

    def test_from_edges_rejects_disconnected(self):
        # A cycle on {0, 1, 2} plus isolated vertex 3: n - 1 edges but
        # not a tree.
        with pytest.raises(ValueError):
            Tree.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])

    def test_is_ancestor(self):
        t = balanced_tree(2, 3)
        assert t.is_ancestor(0, 14)
        assert t.is_ancestor(7, 7)
        assert not t.is_ancestor(7, 8)

    def test_weighted_depths_consistent_with_distance(self):
        t = random_tree(50, seed=9)
        wdepth = t.weighted_depths()
        for v in range(50):
            assert abs(wdepth[v] - t.distance(t.root, v)) < 1e-9


class TestBuilders:
    def test_path_tree_shape(self):
        t = path_tree(10, seed=0)
        assert t.parents == [-1] + list(range(9))
        assert max(t.depths()) == 9

    def test_star_tree_shape(self):
        t = star_tree(10)
        assert max(t.depths()) == 1
        assert len(t.children[0]) == 9

    def test_caterpillar_has_n_vertices(self):
        t = caterpillar_tree(25, seed=1)
        assert t.n == 25

    def test_balanced_tree_size(self):
        t = balanced_tree(3, 3)
        assert t.n == 1 + 3 + 9 + 27

    def test_random_tree_deterministic_by_seed(self):
        assert random_tree(40, seed=5).parents == random_tree(40, seed=5).parents
        assert random_tree(40, seed=5).parents != random_tree(40, seed=6).parents


class TestLcaAndLevelAncestor:
    @pytest.mark.parametrize("builder,n", [
        (random_tree, 120), (path_tree, 90), (caterpillar_tree, 80), (star_tree, 50),
    ])
    def test_lca_matches_brute_force(self, builder, n):
        t = builder(n) if builder is star_tree else builder(n, seed=11)
        lca = LcaIndex(t)
        rng = random.Random(4)
        for _ in range(300):
            u, v = rng.randrange(n), rng.randrange(n)
            assert lca.lca(u, v) == brute_lca(t, u, v)

    def test_lca_distance_matches_tree_distance(self):
        t = random_tree(70, seed=12)
        lca = LcaIndex(t)
        rng = random.Random(5)
        for _ in range(100):
            u, v = rng.randrange(70), rng.randrange(70)
            assert abs(lca.distance(u, v) - t.distance(u, v)) < 1e-9

    @pytest.mark.parametrize("cls", [LadderLevelAncestor, LiftingLevelAncestor])
    @pytest.mark.parametrize("builder,n", [
        (random_tree, 150), (path_tree, 100), (balanced_tree, None),
    ])
    def test_level_ancestor_matches_climbing(self, cls, builder, n):
        t = balanced_tree(2, 6) if builder is balanced_tree else builder(n, seed=13)
        la = cls(t)
        depth = t.depths()
        rng = random.Random(6)
        for _ in range(300):
            v = rng.randrange(t.n)
            d = rng.randrange(depth[v] + 1)
            expected = v
            while depth[expected] > d:
                expected = t.parents[expected]
            assert la.ancestor_at_depth(v, d) == expected

    def test_level_ancestor_rejects_deeper_target(self):
        t = path_tree(10, seed=0)
        for cls in (LadderLevelAncestor, LiftingLevelAncestor):
            with pytest.raises(ValueError):
                cls(t).ancestor_at_depth(2, 5)


@given(st.integers(min_value=2, max_value=64), st.integers(min_value=0, max_value=1000))
@settings(max_examples=40, deadline=None)
def test_property_lca_depth_is_max_common_prefix(n, seed):
    """LCA depth equals the longest common prefix of root paths."""
    t = random_tree(n, seed=seed)
    lca = LcaIndex(t)
    rng = random.Random(seed)
    u, v = rng.randrange(n), rng.randrange(n)

    def root_path(x):
        out = [x]
        while t.parents[out[-1]] != -1:
            out.append(t.parents[out[-1]])
        return list(reversed(out))

    pu, pv = root_path(u), root_path(v)
    common = 0
    while common < min(len(pu), len(pv)) and pu[common] == pv[common]:
        common += 1
    assert lca.lca(u, v) == pu[common - 1]


def _recursive_tour(tree):
    """The Euler tour straight from the definition, over ``children``."""
    tour, depths = [], []

    def visit(v, d):
        tour.append(v)
        depths.append(d)
        for c in tree.children[v]:
            visit(c, d + 1)
            tour.append(v)
            depths.append(d)

    visit(tree.root, 0)
    return tour, depths


@given(st.integers(min_value=1, max_value=80), st.integers(min_value=0, max_value=1000))
@settings(max_examples=40, deadline=None)
def test_child_ranges_and_euler_tour_match_child_lists(n, seed):
    from repro.graphs.lca import euler_tour

    rng = random.Random(seed)
    label = list(range(n))
    rng.shuffle(label)
    parents = [0] * n
    for v in range(n):
        parents[label[v]] = -1 if v == 0 else label[rng.randrange(v)]
    tree = Tree(parents)
    kids, start = tree.child_ranges()
    assert [kids[start[v]:start[v + 1]] for v in range(n)] == tree.children
    first, tour, depths = euler_tour(tree)
    expected_tour, expected_depths = _recursive_tour(tree)
    assert tour.tolist() == expected_tour
    assert depths.tolist() == expected_depths
    assert first.tolist() == [expected_tour.index(v) for v in range(n)]


def test_child_ranges_rejects_out_of_range_parent():
    tree = Tree([-1, 0, 1], validate=False)
    tree.parents[2] = 7
    with pytest.raises(ValueError, match="out of range"):
        tree.child_ranges()
