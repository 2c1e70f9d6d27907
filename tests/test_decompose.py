"""Tests for Prune / Decompose / component splitting (Section 3 of [Sol13]).

The invariants run on the packed implementation the navigator builds
with (:func:`prune_packed`, :func:`decompose_packed`,
:func:`split_packed`); a hypothesis differential pins it to the frozen
dict implementation of the seed (``repro._seed_baseline``).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._seed_baseline import (
    SeedWorkTree,
    _seed_decompose,
    _seed_prune,
    _seed_split_components,
)
from repro.core.decompose import (
    PackedTree,
    decompose_packed,
    prune_packed,
    split_packed,
)
from repro.graphs import random_tree


def packed_tree(n, seed):
    return PackedTree.from_tree(random_tree(n, seed=seed))


def required_sample(n, count, seed):
    rng = random.Random(seed)
    return set(rng.sample(range(n), count))


def parent_ids(pt):
    """Vertex id -> parent vertex id (-1 for the root)."""
    return {
        v: pt.ids[p] if p != -1 else -1 for v, p in zip(pt.ids, pt.parent)
    }


def child_counts(pt):
    counts = [0] * len(pt)
    for p in pt.parent[1:]:
        counts[p] += 1
    return dict(zip(pt.ids, counts))


def cut_ids(pt, positions):
    return [pt.ids[j] for j in positions]


def component_trees(pt, positions):
    comps_ids, comps_parent, _, _ = split_packed(pt, positions)
    return [PackedTree(ids, parent) for ids, parent in zip(comps_ids, comps_parent)]


class TestPackedTree:
    def test_from_tree_preserves_structure(self):
        t = random_tree(40, seed=0)
        pt = PackedTree.from_tree(t)
        assert len(pt) == 40
        assert pt.ids[0] == t.root
        assert sorted(pt.ids) == list(range(40))
        assert parent_ids(pt) == {v: t.parents[v] for v in range(40)}

    def test_positions_are_preorder(self):
        pt = packed_tree(30, seed=1)
        assert pt.parent[0] == -1
        assert all(0 <= p < j for j, p in enumerate(pt.parent) if j)


class TestPrune:
    def test_keeps_all_required(self):
        pt = packed_tree(80, seed=2)
        req = required_sample(80, 20, seed=3)
        pruned = prune_packed(pt, req)
        assert req <= set(pruned.ids)

    def test_steiner_bound(self):
        """At most |R| - 1 Steiner (non-required) vertices survive."""
        for seed in range(8):
            pt = packed_tree(100, seed=seed)
            req = required_sample(100, 15, seed=seed + 50)
            pruned = prune_packed(pt, req)
            steiner = set(pruned.ids) - req
            assert len(steiner) <= len(req) - 1

    def test_every_steiner_vertex_branches(self):
        pt = packed_tree(90, seed=4)
        req = required_sample(90, 12, seed=5)
        pruned = prune_packed(pt, req)
        children = child_counts(pruned)
        for v in pruned.ids:
            if v not in req:
                assert children[v] >= 2, f"Steiner {v} does not branch"

    def test_preserves_ancestor_order(self):
        """Parent in the pruned tree is an ancestor in the original tree."""
        t = random_tree(70, seed=6)
        req = required_sample(70, 18, seed=7)
        pruned = prune_packed(PackedTree.from_tree(t), req)
        for v, p in parent_ids(pruned).items():
            if p != -1:
                assert t.is_ancestor(p, v)

    def test_noop_when_everything_required(self):
        pt = packed_tree(50, seed=8)
        pruned = prune_packed(pt, set(range(50)))
        assert pruned.ids == pt.ids
        assert pruned.parent == pt.parent

    def test_rejects_empty_required(self):
        with pytest.raises(ValueError):
            prune_packed(packed_tree(10, seed=9), set())

    def test_single_required_vertex(self):
        pt = packed_tree(40, seed=10)
        pruned = prune_packed(pt, {7})
        assert pruned.ids == [7]
        assert pruned.parent == [-1]


class TestDecompose:
    @pytest.mark.parametrize("ell", [1, 2, 5, 10, 25])
    def test_components_bounded(self, ell):
        pt = packed_tree(120, seed=11)
        req = set(range(120))
        cuts = decompose_packed(pt, req, ell)
        for comp in component_trees(pt, cuts):
            assert len(set(comp.ids) & req) <= ell

    def test_cut_count_bound(self):
        """|CV| <= |V| / (ell + 1) (Lemma 3.1's general case)."""
        for seed in range(6):
            pt = packed_tree(150, seed=seed)
            req = set(range(150))
            for ell in (3, 7, 20):
                cuts = decompose_packed(pt, req, ell)
                assert len(cuts) <= len(pt) // (ell + 1) + 1

    def test_half_ell_gives_single_centroid_cut(self):
        """ell = ceil(n/2) yields exactly one cut vertex (the k=2 case)."""
        for seed in range(10):
            n = 20 + seed * 13
            pt = packed_tree(n, seed=seed)
            req = set(range(n))
            cuts = decompose_packed(pt, req, (n + 1) // 2)
            assert len(cuts) == 1

    def test_respects_required_subset(self):
        pt = packed_tree(100, seed=12)
        req = required_sample(100, 30, seed=13)
        cuts = decompose_packed(pt, req, 4)
        for comp in component_trees(pt, cuts):
            assert len(set(comp.ids) & req) <= 4

    def test_rejects_bad_ell(self):
        with pytest.raises(ValueError):
            decompose_packed(packed_tree(10, seed=14), {0}, 0)


class TestSplitComponents:
    def test_partition_of_non_cut_vertices(self):
        pt = packed_tree(80, seed=15)
        cuts = decompose_packed(pt, set(range(80)), 6)
        seen = set()
        for comp in component_trees(pt, cuts):
            vertices = set(comp.ids)
            assert not (vertices & seen), "components overlap"
            seen |= vertices
        assert seen | set(cut_ids(pt, cuts)) == set(range(80))

    def test_components_are_connected_subtrees(self):
        """Each component is a preorder-packed subtree of the input: its
        parent links are tree edges of the input."""
        pt = packed_tree(70, seed=16)
        cuts = decompose_packed(pt, set(range(70)), 5)
        tree_parent = parent_ids(pt)
        for comp in component_trees(pt, cuts):
            assert comp.parent[0] == -1
            assert all(0 <= p < j for j, p in enumerate(comp.parent) if j)
            for v, p in parent_ids(comp).items():
                if p != -1:
                    assert tree_parent[v] == p

    def test_borders_are_adjacent_cuts(self):
        pt = packed_tree(90, seed=17)
        cuts = decompose_packed(pt, set(range(90)), 8)
        comps_ids, _, borders, _ = split_packed(pt, cuts)
        cut_set = set(cut_ids(pt, cuts))
        tree_parent = parent_ids(pt)
        for i, ids in enumerate(comps_ids):
            vertices = set(ids)
            expected = set()
            for v in vertices:
                p = tree_parent[v]
                if p in cut_set:
                    expected.add(p)
            for c in cut_set:
                if tree_parent[c] in vertices:
                    expected.add(c)
            assert borders[i] == expected

    def test_comp_of_covers_all_non_cuts(self):
        pt = packed_tree(60, seed=18)
        cuts = decompose_packed(pt, set(range(60)), 7)
        _, _, _, comp_of = split_packed(pt, cuts)
        covered = {pt.ids[j] for j, index in enumerate(comp_of) if index >= 0}
        assert covered == set(range(60)) - set(cut_ids(pt, cuts))
        assert all(comp_of[j] == -1 for j in cuts)


@given(
    st.integers(min_value=8, max_value=120),
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=50, deadline=None)
def test_property_decompose_invariant(n, ell, seed):
    """On random trees with random required sets, components hold <= ell
    required vertices and cuts plus components partition the tree."""
    rng = random.Random(seed)
    pt = packed_tree(n, seed=seed)
    req = set(rng.sample(range(n), rng.randint(1, n)))
    cuts = decompose_packed(pt, req, ell)
    covered = set(cut_ids(pt, cuts))
    for comp in component_trees(pt, cuts):
        vertices = set(comp.ids)
        assert len(vertices & req) <= ell
        covered |= vertices
    assert covered == set(range(n))


@given(
    st.integers(min_value=2, max_value=120),
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=60, deadline=None)
def test_property_packed_matches_seed(n, ell, seed):
    """Prune, Decompose and split agree with the seed's dict versions:
    the same pruned tree (parents and preorder), the same cuts in the
    same order, the same components, borders and component indexes."""
    rng = random.Random(seed)
    tree = random_tree(n, seed=seed)
    req = set(rng.sample(range(n), rng.randint(1, n)))

    pruned = prune_packed(PackedTree.from_tree(tree), req)
    seed_pruned = _seed_prune(SeedWorkTree.from_tree(tree), req)
    assert parent_ids(pruned) == seed_pruned.parent
    assert pruned.ids == seed_pruned.preorder()

    cuts = decompose_packed(pruned, req, ell)
    seed_cuts = _seed_decompose(seed_pruned, req, ell)
    assert cut_ids(pruned, cuts) == seed_cuts

    comps_ids, comps_parent, borders, comp_of = split_packed(pruned, cuts)
    seed_comps, seed_borders, seed_comp_of = _seed_split_components(
        seed_pruned, seed_cuts
    )
    assert borders == seed_borders
    assert {
        pruned.ids[j]: index for j, index in enumerate(comp_of) if index >= 0
    } == seed_comp_of
    assert len(comps_ids) == len(seed_comps)
    for ids, parent, seed_comp in zip(comps_ids, comps_parent, seed_comps):
        assert parent_ids(PackedTree(ids, parent)) == seed_comp.parent
        assert ids == seed_comp.preorder()
