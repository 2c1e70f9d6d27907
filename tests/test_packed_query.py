"""Differential tests: packed query paths vs the frozen seed navigator.

``TreeNavigator`` builds its :class:`QueryPack` directly and answers
``find_path`` on it; ``repro._seed_baseline.SeedTreeNavigator`` is the
seed's dict/object implementation of Algorithms 1 and 2, frozen as the
oracle.  These tests pin that the two agree path for path (and on the
``KeyError`` for vertices without a home) with identical spanner edge
sets, across random trees, hop parameters and cover backends; that the
observability counter deltas of a query are those recorded before the
direct pack build; and that the packed scalar path stays
allocation-lean.
"""

import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._seed_baseline import SeedTreeNavigator
from repro.core import MetricNavigator, TreeNavigator
from repro.graphs import path_tree, random_tree
from repro.metrics import (
    grid_graph_metric,
    random_graph_metric,
    random_points,
    sample_pairs,
)
from repro.observability import OBS
from repro.treecover import (
    planar_tree_cover,
    prune_cover,
    ramsey_tree_cover,
    robust_tree_cover,
)

tree_params = st.tuples(
    st.integers(min_value=2, max_value=120),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=2, max_value=6),
)


def _counter_deltas(fn):
    """(result, (queries delta, nodes_touched delta)) of one call."""
    names = ("treenav.queries", "treenav.nodes_touched")
    with OBS.scoped(True):
        before = [OBS.registry.counter(name).value for name in names]
        result = fn()
        after = [OBS.registry.counter(name).value for name in names]
    return result, tuple(a - b for a, b in zip(after, before))


def _path_or_raised(navigator, u, v):
    try:
        return navigator.find_path(u, v)
    except KeyError:
        return "raised"


@given(tree_params)
@settings(max_examples=40, deadline=None)
def test_packed_path_identical_to_reference(params):
    n, seed, k = params
    tree = random_tree(n, seed=seed)
    navigator = TreeNavigator(tree, k)
    oracle = SeedTreeNavigator(tree, k)
    assert navigator.edges.keys() == oracle.edges.keys()
    rng = random.Random(seed)
    for _ in range(8):
        u, v = rng.randrange(n), rng.randrange(n)
        assert navigator.find_path(u, v) == oracle.find_path(u, v)


@given(tree_params)
@settings(max_examples=20, deadline=None)
def test_packed_path_rejects_non_required(params):
    n, seed, k = params
    tree = random_tree(n, seed=seed)
    required = list(range(0, n, 2))
    if len(required) < 2:
        return
    navigator = TreeNavigator(tree, k, required=required)
    oracle = SeedTreeNavigator(tree, k, required=required)
    assert navigator.edges.keys() == oracle.edges.keys()
    u, v = required[0], required[-1]
    assert navigator.find_path(u, v) == oracle.find_path(u, v)
    # Odd ids are outside the required list (though cut vertices may
    # still enter the home table): packed and seed must agree on
    # every outsider — same KeyError, or same path.
    for outsider in range(1, n, 2):
        for args in ((outsider, u), (u, outsider)):
            assert _path_or_raised(navigator, *args) == _path_or_raised(
                oracle, *args
            )


#: (shape, n, seed, k) -> {(treenav.queries delta, treenav.nodes_touched
#: delta): number of pairs}, recorded from the object-graph navigator
#: that preceded the direct pack build.  (1, 1) is u == v, (1, 2) a
#: pair inside one base-case leaf, and a queries delta above 1 a query
#: that descends into interconnection sub-packs.
PINNED_COUNTER_DELTAS = {
    ("random", 60, 1, 2): {(1, 1): 10, (1, 2): 2, (1, 3): 90},
    ("random", 60, 1, 3): {(1, 1): 10, (1, 2): 4, (1, 4): 90},
    ("random", 60, 1, 4): {(1, 1): 10, (1, 2): 8, (2, 3): 12, (2, 4): 8, (2, 5): 64},
    ("random", 60, 1, 5): {(1, 1): 10, (1, 2): 8, (2, 3): 20, (2, 4): 8, (2, 6): 56},
    ("random", 60, 1, 6): {(1, 1): 10, (1, 2): 7, (2, 3): 12, (2, 4): 72},
    ("random", 150, 2, 2): {(1, 1): 10, (1, 2): 3, (1, 3): 90},
    ("random", 150, 2, 3): {(1, 1): 10, (1, 2): 3, (1, 4): 90},
    ("random", 150, 2, 4): {(1, 1): 10, (1, 2): 3, (2, 3): 16, (2, 4): 4, (2, 5): 70},
    ("random", 150, 2, 5): {(1, 1): 10, (1, 2): 3, (2, 3): 8, (2, 4): 2, (2, 6): 80},
    ("random", 150, 2, 6): {(1, 1): 10, (1, 2): 4, (2, 3): 8, (2, 4): 12, (3, 5): 70},
    ("path", 120, 3, 2): {(1, 1): 10, (1, 2): 5, (1, 3): 88},
    ("path", 120, 3, 3): {(1, 1): 10, (1, 2): 5, (1, 4): 88},
    ("path", 120, 3, 4): {(1, 1): 10, (1, 2): 10, (2, 3): 28, (2, 4): 4, (2, 5): 52},
    ("path", 120, 3, 5): {(1, 1): 10, (1, 2): 11, (2, 3): 12, (2, 4): 4, (2, 6): 68},
    ("path", 120, 3, 6): {(1, 1): 10, (1, 2): 11, (2, 3): 14, (2, 4): 14, (3, 5): 56},
}


def _counter_pairs(navigator, n, seed):
    """All ordered pairs of 10 sampled vertices (u == v included), plus
    one pair inside each of the first five multi-vertex leaves."""
    pack = navigator.pack
    rng = random.Random(seed)
    sample = rng.sample(range(n), 10)
    pairs = [(u, v) for u in sample for v in sample]
    leaves = {}
    for x in range(n):
        home = pack.home[x]
        if home >= 0 and pack.phi_leaf[home]:
            leaves.setdefault(home, []).append(x)
    for home in sorted(leaves)[:5]:
        if len(leaves[home]) >= 2:
            pairs.append((leaves[home][0], leaves[home][-1]))
    return pairs


@pytest.mark.parametrize("case", sorted(PINNED_COUNTER_DELTAS))
def test_counter_deltas_pinned(case):
    shape, n, seed, k = case
    tree = (random_tree if shape == "random" else path_tree)(n, seed=seed)
    navigator = TreeNavigator(tree, k)
    histogram = Counter()
    for u, v in _counter_pairs(navigator, n, seed):
        _, deltas = _counter_deltas(lambda: navigator.find_path(u, v))
        histogram[deltas] += 1
    assert dict(histogram) == PINNED_COUNTER_DELTAS[case]


class _SeedOracles:
    """Seed navigators over a cover's trees, built on first use."""

    def __init__(self, cover, k):
        self.cover = cover
        self.k = k
        self.built = {}

    def find_path(self, index, a, b):
        if index not in self.built:
            cover_tree = self.cover.trees[index]
            self.built[index] = SeedTreeNavigator(
                cover_tree.tree, self.k, required=list(cover_tree.vertex_of_point)
            )
        return self.built[index].find_path(a, b)


class TestCoverBackends:
    """Full-stack identity + contract checks per cover construction."""

    def _check(self, metric, cover, k, seed):
        navigator = MetricNavigator(metric, cover, k)
        oracles = _SeedOracles(cover, k)
        pairs = sample_pairs(metric.n, 60, seed=seed)
        gamma = max(cover.stretch(u, v) for u, v in pairs)
        for u, v in pairs:
            index, _ = cover.best_tree(u, v)
            tree_nav = navigator.navigators[index]
            cover_tree = cover.trees[index]
            a = cover_tree.vertex_of_point[u]
            b = cover_tree.vertex_of_point[v]
            assert tree_nav.find_path(a, b) == oracles.find_path(index, a, b)
            assert tree_nav.edges.keys() == oracles.built[index].edges.keys()
            navigator.verify_query(u, v, gamma + 1e-9)

    def test_robust_cover(self):
        metric = random_points(70, dim=2, seed=0)
        self._check(metric, robust_tree_cover(metric, eps=0.5), 3, seed=1)

    def test_ramsey_cover(self):
        metric = random_graph_metric(60, seed=2)
        self._check(metric, ramsey_tree_cover(metric, ell=2, seed=3), 2, seed=4)

    def test_planar_cover(self):
        metric = grid_graph_metric(7, seed=5)
        self._check(metric, planar_tree_cover(metric), 3, seed=6)


def test_packed_index_reuses_built_tours_byte_for_byte():
    """Trees whose LCA index is already built lend their Euler tour to
    the packed arena; the arrays are the ones a fresh walk produces."""
    metric = random_points(50, dim=2, seed=12)
    warm = robust_tree_cover(metric, eps=0.5)
    cold = robust_tree_cover(metric, eps=0.5)
    for cover_tree in warm.trees[::2]:
        cover_tree.tree_distances_many([0], [1])
    warm_arrays = warm.packed_index().arrays()
    cold_arrays = cold.packed_index().arrays()
    assert all(ct.tree_metric.built_lca_index() is None for ct in cold.trees)
    assert warm_arrays.keys() == cold_arrays.keys()
    for name, array in warm_arrays.items():
        assert array.dtype == cold_arrays[name].dtype
        assert array.tobytes() == cold_arrays[name].tobytes(), name


def test_packed_index_weighted_depths_match_the_tree_recurrence():
    """The arena's root distances, taken from the tour's preorder (or a
    built index's tour), equal ``Tree.weighted_depths`` bit for bit."""
    metric = random_points(50, dim=2, seed=13)
    cover = robust_tree_cover(metric, eps=0.5)
    for cover_tree in cover.trees[::2]:
        cover_tree.tree_distances_many([0], [1])
    index = cover.packed_index()
    for t, cover_tree in enumerate(cover.trees):
        wdepth = np.asarray(cover_tree.tree.weighted_depths())
        _, tour, _, _ = cover_tree.weighted_euler_tour()
        hosts = np.asarray(cover_tree.vertex_of_point)
        lo, hi = index.tour_off[t], index.tour_off[t + 1]
        assert index.wd_pt[t].tobytes() == wdepth[hosts].tobytes()
        assert index.wd_tour[lo:hi].tobytes() == wdepth[tour].tobytes()


class TestPrunedDifferential:
    """Pruning must not perturb a single retained path.

    Retained trees are the *same* :class:`CoverTree` objects, so every
    query answered by a retained tree must be bit-identical — the same
    path, and the seed navigator's path — whether asked through the
    full or the pruned cover.  This is the "bit-identical query answers on
    retained trees" half of the pruning contract; the stretch half
    lives in ``tests/test_tree_covers.py``.
    """

    def _paths_identical(self, metric, cover, k, seed, expect_shrink=True):
        report = prune_cover(cover, eps=0.05, seed=3)
        pruned = report.cover
        if expect_shrink:
            assert pruned.size < cover.size
        nav_full = MetricNavigator(metric, cover, k)
        nav_pruned = MetricNavigator(metric, pruned, k)
        oracles = _SeedOracles(pruned, k)
        for u, v in sample_pairs(metric.n, 80, seed=seed):
            j, _ = pruned.best_tree(u, v)
            orig = report.retained[j]
            ct = pruned.trees[j]
            assert ct is cover.trees[orig]
            a, b = ct.vertex_of_point[u], ct.vertex_of_point[v]
            pruned_nav = nav_pruned.navigators[j]
            full_nav = nav_full.navigators[orig]
            path = pruned_nav.find_path(a, b)
            assert path == full_nav.find_path(a, b)
            assert path == oracles.find_path(j, a, b)

    def test_robust_cover_paths_survive_prune(self):
        metric = random_points(80, dim=2, seed=11)
        cover = robust_tree_cover(metric, eps=0.4)
        self._paths_identical(metric, cover, 3, seed=12)

    def test_ramsey_cover_paths_survive_prune(self):
        # A tiny Ramsey cover may be all home trees (nothing droppable);
        # the identity contract must hold regardless.
        metric = random_graph_metric(60, seed=13)
        cover = ramsey_tree_cover(metric, ell=2, seed=14)
        self._paths_identical(metric, cover, 2, seed=15, expect_shrink=False)


class TestAllocationRegression:
    def test_scalar_query_allocations_bounded(self):
        """A warm scalar query must not rebuild per-query structures.

        The packed rewrite exists to kill the per-query dict/list churn
        of the recursive path; this pins it.  The bound is loose enough
        for the result list and a few ints, tight enough that any
        return to per-query index building (thousands of allocations)
        fails loudly.
        """
        metric = random_points(150, dim=2, seed=7)
        cover = robust_tree_cover(metric, eps=0.5)
        navigator = MetricNavigator(metric, cover, 3)
        pairs = sample_pairs(150, 50, seed=8)
        for u, v in pairs:  # warm: first-touch lazy state
            navigator.find_path(u, v)
        tracemalloc.start()
        before = tracemalloc.take_snapshot()
        for u, v in pairs:
            navigator.find_path(u, v)
        after = tracemalloc.take_snapshot()
        tracemalloc.stop()
        total = sum(
            max(0, stat.size_diff)
            for stat in after.compare_to(before, "lineno")
        )
        per_query = total / len(pairs)
        # Measured ~1.5 kB/query (result lists, numpy scalar boxes);
        # the pre-rewrite path allocated tens of kB rebuilding lazy
        # dicts and touring Φ recursively.
        assert per_query < 8192, f"{per_query:.0f} bytes allocated per query"


def test_mapped_find_paths_dedups_each_path_once(monkeypatch):
    """A batched mapped query removes consecutive duplicates once, after
    mapping tree vertices to points, and returns what the in-memory
    navigator returns."""
    from repro.core import PackedMetricNavigator, mapped_navigator, navigator_arrays
    from repro.core import packed_query

    metric = random_points(80, dim=2, seed=11)
    navigator = MetricNavigator(metric, robust_tree_cover(metric, eps=0.5), 3)
    mapped = PackedMetricNavigator(metric, 3, navigator_arrays(navigator))
    pairs = sample_pairs(80, 120, seed=12) + [(5, 5)]
    expected = [navigator.find_path_with_tree(u, v) for u, v in pairs]
    calls = []
    dedup = packed_query.dedup_path

    def counting(path):
        calls.append(1)
        return dedup(path)

    monkeypatch.setattr(mapped_navigator, "dedup_path", counting)
    monkeypatch.setattr(packed_query, "dedup_path", counting)
    assert mapped.find_paths(pairs) == expected
    assert len(calls) == len(pairs) - 1
