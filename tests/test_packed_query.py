"""Differential tests: packed query paths vs the dict-backed reference.

``TreeNavigator.find_path`` runs on the flat :class:`QueryPack` arrays;
``TreeNavigator.find_path_reference`` is the original recursive
dict/object implementation, kept verbatim as the oracle.  These tests
pin the contract that the rewrite is *bit-identical* — same paths, same
observability counter deltas — across random trees, hop parameters and
cover backends, and that the packed scalar path stays allocation-lean.
"""

import random
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MetricNavigator, TreeNavigator
from repro.graphs import random_tree
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
    """(result, {counter: delta}) for the treenav instruments."""
    names = ("treenav.queries", "treenav.nodes_touched")
    with OBS.scoped(True):
        before = {
            name: OBS.registry.counter(name).value for name in names
        }
        result = fn()
        after = {name: OBS.registry.counter(name).value for name in names}
    return result, {name: after[name] - before[name] for name in names}


@given(tree_params)
@settings(max_examples=40, deadline=None)
def test_packed_path_identical_to_reference(params):
    n, seed, k = params
    tree = random_tree(n, seed=seed)
    navigator = TreeNavigator(tree, k)
    rng = random.Random(seed)
    for _ in range(8):
        u, v = rng.randrange(n), rng.randrange(n)
        packed, packed_counts = _counter_deltas(
            lambda: navigator.find_path(u, v)
        )
        reference, reference_counts = _counter_deltas(
            lambda: navigator.find_path_reference(u, v)
        )
        assert packed == reference
        assert packed_counts == reference_counts


@given(tree_params)
@settings(max_examples=20, deadline=None)
def test_packed_path_rejects_non_required(params):
    n, seed, k = params
    tree = random_tree(n, seed=seed)
    required = list(range(0, n, 2))
    if len(required) < 2:
        return
    navigator = TreeNavigator(tree, k, required=required)
    u, v = required[0], required[-1]
    assert navigator.find_path(u, v) == navigator.find_path_reference(u, v)
    # Odd ids are outside the required list (though cut vertices may
    # still enter the home table): packed and reference must agree on
    # every outsider — same KeyError, or same path.
    for outsider in range(1, n, 2):
        for args in ((outsider, u), (u, outsider)):
            packed = reference = ("raised",)
            try:
                packed = navigator.find_path(*args)
            except KeyError:
                pass
            try:
                reference = navigator.find_path_reference(*args)
            except KeyError:
                pass
            assert packed == reference


class TestCoverBackends:
    """Full-stack identity + contract checks per cover construction."""

    def _check(self, metric, cover, k, seed):
        navigator = MetricNavigator(metric, cover, k)
        pairs = sample_pairs(metric.n, 60, seed=seed)
        gamma = max(cover.stretch(u, v) for u, v in pairs)
        for u, v in pairs:
            index, _ = cover.best_tree(u, v)
            tree_nav = navigator.navigators[index]
            cover_tree = cover.trees[index]
            a = cover_tree.vertex_of_point[u]
            b = cover_tree.vertex_of_point[v]
            assert tree_nav.find_path(a, b) == tree_nav.find_path_reference(a, b)
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
    query answered by a retained tree must be bit-identical — same
    packed path, same reference path — whether asked through the full
    or the pruned cover.  This is the "bit-identical query answers on
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
            assert path == pruned_nav.find_path_reference(a, b)

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
