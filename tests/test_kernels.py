"""Batch distance-kernel parity: vectorized paths == scalar paths.

The construction rewrites (net hierarchies, HSTs, robust covers) are
only allowed to change *speed*, never *results*.  These tests pin that
down: every batch kernel must agree with the scalar ``distance`` loop
on Euclidean, tree, and general matrix metrics, ``CachedMetric`` must
be transparent, the batched LCA queries must equal the scalar ones bit
for bit (also when a pass reuses one workspace across trees), and the
vectorized ``greedy_net`` must reproduce the frozen seed implementation
point for point.
"""

import pickle
import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._seed_baseline import (
    SeedEuclideanMetric,
    SeedNetHierarchy,
    seed_greedy_net,
    seed_robust_tree_cover,
)
from repro.graphs import LcaIndex, Tree, random_tree
from repro.graphs.lca import PairWorkspace
from repro.metrics import (
    CachedMetric,
    NetHierarchy,
    TreeMetric,
    greedy_net,
    random_graph_metric,
    random_points,
    sample_pairs,
)
from repro.treecover import (
    prune_cover,
    ramsey_tree_cover,
    robust_tree_cover,
)


def _metrics(seed: int):
    """One metric of each kernel family, on ~40 points."""
    return [
        random_points(40, dim=2, seed=seed),
        random_points(40, dim=5, seed=seed + 1),
        TreeMetric(random_tree(40, seed=seed)),
        random_graph_metric(40, seed=seed),
        CachedMetric(random_points(40, dim=3, seed=seed + 2)),
    ]


def _scalar_row(metric, u, cols):
    return np.array([metric.distance(u, v) for v in cols])


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=15, deadline=None)
def test_distances_from_matches_scalar(seed):
    for metric in _metrics(seed):
        rng = random.Random(seed)
        u = rng.randrange(metric.n)
        batch = np.asarray(metric.distances_from(u))
        scalar = _scalar_row(metric, u, range(metric.n))
        np.testing.assert_allclose(batch, scalar, rtol=1e-9, atol=1e-9)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=15, deadline=None)
def test_pairwise_and_pair_distances_match_scalar(seed):
    for metric in _metrics(seed):
        rng = random.Random(seed + 7)
        rows = [rng.randrange(metric.n) for _ in range(6)]
        cols = [rng.randrange(metric.n) for _ in range(9)]
        block = np.asarray(metric.pairwise(rows, cols))
        assert block.shape == (6, 9)
        for i, u in enumerate(rows):
            np.testing.assert_allclose(
                block[i], _scalar_row(metric, u, cols), rtol=1e-9, atol=1e-9
            )
        us = [rng.randrange(metric.n) for _ in range(12)]
        vs = [rng.randrange(metric.n) for _ in range(12)]
        elementwise = np.asarray(metric.pair_distances(us, vs))
        expected = np.array([metric.distance(u, v) for u, v in zip(us, vs)])
        np.testing.assert_allclose(elementwise, expected, rtol=1e-9, atol=1e-9)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=15, deadline=None)
def test_ball_many_matches_scalar_membership(seed):
    for metric in _metrics(seed):
        rng = random.Random(seed + 3)
        centers = sorted({rng.randrange(metric.n) for _ in range(5)})
        sample = metric.pairwise(centers, range(metric.n))
        # Offset the radius away from any realized distance: a point
        # sitting exactly on the boundary would make the comparison
        # depend on last-ulp differences between the KD-tree and scalar
        # float paths rather than on membership logic.
        radius = float(np.median(np.asarray(sample))) * 1.001 + 0.0012345
        balls = metric.ball_many(centers, radius)
        for center, ball in zip(centers, balls):
            expected = {
                v for v in range(metric.n) if metric.distance(center, v) <= radius
            }
            assert set(ball) == expected
        within = sorted({rng.randrange(metric.n) for _ in range(15)})
        restricted = metric.ball_many(centers, radius, within=within)
        for center, ball in zip(centers, restricted):
            expected = {v for v in within if metric.distance(center, v) <= radius}
            assert set(ball) == expected


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=15, deadline=None)
def test_nearest_and_nearest_many_match_scalar_argmin(seed):
    for metric in _metrics(seed):
        rng = random.Random(seed + 11)
        candidates = sorted({rng.randrange(metric.n) for _ in range(9)})
        points = [rng.randrange(metric.n) for _ in range(7)]
        ids, dist = metric.nearest_many(points, candidates, return_distance=True)
        for p, best, d in zip(points, ids, dist):
            expected_d = min(metric.distance(p, c) for c in candidates)
            assert metric.distance(p, int(best)) == pytest.approx(expected_d)
            assert d == pytest.approx(expected_d)
            # The scalar entry point must agree on the distance too.
            chosen = metric.nearest(p, candidates)
            assert metric.distance(p, chosen) == pytest.approx(expected_d)


def test_nearest_rejects_empty_candidates():
    metric = random_points(10, dim=2, seed=0)
    with pytest.raises(ValueError):
        metric.nearest(0, [])
    with pytest.raises(ValueError):
        metric.nearest_many([0], [])


def test_cached_metric_is_transparent_and_memoizes():
    inner = random_graph_metric(30, seed=4)
    cached = CachedMetric(inner, block_size=8)
    rng = random.Random(5)
    for _ in range(50):
        u, v = rng.randrange(30), rng.randrange(30)
        assert cached.distance(u, v) == pytest.approx(inner.distance(u, v))
    np.testing.assert_allclose(cached.distances_from(3), inner.distances_from(3))
    assert cached.cached_rows > 0
    rows_before = cached.cached_rows
    cached.distance(3, 7)  # same block: no new slab materialized
    assert cached.cached_rows == rows_before


def test_cached_metric_rejects_oversized_metrics():
    inner = random_points(64, dim=2, seed=0)
    with pytest.raises(ValueError):
        CachedMetric(inner, max_points=63)


@given(
    st.integers(min_value=0, max_value=10**6),
    st.floats(min_value=1.0, max_value=400.0),
)
@settings(max_examples=20, deadline=None)
def test_greedy_net_matches_seed_implementation(seed, radius):
    """The vectorized greedy net is point-for-point the seed's output."""
    fast = random_points(120, dim=2, seed=seed)
    slow = SeedEuclideanMetric(fast.points)
    candidates = list(range(120))
    assert greedy_net(fast, candidates, radius) == seed_greedy_net(
        slow, candidates, radius
    )
    # Also on a strict subset of candidates (the per-level net shape).
    subset = candidates[::3]
    assert greedy_net(fast, subset, radius) == seed_greedy_net(slow, subset, radius)


def test_greedy_net_matches_seed_on_matrix_metric():
    metric = random_graph_metric(60, seed=9)
    for radius_scale in (0.1, 0.3, 0.7):
        radius = radius_scale * float(np.max(metric.matrix))
        assert greedy_net(metric, list(range(60)), radius) == seed_greedy_net(
            metric, list(range(60)), radius
        )


def test_net_hierarchy_matches_seed_hierarchy():
    """Whole hierarchies agree level by level with the seed builder."""
    for seed in (0, 1, 2):
        fast = random_points(250, dim=2, seed=seed)
        slow = SeedEuclideanMetric(fast.points)
        assert NetHierarchy(fast).nets == SeedNetHierarchy(slow).nets


def test_robust_cover_matches_seed_cover():
    """The robust cover's trees are the seed builder's, vertex for
    vertex: its set-based pairing packing and per-vertex weight loop
    are the reference for the bitmask packing and the vectorized
    ``finish``.  The seed measures each weight with its own distance
    formula, so weights agree to rounding."""
    for n, seed, eps in ((60, 5, 0.5), (80, 2, 0.3), (40, 9, 0.9)):
        fast = random_points(n, dim=2, seed=seed)
        got = robust_tree_cover(fast, eps=eps, workers=0)
        ref = seed_robust_tree_cover(SeedEuclideanMetric(fast.points), eps=eps)
        assert len(got.trees) == len(ref.trees)
        for a, b in zip(got.trees, ref.trees):
            assert a.tree.parents == b.tree.parents
            assert a.rep_point == b.rep_point
            np.testing.assert_allclose(
                a.tree.weights, b.tree.weights, rtol=1e-12, atol=1e-9
            )


@st.composite
def _weighted_trees(draw):
    """Random recursive trees, relabelled so the root is any vertex, with
    weights that include zeros and wide magnitudes."""
    n = draw(st.integers(min_value=1, max_value=45))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))
    attach = [-1] + [rng.randrange(v) for v in range(1, n)]
    label = list(range(n))
    rng.shuffle(label)
    parents = [0] * n
    weights = [0.0] * n
    for v in range(n):
        parents[label[v]] = -1 if attach[v] == -1 else label[attach[v]]
        if attach[v] != -1:
            weights[label[v]] = rng.choice(
                (0.0, rng.uniform(0.0, 1e-3), rng.uniform(1.0, 1e4))
            )
    return Tree(parents, weights)


@given(_weighted_trees())
@settings(max_examples=40, deadline=None)
def test_lca_many_and_distance_many_equal_scalar_bit_for_bit(tree):
    """All vertex pairs (so u == v, the root, and windows whose length is
    exactly a power of two all occur): the batch kernel returns the
    scalar answers, distances compared as raw float64 bits."""
    index = LcaIndex(tree)
    us, vs = (g.ravel() for g in np.meshgrid(np.arange(tree.n), np.arange(tree.n)))
    scalar_lca = np.array([index.lca(u, v) for u, v in zip(us.tolist(), vs.tolist())])
    scalar_dist = np.array(
        [index.distance(u, v) for u, v in zip(us.tolist(), vs.tolist())], dtype=np.float64
    )
    np.testing.assert_array_equal(index.lca_many(us, vs), scalar_lca)
    np.testing.assert_array_equal(
        index.distance_many(us, vs).view(np.int64), scalar_dist.view(np.int64)
    )
    lengths = np.abs(index.first[us] - index.first[vs]) + 1
    powers = lengths[(lengths & (lengths - 1)) == 0]
    assert (tree.root in us) and (powers == 1).any()
    if tree.n > 1:
        assert (powers >= 2).any()


def test_lca_many_matches_scalar_on_a_tour_needing_wide_keys():
    """A tour of 2^15 entries or more packs its keys into int64."""
    tree = random_tree(20_000, seed=6)
    index = LcaIndex(tree)
    rng = random.Random(7)
    us = [rng.randrange(tree.n) for _ in range(3000)] + [tree.root, 5]
    vs = [rng.randrange(tree.n) for _ in range(3000)] + [19_999, 5]
    assert np.array_equal(
        index.lca_many(us, vs), [index.lca(u, v) for u, v in zip(us, vs)]
    )
    np.testing.assert_array_equal(
        index.distance_many(us, vs), [index.distance(u, v) for u, v in zip(us, vs)]
    )


def test_lca_index_builds_scalar_mirrors_only_on_scalar_use():
    index = LcaIndex(random_tree(50, seed=4))
    batch = index.distance_many(np.arange(50), np.arange(50)[::-1])
    assert "_table" not in index.__dict__
    assert index.distance(0, 49) == batch[0]
    assert "_table" in index.__dict__
    with pytest.raises(AttributeError):
        index.no_such_attribute


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


@pytest.fixture(scope="module")
def covers():
    points = random_points(40, dim=2, seed=71)
    graph = random_graph_metric(40, seed=72)
    robust = robust_tree_cover(points, eps=0.45)
    ramsey = ramsey_tree_cover(graph, ell=1, seed=8)
    return {
        "robust": robust,
        "ramsey": ramsey,
        "pruned": prune_cover(robust).cover,
    }


@pytest.mark.parametrize("family", ["robust", "ramsey", "pruned"])
def test_workspace_kernel_equals_scalar_bit_for_bit(covers, family):
    """One workspace for the whole pass, trees of different tour
    lengths in one order and then the other: every row equals the
    allocating call and the scalar ``tree_distance``, as raw bits."""
    cover = covers[family]
    assert len({ct.tree.n for ct in cover.trees}) > 1
    pairs = sample_pairs(40, 300, seed=5) + [(3, 3), (0, 39)]
    ps = np.array([p for p, _ in pairs], dtype=np.int64)
    qs = np.array([q for _, q in pairs], dtype=np.int64)
    workspace = PairWorkspace(len(ps))
    row = workspace.output(len(ps))
    for cover_tree in cover.trees + cover.trees[::-1]:
        got = cover_tree.tree_distances_many(ps, qs, out=row, workspace=workspace)
        assert got is row
        scalar = [cover_tree.tree_distance(p, q) for p, q in pairs]
        np.testing.assert_array_equal(_bits(got), _bits(scalar))
        np.testing.assert_array_equal(
            _bits(got), _bits(cover_tree.tree_distances_many(ps, qs))
        )


def test_workspace_kernel_on_ramsey_home_row_subsets(covers):
    """Pairs grouped by the home tree of their first point: slices of
    every length, each written into its own slice of one output."""
    cover = covers["ramsey"]
    pairs = sample_pairs(40, 400, seed=6)
    homes = np.array([cover.home[p] for p, _ in pairs])
    order = np.argsort(homes, kind="stable")
    ps = np.array([pairs[i][0] for i in order], dtype=np.int64)
    qs = np.array([pairs[i][1] for i in order], dtype=np.int64)
    bounds = np.searchsorted(homes[order], np.arange(cover.size + 1))
    assert len(set(np.diff(bounds).tolist())) > 1
    workspace = PairWorkspace(len(ps))
    grouped = np.full(len(ps), np.nan)
    for t, cover_tree in enumerate(cover.trees):
        a, b = bounds[t], bounds[t + 1]
        cover_tree.tree_distances_many(ps[a:b], qs[a:b], out=grouped[a:b], workspace=workspace)
    expected = [cover.trees[cover.home[p]].tree_distance(p, q) for p, q in zip(ps, qs)]
    np.testing.assert_array_equal(_bits(grouped), _bits(expected))


def test_workspace_grows_for_a_larger_call_and_rejects_bad_ids():
    tree = random_tree(30, seed=3)
    index = LcaIndex(tree)
    workspace = PairWorkspace(4)
    us = np.arange(30, dtype=np.int64)
    vs = us[::-1].copy()
    got = index.distance_many(us, vs, workspace=workspace)
    np.testing.assert_array_equal(
        _bits(got), _bits([index.distance(u, v) for u, v in zip(us, vs)])
    )
    assert workspace.output(30).shape == (30,)
    for bad in ([0, 30], [-1, 2]):
        with pytest.raises(IndexError):
            index.distance_many(bad, [1, 1], workspace=workspace)
        with pytest.raises(IndexError):
            index.lca_many(bad, [1, 1])


def test_workspace_arrays_are_per_thread_and_pickle_as_size():
    workspace = PairWorkspace(8)
    mine = workspace.output(8)
    assert workspace.output(8) is not mine
    assert np.shares_memory(workspace.output(8), mine)
    theirs = []
    thread = threading.Thread(target=lambda: theirs.append(workspace.output(8)))
    thread.start()
    thread.join()
    assert not np.shares_memory(theirs[0], mine)
    copy = pickle.loads(pickle.dumps(workspace))
    assert copy.size == 8
    assert not np.shares_memory(copy.output(8), mine)


def test_shared_workspace_under_thread_contention():
    """More threads than cores answer different trees through one
    workspace, switching every microsecond: every row stays its own
    tree's, bit for bit, so no thread writes another's arrays."""
    indexes = [LcaIndex(random_tree(80 + 9 * i, seed=i)) for i in range(4)]
    rng = np.random.default_rng(0)
    us = rng.integers(0, 80, 4000)
    vs = rng.integers(0, 80, 4000)
    expected = [_bits(index.distance_many(us, vs)) for index in indexes]
    workspace = PairWorkspace(len(us))
    done, wrong = [], []

    def work(i):
        out = workspace.output(len(us))
        for _ in range(150):
            got = indexes[i].distance_many(us, vs, out=out, workspace=workspace)
            if not np.array_equal(_bits(got), expected[i]):
                wrong.append(i)
                return
        done.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not wrong
    assert sorted(done) == [0, 1, 2, 3]
