"""The process-pool fan-out engine and its serial/parallel equivalence.

The engine's contract is that worker count is *unobservable* in the
output: every parallel build path (covers, navigators, FT spanners,
checkpoint audits) must produce bit-identical structures at ``workers=0``
and ``workers=2`` (tier-1, below) and ``workers=4`` (the
``parallel``-marked scaling suite, which also gates the >= 1.5x
navigator-build speedup and therefore needs real cores — opt in with
``-m parallel``).
"""

import os
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint.audit import audit_cover
from repro.core.metric_navigator import MetricNavigator
from repro.dynamic import pinned_levels
from repro.errors import ReproError
from repro.metrics.doubling import NetHierarchy
from repro.metrics.euclidean import EuclideanMetric, random_points
from repro.metrics.general import MatrixMetric
from repro.parallel import (
    ENV_WORKERS,
    derive_seed,
    export_metric,
    import_metric,
    map_per_tree,
    resolve_workers,
)
from repro.parallel.engine import _IN_WORKER_ENV
from repro.spanners.fault_tolerant import FaultTolerantSpanner
from repro.treecover.dumbbell import robust_tree_cover
from repro.treecover.ramsey import few_trees_cover, ramsey_tree_cover


def _fp_cover(cover):
    """A structural fingerprint: equal iff the covers are identical."""
    return (
        [
            (
                tuple(ct.tree.parents),
                tuple(ct.tree.weights),
                tuple(ct.rep_point),
                tuple(ct.vertex_of_point),
            )
            for ct in cover.trees
        ],
        None if cover.home is None else tuple(cover.home),
    )


def _query_pairs(n, count=12):
    return [(i % n, (3 * i + 1) % n) for i in range(count)
            if i % n != (3 * i + 1) % n]


# ----------------------------------------------------------------------
# Engine unit behavior


def _double(ctx, item):
    return 2 * item + (0 if ctx.payload is None else ctx.payload)


def _boom_on_two(ctx, item):
    if item == 2:
        raise ValueError("boom")
    return item


def test_resolve_workers_precedence(monkeypatch):
    monkeypatch.delenv(ENV_WORKERS, raising=False)
    assert resolve_workers(None) == 0
    assert resolve_workers(0) == 0
    assert resolve_workers(1) == 0
    assert resolve_workers(3) == 3
    cpus = os.cpu_count() or 1
    assert resolve_workers(-1) == (0 if cpus <= 1 else cpus)
    monkeypatch.setenv(ENV_WORKERS, "4")
    assert resolve_workers(None) == 4
    # The explicit argument wins over the environment.
    assert resolve_workers(2) == 2
    assert resolve_workers(0) == 0
    monkeypatch.setenv(ENV_WORKERS, "not-a-number")
    assert resolve_workers(None) == 0
    # Inside a worker, nested pools are refused.
    monkeypatch.setenv(ENV_WORKERS, "4")
    monkeypatch.setenv(_IN_WORKER_ENV, "1")
    assert resolve_workers(8) == 0


def test_derive_seed_is_stable_and_spread():
    assert derive_seed(0, 0) == derive_seed(0, 0)
    seen = {derive_seed(7, t) for t in range(100)}
    assert len(seen) == 100
    assert derive_seed(7, 0) != derive_seed(8, 0)


def test_map_per_tree_orders_and_matches_serial():
    items = list(range(20))
    serial = map_per_tree(_double, items, workers=0, payload=5)
    pooled = map_per_tree(_double, items, workers=2, payload=5)
    assert serial == pooled == [2 * i + 5 for i in items]


@pytest.mark.parametrize("workers", [0, 2])
def test_map_per_tree_raises_fn_errors_in_order(workers):
    with pytest.raises(ValueError, match="boom"):
        map_per_tree(_boom_on_two, [0, 2, 1], workers=workers)


def test_map_per_tree_thread_fallback_for_unpicklable_items():
    items = [lambda: 1, lambda: 2, lambda: 3]  # unpicklable work items
    results = map_per_tree(lambda ctx, item: item(), items, workers=2)
    assert results == [1, 2, 3]


def test_shared_memory_metric_roundtrip():
    metric = random_points(30, dim=2, seed=3)
    spec, owners = export_metric(metric)
    try:
        assert spec[0] == "euclidean"
        rebuilt = import_metric(spec)
        assert isinstance(rebuilt, EuclideanMetric)
        np.testing.assert_array_equal(rebuilt.points, metric.points)
        assert rebuilt.distance(0, 1) == metric.distance(0, 1)
    finally:
        for owner in owners:
            owner.close()

    rng = np.random.default_rng(0)
    raw = rng.random((8, 8))
    matrix = MatrixMetric((raw + raw.T) * 0.5 + 8 * (1 - np.eye(8)))
    spec, owners = export_metric(matrix)
    try:
        assert spec[0] == "matrix"
        rebuilt = import_metric(spec)
        np.testing.assert_array_equal(rebuilt.matrix, matrix.matrix)
    finally:
        for owner in owners:
            owner.close()


# ----------------------------------------------------------------------
# Picklability of the build products


def test_cover_tree_and_navigator_pickle_roundtrip():
    metric = random_points(40, dim=2, seed=2)
    cover = robust_tree_cover(metric, eps=0.5)
    ct = cover.trees[0]
    ct.tree_metric  # populate the lazy cache on the original
    state = ct.__getstate__()
    assert state["_tree_metric"] is None
    clone = pickle.loads(pickle.dumps(ct))
    assert clone.tree.parents == ct.tree.parents
    assert clone.tree.weights == ct.tree.weights
    assert clone.tree_metric.distance(0, 1) == ct.tree_metric.distance(0, 1)

    navigator = MetricNavigator(metric, cover, 3)
    clone = pickle.loads(pickle.dumps(navigator))
    for u, v in _query_pairs(40):
        assert clone.find_path(u, v) == navigator.find_path(u, v)


# ----------------------------------------------------------------------
# Serial/parallel equivalence of every build path (workers=2, tier-1)


def test_robust_cover_parallel_determinism():
    metric = random_points(60, dim=2, seed=5)
    fp = _fp_cover(robust_tree_cover(metric, eps=0.5, workers=0))
    assert _fp_cover(robust_tree_cover(metric, eps=0.5, workers=2)) == fp

    # Tombstoned build: a hierarchy over a subset of the points (the
    # dynamic cover's live set); the live mask rides the fan-out payload.
    lo, hi = pinned_levels(metric, 0.5)
    live = [p for p in range(metric.n) if p % 7]

    def masked(workers):
        hierarchy = NetHierarchy(metric, lo, hi, points=live)
        return robust_tree_cover(metric, eps=0.5, hierarchy=hierarchy, workers=workers)

    fp = _fp_cover(masked(0))
    assert _fp_cover(masked(2)) == fp


def test_ramsey_covers_parallel_determinism():
    metric = random_points(40, dim=2, seed=6)
    fp = _fp_cover(ramsey_tree_cover(metric, ell=2, seed=9, workers=0))
    assert _fp_cover(ramsey_tree_cover(metric, ell=2, seed=9, workers=2)) == fp
    fp = _fp_cover(few_trees_cover(metric, 3, seed=9, workers=0))
    assert _fp_cover(few_trees_cover(metric, 3, seed=9, workers=2)) == fp


def test_navigator_parallel_determinism():
    metric = random_points(50, dim=2, seed=7)
    cover = robust_tree_cover(metric, eps=0.5)
    serial = MetricNavigator(metric, cover, 3, workers=0)
    pooled = MetricNavigator(metric, cover, 3, workers=2)
    assert [nav.edges for nav in pooled.navigators] == [
        nav.edges for nav in serial.navigators
    ]
    assert pooled.aux_fingerprint() == serial.aux_fingerprint()
    for u, v in _query_pairs(50):
        assert pooled.find_path(u, v) == serial.find_path(u, v)


def test_ft_spanner_parallel_determinism():
    metric = random_points(40, dim=2, seed=8)
    cover = robust_tree_cover(metric, eps=0.5)
    serial = FaultTolerantSpanner(metric, f=1, k=4, cover=cover, workers=0)
    pooled = FaultTolerantSpanner(metric, f=1, k=4, cover=cover, workers=2)
    assert pooled.replicas == serial.replicas
    assert [nav.edges for nav in pooled.navigators] == [
        nav.edges for nav in serial.navigators
    ]
    for u, v in _query_pairs(40):
        assert pooled.find_path(u, v, set()) == serial.find_path(u, v, set())


def test_audit_verdicts_parallel_determinism():
    metric = random_points(40, dim=2, seed=4)
    cover = robust_tree_cover(metric, eps=0.5)
    serial = audit_cover(cover, workers=0)
    pooled = audit_cover(cover, workers=2)
    assert pooled.checks == serial.checks

    # A broken tree must raise the same typed error in both modes.
    cover.trees[1].tree.weights[1] = -1.0
    with pytest.raises(ReproError) as serial_err:
        audit_cover(cover, workers=0)
    with pytest.raises(ReproError) as pooled_err:
        audit_cover(cover, workers=2)
    assert type(pooled_err.value) is type(serial_err.value)


@settings(max_examples=5, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**20),
    n=st.integers(min_value=24, max_value=48),
)
def test_hypothesis_parallel_equals_serial(seed, n):
    """Worker count is unobservable across the whole pipeline."""
    metric = random_points(n, dim=2, seed=seed)
    covers = {}
    for workers in (0, 2):
        covers[workers] = robust_tree_cover(metric, eps=0.5, workers=workers)
    assert _fp_cover(covers[2]) == _fp_cover(covers[0])

    navigators = {
        workers: MetricNavigator(metric, covers[0], 3, workers=workers)
        for workers in (0, 2)
    }
    assert navigators[2].aux_fingerprint() == navigators[0].aux_fingerprint()
    for u, v in _query_pairs(n, count=8):
        assert navigators[2].find_path(u, v) == navigators[0].find_path(u, v)

    reports = {
        workers: audit_cover(covers[0], workers=workers) for workers in (0, 2)
    }
    assert reports[2].checks == reports[0].checks


# ----------------------------------------------------------------------
# Multi-core scaling suite (needs real cores; excluded from tier-1)


@pytest.mark.parallel
def test_workers4_determinism_all_builders():
    metric = random_points(80, dim=2, seed=11)
    fp = _fp_cover(robust_tree_cover(metric, eps=0.5, workers=0))
    assert _fp_cover(robust_tree_cover(metric, eps=0.5, workers=4)) == fp
    cover = robust_tree_cover(metric, eps=0.5)
    serial = MetricNavigator(metric, cover, 3, workers=0)
    pooled = MetricNavigator(metric, cover, 3, workers=4)
    assert pooled.aux_fingerprint() == serial.aux_fingerprint()
    ft0 = FaultTolerantSpanner(metric, f=1, k=4, cover=cover, workers=0)
    ft4 = FaultTolerantSpanner(metric, f=1, k=4, cover=cover, workers=4)
    assert ft4.replicas == ft0.replicas
    assert audit_cover(cover, workers=4).checks == (
        audit_cover(cover, workers=0).checks
    )


@pytest.mark.parallel
def test_navigator_build_speedup_gate():
    """>= 1.5x navigator-build speedup at 2 workers (the ISSUE gate)."""
    import time

    if (os.cpu_count() or 1) < 2:
        pytest.skip("pool scaling needs at least 2 cores")
    metric = random_points(500, dim=2, seed=1)
    cover = robust_tree_cover(metric, eps=0.5)
    start = time.perf_counter()
    MetricNavigator(metric, cover, 3, workers=0)
    serial = time.perf_counter() - start
    start = time.perf_counter()
    MetricNavigator(metric, cover, 3, workers=2)
    pooled = time.perf_counter() - start
    assert serial / pooled >= 1.5, (
        f"navigator build speedup {serial / pooled:.2f}x at 2 workers "
        f"(serial {serial:.2f}s, pooled {pooled:.2f}s)"
    )
