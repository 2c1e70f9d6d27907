"""Differential oracle for :func:`repro.treecover.prune.prune_cover`.

The prune runs on arrays: pairs as int64 arrays, γ from a running
minimum (or home-tree gather) over the per-tree kernel rows, and a lazy
greedy over a heap of stale gains.  The straightforward versions it
replaced live here as the oracle — γ from :meth:`TreeCover.best_trees`
over a list of pair tuples, and a greedy that re-scans every tree's
marginal gain before each pick.  Both must agree on the retained trees,
γ, exactness and pair count, which is what keeps pruned checkpoints
byte-identical.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvariantViolation
from repro.metrics import random_graph_metric, random_points, sample_pairs
from repro.parallel import engine
from repro.treecover import (
    TreeCover,
    compact_tree_cover,
    prune_cover,
    ramsey_tree_cover,
    robust_tree_cover,
)
from repro.treecover.prune import _lazy_greedy

# Bits-set lookup for uint8: the re-scan's marginal gains over the
# bit-packed coverage matrix.
_POPCOUNT = np.array([bin(v).count("1") for v in range(256)], dtype=np.int64)


def _oracle_pairs(n, max_pairs, seed):
    total = n * (n - 1) // 2
    if total <= max_pairs:
        return [(p, q) for p in range(n) for q in range(p + 1, n)], True
    return sample_pairs(n, max_pairs, seed=seed), False


def _best_trees_gamma(cover, pairs, base, eps, gamma):
    """γ from the cover's own answering path, ``TreeCover.best_trees``."""
    best = np.asarray([d for _, d in cover.best_trees(pairs)], dtype=float)
    positive = base > 0
    worst = float((best[positive] / base[positive]).max()) if positive.any() else 1.0
    if gamma is None:
        return worst * (1.0 + eps)
    if worst > gamma + 1e-6:
        raise InvariantViolation(f"cannot prune to γ={gamma}: cover achieves {worst}")
    return gamma


def _rescan_greedy(matrix, uncovered, selected):
    """Greedy set cover re-scoring every tree before each pick."""
    in_set = np.zeros(len(matrix), dtype=bool)
    in_set[selected] = True
    while uncovered.any():
        gains = _POPCOUNT[matrix & uncovered].sum(axis=1)
        gains[in_set] = -1
        t = int(np.argmax(gains))  # first occurrence: lowest index
        if gains[t] <= 0:
            raise InvariantViolation("evaluation pairs left uncoverable")
        selected.append(t)
        in_set[t] = True
        uncovered &= ~matrix[t]
    return selected


def reference_prune(cover, eps=0.05, gamma=None, max_pairs=50_000, seed=0):
    """(retained, γ, exact, pairs evaluated) the way the list-based
    prune computed them."""
    pairs, exact = _oracle_pairs(cover.metric.n, max_pairs, seed)
    ps = [p for p, _ in pairs]
    qs = [q for _, q in pairs]
    base = np.asarray(cover.metric.pair_distances(ps, qs), dtype=float)
    gamma = _best_trees_gamma(cover, pairs, base, eps, gamma)
    limits = np.where(base > 0, base * gamma + 1e-9, np.inf)
    matrix = np.vstack([
        np.packbits(np.asarray(tree.tree_distances_many(ps, qs), dtype=float) <= limits)
        for tree in cover.trees
    ])
    uncovered = np.packbits(np.ones(len(pairs), dtype=bool))
    selected = []
    if cover.home is not None:
        selected = sorted(set(cover.home))
        for t in selected:
            uncovered &= ~matrix[t]
    retained = sorted(_rescan_greedy(matrix, uncovered, selected))
    return retained, float(gamma), exact, len(pairs)


@pytest.fixture(scope="module")
def covers():
    points = random_points(40, dim=2, seed=61)
    graph = random_graph_metric(40, seed=62)
    ramsey = ramsey_tree_cover(graph, ell=1, seed=8)
    # Every tree of a Ramsey cover is some point's home; put another
    # cover's trees in front so the homes are mandatory among
    # droppable trees and the home-row gather sees shifted indexes.
    extra = ramsey_tree_cover(graph, ell=1, seed=9).trees
    shift = len(extra)
    return {
        "robust": robust_tree_cover(points, eps=0.45),
        "ramsey": TreeCover(
            graph, extra + ramsey.trees, home=[h + shift for h in ramsey.home]
        ),
        "compact": compact_tree_cover(points, eps=0.5, shifts=2),
    }


CASES = [
    ("robust", 50_000),  # exact: all 780 pairs
    ("robust", 300),     # sampled
    ("ramsey", 50_000),  # mandatory home trees
    ("compact", 50_000),
]


def _no_serial_fallback(fn, ctx, items):
    raise AssertionError("the fan-out fell back to a serial map")


@pytest.mark.parametrize(
    "workers,pool",
    [
        pytest.param(0, "serial", id="0"),
        pytest.param(2, "processes", id="2"),
        pytest.param(2, "threads", id="2-threads"),
    ],
)
@pytest.mark.parametrize("family,max_pairs", CASES)
def test_prune_matches_rescan_oracle(covers, family, max_pairs, workers, pool, monkeypatch):
    """Every fan-out runs the pool it names: a pool that failed and
    fell back to the serial loop fails the test instead of passing on
    the serial answer."""
    cover = covers[family]
    if pool != "serial":
        monkeypatch.setattr(engine, "_serial_map", _no_serial_fallback)
    if pool == "threads":
        monkeypatch.setattr(engine, "_picklable", lambda obj: False)
    report = prune_cover(cover, eps=0.05, max_pairs=max_pairs, workers=workers)
    retained, gamma, exact, evaluated = reference_prune(cover, max_pairs=max_pairs)
    assert report.retained == retained
    assert report.gamma == gamma
    assert report.exact == exact
    assert report.exact == (max_pairs >= 780)
    assert report.pairs_evaluated == evaluated
    assert report.zeta_after < report.zeta_before


@pytest.mark.parametrize("family", ["robust", "ramsey"])
def test_gamma_below_achievable_stretch_raises(covers, family):
    cover = covers[family]
    achieved = reference_prune(cover, eps=0.0)[1]
    with pytest.raises(InvariantViolation):
        prune_cover(cover, gamma=achieved * 0.99)
    with pytest.raises(InvariantViolation):
        reference_prune(cover, gamma=achieved * 0.99)
    # At exactly the achieved stretch the prune goes through.
    assert prune_cover(cover, gamma=achieved).gamma == achieved


@given(
    st.integers(min_value=1, max_value=24),
    st.integers(min_value=1, max_value=150),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=3),
)
@settings(max_examples=60, deadline=None)
def test_lazy_greedy_picks_the_rescan_sequence(zeta, pairs, seed, mandatory):
    """Same picks in the same order, ties included: rows are drawn from
    a few prototypes so equal marginal gains are common."""
    rng = np.random.default_rng(seed)
    prototypes = rng.random((3, pairs)) < rng.uniform(0.05, 0.6, size=(3, 1))
    rows = prototypes[rng.integers(0, 3, size=zeta)] | (rng.random((zeta, pairs)) < 0.05)
    rows[rng.integers(0, zeta)] = True  # some tree covers everything
    matrix = np.packbits(rows, axis=1)
    selected = sorted(set(rng.integers(0, zeta, size=mandatory).tolist()))
    uncovered = np.packbits(np.ones(pairs, dtype=bool))
    for t in selected:
        uncovered &= ~matrix[t]
    expected = _rescan_greedy(matrix, uncovered.copy(), list(selected))
    assert _lazy_greedy(matrix, uncovered, list(selected), 1.0) == expected
    assert not uncovered.any()


def test_lazy_greedy_raises_when_pairs_stay_uncovered():
    matrix = np.packbits(np.array([[1, 0, 0], [1, 1, 0]], dtype=bool), axis=1)
    uncovered = np.packbits(np.ones(3, dtype=bool))
    with pytest.raises(InvariantViolation):
        _lazy_greedy(matrix, uncovered, [], 1.0)
