"""Contract-preserving tree-cover pruning (greedy set cover over pairs).

The Theorem 4.1 construction emits one tree per (phase, pairing-set)
slot, so ζ grows with n even though most trees end up *redundant*: the
pairs a tree covers within the declared stretch are usually covered by
other trees too.  Every downstream cost — navigator build, per-query
fan-out, checkpoint size, mmap arena, daemon memory — scales with ζ,
so dropping dominated trees compounds with every hot-path win.

:func:`prune_cover` makes the redundancy explicit and removes it.  The
evaluation pairs (all pairs when small enough, else a deterministic
sample) stay two aligned int64 arrays throughout, and every tree
distance comes from one per-tree kernel,
:meth:`CoverTree.tree_distances_many` (a vectorized sparse-table LCA
batch).  Each pass hands the kernel one
:class:`~repro.graphs.lca.PairWorkspace`, so its arrays are allocated
once per pass (and thread), not once per tree.  Each stage runs under
its own span below ``cover.prune``:

1. **Stretch budget** (``cover.prune.gamma``).  γ is the worst stretch
   the full cover answers with over the evaluation pairs, times
   ``1 + eps``: the reference distance is a running minimum over the
   trees' kernel rows for ordinary covers, the home tree's row for
   Ramsey covers.
2. **Pair-coverage matrix** (``cover.prune.coverage``).  Tree ``t``
   covers pair ``(p, q)`` iff ``d_T(p, q) <= γ · δ(p, q)``.  Rows are
   fanned out per tree via :func:`repro.parallel.map_per_tree` and
   returned bit-packed, so the matrix stays a few MB even at ζ ≈ 3000.
3. **Greedy set cover** (``cover.prune.greedy``).  Trees are retained
   by marginal pair coverage, ties to the lowest index, so the result
   is deterministic at any worker count.  The greedy is lazy — a heap
   of stale gains, re-scored only at the top — which picks exactly the
   trees a full re-scan would.  Everything else is a candidate drop.
   Ramsey home trees are mandatory — the O(1) home-tree contract
   survives.
4. **Contract re-verification.**  Each candidate drop is admitted only
   because the retained set still covers every evaluated pair within γ
   (checked against the coverage matrix), and the pruned cover is then
   re-audited (``audit.cover``) with the existing
   :class:`~repro.checkpoint.audit.CoverContract` machinery before it
   is returned — a failed audit raises instead of returning a cover
   that silently broke Table 1.

Retained trees are the *same objects* as in the input cover, so query
answers on them are bit-identical pre/post prune (pinned by
``tests/test_packed_query.py``); the pruned cover is a fresh
:class:`TreeCover` that builds its own packed query arena on first
use, honoring the ``TreeCover.retire`` /
:class:`~repro.errors.StalePackError` protocol.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..errors import InvariantViolation, StalePackError, check
from ..graphs.lca import PairWorkspace
from ..metrics.base import sample_pairs
from ..observability import OBS, trace
from ..parallel import map_per_tree
from .base import TreeCover

__all__ = ["DEFAULT_MAX_PAIRS", "PruneReport", "prune_cover"]

#: Evaluation-pair budget: below this many total pairs the coverage
#: matrix is exact (all pairs); above it a deterministic sample is used
#: and the stretch budget carries ``eps`` slack for the unseen pairs.
DEFAULT_MAX_PAIRS = 50_000

_C_PRUNES = OBS.registry.counter("cover.prunes")
_G_DROPPED = OBS.registry.gauge("cover.pruned_trees_dropped")


@dataclass
class PruneReport:
    """What a prune did: the new cover plus the evidence for it."""

    cover: TreeCover
    #: Original tree indexes retained, ascending; ``cover.trees[i]`` is
    #: the same object as the input cover's ``trees[retained[i]]``.
    retained: List[int] = field(default_factory=list)
    zeta_before: int = 0
    zeta_after: int = 0
    #: The stretch budget every evaluated pair is covered within.
    gamma: float = 0.0
    pairs_evaluated: int = 0
    #: True when the coverage matrix was exact (all pairs), False when
    #: it was a deterministic sample.
    exact: bool = False
    seconds: float = 0.0

    @property
    def reduction(self) -> float:
        """ζ_before / ζ_after."""
        return self.zeta_before / max(1, self.zeta_after)

    def format_summary(self) -> str:
        kind = "all pairs" if self.exact else "sampled pairs"
        return (
            f"prune: ζ {self.zeta_before} -> {self.zeta_after} "
            f"({self.reduction:.1f}x) within γ={self.gamma:.3f} over "
            f"{self.pairs_evaluated} {kind} in {self.seconds:.2f}s"
        )


def _evaluation_pairs(
    n: int, max_pairs: int, seed: int
) -> Tuple[np.ndarray, np.ndarray, bool]:
    """(ps, qs, exact): all pairs when affordable, else a seeded sample.

    Pairs come as two aligned int64 arrays, ordered as the row-major
    ``(p, q)``, ``p < q`` enumeration (exact) or as ``sample_pairs``
    returns them (sampled).
    """
    total = n * (n - 1) // 2
    if total <= max_pairs:
        ps, qs = np.triu_indices(n, k=1)
        return ps.astype(np.int64), qs.astype(np.int64), True
    pairs = np.asarray(sample_pairs(n, max_pairs, seed=seed), dtype=np.int64)
    return pairs[:, 0].copy(), pairs[:, 1].copy(), False


def _coverage_row(ctx, cover_tree) -> np.ndarray:
    """Per-tree fan-out unit: bit-packed within-γ pair coverage.

    One vectorized LCA batch per tree, inside the calling thread's
    arrays of the pass's workspace; the bool row packs to ``ceil(P/8)``
    bytes so shipping ζ rows back stays cheap.
    """
    ps, qs, limits, workspace = ctx.payload
    row = cover_tree.tree_distances_many(
        ps, qs, out=workspace.output(len(ps)), workspace=workspace
    )
    return np.packbits(row <= limits)


def _reference_distances(
    cover: TreeCover, ps: np.ndarray, qs: np.ndarray
) -> np.ndarray:
    """Per pair, the tree distance the cover answers with.

    The same per-tree kernel as the coverage rows: a running minimum
    over all trees for ordinary covers (the O(ζ) scan), the home tree
    for Ramsey covers (whose home answer is *worse* than the min —
    deriving γ from the min would declare a contract the home-tree
    path cannot meet).  Ramsey pairs are grouped by home tree, so each
    tree's pairs are one contiguous slice.
    """
    workspace = PairWorkspace(len(ps))
    if cover.home is None:
        best = np.full(len(ps), np.inf)
        row = workspace.output(len(ps))
        for cover_tree in cover.trees:
            cover_tree.tree_distances_many(ps, qs, out=row, workspace=workspace)
            np.minimum(best, row, out=best)
        return best
    homes = np.asarray(cover.home, dtype=np.int64)[ps]
    order = np.argsort(homes, kind="stable")
    bounds = np.searchsorted(homes[order], np.arange(cover.size + 1)).tolist()
    ps, qs = ps[order], qs[order]
    grouped = np.empty(len(ps))
    for t, cover_tree in enumerate(cover.trees):
        a, b = bounds[t], bounds[t + 1]
        if a < b:
            cover_tree.tree_distances_many(
                ps[a:b], qs[a:b], out=grouped[a:b], workspace=workspace
            )
    best = np.empty(len(ps))
    best[order] = grouped
    return best


def _lazy_greedy(
    matrix: np.ndarray, uncovered: np.ndarray, selected: List[int], gamma: float
) -> List[int]:
    """Greedy set cover over the bit-packed rows, lazily re-scored.

    Extends ``selected`` (whose coverage ``uncovered`` already
    excludes) by the tree of largest marginal gain until every pair is
    covered, ties to the lowest index.  Marginal gains only fall as
    pairs get covered, so a heap of stale gains keyed
    ``(-gain, tree)`` whose top re-scores unchanged is the exact
    argmax of a full re-scan — same trees, same order.
    """
    remaining = int(np.bitwise_count(uncovered).sum())
    in_set = np.zeros(len(matrix), dtype=bool)
    in_set[selected] = True
    candidates = np.flatnonzero(~in_set)
    gains = np.bitwise_count(matrix[candidates] & uncovered).sum(axis=1, dtype=np.int64)
    heap = list(zip((-gains).tolist(), candidates.tolist()))
    heapq.heapify(heap)
    while remaining:
        gain = 0
        while heap:
            stale, t = heap[0]
            gain = int(np.bitwise_count(matrix[t] & uncovered).sum())
            if gain == -stale:
                heapq.heappop(heap)
                break
            heapq.heapreplace(heap, (-gain, t))
        if gain <= 0:
            raise InvariantViolation(
                "evaluation pairs left uncoverable within "
                f"γ={gamma}: the coverage matrix is inconsistent"
            )
        selected.append(t)
        uncovered &= ~matrix[t]
        remaining -= gain
    return selected


def prune_cover(
    cover: TreeCover,
    eps: float = 0.05,
    gamma: Optional[float] = None,
    max_pairs: int = DEFAULT_MAX_PAIRS,
    seed: int = 0,
    workers: Optional[int] = None,
) -> PruneReport:
    """Greedily drop trees whose pair coverage is dominated; re-verify.

    ``gamma`` is the stretch budget retained trees must meet for every
    evaluated pair.  When ``None`` it is derived from the cover itself:
    the worst stretch the *full* cover achieves over the evaluation
    pairs, times ``1 + eps`` — so the declared Table 1 contract
    (measured stretch plus headroom, see ``cli._declared_contract``)
    always survives pruning.  An explicit ``gamma`` below what the
    cover achieves raises :class:`~repro.errors.InvariantViolation`
    rather than returning a cover that cannot honor it.

    Deterministic for fixed inputs at any worker count: the pair sample
    is seeded, rows merge in tree order, and greedy ties resolve to the
    lowest tree index — which is what lets checkpoint recovery replay a
    prune from the builder spec and land on the identical cover.
    """
    if cover.retired:
        raise StalePackError(
            "refusing to prune a retired cover; prune the live generation",
            hint="the dynamic layer retired this cover after a mutation",
        )
    if eps < 0:
        raise ValueError("eps must be non-negative")
    if max_pairs < 1:
        raise ValueError("max_pairs must be positive")
    with trace("cover.prune", zeta=cover.size, eps=eps):
        return _prune_cover(cover, eps, gamma, max_pairs, seed, workers)


def _prune_cover(
    cover: TreeCover,
    eps: float,
    gamma: Optional[float],
    max_pairs: int,
    seed: int,
    workers: Optional[int],
) -> PruneReport:
    start = time.perf_counter()
    metric = cover.metric
    n = metric.n
    zeta = cover.size
    ps, qs, exact = _evaluation_pairs(n, max_pairs, seed)
    base = np.asarray(metric.pair_distances(ps, qs), dtype=float)

    # The budget comes from how the cover actually answers.  On the
    # serial path the scan also warms each tree's LCA index, which the
    # coverage fan-out reuses.
    with trace("cover.prune.gamma", pairs=len(ps)):
        best = _reference_distances(cover, ps, qs)
    positive = base > 0
    worst = float((best[positive] / base[positive]).max()) if positive.any() else 1.0
    if gamma is None:
        gamma = worst * (1.0 + eps)
    elif worst > gamma + 1e-6:
        raise InvariantViolation(
            f"cannot prune to γ={gamma}: the full cover only achieves "
            f"stretch {worst:.4f} on the evaluation pairs"
        )
    # Zero-distance pairs have stretch 1.0 by convention — any tree
    # covers them.
    limits = np.where(positive, base * gamma + 1e-9, np.inf)

    with trace("cover.prune.coverage", pairs=len(ps)):
        rows = map_per_tree(
            _coverage_row,
            cover.trees,
            workers=workers,
            metric=metric,
            payload=(ps, qs, limits, PairWorkspace(len(ps))),
        )
    matrix = np.vstack(rows)  # (ζ, ceil(P/8)) uint8

    # packbits pads the last byte with zero bits, so starting from the
    # packed all-ones mask never counts phantom pairs.
    full = np.packbits(np.ones(len(ps), dtype=bool))
    uncovered = full.copy()
    selected: List[int] = []
    if cover.home is not None:
        # Home trees are mandatory: the Ramsey O(1) lookup contract
        # names them per point, so they can never be a candidate drop.
        selected = sorted(set(cover.home))
        for t in selected:
            uncovered &= ~matrix[t]
    with trace("cover.prune.greedy"):
        _lazy_greedy(matrix, uncovered, selected, gamma)

    retained = sorted(selected)
    # Every non-selected tree is a candidate drop; re-verify the
    # contract for each before committing: the retained set must cover
    # every evaluated pair on its own (the drop's coverage must be
    # dominated), which is exactly the Table 1 stretch contract
    # restricted to the evaluation pairs.
    retained_or = np.zeros_like(full)
    for t in retained:
        retained_or |= matrix[t]
    check(
        bool(((retained_or & full) == full).all()),
        "a candidate drop would uncover evaluated pairs "
        "(retained set does not dominate the dropped trees)",
    )

    trees = [cover.trees[t] for t in retained]
    home = None
    if cover.home is not None:
        remap = {t: i for i, t in enumerate(retained)}
        home = [remap[t] for t in cover.home]
    pruned = TreeCover(metric, trees, home=home)

    # Seal with the existing audit machinery: structure, domination and
    # the (γ, ζ_after) contract on an independent sample plus the worst
    # evaluated pairs.  Lazy import — checkpoint.audit imports this
    # package.
    from ..checkpoint.audit import CoverContract, audit_cover

    order = np.argsort(-np.where(positive, best / np.maximum(base, 1e-300), 1.0))[:200]
    audit_pairs = list(zip(ps[order].tolist(), qs[order].tolist()))
    audit_cover(
        pruned,
        contract=CoverContract(gamma=gamma, max_trees=len(retained)),
        pairs=audit_pairs,
        workers=workers,
    )

    if OBS.enabled:
        _C_PRUNES.inc()
        _G_DROPPED.set(zeta - len(retained))
    return PruneReport(
        cover=pruned,
        retained=retained,
        zeta_before=zeta,
        zeta_after=len(retained),
        gamma=float(gamma),
        pairs_evaluated=len(ps),
        exact=exact,
        seconds=time.perf_counter() - start,
    )
