"""Robust tree covers for doubling metrics (Theorem 4.1).

This is the paper's generalization of the Euclidean "Dumbbell Tree"
theorem [ADM+95]: a ``(1 + O(ε), ε^{-O(d)})``-tree cover in which every
internal tree vertex may be replaced by an *arbitrary* descendant leaf
without hurting the stretch — the property ("robustness") that powers
the fault-tolerant spanners of Theorem 4.2.

Construction (Section 4.2):

* **Step 1 — pairing covers.**  For each level ``i`` of a net hierarchy,
  pack all net-point pairs within the pairing radius into sets whose
  pairs are mutually well separated — each point gets at most one
  partner per set and every close pair is paired somewhere, exactly
  Definition 4.2.  (The paper realizes the same properties with a
  two-step partition/σ₂-expansion; greedy packing yields far fewer sets
  — see the :func:`build_pairing_covers` docstring.)
* **Step 2 — trees.**  For each set index ``j`` and phase
  ``p ∈ {0..L-1}`` (``L = ⌈log 1/ε⌉``), build a tree bottom-up over the
  levels ``i ≡ p (mod L)``: every pair ``(x, y)`` of the j-th set merges
  the subtrees of ``x`` and ``y`` together with all subtrees containing
  net points of ``N_{i-L}`` near them, under a fresh internal node.
  The connectivity merges of Section 4.3 (around every net point of
  ``N_i``) keep the forest's trees anchored at net points.

The merge radii are derived from the measured net covering radii and a
diameter fixed-point computation rather than the paper's worst-case
constants (which assume eps <= 1/12); stretch is verified empirically in
tests and benches.

The cover is built over the bottom net of its hierarchy: the whole
point set by default, or the live points of the dynamic cover
(``NetHierarchy(..., points=active)``).  Points outside it stay
singleton leaves under the final root, which is anchored on the first
component root that is an internal node or a live leaf.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import InvariantViolation, check
from ..graphs.tree import Tree
from ..metrics.base import Metric
from ..metrics.doubling import NetHierarchy
from ..observability import OBS, trace
from ..parallel import map_per_tree
from .base import CoverTree, TreeCover

_C_PAIRING_SETS = OBS.registry.counter("cover.robust.pairing_sets")
_C_MERGE_GROUPS = OBS.registry.counter("cover.robust.merge_groups")

__all__ = [
    "PairingCover",
    "build_pairing_covers",
    "covering_radius",
    "pairing_radius",
    "path_replacement_bound",
    "robustness_certificate",
    "robust_tree_cover",
    "replaced_path_weight",
]


class PairingCover:
    """The pairing cover 𝒞_i of one net level: a list of pair lists."""

    def __init__(self, level: int, sets: List[List[Tuple[int, int]]]):
        self.level = level
        #: sets[j] is the j-th pairing set, as (x, partner) pairs.
        self.sets = sets

    def __len__(self) -> int:
        return len(self.sets)

    def verify(self, metric: Metric, eps: float) -> None:
        """Check properties (1) and (2) of Definition 4.2; raises
        :class:`~repro.errors.InvariantViolation` on violation."""
        radius = pairing_radius(eps, self.level, 2.0 ** (self.level + 1))
        for pairs in self.sets:
            partner: Dict[int, int] = {}
            for x, y in pairs:
                for end, other in ((x, y), (y, x)):
                    if end in partner and partner[end] != other:
                        raise InvariantViolation(
                            f"point {end} paired twice in one set (level {self.level})"
                        )
                    partner[end] = other
                check(
                    metric.distance(x, y) <= radius + 1e-9,
                    f"pair ({x}, {y}) too far apart at level {self.level}",
                )


def covering_radius(metric: Metric, hierarchy: NetHierarchy, level: int) -> float:
    """Measured covering radius of ``N_level`` over the bottom net
    ``N_{i_min}`` (the whole point set unless the hierarchy was built
    over a subset).

    The paper assumes nets cover within ``2^i``; a greedy nested
    hierarchy only guarantees ``2^{i+1}``, but the *actual* radius is
    usually close to ``2^i`` — using the measured value keeps the
    pairing radius (and hence ζ) small without losing coverage.
    """
    net = hierarchy.nets[level]
    points = hierarchy.nets[hierarchy.i_min]
    if len(net) == len(points):
        return 0.0
    if metric.supports_batch:
        _, dist = metric.nearest_many(points, net, return_distance=True)
        return float(dist.max())
    worst = 0.0
    for p in points:
        worst = max(worst, min(metric.distance(p, q) for q in net))
    return worst


def pairing_radius(eps: float, level: int, cov: float) -> float:
    """Radius within which level-``level`` net points must be paired.

    Derived from Equation 2 of the paper: a pair x, y handled at level i
    has ``δ(x, y) <= 2^{i-1}/ε``, and its nearest net points p, q satisfy
    ``δ(p, q) <= δ(x, y) + 2·cov``.
    """
    return (0.5 / eps) * 2.0**level + 2.0 * cov + 1e-9


def build_pairing_covers(
    metric: Metric, hierarchy: NetHierarchy, eps: float
) -> Dict[int, PairingCover]:
    """Pairing covers for every level of the hierarchy (Step 1).

    Deviating from the paper's two-step (partition, then σ₂ sets per
    part) enumeration, we *pack* the near pairs greedily into sets under
    the same separation invariant — every two pairs in one set keep all
    endpoint distances above the separation threshold.  This yields the
    identical Definition 4.2 guarantees (each point has at most one
    partner per set; every close pair is paired somewhere) with far
    fewer sets, because one set can host pairs from different regions.
    """
    covers: Dict[int, PairingCover] = {}
    for i in range(hierarchy.i_min, hierarchy.i_max + 1):
        net = hierarchy.nets[i]
        cov = covering_radius(metric, hierarchy, i)
        pair_radius = pairing_radius(eps, i, cov)
        # Separation > 2x pairing radius keeps partners unique; the
        # extra 10 * 2^i keeps distinct pairs' gathered subtrees apart
        # (the forest property of Lemma 4.3).
        separation = 2.0 * pair_radius + 10.0 * 2.0**i

        near_lists = hierarchy.net_points_within_many(i, net, pair_radius)
        pairs_at_level: List[Tuple[int, int]] = [
            (x, y) for x, nbrs in zip(net, near_lists) for y in nbrs if y > x
        ]
        if pairs_at_level:
            dist = metric.pair_distances(
                [x for x, _ in pairs_at_level], [y for _, y in pairs_at_level]
            )
            order = sorted(
                range(len(pairs_at_level)),
                key=lambda t: (dist[t], pairs_at_level[t]),
            )
            pairs_at_level = [pairs_at_level[t] for t in order]

        # One batched separation sweep for every endpoint in play.
        endpoints = sorted({v for pair in pairs_at_level for v in pair})
        sep_lists = hierarchy.net_points_within_many(i, endpoints, separation)
        sep_near = dict(zip(endpoints, sep_lists))

        sets: List[List[Tuple[int, int]]] = []
        # used[v] = bitmask of the sets already using v as an endpoint;
        # a pair goes to the lowest set no endpoint near it uses.
        used: Dict[int, int] = {}
        get = used.get
        for x, y in pairs_at_level:
            blocked = 0
            for z in sep_near[x]:
                blocked |= get(z, 0)
            for z in sep_near[y]:
                blocked |= get(z, 0)
            free = ~blocked & (blocked + 1)
            index = free.bit_length() - 1
            if index == len(sets):
                sets.append([])
            sets[index].append((x, y))
            used[x] = get(x, 0) | free
            used[y] = get(y, 0) | free
        covers[i] = PairingCover(i, sets)
    return covers


class _ForestBuilder:
    """Bottom-up tree assembly with union-find over metric points."""

    def __init__(self, n: int):
        self.parent_node: List[int] = [-1] * n  # tree structure being built
        self.rep: List[int] = list(range(n))  # representative point per node
        self._uf: List[int] = list(range(n))  # union-find over points
        self._root_node: List[int] = list(range(n))  # comp leader -> root node
        self._leaders: set = set(range(n))  # live component leaders

    def find(self, p: int) -> int:
        uf = self._uf
        while uf[p] != p:
            uf[p] = uf[uf[p]]
            p = uf[p]
        return p

    def root_of(self, p: int) -> int:
        return self._root_node[self.find(p)]

    def merge(self, points: Sequence[int], rep: int) -> None:
        """Put the subtrees containing ``points`` under a new node."""
        # Path-halving find, inlined: this loop runs millions of times
        # per cover and call overhead dominates otherwise.  Most replayed
        # groups are already connected, so the fast path tracks only the
        # leaders that differ from the first point's.
        uf = self._uf
        p = points[0]
        while uf[p] != p:
            uf[p] = uf[uf[p]]
            p = uf[p]
        head = p
        extra = None
        for p in points[1:]:
            while uf[p] != p:
                uf[p] = uf[uf[p]]
                p = uf[p]
            if p != head:
                if extra is None:
                    extra = {p}
                else:
                    extra.add(p)
        if extra is None:
            return
        root_node = self._root_node
        node = len(self.parent_node)
        self.parent_node.append(-1)
        self.rep.append(rep)
        parent_node = self.parent_node
        parent_node[root_node[head]] = node
        leaders = self._leaders
        for other in extra:
            parent_node[root_node[other]] = node
            uf[other] = head
            leaders.discard(other)
        root_node[head] = node

    def finish(
        self, metric: Metric, n: int, live: Optional[bytes] = None
    ) -> CoverTree:
        """Close the forest into one tree and emit a CoverTree.

        The final root takes the representative of the first component
        root that is an internal node (its representative is a net
        point) or a leaf flagged in ``live`` (default: every point), so
        a point outside the hierarchy's bottom net never represents a
        tree.  With every point live this is simply the first root.
        """
        root_node = self._root_node
        roots = sorted({root_node[leader] for leader in self._leaders})
        if len(roots) > 1:
            anchor = roots[0]
            if live is not None:
                anchor = next((r for r in roots if r >= n or live[r]), anchor)
            node = len(self.parent_node)
            self.parent_node.append(-1)
            self.rep.append(self.rep[anchor])
            for r in roots:
                self.parent_node[r] = node
        parent_node = self.parent_node
        rep = self.rep
        # Edge weights in one batched kernel call instead of one scalar
        # metric.distance per tree vertex.
        parents = np.asarray(parent_node)
        children = np.flatnonzero(parents != -1)
        weights = np.zeros(len(parent_node))
        if children.size:
            reps = np.asarray(rep)
            weights[children] = metric.pair_distances(
                reps[parents[children]].tolist(), reps[children].tolist()
            )
        tree = Tree(parent_node, weights.tolist(), validate=False)
        return CoverTree(tree, list(range(n)), rep)


def _build_robust_tree(ctx, task: Tuple[int, int]) -> CoverTree:
    """Per-tree fan-out unit: replay one (phase, set-index) merge script.

    The merge groups are precomputed once in the parent (they depend
    only on the hierarchy); each tree replays its groups against a fresh
    union-find, so trees build independently and deterministically on
    any worker.  The metric arrives through shared memory and is only
    touched by the final batched edge-weight kernel.
    """
    p, j = task
    levels_by_phase, conn_groups, pair_groups, n, live = ctx.payload
    builder = _ForestBuilder(n)
    merge = builder.merge
    for i in levels_by_phase[p]:
        groups = pair_groups.get(i)
        if groups is not None and j < len(groups):
            for group in groups[j]:
                merge(group, rep=group[0])
        for group in conn_groups[i]:
            merge(group, rep=group[0])
    return builder.finish(ctx.metric, n, live)


def robust_tree_cover(
    metric: Metric,
    eps: float = 0.5,
    hierarchy: Optional[NetHierarchy] = None,
    workers: Optional[int] = None,
) -> TreeCover:
    """The robust ``(1 + O(ε), ε^{-O(d)})``-tree cover of Theorem 4.1.

    A ``hierarchy`` over a subset of the points (the ``points`` of
    :class:`~repro.metrics.doubling.NetHierarchy`) covers that subset
    inside the metric's index space, index-map-isomorphic to the cover
    of the subset's own metric; the dynamic cover builds this way over
    its live points.

    ``workers`` fans the per-tree forest replays out over a process
    pool (``None`` defers to ``REPRO_WORKERS``; 0/1 builds serially);
    the output is identical for any worker count.
    """
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    with trace("robust_cover", n=metric.n, eps=eps):
        return _robust_tree_cover(metric, eps, hierarchy, workers)


def _robust_tree_cover(
    metric: Metric,
    eps: float,
    hierarchy: Optional[NetHierarchy],
    workers: Optional[int],
) -> TreeCover:
    if hierarchy is None:
        # Extend the hierarchy below the minimum distance so that every
        # pair, however close, has a level i with 2^i in [2*eps*d, 4*eps*d)
        # (the paper achieves this by scaling so d_min > 1/(4*eps)).
        from ..metrics.doubling import scale_levels

        lo, hi = scale_levels(metric)
        lo -= math.ceil(math.log2(1.0 / eps)) + 2
        hierarchy = NetHierarchy(metric, i_min=lo, i_max=hi)
    with trace("pairing_covers"):
        covers = build_pairing_covers(metric, hierarchy, eps)
    if OBS.enabled:
        _C_PAIRING_SETS.inc(sum(len(c) for c in covers.values()))
    # Two phases beyond the paper's ceil(log 1/eps) shrink the ratio
    # between consecutive processed levels to <= eps/4, which keeps the
    # subtree-diameter recursion (Lemma 4.3) convergent for every
    # eps < 1, not only the eps <= 1/12 regime of the paper's analysis.
    phases = math.ceil(math.log2(1.0 / eps)) + 2
    ratio = 2.0**-phases
    # Gather radius: must capture the whole subtree holding a point that
    # a net point covers; solves the diameter fixed point D = rho + 4 +
    # 2*G + 2*r*D, G = 2 + r*D (in units of 2^i).
    gather = (2.0 + 0.5 * ratio / eps) / (1.0 - 4.0 * ratio) + 0.5
    num_sets = max((len(c) for c in covers.values()), default=0)

    # Per phase, only set indexes that actually occur at some level of
    # that phase need a tree; one extra pure-connectivity tree per phase
    # keeps every point covered even if a phase has no pairing sets.
    sets_per_phase = [0] * phases
    for i, cover in covers.items():
        phase = (i - (hierarchy.i_min + 1)) % phases
        sets_per_phase[phase] = max(sets_per_phase[phase], len(cover))

    # Precompute every merge group once, with batched near-net sweeps —
    # the same groups are replayed against a fresh union-find per tree.
    # Connectivity groups (Section 4.3: around every current net point,
    # so each surviving tree is anchored at a net point of the level
    # just processed) depend only on the level; pair-gather groups on
    # (level, set index).
    top = hierarchy.i_max + phases
    conn_groups: Dict[int, List[List[int]]] = {}
    pair_groups: Dict[int, List[List[List[int]]]] = {}
    with trace("merge_groups"):
        for i in range(hierarchy.i_min + 1, top + 1):
            lower = i - phases
            net = hierarchy.net(min(i, hierarchy.i_max))
            near_conn = hierarchy.net_points_within_many(lower, net, 2.0 * 2.0**i)
            conn_groups[i] = [
                group
                for z, nbrs in zip(net, near_conn)
                if len(group := list(dict.fromkeys([z] + nbrs))) > 1
            ]
            cover = covers.get(i)
            if cover is None or not cover.sets:
                continue
            endpoints = sorted(
                {v for pairs in cover.sets for pair in pairs for v in pair}
            )
            gath_lists = hierarchy.net_points_within_many(
                lower, endpoints, gather * 2.0**i
            )
            gath = dict(zip(endpoints, gath_lists))
            pair_groups[i] = [
                [
                    list(dict.fromkeys([x, y] + gath[x] + gath[y]))
                    for x, y in pairs
                ]
                for pairs in cover.sets
            ]
        if OBS.enabled:
            _C_MERGE_GROUPS.inc(
                sum(len(g) for g in conn_groups.values())
                + sum(len(s) for sets in pair_groups.values() for s in sets)
            )

    levels_by_phase = [
        [
            i
            for i in range(hierarchy.i_min + 1, top + 1)
            if (i - (hierarchy.i_min + 1)) % phases == p % phases
        ]
        for p in range(phases)
    ]
    tasks = [
        (p, j) for p in range(phases) for j in range(max(sets_per_phase[p], 1))
    ]
    live = bytearray(metric.n)
    for p in hierarchy.nets[hierarchy.i_min]:
        live[p] = 1
    with trace("build_trees", trees=len(tasks)):
        trees: List[CoverTree] = map_per_tree(
            _build_robust_tree,
            tasks,
            workers=workers,
            metric=metric,
            payload=(levels_by_phase, conn_groups, pair_groups, metric.n, bytes(live)),
        )
    return TreeCover(metric, trees)


def path_replacement_bound(
    cover_tree: CoverTree,
    metric: Metric,
    p: int,
    q: int,
    descendants: Optional[List[List[int]]] = None,
) -> float:
    """An upper bound on the p-q path weight under *any* leaf replacement.

    For every vertex ``v`` on the tree path an adversary may substitute
    any descendant leaf ``l_v``; since ``δ(l_v, rep_v)`` is at most the
    subtree radius around the representative, the replaced path weighs
    at most ``stored path weight + 2·Σ radius_v``.  A cover is robust
    iff for every pair some tree keeps this bound near ``δ(p, q)``.
    """
    if descendants is None:
        descendants = cover_tree.descendant_points()
    path = cover_tree.tree.path(
        cover_tree.vertex_of_point[p], cover_tree.vertex_of_point[q]
    )
    total = 0.0
    for a, b in zip(path, path[1:]):
        total += metric.distance(cover_tree.rep_point[a], cover_tree.rep_point[b])
    for v in path[1:-1]:
        rep = cover_tree.rep_point[v]
        radius = max(
            (metric.distance(rep, leaf) for leaf in descendants[v]), default=0.0
        )
        total += 2.0 * radius
    return total


def robustness_certificate(cover: TreeCover, p: int, q: int) -> float:
    """min over trees of the adversarial-replacement bound over δ(p, q).

    Values staying bounded as the adversary ranges over all leaf choices
    certify property (2) of Definition 4.1 empirically.
    """
    metric = cover.metric
    base = metric.distance(p, q)
    if base == 0:
        return 1.0
    best = float("inf")
    for cover_tree in cover.trees:
        best = min(best, path_replacement_bound(cover_tree, metric, p, q))
        if best <= base * 1.0000001:
            break
    return best / base


def replaced_path_weight(
    cover_tree: CoverTree,
    metric: Metric,
    p: int,
    q: int,
    rng: random.Random,
    descendants: Optional[List[List[int]]] = None,
) -> float:
    """Weight of the p-q tree path with internal vertices replaced by
    *random* descendant leaves — property (2) of Definition 4.1.

    Used to verify robustness: for a robust cover the returned weight is
    at most γ·δ(p, q) for the pair's covering tree, no matter which
    leaves the adversary picks.
    """
    if descendants is None:
        descendants = cover_tree.descendant_points()
    path = cover_tree.tree.path(
        cover_tree.vertex_of_point[p], cover_tree.vertex_of_point[q]
    )
    chosen: List[int] = []
    for v in path:
        pool = descendants[v]
        chosen.append(pool[rng.randrange(len(pool))] if pool else cover_tree.rep_point[v])
    chosen[0] = p
    chosen[-1] = q
    total = 0.0
    for a, b in zip(chosen, chosen[1:]):
        total += metric.distance(a, b)
    return total
