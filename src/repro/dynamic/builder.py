"""Masked (active-subset) robust-cover construction.

The dynamic layer never renumbers points: every point ever inserted
keeps its index, and deletes *tombstone* an index instead of removing
it.  This module rebuilds the Theorem 4.1 machinery over the **active
subset** of a grown index space:

* :func:`build_nets` / :func:`nets_after_insert` maintain the nested
  ``2^i``-nets over active indices.  ``greedy_net`` scans candidates
  in index order, so an appended point cannot change earlier
  selections — an insert updates each level in O(1) net queries
  (prefix stability), and a delete recomputes bottom-up with an
  early stop once a level's net matches the cached one (everything
  above is reused verbatim).
* :func:`compute_sweep` re-runs the pairing-cover sweep and merge-
  group precomputation of :func:`~repro.treecover.dumbbell.robust_tree_cover`
  only on levels whose inputs (net or covering radius) changed,
  reusing per-level pairing sets, connectivity groups, gather groups,
  and KD-trees from the previous :class:`SweepState`.
* :func:`build_trees` replays every ``(phase, set)`` merge script
  exactly like ``_build_robust_tree``, with one twist in ``finish``:
  the anchor of the final root is the first *active* component root,
  so a tombstoned singleton leaf can never become a tree's
  representative.  Every mutation replays every tree: each active
  point sits in the bottom net levels of every phase, so no merge
  script survives a mutation unchanged (see :mod:`repro.dynamic.cover`).

Correctness rests on an order-isomorphism argument: the masked
construction on ``(coords, active, pinned i_min/i_max, eps)`` is
index-map-isomorphic to the plain construction on the compacted
active point set — nets, pairing sort keys, union-find shapes, and
group orders all map 1:1 — which the tier-1 differential oracle in
``tests/test_dynamic.py`` checks end to end.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import check
from ..graphs.tree import Tree
from ..metrics.base import Metric
from ..metrics.doubling import NetHierarchy, greedy_net
from ..observability import OBS, trace
from ..parallel import map_per_tree
from ..treecover.base import CoverTree
from ..treecover.dumbbell import _ForestBuilder, pairing_radius

__all__ = [
    "ActiveHierarchy",
    "SweepState",
    "active_covering_radius",
    "build_nets",
    "nets_after_insert",
    "compute_sweep",
    "build_trees",
]

_C_RESWEPT = OBS.registry.counter("dynamic.levels_reswept")
_C_REUSED = OBS.registry.counter("dynamic.levels_reused")


class ActiveHierarchy(NetHierarchy):
    """A :class:`NetHierarchy` over precomputed nets of the active set.

    Skips the base constructor (the nets are maintained incrementally
    by :func:`build_nets`/:func:`nets_after_insert`) but inherits all
    query methods, including the per-level KD-tree cache that
    :func:`compute_sweep` carries over for unchanged levels.
    """

    def __init__(self, metric: Metric, nets: Dict[int, List[int]], i_min: int, i_max: int):
        self.metric = metric
        self.i_min = i_min
        self.i_max = i_max
        self.nets = dict(nets)
        self._kdtrees = {}


def active_covering_radius(
    metric: Metric, hierarchy: NetHierarchy, level: int, active: Sequence[int]
) -> float:
    """Covering radius of the level's net over the *active* points.

    Matches :func:`~repro.treecover.dumbbell.covering_radius` float-
    for-float when every index is active (same ``nearest_many`` kernel
    over the same operands).
    """
    net = hierarchy.nets[level]
    if len(net) == len(active):
        return 0.0
    if metric.supports_batch:
        _, dist = metric.nearest_many(active, net, return_distance=True)
        return float(dist.max())
    worst = 0.0
    for p in active:
        worst = max(worst, min(metric.distance(p, q) for q in net))
    return worst


# ---------------------------------------------------------------------------
# Net maintenance


def build_nets(
    metric: Metric,
    active: Sequence[int],
    i_min: int,
    i_max: int,
    prev_nets: Optional[Dict[int, List[int]]] = None,
) -> Dict[int, List[int]]:
    """Nested nets over ``active`` (must be sorted ascending).

    With ``prev_nets`` (the nets before a mutation), recomputation
    stops as soon as a level's candidate list matches the cached run:
    identical candidates give identical greedy output, so every level
    above is reused verbatim (same list objects — :func:`compute_sweep`
    exploits the identity for KD-tree reuse).
    """
    nets: Dict[int, List[int]] = {i_min: list(active)}
    for i in range(i_min + 1, i_max + 1):
        if prev_nets is not None and nets[i - 1] == prev_nets.get(i - 1):
            nets[i] = prev_nets[i]
            continue
        nets[i] = greedy_net(metric, nets[i - 1], 2.0**i)
    return nets


def nets_after_insert(
    metric: Metric,
    prev_nets: Dict[int, List[int]],
    i_min: int,
    i_max: int,
    new_id: int,
) -> Dict[int, List[int]]:
    """Nets after appending ``new_id`` (the largest active index).

    ``greedy_net`` iterates candidates in index order, so the appended
    point never changes earlier selections: level ``i`` keeps its old
    net, plus ``new_id`` iff no old net point covers it (distance
    ``> 2^i``).  Once covered at some level it leaves the candidate
    set, and all higher nets are reused untouched.
    """
    nets: Dict[int, List[int]] = {i_min: prev_nets[i_min] + [new_id]}
    in_net = True
    for i in range(i_min + 1, i_max + 1):
        old = prev_nets[i]
        if not in_net:
            nets[i] = old
            continue
        if old:
            _, dist = metric.nearest_many([new_id], old, return_distance=True)
            if float(dist[0]) <= 2.0**i:
                in_net = False
                nets[i] = old
                continue
        nets[i] = old + [new_id]
    return nets


# ---------------------------------------------------------------------------
# The pairing + merge-group sweep, cached per level


class SweepState:
    """Everything the per-tree replays need, with per-level provenance.

    Holds the nets, measured covering radii, pairing sets, and the two
    merge-group families (connectivity and pair-gather) of one cover
    generation, plus the derived phase/task layout.  A new state built
    from a previous one shares the unchanged per-level pieces by
    object identity.
    """

    def __init__(
        self,
        metric: Metric,
        eps: float,
        i_min: int,
        i_max: int,
        nets: Dict[int, List[int]],
    ):
        self.eps = eps
        self.i_min = i_min
        self.i_max = i_max
        self.nets = nets
        self.phases = math.ceil(math.log2(1.0 / eps)) + 2
        ratio = 2.0**-self.phases
        self.gather = (2.0 + 0.5 * ratio / eps) / (1.0 - 4.0 * ratio) + 0.5
        self.top = i_max + self.phases
        self.hierarchy = ActiveHierarchy(metric, nets, i_min, i_max)
        self.covs: Dict[int, float] = {}
        self.pair_sets: Dict[int, List[List[Tuple[int, int]]]] = {}
        self.conn_groups: Dict[int, List[List[int]]] = {}
        self.pair_groups: Dict[int, List[List[List[int]]]] = {}
        self.levels_by_phase: List[List[int]] = [
            [
                i
                for i in range(i_min + 1, self.top + 1)
                if (i - (i_min + 1)) % self.phases == p % self.phases
            ]
            for p in range(self.phases)
        ]
        self.sets_per_phase: List[int] = [0] * self.phases
        self.tasks: List[Tuple[int, int]] = []
        self.levels_reswept = 0
        self.levels_reused = 0

    def _finalize_tasks(self) -> None:
        sets_per_phase = [0] * self.phases
        for i, sets in self.pair_sets.items():
            phase = (i - (self.i_min + 1)) % self.phases
            sets_per_phase[phase] = max(sets_per_phase[phase], len(sets))
        self.sets_per_phase = sets_per_phase
        self.tasks = [
            (p, j)
            for p in range(self.phases)
            for j in range(max(sets_per_phase[p], 1))
        ]


def _pairing_sets_for_level(
    metric: Metric,
    hierarchy: NetHierarchy,
    eps: float,
    i: int,
    cov: float,
) -> List[List[Tuple[int, int]]]:
    """One level of :func:`~repro.treecover.dumbbell.build_pairing_covers`,
    verbatim, against the active hierarchy."""
    net = hierarchy.nets[i]
    pair_radius = pairing_radius(eps, i, cov)
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

    endpoints = sorted({v for pair in pairs_at_level for v in pair})
    sep_lists = hierarchy.net_points_within_many(i, endpoints, separation)
    sep_near = dict(zip(endpoints, sep_lists))

    sets: List[List[Tuple[int, int]]] = []
    endpoint_sets: Dict[int, set] = {}
    for x, y in pairs_at_level:
        blocked = set()
        for end in (x, y):
            for z in sep_near[end]:
                blocked |= endpoint_sets.get(z, set())
        index = 0
        while index in blocked:
            index += 1
        if index == len(sets):
            sets.append([])
        sets[index].append((x, y))
        for end in (x, y):
            endpoint_sets.setdefault(end, set()).add(index)
    return sets


def _clamp(level: int, i_min: int, i_max: int) -> int:
    return min(max(level, i_min), i_max)


def compute_sweep(
    metric: Metric,
    active: Sequence[int],
    eps: float,
    i_min: int,
    i_max: int,
    nets: Dict[int, List[int]],
    prev: Optional[SweepState] = None,
) -> SweepState:
    """Pairing-cover + merge-group sweep over the active set.

    Reuses every per-level artifact from ``prev`` whose inputs did not
    change: pairing sets depend on ``(net(i), cov(i))``, connectivity
    groups on ``(net(min(i, i_max)), net(i - phases))``, gather groups
    on ``(pairing sets(i), net(i - phases))``.  Covering radii are
    recomputed exactly every time (one batched ``nearest_many`` per
    level) — they are the cheap inputs that make the change flags
    exact rather than conservative.
    """
    state = SweepState(metric, eps, i_min, i_max, nets)
    same_layout = (
        prev is not None
        and prev.eps == eps
        and prev.i_min == i_min
        and prev.i_max == i_max
    )

    def same_net(level: int) -> bool:
        if not same_layout:
            return False
        old = prev.nets.get(level)
        return old is nets[level] or old == nets[level]

    # Carry KD-trees across for levels whose net is unchanged.
    if same_layout:
        for level in range(i_min, i_max + 1):
            if same_net(level) and level in prev.hierarchy._kdtrees:
                state.hierarchy._kdtrees[level] = prev.hierarchy._kdtrees[level]

    with trace("dynamic.sweep", n=len(active)):
        for i in range(i_min, i_max + 1):
            state.covs[i] = active_covering_radius(metric, state.hierarchy, i, active)

        for i in range(i_min, i_max + 1):
            if same_net(i) and prev.covs.get(i) == state.covs[i]:
                state.pair_sets[i] = prev.pair_sets[i]
                state.levels_reused += 1
            else:
                state.pair_sets[i] = _pairing_sets_for_level(
                    metric, state.hierarchy, eps, i, state.covs[i]
                )
                state.levels_reswept += 1

        phases = state.phases
        for i in range(i_min + 1, state.top + 1):
            lower = i - phases
            net_level = min(i, i_max)
            lower_level = _clamp(lower, i_min, i_max)
            if same_layout and same_net(net_level) and same_net(lower_level):
                state.conn_groups[i] = prev.conn_groups[i]
            else:
                net = state.hierarchy.net(net_level)
                near_conn = state.hierarchy.net_points_within_many(
                    lower, net, 2.0 * 2.0**i
                )
                state.conn_groups[i] = [
                    group
                    for z, nbrs in zip(net, near_conn)
                    if len(group := list(dict.fromkeys([z] + nbrs))) > 1
                ]
            sets = state.pair_sets.get(i)
            if not sets:
                continue
            if (
                same_layout
                and same_net(lower_level)
                and i in prev.pair_groups
                and prev.pair_sets.get(i) == sets
            ):
                state.pair_groups[i] = prev.pair_groups[i]
            else:
                endpoints = sorted({v for pairs in sets for pair in pairs for v in pair})
                gath_lists = state.hierarchy.net_points_within_many(
                    lower, endpoints, state.gather * 2.0**i
                )
                gath = dict(zip(endpoints, gath_lists))
                state.pair_groups[i] = [
                    [
                        list(dict.fromkeys([x, y] + gath[x] + gath[y]))
                        for x, y in pairs
                    ]
                    for pairs in sets
                ]

    state._finalize_tasks()
    if OBS.enabled:
        _C_RESWEPT.inc(state.levels_reswept)
        _C_REUSED.inc(state.levels_reused)
    return state


# ---------------------------------------------------------------------------
# Per-tree replay with the masked finish rule


class _MaskedForestBuilder(_ForestBuilder):
    """The forest builder with a tombstone-aware final-root anchor."""

    def finish_masked(self, metric: Metric, n: int, active_mask: bytes) -> CoverTree:
        root_node = self._root_node
        roots = sorted({root_node[leader] for leader in self._leaders})
        if len(roots) > 1:
            # The final root's representative must be reachable through
            # live points: anchor on the first component root that is
            # an internal node (its rep is a net point, hence active)
            # or an active leaf.  With no tombstones this is roots[0],
            # exactly the plain _ForestBuilder.finish rule.
            anchors = [r for r in roots if r >= n or active_mask[r]]
            anchor = anchors[0] if anchors else roots[0]
            node = len(self.parent_node)
            self.parent_node.append(-1)
            self.rep.append(self.rep[anchor])
            for r in roots:
                self.parent_node[r] = node
        parent_node = self.parent_node
        rep = self.rep
        children = [v for v, p in enumerate(parent_node) if p != -1]
        weights = [0.0] * len(parent_node)
        if children:
            ws = metric.pair_distances(
                [rep[parent_node[v]] for v in children], [rep[v] for v in children]
            )
            for index, v in enumerate(children):
                weights[v] = float(ws[index])
        tree = Tree(parent_node, weights, validate=False)
        return CoverTree(tree, list(range(n)), rep)


def _build_dynamic_tree(ctx, task: Tuple[int, int]) -> CoverTree:
    """Replay one (phase, set-index) merge script over the grown index
    space — byte-for-byte the loop of ``_build_robust_tree``, closed by
    the masked finish."""
    p, j = task
    levels_by_phase, conn_groups, pair_groups, n, active_mask = ctx.payload
    builder = _MaskedForestBuilder(n)
    merge = builder.merge
    for i in levels_by_phase[p]:
        groups = pair_groups.get(i)
        if groups is not None and j < len(groups):
            for group in groups[j]:
                merge(group, rep=group[0])
        for group in conn_groups[i]:
            merge(group, rep=group[0])
    return builder.finish_masked(ctx.metric, n, active_mask)


def build_trees(
    metric: Metric,
    sweep: SweepState,
    active_mask: Sequence[bool],
    workers: Optional[int] = None,
) -> List[CoverTree]:
    """Replay every merge script of ``sweep.tasks``, in task order."""
    n = metric.n
    mask = bytes(bytearray(1 if a else 0 for a in active_mask))
    check(len(mask) == n, "active mask must have one flag per metric point")
    with trace("dynamic.build_trees", trees=len(sweep.tasks)):
        return map_per_tree(
            _build_dynamic_tree,
            sweep.tasks,
            workers=workers,
            metric=metric,
            payload=(
                sweep.levels_by_phase,
                sweep.conn_groups,
                sweep.pair_groups,
                n,
                mask,
            ),
        )
