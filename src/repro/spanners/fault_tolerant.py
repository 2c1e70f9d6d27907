"""Fault-tolerant spanners of bounded hop-diameter (Theorem 4.2).

Construction: take a robust tree cover 𝒯 (Theorem 4.1); for each tree
``T`` build Solomon's k-hop 1-spanner ``K_T`` (Theorem 1.1's navigator);
assign every tree vertex ``v`` a replica set ``R(v)`` of ``f + 1``
descendant leaf points (all of them if the subtree is smaller); replace
every edge ``(u, v)`` of ``K_T`` by the biclique ``R(u) × R(v)`` with
metric weights.

For any faulty set ``F`` (|F| <= f) and non-faulty pair ``x, y``, walking
the k-hop ``K_T`` path and substituting a non-faulty replica at every
vertex yields a k-hop path in ``H \\ F``; robustness of the cover keeps
its weight within (1 + O(ε)) of δ(x, y).  Every vertex on a 1-spanner
path is an ancestor of ``x`` or ``y``, so undersized replica sets always
contain one of the (non-faulty) endpoints — the key observation in the
paper's proof.

The fault-tolerant navigation scheme of Section 4.4 is
:meth:`FaultTolerantSpanner.find_path`: same O(k) query as the non-FT
navigator plus an O(f) scan per vertex for a live replica.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set

from ..core.navigation import TreeNavigator
from ..core.packed_query import dedup_path
from ..errors import FaultBudgetExceeded, InvariantViolation, check
from ..graphs.graph import Graph
from ..metrics.base import Metric
from ..observability import OBS, trace
from ..parallel import map_per_tree
from ..treecover.base import TreeCover
from ..treecover.dumbbell import robust_tree_cover

_C_QUERIES = OBS.registry.counter("ft.queries")
_C_TREES_PROBED = OBS.registry.counter("ft.trees_probed")
_C_REPLICA_SUBS = OBS.registry.counter("ft.replica_substitutions")
_C_ENDPOINT_FALLBACKS = OBS.registry.counter("ft.endpoint_fallbacks")

__all__ = ["FaultTolerantSpanner"]


def _build_ft_tree(ctx, index: int):
    """Per-tree fan-out unit: navigator K_T plus replica pools R(v).

    Both derive from the cover tree alone, so the trees of the cover can
    build on independent workers; the replica pools are
    :meth:`~repro.treecover.base.CoverTree.replica_sets` (Theorem 4.2).
    """
    trees, k, f = ctx.payload
    cover_tree = trees[index]
    navigator = TreeNavigator(
        cover_tree.tree,
        k,
        required=cover_tree.vertex_of_point,
        _metric=cover_tree.tree_metric,
    )
    return navigator, cover_tree.replica_sets(f)


class FaultTolerantSpanner:
    """An f-FT spanner with hop-diameter k over a doubling metric.

    With ``validate=True`` (or the environment variable
    ``REPRO_VALIDATE`` set to a truthy value) the constructor runs the
    opt-in invariant-checking mode of
    :mod:`repro.resilience.validation`: the metric is screened for
    NaN/negative/asymmetric distances before the build, and the replica
    pools are checked against Theorem 4.2's structure afterwards.
    """

    def __init__(
        self,
        metric: Metric,
        f: int,
        k: int,
        eps: float = 0.4,
        cover: Optional[TreeCover] = None,
        validate: Optional[bool] = None,
        replicas: Optional[List[List[List[int]]]] = None,
        workers: Optional[int] = None,
    ):
        if f < 0:
            raise ValueError("f must be non-negative")
        if validate is None:
            from ..resilience.validation import validation_enabled

            validate = validation_enabled()
        if validate:
            from ..resilience.validation import validate_metric

            validate_metric(metric)
        self.metric = metric
        self.f = f
        self.k = k
        self.cover = (
            cover if cover is not None else robust_tree_cover(metric, eps, workers=workers)
        )
        if replicas is not None and len(replicas) != len(self.cover.trees):
            raise ValueError(
                f"{len(replicas)} replica tables supplied for "
                f"{len(self.cover.trees)} cover trees"
            )
        with trace("ft.build", n=metric.n, f=f, k=k, trees=len(self.cover.trees)):
            built = map_per_tree(
                _build_ft_tree,
                range(len(self.cover.trees)),
                workers=workers,
                payload=(self.cover.trees, k, f),
            )
        self.navigators: List[TreeNavigator] = [navigator for navigator, _ in built]
        #: replicas[t][v] = the replica set R(v) of tree t's vertex v.
        #: Normally derived from the cover (prefixes of the descendant
        #: lists, Theorem 4.2); checkpoint restores pass the saved pools
        #: in via ``replicas=`` to skip the recomputation — the loader
        #: audits them against the theorem's structure instead.
        self.replicas: List[List[List[int]]] = []
        for index, cover_tree in enumerate(self.cover.trees):
            if replicas is not None:
                pools = replicas[index]
                if len(pools) != cover_tree.tree.n:
                    raise ValueError(
                        f"tree {index}: {len(pools)} replica pools for "
                        f"{cover_tree.tree.n} vertices"
                    )
                self.replicas.append([list(pool) for pool in pools])
            else:
                self.replicas.append(built[index][1])
        if validate:
            from ..resilience.validation import validate_ft_spanner

            validate_ft_spanner(self)

    # ------------------------------------------------------------------
    # Size accounting (edges are counted analytically; the biclique
    # blow-up is materialized only on demand).

    def edge_count(self) -> int:
        """|E(H)| = Σ_T Σ_{(u,v) in K_T} |R(u)|·|R(v)|, deduplicated lazily.

        Upper bound without dedup — the number the f²-scaling claim of
        Theorem 4.2 is about.
        """
        total = 0
        for navigator, reps in zip(self.navigators, self.replicas):
            for (a, b) in navigator.edges:
                total += len(reps[a]) * len(reps[b])
        return total

    def materialize(self) -> Graph:
        """The FT spanner H as an explicit graph on the metric's points."""
        graph = Graph(self.metric.n)
        for navigator, reps in zip(self.navigators, self.replicas):
            for (a, b) in navigator.edges:
                for p in reps[a]:
                    for q in reps[b]:
                        if p != q:
                            graph.add_edge(p, q, self.metric.distance(p, q))
        return graph

    # ------------------------------------------------------------------
    # FT navigation (Section 4.4)

    def find_path(
        self, u: int, v: int, faults: Iterable[int] = (), candidates: int = 12
    ) -> List[int]:
        """A <= k-hop u-v path avoiding the faulty points.

        ``u`` and ``v`` must be non-faulty and ``|faults| <= f``.

        The covering tree of the robustness analysis is not identified
        by stored tree distances alone (replacement cost depends on the
        subtree radii along the path), so the query materializes the
        replaced path in the ``candidates`` trees with the smallest
        stored distance and returns the lightest — still O(ζ + k·f)
        work, and every candidate obeys the hop/fault guarantees.
        """
        faulty: Set[int] = set(faults)
        if u in faulty or v in faulty:
            raise ValueError("query endpoints must be non-faulty")
        if len(faulty) > self.f:
            raise FaultBudgetExceeded(self.f, faulty)
        if u == v:
            return [u]
        obs = OBS.enabled
        if obs:
            _C_QUERIES.inc()
        best_path: List[int] = []
        best_weight = float("inf")
        for index in self.candidate_trees(u, v, candidates):
            if obs:
                _C_TREES_PROBED.inc()
            path = self._path_in_tree(index, u, v, faulty)
            weight = sum(
                self.metric.distance(a, b) for a, b in zip(path, path[1:])
            )
            if weight < best_weight:
                best_weight = weight
                best_path = path
        return best_path

    def candidate_trees(self, u: int, v: int, candidates: int = 12) -> List[int]:
        """The ``candidates`` cover trees with the smallest stored u-v
        distance, in order.  A ``candidates`` larger than ζ simply
        returns every tree; values below 1 are clamped to 1."""
        order = sorted(
            range(len(self.cover.trees)),
            key=lambda t: self.cover.trees[t].tree_distance(u, v),
        )
        return order[: max(1, candidates)]

    def _path_in_tree(
        self, index: int, u: int, v: int, faulty: Set[int], strict: bool = True
    ) -> Optional[List[int]]:
        """The replica-substituted k-hop path through one cover tree.

        With ``strict`` (the default, valid whenever ``|F| <= f``) a
        replica pool with no live member is a broken construction
        invariant and raises :class:`InvariantViolation`.  The
        degradation layer passes ``strict=False`` to probe trees in the
        over-budget regime ``|F| > f``, where a fully-dead pool is an
        expected outcome: the tree is skipped by returning ``None``.
        """
        cover_tree = self.cover.trees[index]
        vertex_path = self.navigators[index].find_path(
            cover_tree.vertex_of_point[u], cover_tree.vertex_of_point[v]
        )
        reps = self.replicas[index]
        obs = OBS.enabled
        points: List[int] = [u]
        for x in vertex_path[1:-1]:
            if obs:
                _C_REPLICA_SUBS.inc()
            live = [p for p in reps[x] if p not in faulty]
            if not live:
                # Undersized replica sets always contain an endpoint.
                live = [p for p in (u, v) if p in reps[x] and p not in faulty]
                if obs and live:
                    _C_ENDPOINT_FALLBACKS.inc()
            if not live:
                if strict:
                    raise InvariantViolation(
                        f"no live replica at tree vertex {x} with "
                        f"{len(faulty)} <= f={self.f} faults; "
                        "construction invariant broken"
                    )
                return None
            # Any live replica preserves the guarantees; greedily taking
            # the one nearest the previous point improves the constant.
            previous = points[-1]
            points.append(min(live, key=lambda p: self.metric.distance(previous, p)))
        points.append(v)
        return dedup_path(points)

    def verify_path(self, u: int, v: int, faults: Set[int], path: List[int]) -> float:
        """Check FT-path validity; returns its stretch.

        Checks endpoints, hop budget, and no faulty intermediates;
        raises :class:`InvariantViolation` (so the checks survive
        ``python -O``) on the first broken guarantee.
        """
        check(bool(path), f"empty path returned for ({u}, {v})")
        check(
            path[0] == u and path[-1] == v,
            f"path endpoints {path[0]}, {path[-1]} differ from query ({u}, {v})",
        )
        check(len(path) - 1 <= self.k, f"{len(path) - 1} hops exceed k={self.k}")
        check(not (set(path) & set(faults)), "path visits a faulty point")
        weight = sum(
            self.metric.distance(a, b) for a, b in zip(path, path[1:])
        )
        base = self.metric.distance(u, v)
        return weight / base if base > 0 else 1.0
