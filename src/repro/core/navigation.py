"""Navigable 1-spanners of bounded hop-diameter for tree metrics.

This module implements Theorem 1.1 of the paper: given an edge-weighted
tree ``T``, a set of required vertices and an integer ``k >= 2``, it
builds Solomon's 1-spanner ``G_T`` with hop-diameter ``k`` and
``O(n * alpha_k(n))`` edges *together with* the navigation data structure
``D_T`` — the augmented recursion tree Φ, the contracted trees 𝒯_β and
the home table — so that ``find_path(u, v)`` reports a T-monotone
1-spanner path of at most ``k`` hops in O(k) time (Algorithms 1 and 2
of the paper).  The recursion (Algorithm 1) writes ``D_T`` straight
into the flat arrays of a :class:`~repro.core.packed_query.QueryPack`,
one append per Φ node; the query (Algorithm 2) runs on that pack.

Construction outline (Section 3.1.1):

* base case ``|R| <= k + 1``: a constant-size component; we connect the
  required vertices of the component directly (the paper's
  ``HandleBaseCase`` relies on structural guarantees internal to
  [Sol13]; a clique on <= k+1 required vertices realizes the same 1-hop
  base paths at O(k) edges per component — see DESIGN.md);
* otherwise ``Decompose`` picks cut vertices ``CV`` with parameter
  ``ell = alpha'_{k-2}(n)``;
* ``E''`` connects every cut vertex to all required vertices of its
  adjacent components;
* ``E'`` interconnects ``CV``: empty for k=2 (|CV| = 1), a clique for
  k=3, and a recursive (k-2)-hop navigator over the pruned copy of the
  tree for k >= 4;
* components recurse with the same ``k``.

The query (:meth:`QueryPack.find_path`) mirrors the paper's
``FindPath`` / ``LocateContracted`` / ``FindCut``, including the
contracted trees that make finding the border cut vertices O(1).

``decrement=1`` switches the interconnection recursion to the
[AS87]-style level-by-level scheme (budget −1 per level, paths up to
2(k−1) hops) — the baseline Solomon's −2 trick improves on; used by the
E9 ablation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from contextlib import nullcontext

from ..errors import check
from ..graphs.graph import Graph
from ..graphs.tree import Tree
from ..metrics.tree_metric import TreeMetric
from ..observability import OBS, trace
from .ackermann import alpha_k_prime
from .decompose import (
    PackedTree,
    decompose_packed,
    prune_packed,
    split_packed,
)
from .packed_query import QueryPack

__all__ = ["TreeNavigator"]

# Build-side: recursion shape of Algorithm 1.  The query-side counters
# (treenav.queries / treenav.nodes_touched) live with the query in
# core/packed_query.py.
_C_RECURSIONS = OBS.registry.counter("treenav.recursions")
_C_CUTS = OBS.registry.counter("treenav.cuts")
_C_BASE_CASES = OBS.registry.counter("treenav.base_cases")


def _contract(
    pt: PackedTree, cut_positions: Sequence[int], comp_of: Sequence[int], p: int
) -> Tuple[List[int], List[int]]:
    """Parent and depth arrays of the contracted tree 𝒯_β.

    Vertices ``0..p-1`` are the component representatives ``t_i`` and
    ``p + t`` is the ``t``-th cut vertex; a cut vertex is adjacent to
    ``t_i`` iff it borders component ``T_i`` (Property 7).  Adjacent cut
    vertices of the working tree are linked directly — a corner case the
    paper's prose elides but which keeps 𝒯_β connected (hence a tree)
    when ``Decompose`` cuts neighbours.
    """
    # Contracted id per position: component index for component
    # vertices, p + rank for cut vertices.
    cid = list(comp_of)
    for t, j in enumerate(cut_positions):
        cid[j] = p + t
    m = p + len(cut_positions)
    parent = [-1] * m
    depth = [0] * m
    seen = [False] * m
    seen[cid[0]] = True
    tree_parent = pt.parent
    # Preorder visits a contracted node's first vertex after its
    # contracted parent's first vertex, so depth[a] is final by the
    # time b hangs below it — one pass yields parents and depths.
    for j in range(1, len(tree_parent)):
        a = cid[tree_parent[j]]
        b = cid[j]
        if a != b and not seen[b]:
            parent[b] = a
            depth[b] = depth[a] + 1
            seen[b] = True
    return parent, depth


class TreeNavigator:
    """Solomon 1-spanner of hop-diameter ``k`` plus its navigation oracle.

    Parameters
    ----------
    tree:
        The input edge-weighted tree (a :class:`repro.graphs.tree.Tree`).
    k:
        Target hop-diameter, ``k >= 2``.
    required:
        Optional subset of vertices that must receive the k-hop
        guarantee (the Steiner setting of [Sol13]); defaults to all
        vertices.

    After construction, :meth:`find_path` answers queries between
    required vertices in O(k) time, and :attr:`edges` holds the spanner
    edge set (pairs of vertex ids with tree-metric weights).  The
    navigation structure 𝒟_T — Φ, the contracted trees 𝒯_β and the
    home table — exists only as :attr:`pack`, the
    :class:`~repro.core.packed_query.QueryPack` the build writes as it
    recurses.
    """

    def __init__(
        self,
        tree: Tree,
        k: int,
        required: Optional[Sequence[int]] = None,
        decrement: int = 2,
        _worktree: Optional[PackedTree] = None,
        _metric: Optional[TreeMetric] = None,
        _edges: Optional[Dict[Tuple[int, int], float]] = None,
    ):
        if k < 2:
            raise ValueError("hop-diameter parameter k must be at least 2")
        if decrement not in (1, 2):
            raise ValueError("decrement must be 1 (AS87-style) or 2 (Solomon)")
        # decrement = 2 is Solomon's trick: the cut-vertex interconnection
        # recurses with budget k-2, so each recursion level of the query
        # adds 2 hops against a budget that shrinks by 2 — hop-diameter k.
        # decrement = 1 emulates the [AS87]-style level-by-level scheme
        # the paper compares against: the interconnection only drops the
        # budget by 1, so a "budget k" structure routes in up to 2(k-1)
        # hops; at equal size this uses about twice the hops (Remark 5.4),
        # which the E9 ablation measures.
        self.decrement = decrement
        self.tree = tree
        self.k = k
        self.metric = _metric if _metric is not None else TreeMetric(tree)
        if required is None:
            required = range(tree.n)
        self.required: Set[int] = set(required)
        if not self.required:
            raise ValueError("need at least one required vertex")
        self.edges: Dict[Tuple[int, int], float] = _edges if _edges is not None else {}
        is_root = _edges is None
        self.pack = QueryPack(k, tree.n)

        worktree = _worktree if _worktree is not None else PackedTree.from_tree(tree)
        # One span per root navigator only: sub-navigators are part of the
        # same build and would bloat the trace with one span per recursion.
        span = (
            trace("treenav.build", n=tree.n, k=k, required=len(self.required))
            if is_root
            else nullcontext()
        )
        with span:
            self._preprocess(worktree, set(self.required), -1, 0, -1)
            if is_root:
                self._fill_edge_weights()

    # ------------------------------------------------------------------
    # Preprocessing (Algorithm 1)

    def _new_phi_node(
        self, parent: int, depth: int, comp: int, leaf: bool, cuts: List[int]
    ) -> int:
        """Append one Φ node to the pack; returns its id.

        ``comp`` is the index of the component of the parent's working
        tree this node recurses on (``-1`` at the root).  The 𝒯_β slots
        start empty and are filled by the caller for internal nodes.
        """
        pack = self.pack
        node = len(pack.phi_parent)
        pack.phi_parent.append(parent)
        pack.phi_depth.append(depth)
        pack.phi_leaf.append(leaf)
        pack.phi_cuts.append(cuts)
        pack.phi_comp.append(comp)
        pack.phi_sub.append(None)
        pack.ct_parent.append(None)
        pack.ct_depth.append(None)
        pack.ct_p.append(0)
        home = pack.home
        for c in cuts:
            home[c] = node
        return node

    def _add_edge(self, u: int, v: int) -> None:
        # Weights are left as placeholders during the recursion — nothing
        # reads them until construction finishes — and are filled by one
        # vectorized LCA batch in _fill_edge_weights.  Scalar per-edge
        # distance calls used to dominate the build.
        if u == v:
            return
        key = (u, v) if u < v else (v, u)
        if key not in self.edges:
            self.edges[key] = -1.0

    def _fill_edge_weights(self) -> None:
        """Resolve every placeholder edge weight in one batch query.

        Sub-navigators (E' interconnections) share the root's edge dict,
        so a single pass over ``self.edges`` at the root covers the whole
        recursion.
        """
        if not self.edges:
            return
        keys = list(self.edges.keys())
        weights = self.metric.pair_distances(
            [key[0] for key in keys], [key[1] for key in keys]
        )
        self.edges.update(zip(keys, weights.tolist()))

    def _preprocess(
        self, wt: PackedTree, req: Set[int], parent: int, depth: int, comp: int
    ) -> None:
        """Recursive construction of the Φ subtree below ``parent``."""
        n = len(req)
        if n <= self.k + 1:
            # The base case connects the required vertices directly and
            # never looks at the tree, so the Steiner pruning would be
            # pure waste here — and the vast majority of recursion calls
            # land in this branch.
            self._handle_base_case(req, parent, depth, comp)
            return
        wt = prune_packed(wt, req)
        ids = wt.ids

        # k = 2 always needs a single (centroid) cut; deeper budgets size
        # their components by the interconnection recursion's parameter.
        ell_index = 0 if self.k == 2 else self.k - self.decrement
        ell = alpha_k_prime(ell_index, n)
        cut_positions = decompose_packed(wt, req, ell)
        cuts = [ids[j] for j in cut_positions]
        if OBS.enabled:
            _C_RECURSIONS.inc()
            _C_CUTS.inc(len(cuts))
        pack = self.pack
        beta = self._new_phi_node(parent, depth, comp, False, cuts)
        rank = pack.rank
        for t, c in enumerate(cuts):
            rank[c] = t

        # E': interconnect the cut vertices.
        if self.decrement == 2 and self.k == 3:
            for i, a in enumerate(cuts):
                for b in cuts[i + 1 :]:
                    self._add_edge(a, b)
        elif self.k >= 3:
            pack.phi_sub[beta] = TreeNavigator(
                self.tree,
                max(2, self.k - self.decrement),
                required=cuts,
                decrement=self.decrement,
                _worktree=wt,
                _metric=self.metric,
                _edges=self.edges,
            ).pack

        # E'': each cut vertex to the required vertices it borders.
        comps_ids, comps_parent, borders, comp_of = split_packed(wt, cut_positions)
        if self.k >= 3:
            ct_parent, ct_depth = _contract(wt, cut_positions, comp_of, len(comps_ids))
            pack.ct_parent[beta] = ct_parent
            pack.ct_depth[beta] = ct_depth
            pack.ct_p[beta] = len(comps_ids)
        pos_of = {v: j for j, v in enumerate(ids)}
        comp_required: List[List[int]] = [[] for _ in comps_ids]
        for v in req:
            index = comp_of[pos_of[v]]
            if index >= 0:
                comp_required[index].append(v)
        edges = self.edges
        for i, border in enumerate(borders):
            required_here = comp_required[i]
            for c in border:
                # c is a cut vertex and u a non-cut component vertex, so
                # the u == c guard of _add_edge is unnecessary (inlined:
                # this loop inserts the bulk of the spanner edges).
                for u in required_here:
                    key = (c, u) if c < u else (u, c)
                    if key not in edges:
                        edges[key] = -1.0

        # Recurse on components that still carry required vertices.
        # Base cases are dispatched directly: they never look at the
        # component's tree, so its PackedTree is only materialized for
        # components large enough to recurse (a small minority).
        base_bound = self.k + 1
        for i, creq in enumerate(comp_required):
            if not creq:
                continue
            if len(creq) <= base_bound:
                self._handle_base_case(creq, beta, depth + 1, i)
            else:
                self._preprocess(
                    PackedTree(comps_ids[i], comps_parent[i]), set(creq),
                    beta, depth + 1, i,
                )

    def _handle_base_case(
        self, req: Sequence[int], parent: int, depth: int, comp: int
    ) -> None:
        """A Φ leaf: the clique on the component's required vertices."""
        if OBS.enabled:
            _C_BASE_CASES.inc()
        if len(req) == 1:
            # Singleton components are common and need neither edges nor
            # the sort below.
            self._new_phi_node(parent, depth, comp, True, list(req))
            return
        ordered = sorted(req)
        # The base-case subgraph is the clique on ``ordered``: every
        # query between two of its vertices is the direct edge.
        self._new_phi_node(parent, depth, comp, True, ordered)
        edges = self.edges
        for i, a in enumerate(ordered):
            # ordered is sorted, so a < b and the key needs no swap
            # (_add_edge inlined — the recursion bottoms out here
            # hundreds of thousands of times per cover).
            for b in ordered[i + 1 :]:
                if (a, b) not in edges:
                    edges[(a, b)] = -1.0

    # ------------------------------------------------------------------
    # Spanner accessors

    def spanner(self) -> Graph:
        """The spanner ``G_T`` as a weighted graph on ``tree.n`` vertices."""
        g = Graph(self.tree.n)
        for (u, v), w in self.edges.items():
            g.add_edge(u, v, w)
        return g

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def hop_bound(self) -> int:
        """The guaranteed maximum hops per path: k for Solomon's scheme
        (decrement 2), 2(k-1) for the AS87-style level-by-level variant."""
        if self.decrement == 2:
            return self.k
        return 2 * (self.k - 1)

    def phi_depth(self) -> int:
        """Depth of the augmented recursion tree (Observation 3.1)."""
        return max(self.pack.phi_depth)

    # ------------------------------------------------------------------
    # Query (Algorithm 2)

    def find_path(self, u: int, v: int) -> List[int]:
        """A T-monotone 1-spanner path from ``u`` to ``v`` with <= k hops.

        Both endpoints must be required vertices (``KeyError``
        otherwise).  Runs in O(k) time on :attr:`pack`.
        """
        return self.pack.find_path(u, v)

    # ------------------------------------------------------------------
    # Verification helpers (used by tests and benches)

    def verify_path(self, u: int, v: int, path: List[int]) -> None:
        """Check the three guarantees of Theorem 1.1 for one query.

        Raises :class:`~repro.errors.InvariantViolation` on the first
        broken guarantee — a real exception rather than an ``assert``,
        so verification is not a no-op under ``python -O``."""
        check(path[0] == u and path[-1] == v, "path endpoints mismatch")
        check(
            len(path) - 1 <= self.hop_bound,
            f"path {path} has {len(path) - 1} hops, budget {self.hop_bound}",
        )
        total = 0.0
        for a, b in zip(path, path[1:]):
            key = (a, b) if a < b else (b, a)
            check(key in self.edges, f"({a}, {b}) is not a spanner edge")
            total += self.edges[key]
        direct = self.metric.distance(u, v)
        check(
            abs(total - direct) <= 1e-6 * max(1.0, direct),
            f"path weight {total} differs from tree distance {direct}",
        )
        # T-monotone: the path vertices appear in order along the tree path.
        tree_path = self.tree.path(u, v)
        positions = {w: i for i, w in enumerate(tree_path)}
        indices = [positions.get(w) for w in path]
        check(None not in indices, f"path {path} leaves the tree path")
        check(indices == sorted(indices), f"path {path} is not T-monotone")
