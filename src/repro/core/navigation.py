"""Navigable 1-spanners of bounded hop-diameter for tree metrics.

This module implements Theorem 1.1 of the paper: given an edge-weighted
tree ``T``, a set of required vertices and an integer ``k >= 2``, it
builds Solomon's 1-spanner ``G_T`` with hop-diameter ``k`` and
``O(n * alpha_k(n))`` edges *together with* the navigation data structure
``D_T`` — the augmented recursion tree Φ, contracted trees 𝒯_β, and
LCA / level-ancestor indexes — so that ``find_path(u, v)`` reports a
T-monotone 1-spanner path of at most ``k`` hops in O(k) time
(Algorithms 1 and 2 of the paper).

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

The query algorithm mirrors the paper's ``FindPath`` /
``LocateContracted`` / ``FindCut`` exactly, including the contracted
trees that make finding the border cut vertices O(1).

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
from ..graphs.index import TreeIndex
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

__all__ = ["TreeNavigator", "dedup_path"]

# Build-side: recursion shape of Algorithm 1.  Query-side: every
# find_path (recursive interconnection calls included) bumps queries,
# and nodes_touched totals the path vertices each level contributes —
# the empirical stand-in for the O(k) time bound of Theorem 1.1
# (tests/test_asymptotics.py asserts it grows with k, not n).
_C_RECURSIONS = OBS.registry.counter("treenav.recursions")
_C_CUTS = OBS.registry.counter("treenav.cuts")
_C_BASE_CASES = OBS.registry.counter("treenav.base_cases")
_C_QUERIES = OBS.registry.counter("treenav.queries")
_C_NODES = OBS.registry.counter("treenav.nodes_touched")


def dedup_path(path: Sequence[int]) -> List[int]:
    """Remove consecutive duplicates (the braces notation of the paper)."""
    out: List[int] = []
    for v in path:
        if not out or out[-1] != v:
            out.append(v)
    return out


class _PhiNode:
    """A vertex of the augmented recursion tree Φ."""

    __slots__ = (
        "id",
        "parent",
        "level",
        "is_leaf",
        "cut_vertices",
        "contracted",
        "sub_navigator",
        "child_component",
    )

    def __init__(self, node_id: int):
        self.id = node_id
        self.parent = -1
        self.level = 0
        self.is_leaf = False
        # Inner vertices: the cut vertices CV (internal node) or the
        # required vertices of the base case (leaf).
        self.cut_vertices: List[int] = []
        # Internal, k >= 3 only: the contracted tree 𝒯_β.
        self.contracted: Optional[_ContractedTree] = None
        # Internal, k >= 4 only: navigator over the pruned cut-vertex copy.
        self.sub_navigator: Optional["TreeNavigator"] = None
        # Maps a Φ-child id to the component index it recurses on.
        self.child_component: Dict[int, int] = {}


class _ContractedTree:
    """The contracted tree 𝒯_β of an internal recursion node.

    Vertices are component representatives ``t_i`` and cut vertices; a
    cut vertex is adjacent to ``t_i`` iff it borders component ``T_i``
    (Property 7).  Adjacent cut vertices of the working tree are linked
    directly — a corner case the paper's prose elides but which keeps
    𝒯_β connected (hence a tree) when ``Decompose`` cuts neighbours.
    """

    __slots__ = (
        "index",
        "depth",
        "cuts",
        "p",
        "_node_of_cut",
        "_cut_of_node",
        "_node_of_comp",
    )

    def __init__(
        self,
        pt: PackedTree,
        cut_positions: Sequence[int],
        comp_of: Sequence[int],
        p: int,
    ):
        ids = pt.ids
        tree_parent = pt.parent
        # The query-side lookup dicts (node_of_cut and friends) are
        # derived lazily from these two fields: one contracted tree
        # exists per internal recursion node but only the handful a path
        # lookup routes through ever get queried.
        self.cuts: List[int] = [ids[j] for j in cut_positions]
        self.p = p
        self._node_of_cut: Optional[Dict[int, int]] = None
        self._cut_of_node: Optional[Dict[int, int]] = None
        self._node_of_comp: Optional[List[int]] = None

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
        # Preorder visits a contracted node's first vertex after its
        # contracted parent's first vertex, so depth[a] is final by the
        # time b hangs below it — one pass yields parents and depths.
        for j in range(1, len(ids)):
            a = cid[tree_parent[j]]
            b = cid[j]
            if a != b and not seen[b]:
                parent[b] = a
                depth[b] = depth[a] + 1
                seen[b] = True
        # Built from a traversal of wt, a tree by construction — skip
        # the O(m) connectivity validation (one 𝒯_β per recursion node).
        self.index = TreeIndex(Tree(parent, validate=False), depth=depth)
        self.depth = self.index.depth

    @property
    def node_of_cut(self) -> Dict[int, int]:
        if self._node_of_cut is None:
            self._node_of_cut = {c: self.p + t for t, c in enumerate(self.cuts)}
        return self._node_of_cut

    @property
    def cut_of_node(self) -> Dict[int, int]:
        if self._cut_of_node is None:
            self._cut_of_node = {self.p + t: c for t, c in enumerate(self.cuts)}
        return self._cut_of_node

    @property
    def node_of_comp(self) -> List[int]:
        if self._node_of_comp is None:
            self._node_of_comp = list(range(self.p))
        return self._node_of_comp

    def is_cut_node(self, node: int) -> bool:
        return node in self.cut_of_node


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
    edge set (pairs of vertex ids with tree-metric weights).
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
        self._is_root_navigator = _edges is None

        self._phi_nodes: List[_PhiNode] = []
        self.home: Dict[int, int] = {}
        # Flat-array query engine, built lazily on first find_path.
        self._qpack = None

        worktree = _worktree if _worktree is not None else PackedTree.from_tree(tree)
        # One span per root navigator only: sub-navigators are part of the
        # same build and would bloat the trace with one span per recursion.
        span = (
            trace("treenav.build", n=tree.n, k=k, required=len(self.required))
            if self._is_root_navigator
            else nullcontext()
        )
        with span:
            self._preprocess(worktree, set(self.required))
            self._build_phi_index()
            if self._is_root_navigator:
                self._fill_edge_weights()

    # ------------------------------------------------------------------
    # Preprocessing (Algorithm 1)

    def _new_phi_node(self) -> _PhiNode:
        node = _PhiNode(len(self._phi_nodes))
        self._phi_nodes.append(node)
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

    def _preprocess(self, wt: PackedTree, req: Set[int]) -> int:
        """Recursive construction; returns the id of this call's Φ node."""
        n = len(req)
        if n <= self.k + 1:
            # The base case connects the required vertices directly and
            # never looks at the tree, so the Steiner pruning would be
            # pure waste here — and the vast majority of recursion calls
            # land in this branch.
            return self._handle_base_case(req)
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
        beta = self._new_phi_node()
        beta.cut_vertices = cuts
        for c in cuts:
            self.home[c] = beta.id

        # E': interconnect the cut vertices.
        if self.decrement == 2 and self.k == 3:
            for i, a in enumerate(cuts):
                for b in cuts[i + 1 :]:
                    self._add_edge(a, b)
        elif self.k >= 3:
            beta.sub_navigator = TreeNavigator(
                self.tree,
                max(2, self.k - self.decrement),
                required=cuts,
                decrement=self.decrement,
                _worktree=wt,
                _metric=self.metric,
                _edges=self.edges,
            )

        # E'': each cut vertex to the required vertices it borders.
        comps_ids, comps_parent, borders, comp_of = split_packed(wt, cut_positions)
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
        phi_nodes = self._phi_nodes
        for i, creq in enumerate(comp_required):
            if not creq:
                continue
            if len(creq) <= base_bound:
                child_id = self._handle_base_case(creq)
            else:
                child_id = self._preprocess(
                    PackedTree(comps_ids[i], comps_parent[i]), set(creq)
                )
            phi_nodes[child_id].parent = beta.id
            beta.child_component[child_id] = i

        if self.k >= 3:
            beta.contracted = _ContractedTree(
                wt, cut_positions, comp_of, len(comps_ids)
            )
        return beta.id

    def _handle_base_case(self, req: Sequence[int]) -> int:
        if OBS.enabled:
            _C_BASE_CASES.inc()
        leaf = self._new_phi_node()
        leaf.is_leaf = True
        if len(req) == 1:
            # Singleton components are common and need neither edges nor
            # the sort below.
            (u,) = req
            leaf.cut_vertices = [u]
            self.home[u] = leaf.id
            return leaf.id
        ordered = sorted(req)
        leaf.cut_vertices = ordered
        edges = self.edges
        for i, a in enumerate(ordered):
            # ordered is sorted, so a < b and the key needs no swap
            # (_add_edge inlined — the recursion bottoms out here
            # hundreds of thousands of times per cover).
            for b in ordered[i + 1 :]:
                if (a, b) not in edges:
                    edges[(a, b)] = -1.0
        # The base-case subgraph is the clique on ``ordered``: every
        # query between two of its vertices is the direct edge.
        home = self.home
        for u in ordered:
            home[u] = leaf.id
        return leaf.id

    def _build_phi_index(self) -> None:
        parents = [node.parent for node in self._phi_nodes]
        # The recursion may create several parentless nodes only when the
        # whole call was a single base case; Φ always has one root here
        # because _preprocess links every child it spawns.
        self._phi = TreeIndex(Tree(parents, validate=False))
        for node, depth in zip(self._phi_nodes, self._phi.depth):
            node.level = depth

    def __getstate__(self):
        # The packed query engine is derived (and holds references into
        # sub-navigators); rebuild it lazily on the receiving side.
        state = dict(self.__dict__)
        state["_qpack"] = None
        return state

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
        return max(self._phi.depth) if self._phi_nodes else 0

    @property
    def phi_nodes(self) -> List[_PhiNode]:
        """The augmented recursion tree's nodes (read-only use)."""
        return self._phi_nodes

    @property
    def phi_index(self) -> TreeIndex:
        """LCA/level-ancestor index over the recursion tree Φ."""
        return self._phi

    # ------------------------------------------------------------------
    # Query (Algorithm 2)

    def query_pack(self):
        """The flat-array query engine for this navigator (lazy).

        Built once on first use (a :class:`MetricNavigator` asks for
        every tree's pack when it is built); all ``find_path`` calls
        run on plain positional arrays with no per-query index builds.
        See :mod:`repro.core.packed_query`.
        """
        pack = self._qpack
        if pack is None:
            from .packed_query import QueryPack

            pack = self._qpack = QueryPack(self)
        return pack

    def find_path(self, u: int, v: int) -> List[int]:
        """A T-monotone 1-spanner path from ``u`` to ``v`` with <= k hops.

        Both endpoints must be required vertices.  Runs in O(k) time on
        the packed query engine; output and observability counters are
        bit-identical to :meth:`find_path_reference` (the dict-backed
        Algorithm 2 kept as the differential-test reference).
        """
        pack = self._qpack
        if pack is None:
            pack = self.query_pack()
        return pack.find_path(u, v)

    def find_path_reference(self, u: int, v: int) -> List[int]:
        """Dict-backed Algorithm 2 — the differential-test reference.

        Byte-for-byte the pre-packed implementation; kept so tests can
        assert path-for-path identity against :meth:`find_path`.
        """
        if u not in self.home or v not in self.home:
            raise KeyError("find_path endpoints must be required vertices")
        obs = OBS.enabled
        if obs:
            _C_QUERIES.inc()
        if u == v:
            if obs:
                _C_NODES.inc(1)
            return [u]
        hu = self._phi_nodes[self.home[u]]
        hv = self._phi_nodes[self.home[v]]
        if hu.id == hv.id and hu.is_leaf:
            # Line 3 of Algorithm 2 on the base-case clique: one hop.
            if obs:
                _C_NODES.inc(2)
            return [u, v]
        beta = self._phi_nodes[self._phi.lca(hu.id, hv.id)]
        if self.k == 2:
            w = beta.cut_vertices[0]
            if obs:
                _C_NODES.inc(3)
            return dedup_path([u, w, v])

        contracted = beta.contracted
        u_node = self._locate_contracted(u, beta)
        v_node = self._locate_contracted(v, beta)
        c = contracted.index.lca(u_node, v_node)
        x_node = self._find_cut(u, u_node, v_node, beta, c)
        y_node = self._find_cut(v, v_node, u_node, beta, c)
        x = contracted.cut_of_node[x_node]
        y = contracted.cut_of_node[y_node]
        if beta.sub_navigator is None:
            # k = 3 with the cut-vertex clique: one direct hop x -> y.
            if obs:
                _C_NODES.inc(4)
            return dedup_path([u, x, y, v])
        # The interconnection recursion counts its own levels; this level
        # contributes the two endpoints it wraps around the middle.
        middle = beta.sub_navigator.find_path_reference(x, y)
        if obs:
            _C_NODES.inc(2)
        return dedup_path([u] + middle + [v])

    def _locate_contracted(self, u: int, beta: _PhiNode) -> int:
        """The vertex of 𝒯_β standing for ``u`` (``LocateContracted``)."""
        home_id = self.home[u]
        if home_id == beta.id:
            return beta.contracted.node_of_cut[u]
        child = self._phi.ancestor_at_depth(home_id, beta.level + 1)
        comp = beta.child_component[child]
        return beta.contracted.node_of_comp[comp]

    def _find_cut(self, u: int, u_node: int, v_node: int, beta: _PhiNode, c: int) -> int:
        """First cut vertex on the 𝒯_β path from ``u_node`` to ``v_node``."""
        contracted = beta.contracted
        if self.home[u] == beta.id:
            return u_node
        if u_node == c:
            return contracted.index.ancestor_at_depth(
                v_node, contracted.depth[u_node] + 1
            )
        return contracted.index.ancestor_at_depth(u_node, contracted.depth[u_node] - 1)

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
