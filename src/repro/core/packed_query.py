"""The navigation structure 𝒟_T as flat arrays, and its ``FindPath``.

:class:`QueryPack` is the only in-memory form of one
:class:`~repro.core.navigation.TreeNavigator`'s query state: the
augmented recursion tree Φ, the contracted trees 𝒯_β and the dense
home/rank tables, as plain positional arrays.  The navigator's build
(Algorithm 1) appends one entry per Φ node as it recurses; the query
(Algorithm 2) answers ``find_path`` by iterative pointer climbing on
them:

* Φ depths are O(k) (Observation 3.1) and contracted-tree LCA /
  level-ancestor hops are O(1) amortized per query level, so naive
  parent climbing beats building any index;
* the recursion of Algorithm 2 (budget k → k−2) becomes a loop carrying
  a prefix/suffix pair, so a query allocates only its output path.

``tests/test_packed_query.py`` checks every path against the frozen
seed navigator (``repro._seed_baseline.SeedTreeNavigator``) and pins
the observability counter deltas; ``tests/test_golden_bytes.py`` pins
the arrays byte for byte.

The same class runs in *mapped* mode: :func:`pack_suite_arrays`
concatenates every pack of every tree of a cover into flat numpy
arenas (for the checkpoint raw-array section) and
:func:`suite_from_arrays` reconstructs read-only packs whose fields are
``memoryview``s of the checkpoint's file mapping — N serving
processes then share one copy of the query state.  See
docs/CHECKPOINTS.md.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..observability import OBS

__all__ = [
    "QueryPack",
    "dedup_path",
    "pack_suite_arrays",
    "publish_tally",
    "suite_from_arrays",
]

# Every find_path level (the interconnection descent included) bumps
# queries, and nodes_touched totals the path vertices each level
# contributes — the empirical stand-in for the O(k) time bound of
# Theorem 1.1 (tests/test_asymptotics.py asserts it grows with k, not n).
_C_QUERIES = OBS.registry.counter("treenav.queries")
_C_NODES = OBS.registry.counter("treenav.nodes_touched")


def publish_tally(tally: Sequence[int]) -> None:
    """Add a ``[queries, nodes_touched]`` tally of
    :meth:`QueryPack.find_path` calls to the ``treenav.*`` counters."""
    if tally[0]:
        _C_QUERIES.inc(tally[0])
        _C_NODES.inc(tally[1])


def dedup_path(path: Sequence[int]) -> List[int]:
    """Remove consecutive duplicates (the braces notation of the paper)."""
    out: List[int] = []
    for v in path:
        if not out or out[-1] != v:
            out.append(v)
    return out


class QueryPack:
    """Flat-array query state for one :class:`TreeNavigator`.

    Per Φ node ``i``: ``phi_parent``/``phi_depth``, ``phi_leaf``,
    ``phi_cuts`` (the cut vertices of an internal node, the required
    vertices of a leaf), ``phi_comp`` (the index of the parent's
    component the node recurses on), ``phi_sub`` (the pack of the
    sub-navigator interconnecting the cuts, if E' recurses) and the
    contracted tree 𝒯_β as ``ct_parent``/``ct_depth`` with ``ct_p``
    component representatives (k >= 3 internal nodes).  ``home`` and
    ``rank`` are dense over the host tree's vertices: ``-1`` marks a
    vertex with no home.

    ``QueryPack(k, n)`` is an empty in-memory pack whose fields are
    python lists the navigator's build appends to;
    :func:`suite_from_arrays` builds mapped packs whose fields are
    ``memoryview``s of the checkpoint arrays.
    """

    __slots__ = (
        "k",
        "home",
        "rank",
        "n",
        "phi_parent",
        "phi_depth",
        "phi_leaf",
        "phi_cuts",
        "phi_comp",
        "phi_sub",
        "ct_parent",
        "ct_depth",
        "ct_p",
    )

    def __init__(self, k: int, n: int):
        self.k = k
        self.n = n
        self.home = [-1] * n
        self.rank = [0] * n
        self.phi_parent: List[int] = []
        self.phi_depth: List[int] = []
        self.phi_leaf: List[bool] = []
        self.phi_cuts: List[List[int]] = []
        self.phi_comp: List[int] = []
        self.phi_sub: List[Optional["QueryPack"]] = []
        self.ct_parent: List[Optional[List[int]]] = []
        self.ct_depth: List[Optional[List[int]]] = []
        self.ct_p: List[int] = []

    # ------------------------------------------------------------------
    # Query

    def _home_of(self, u: int, v: int) -> Tuple[int, int]:
        home = self.home
        n = self.n
        hu = int(home[u]) if 0 <= u < n else -1
        hv = int(home[v]) if 0 <= v < n else -1
        if hu < 0 or hv < 0:
            raise KeyError("find_path endpoints must be required vertices")
        return hu, hv

    def find_path(
        self, u: int, v: int, tally: Optional[List[int]] = None
    ) -> List[int]:
        """A T-monotone 1-spanner path with <= k hops (Algorithm 2).

        The ``treenav.*`` counts of the query go to ``tally``, a
        ``[queries, nodes_touched]`` list its caller publishes once per
        batch (:func:`publish_tally`), or are published here.
        """
        return dedup_path(self.raw_path(u, v, tally))

    def raw_path(
        self, u: int, v: int, tally: Optional[List[int]] = None
    ) -> List[int]:
        """:meth:`find_path` before consecutive duplicates are removed.

        A caller that maps the vertices to other ids (cover-tree
        representatives) dedups once, after the mapping: the mapping
        keeps every consecutive duplicate, so the result is the same.
        The recursive interconnection descent runs as a loop.
        """
        pack = self
        prefix: List[int] = []
        suffix: List[int] = []
        queries = nodes = 0
        try:
            while True:
                hu, hv = pack._home_of(u, v)
                queries += 1
                if u == v:
                    nodes += 1
                    core = [u]
                    break
                if hu == hv and pack.phi_leaf[hu]:
                    # The base case is the clique on the leaf's vertices.
                    nodes += 2
                    core = [u, v]
                    break
                pp = pack.phi_parent
                pd = pack.phi_depth
                a, b = hu, hv
                da = pd[a]
                db = pd[b]
                while da > db:
                    a = pp[a]
                    da -= 1
                while db > da:
                    b = pp[b]
                    db -= 1
                while a != b:
                    a = pp[a]
                    b = pp[b]
                    da -= 1
                beta = int(a)
                if pack.k == 2:
                    nodes += 3
                    core = [u, int(pack.phi_cuts[beta][0]), v]
                    break
                ctp = pack.ct_parent[beta]
                ctd = pack.ct_depth[beta]
                p = pack.ct_p[beta]
                u_node = pack._locate(u, hu, beta, da, p, pp, pd)
                v_node = pack._locate(v, hv, beta, da, p, pp, pd)
                # LCA in 𝒯_β by the same naive climb (depths are O(k)-ish
                # along any query's route; no index build).
                x = u_node
                y = v_node
                dx = ctd[x]
                dy = ctd[y]
                while dx > dy:
                    x = ctp[x]
                    dx -= 1
                while dy > dx:
                    y = ctp[y]
                    dy -= 1
                while x != y:
                    x = ctp[x]
                    y = ctp[y]
                c = x
                x_node = _find_cut(hu, beta, u_node, v_node, c, ctp, ctd)
                y_node = _find_cut(hv, beta, v_node, u_node, c, ctp, ctd)
                cuts = pack.phi_cuts[beta]
                xv = int(cuts[x_node - p])
                yv = int(cuts[y_node - p])
                sub = pack.phi_sub[beta]
                if sub is None:
                    # k = 3 with the cut-vertex clique: one direct hop.
                    nodes += 4
                    core = [u, xv, yv, v]
                    break
                nodes += 2
                prefix.append(u)
                suffix.append(v)
                u, v = xv, yv
                pack = sub
        finally:
            if tally is not None:
                tally[0] += queries
                tally[1] += nodes
            elif OBS.enabled:
                publish_tally((queries, nodes))
        if prefix:
            prefix.extend(core)
            suffix.reverse()
            prefix.extend(suffix)
            return prefix
        return core

    def _locate(
        self, w: int, hw: int, beta: int, beta_depth: int, p: int, pp, pd
    ) -> int:
        """``LocateContracted`` on arrays: the 𝒯_β vertex standing for w."""
        if hw == beta:
            return p + int(self.rank[w])
        child = hw
        d = pd[child]
        target = beta_depth + 1
        while d > target:
            child = pp[child]
            d -= 1
        return int(self.phi_comp[child])  # node_of_comp is the identity


def _find_cut(hw: int, beta: int, w_node: int, o_node: int, c: int, ctp, ctd) -> int:
    """``FindCut`` on arrays: first cut on the 𝒯_β path w_node → o_node."""
    if hw == beta:
        return w_node
    if w_node == c:
        target = ctd[w_node] + 1
        x = o_node
        while ctd[x] > target:
            x = ctp[x]
        return int(x)
    return int(ctp[w_node])


# ----------------------------------------------------------------------
# Suite serialization: every pack of every tree -> flat numpy arenas
# (the payload of the checkpoint raw-array section) and back.

def _walk_packs(pack: QueryPack, out: List[QueryPack]) -> None:
    out.append(pack)
    for sub in pack.phi_sub:
        if sub is not None:
            _walk_packs(sub, out)


def pack_suite_arrays(root_packs: Sequence[QueryPack]) -> Dict[str, np.ndarray]:
    """Concatenate the :class:`QueryPack` forest under per-tree root packs.

    Returns a name → array dict ready for the checkpoint raw-array
    section.  Home/rank tables are stored dense per pack (int32 of the
    host tree's vertex count) — exact for any k, and linear in total
    vertex count for the default k=3 where each tree has one pack.
    """
    packs: List[QueryPack] = []
    tree_root = []
    for root in root_packs:
        tree_root.append(len(packs))
        _walk_packs(root, packs)
    pack_ids = {id(pack): index for index, pack in enumerate(packs)}

    pk_k = []
    home_off = [0]
    phi_off = [0]
    cut_off = [0]
    ct_off = [0]
    homes: List[np.ndarray] = []
    ranks: List[np.ndarray] = []
    phi_parent: List[int] = []
    phi_depth: List[int] = []
    phi_leaf: List[int] = []
    phi_comp: List[int] = []
    phi_sub: List[int] = []
    phi_ct: List[int] = []
    cut_flat: List[int] = []
    ct_parent: List[int] = []
    ct_depth: List[int] = []
    ct_p: List[int] = []
    for pack in packs:
        pk_k.append(pack.k)
        homes.append(np.asarray(pack.home, dtype=np.int32))
        ranks.append(np.asarray(pack.rank, dtype=np.int32))
        home_off.append(home_off[-1] + pack.n)
        m = len(pack.phi_parent)
        phi_parent.extend(int(x) for x in pack.phi_parent)
        phi_depth.extend(int(x) for x in pack.phi_depth)
        phi_leaf.extend(1 if leaf else 0 for leaf in pack.phi_leaf)
        phi_comp.extend(int(x) for x in pack.phi_comp)
        for i in range(m):
            sub = pack.phi_sub[i]
            phi_sub.append(pack_ids[id(sub)] if sub is not None else -1)
            if pack.ct_parent[i] is not None:
                phi_ct.append(len(ct_p))
                ct_p.append(pack.ct_p[i])
                ct_parent.extend(int(x) for x in pack.ct_parent[i])
                ct_depth.extend(int(x) for x in pack.ct_depth[i])
                ct_off.append(len(ct_parent))
                # Internal nodes with a contracted tree keep their cuts.
                cut_flat.extend(int(x) for x in pack.phi_cuts[i])
            else:
                phi_ct.append(-1)
                if not pack.phi_leaf[i]:
                    # k = 2 internal node: cuts still feed the query.
                    cut_flat.extend(int(x) for x in pack.phi_cuts[i])
            cut_off.append(len(cut_flat))
        phi_off.append(phi_off[-1] + m)

    return {
        "pk/tree_root": np.asarray(tree_root, dtype=np.int32),
        "pk/k": np.asarray(pk_k, dtype=np.int32),
        "pk/home_off": np.asarray(home_off, dtype=np.int64),
        "pk/home": (
            np.concatenate(homes) if homes else np.zeros(0, dtype=np.int32)
        ),
        "pk/rank": (
            np.concatenate(ranks) if ranks else np.zeros(0, dtype=np.int32)
        ),
        "pk/phi_off": np.asarray(phi_off, dtype=np.int64),
        "pk/phi_parent": np.asarray(phi_parent, dtype=np.int32),
        "pk/phi_depth": np.asarray(phi_depth, dtype=np.int32),
        "pk/phi_leaf": np.asarray(phi_leaf, dtype=np.uint8),
        "pk/phi_comp": np.asarray(phi_comp, dtype=np.int32),
        "pk/phi_sub": np.asarray(phi_sub, dtype=np.int32),
        "pk/phi_ct": np.asarray(phi_ct, dtype=np.int32),
        "pk/cut_off": np.asarray(cut_off, dtype=np.int64),
        "pk/cut": np.asarray(cut_flat, dtype=np.int32),
        "pk/ct_off": np.asarray(ct_off, dtype=np.int64),
        "pk/ct_parent": np.asarray(ct_parent, dtype=np.int32),
        "pk/ct_depth": np.asarray(ct_depth, dtype=np.int32),
        "pk/ct_p": np.asarray(ct_p, dtype=np.int32),
    }


def suite_from_arrays(arrays: Dict[str, np.ndarray]) -> List[QueryPack]:
    """Rebuild per-tree root packs from :func:`pack_suite_arrays` output.

    Fields are ``memoryview``s of the given arrays (zero-copy: a view
    of a file mapping keeps the data on the mapping).  Indexing one
    reads a Python int, where an ``np.ndarray`` builds a numpy scalar
    whose compares are slow: three reads and a compare of Algorithm 2's
    pointer climbing take ≈114 ns instead of ≈200 ns.  Returns
    ``root_packs`` — one :class:`QueryPack` per tree, in tree order.
    """
    home_off = arrays["pk/home_off"].tolist()
    phi_off = arrays["pk/phi_off"].tolist()
    cut_off = arrays["pk/cut_off"].tolist()
    ct_off = arrays["pk/ct_off"].tolist()
    pk_k = arrays["pk/k"].tolist()
    home = memoryview(arrays["pk/home"])
    rank = memoryview(arrays["pk/rank"])
    phi_parent = memoryview(arrays["pk/phi_parent"])
    phi_depth = memoryview(arrays["pk/phi_depth"])
    phi_leaf = memoryview(arrays["pk/phi_leaf"])
    phi_comp = memoryview(arrays["pk/phi_comp"])
    cut = memoryview(arrays["pk/cut"])
    ct_parent = memoryview(arrays["pk/ct_parent"])
    ct_depth = memoryview(arrays["pk/ct_depth"])
    phi_sub_arr = arrays["pk/phi_sub"].tolist()
    phi_ct_arr = arrays["pk/phi_ct"].tolist()
    ct_p_arr = arrays["pk/ct_p"].tolist()
    packs = [object.__new__(QueryPack) for _ in pk_k]
    for index, pack in enumerate(packs):
        h0, h1 = home_off[index], home_off[index + 1]
        f0, f1 = phi_off[index], phi_off[index + 1]
        pack.k = pk_k[index]
        pack.home = home[h0:h1]
        pack.rank = rank[h0:h1]
        pack.n = h1 - h0
        pack.phi_parent = phi_parent[f0:f1]
        pack.phi_depth = phi_depth[f0:f1]
        pack.phi_leaf = phi_leaf[f0:f1]
        pack.phi_comp = phi_comp[f0:f1]
        m = f1 - f0
        cuts: List[memoryview] = [None] * m
        subs: List[Optional[QueryPack]] = [None] * m
        ctp: List[Optional[memoryview]] = [None] * m
        ctd: List[Optional[memoryview]] = [None] * m
        ct_p = [0] * m
        for i in range(m):
            g = f0 + i
            cuts[i] = cut[cut_off[g] : cut_off[g + 1]]
            sub_id = phi_sub_arr[g]
            if sub_id >= 0:
                subs[i] = packs[sub_id]
            slot = phi_ct_arr[g]
            if slot >= 0:
                c0, c1 = ct_off[slot], ct_off[slot + 1]
                ctp[i] = ct_parent[c0:c1]
                ctd[i] = ct_depth[c0:c1]
                ct_p[i] = ct_p_arr[slot]
        pack.phi_cuts = cuts
        pack.phi_sub = subs
        pack.ct_parent = ctp
        pack.ct_depth = ctd
        pack.ct_p = ct_p
    return [packs[i] for i in arrays["pk/tree_root"].tolist()]
