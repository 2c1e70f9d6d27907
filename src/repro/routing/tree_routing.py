"""The 2-hop, stretch-1 routing scheme for tree metrics (Theorem 5.1).

The scheme routes on the hop-diameter-2 1-spanner ``G_T`` of
Theorem 1.1.  Each node's label and routing table hold, for every
ancestor β of its home node in the recursion tree Φ, the port of the
edge between the node and β's cut vertex — keyed by β's label-only LCA
key, so the source can locate the relevant cut vertex from the two
labels alone.  Headers carry at most one port number or one node id
(⌈log n⌉ bits); labels and tables are O(log² n) bits.

The implementation is generalized to *cover trees* (trees whose
vertices carry representative metric points): routing then happens
between points, each tree vertex acting through its representative.
``SELF`` markers handle the collapse where a cut vertex's representative
coincides with an endpoint (one hop instead of two).  For a plain tree
metric every vertex represents itself and the scheme is exactly the
paper's.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.navigation import TreeNavigator
from ..graphs.tree import Tree
from ..treecover.base import CoverTree
from .labels import HeavyPathLabeling, id_bits, label_bits, lca_key
from .ports import DELIVER, Network

__all__ = [
    "TreeRoutingState", "TreeRoutingScheme", "tree_protocol", "header_bits",
    "header_bit_counter", "SELF",
]

#: Port sentinel: the cut vertex's representative is this node itself.
SELF = -2


class TreeRoutingState:
    """Theorem 5.1's per-tree routing state, before any port is wired.

    Built once per (cover) tree: the hop-diameter-2 navigator ``G_T``,
    a heavy-path labeling of its recursion tree Φ, and for every point
    ``p``:

    * ``home[p]`` — the Φ node holding p's host vertex, and ``phi[p]``
      its Φ label;
    * ``chain[p]`` — ``(Φ key, cut vertex)`` for each internal Φ
      ancestor of the home, the home itself first;
    * ``base[p]`` — the other points of a leaf home (empty when the
      home is internal).

    Theorem 5.1 (:class:`TreeRoutingScheme`) maps each cut vertex to
    its representative point; Theorem 5.2
    (:class:`~repro.routing.ft_routing.FaultTolerantRoutingScheme`) maps
    it to its replica set R(cut).  Points sharing a home share its
    chain list.
    """

    def __init__(self, cover_tree: CoverTree):
        self.cover_tree = cover_tree
        self.rep = cover_tree.rep_point
        self.points = range(len(cover_tree.vertex_of_point))
        self.navigator = TreeNavigator(
            cover_tree.tree, 2, required=cover_tree.vertex_of_point
        )
        pack = self.navigator.pack
        phi_parent, phi_leaf, phi_cuts = pack.phi_parent, pack.phi_leaf, pack.phi_cuts
        self.phi_labeling = HeavyPathLabeling(Tree(phi_parent, validate=False))
        # Every Φ node's key (its label's last (chain, position)), once.
        keys = list(zip(self.phi_labeling.chain_of, self.phi_labeling.pos_of))
        rep = self.rep

        self.home: List[int] = []
        self.phi: List[tuple] = []
        self.chain: List[List[Tuple[Tuple[int, int], int]]] = []
        self.base: List[List[int]] = []
        chains: Dict[int, List[Tuple[Tuple[int, int], int]]] = {}
        for p, x in enumerate(cover_tree.vertex_of_point):
            home = pack.home[x]
            chain = chains.get(home)
            if chain is None:
                chain = chains[home] = []
                beta = home
                while beta != -1:
                    if not phi_leaf[beta]:
                        chain.append((keys[beta], phi_cuts[beta][0]))
                    beta = phi_parent[beta]
            self.home.append(home)
            self.phi.append(self.phi_labeling.label(home))
            self.chain.append(chain)
            self.base.append(
                [rep[y] for y in phi_cuts[home] if rep[y] != p]
                if phi_leaf[home] else []
            )


class TreeRoutingScheme(TreeRoutingState):
    """Labels + tables for 2-hop routing over one (cover) tree.

    Build in two phases: the constructor derives the overlay edges; once
    the global :class:`Network` exists (its ports are adversarial and
    shared across trees), :meth:`finalize` fills in port numbers, each
    cut vertex acting through its representative point.
    """

    def __init__(self, cover_tree: CoverTree):
        super().__init__(cover_tree)
        self.labels: Dict[int, dict] = {}
        self.tables: Dict[int, dict] = {}

    def overlay_edges(self) -> Dict[Tuple[int, int], int]:
        """The spanner edges mapped to point pairs (the overlay links)."""
        edges: Dict[Tuple[int, int], int] = {}
        for (a, b) in self.navigator.edges:
            pa, pb = self.rep[a], self.rep[b]
            if pa != pb:
                edges[(min(pa, pb), max(pa, pb))] = 1
        return edges

    def finalize(self, network: Network) -> None:
        """Fill labels and tables with the network's (fixed) ports."""
        port = network.port
        rep = self.rep
        phi_leaf = self.navigator.pack.phi_leaf
        for p in self.points:
            phi_label = self.phi[p]
            home_key = self.phi_labeling.key(self.home[p])
            home_internal = not phi_leaf[self.home[p]]
            h_in: Dict[Tuple[int, int], int] = {}
            h_out: Dict[Tuple[int, int], int] = {}
            for key, cut in self.chain[p]:
                cut_rep = rep[cut]
                if cut_rep == p:
                    h_in[key] = SELF
                    h_out[key] = SELF
                else:
                    h_in[key] = port(cut_rep, p)
                    h_out[key] = port(p, cut_rep)
            self.labels[p] = {
                "id": p,
                "phi": phi_label,
                "home_key": home_key,
                "home_internal": home_internal,
                "h_in": h_in,
            }
            self.tables[p] = {
                "id": p,
                "phi": phi_label,
                "home_key": home_key,
                "home_internal": home_internal,
                "h_out": h_out,
                "base": {q: port(p, q) for q in self.base[p]},
            }

    # ------------------------------------------------------------------
    # Bit accounting (Theorem 5.1: O(log^2 n) labels and tables).

    def label_size_bits(self, p: int, n: Optional[int] = None) -> int:
        return self._size_bits(self.labels[p], "h_in", n)

    def table_size_bits(self, p: int, n: Optional[int] = None) -> int:
        return self._size_bits(self.tables[p], "h_out", n)

    def _size_bits(self, entry: dict, ports: str, n: Optional[int]) -> int:
        """Id, home key and internal flag, the Φ label, one (key, port)
        per chain entry, and one (id, port) per base member."""
        n = n if n is not None else len(self.points)
        bits_per_id = id_bits(n)
        bits = 3 * bits_per_id + 1
        bits += label_bits(entry["phi"], n, float_bits=0)
        bits += len(entry[ports]) * 3 * bits_per_id
        bits += len(entry.get("base", ())) * 2 * bits_per_id
        return bits


def tree_protocol(u: int, table: dict, header, destination_label: dict):
    """The routing decision function of Theorem 5.1 (fixed-port model).

    Returns ``(port, header)``; see :class:`repro.routing.ports.Network`.
    Headers: ``("deliver",)`` or ``("forward", port)``.
    """
    if header is not None:
        kind = header[0]
        if kind == "deliver":
            return DELIVER, None
        if kind == "forward":
            return header[1], ("deliver",)
        raise ValueError(f"unknown header {header!r}")

    v = destination_label["id"]
    if v == u:
        return DELIVER, None
    base = table["base"]
    if v in base:
        return base[v], ("deliver",)

    lam = lca_key(table["phi"], destination_label["phi"])
    h_out = table["h_out"]
    h_in = destination_label["h_in"]
    if lam == table["home_key"] and table["home_internal"]:
        # u itself is the cut vertex at the Φ-LCA: one direct hop.
        return h_in[lam], ("deliver",)
    if lam == destination_label["home_key"] and destination_label["home_internal"]:
        # v is the cut vertex: one direct hop from u's side.
        return h_out[lam], ("deliver",)
    out_port = h_out[lam]
    in_port = h_in[lam]
    if out_port == SELF:
        # The cut vertex's representative is u: the edge (u, v) exists.
        return in_port, ("deliver",)
    if in_port == SELF:
        # The cut vertex's representative is v itself.
        return out_port, ("deliver",)
    return out_port, ("forward", in_port)


def header_bit_counter(n: int) -> Callable[[Any], int]:
    """:func:`header_bits` for a network of ``n`` nodes, as the
    one-argument function a simulator charges on every hop; the port
    width ⌈log n⌉ is computed once, not per header."""
    forward = 1 + id_bits(n)

    def bits(header) -> int:
        if header is None:
            return 0
        return 1 if header[0] == "deliver" else forward

    return bits


def header_bits(header, n: int = 1 << 16) -> int:
    """Header size: one tag bit plus at most one port number."""
    return header_bit_counter(n)(header)


def build_tree_network(tree: Tree, seed: int = 0) -> Tuple[TreeRoutingScheme, Network]:
    """Convenience: scheme + network for a plain tree metric.

    Every vertex is its own representative (the exact Theorem 5.1
    setting).
    """
    identity = list(range(tree.n))
    cover_tree = CoverTree(tree, identity, identity)
    scheme = TreeRoutingScheme(cover_tree)
    from ..graphs.graph import Graph

    overlay = Graph(tree.n)
    # With every vertex its own representative the overlay links are
    # the spanner edges, weighed by the navigator's one batched fill
    # (bit-identical to scalar ``metric.distance`` calls).
    weights = scheme.navigator.edges
    for (a, b) in scheme.overlay_edges():
        overlay.add_edge(a, b, weights[(a, b)])
    network = Network(overlay, seed=seed)
    scheme.finalize(network)
    return scheme, network
