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

from typing import Dict, List, Optional, Tuple

from ..core.navigation import TreeNavigator
from ..graphs.tree import Tree
from ..treecover.base import CoverTree
from .labels import HeavyPathLabeling, label_bits, lca_key
from .ports import DELIVER, Network

__all__ = ["TreeRoutingScheme", "tree_protocol", "header_bits", "SELF"]

#: Port sentinel: the cut vertex's representative is this node itself.
SELF = -2


class TreeRoutingScheme:
    """Labels + tables for 2-hop routing over one (cover) tree.

    Build in two phases: the constructor derives the overlay edges; once
    the global :class:`Network` exists (its ports are adversarial and
    shared across trees), :meth:`finalize` fills in port numbers.
    """

    def __init__(self, cover_tree: CoverTree):
        self.cover_tree = cover_tree
        tree = cover_tree.tree
        self.points = list(range(len(cover_tree.vertex_of_point)))
        self.navigator = TreeNavigator(tree, 2, required=cover_tree.vertex_of_point)
        pack = self.navigator.pack
        phi_leaf = pack.phi_leaf
        self.phi_labeling = HeavyPathLabeling(Tree(pack.phi_parent, validate=False))
        self.rep = cover_tree.rep_point

        # Per point: the Φ node chain from its home up to the root, with
        # each internal node's cut vertex mapped to its representative.
        phi_parent = pack.phi_parent
        phi_cuts = pack.phi_cuts
        self._home: Dict[int, int] = {}
        self._ancestors: Dict[int, List[Tuple[Tuple[int, int], int]]] = {}
        self._base_neighbors: Dict[int, List[int]] = {}
        for p in self.points:
            x = cover_tree.vertex_of_point[p]
            home_id = pack.home[x]
            self._home[p] = home_id
            chain: List[Tuple[Tuple[int, int], int]] = []
            beta = home_id
            while beta != -1:
                if not phi_leaf[beta]:
                    cut_rep = self.rep[phi_cuts[beta][0]]
                    chain.append((self.phi_labeling.key(beta), cut_rep))
                beta = phi_parent[beta]
            self._ancestors[p] = chain
            if phi_leaf[home_id]:
                members = [
                    self.rep[x2] for x2 in phi_cuts[home_id] if self.rep[x2] != p
                ]
                self._base_neighbors[p] = members

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
        for p in self.points:
            phi_label = self.phi_labeling.label(self._home[p])
            h_in: Dict[Tuple[int, int], int] = {}
            h_out: Dict[Tuple[int, int], int] = {}
            for key, cut_rep in self._ancestors[p]:
                if cut_rep == p:
                    h_in[key] = SELF
                    h_out[key] = SELF
                else:
                    h_in[key] = network.port(cut_rep, p)
                    h_out[key] = network.port(p, cut_rep)
            base: Dict[int, int] = {}
            for q in self._base_neighbors.get(p, []):
                base[q] = network.port(p, q)
            home_is_internal = not self.navigator.pack.phi_leaf[self._home[p]]
            self.labels[p] = {
                "id": p,
                "phi": phi_label,
                "home_key": self.phi_labeling.key(self._home[p]),
                "home_internal": home_is_internal,
                "h_in": h_in,
            }
            self.tables[p] = {
                "id": p,
                "phi": phi_label,
                "home_key": self.phi_labeling.key(self._home[p]),
                "home_internal": home_is_internal,
                "h_out": h_out,
                "base": base,
            }

    # ------------------------------------------------------------------
    # Bit accounting (Theorem 5.1: O(log^2 n) labels and tables).

    def label_size_bits(self, p: int, n: Optional[int] = None) -> int:
        n = n if n is not None else len(self.points)
        id_bits = max(1, (n - 1).bit_length())
        label = self.labels[p]
        bits = id_bits + 2 * id_bits + 1  # id, home key, internal flag
        bits += label_bits(label["phi"], n, float_bits=0)
        bits += len(label["h_in"]) * (2 * id_bits + id_bits)
        return bits

    def table_size_bits(self, p: int, n: Optional[int] = None) -> int:
        n = n if n is not None else len(self.points)
        id_bits = max(1, (n - 1).bit_length())
        table = self.tables[p]
        bits = id_bits + 2 * id_bits + 1
        bits += label_bits(table["phi"], n, float_bits=0)
        bits += len(table["h_out"]) * (2 * id_bits + id_bits)
        bits += len(table["base"]) * (2 * id_bits)
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


def header_bits(header, n: int = 1 << 16) -> int:
    """Header size: one tag bit plus at most one port number."""
    id_bits = max(1, (n - 1).bit_length())
    if header is None:
        return 0
    if header[0] == "deliver":
        return 1
    return 1 + id_bits


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
