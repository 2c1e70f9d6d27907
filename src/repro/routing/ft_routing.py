"""Fault-tolerant 2-hop routing for doubling metrics (Theorem 5.2).

The non-FT scheme stores, per recursion-tree ancestor β, one port to β's
cut vertex.  The FT scheme stores the ports of all ``f + 1`` replicas
``R(cut(β))`` (ordered by id, as in Section 5.2): a source scans the
replica list for a non-faulty intermediate in O(f) time, and the biclique
edges of the FT spanner (Theorem 4.2) guarantee the two hops exist.
Labels and tables grow by the factor ``f`` the theorem predicts.

Fault knowledge follows the paper's model: nodes know the current faulty
set (the simulator passes it to the decision function); packets still
carry only ports in their headers.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..core.navigation import TreeNavigator
from ..errors import FaultBudgetExceeded, InvariantViolation, check
from ..graphs.graph import Graph
from ..graphs.tree import Tree
from ..metrics.base import Metric
from ..routing.labels import HeavyPathLabeling, label_bits, label_distance, lca_key
from ..routing.ports import DELIVER, Network, RouteResult
from ..treecover.base import TreeCover
from ..treecover.dumbbell import robust_tree_cover

__all__ = ["FaultTolerantRoutingScheme", "ft_protocol_for"]


def ft_protocol_for(faults: Set[int]):
    """The Theorem 5.2 decision function, closed over the faulty set.

    Module-level so compiled netsim nodes can carry it without a
    reference back to the scheme: the only non-local knowledge the
    returned closure holds is ``faults`` — which is exactly the paper's
    model (nodes know the current faulty set).  Everything else comes
    from the per-call ``(table, header, label)`` arguments.
    """

    def protocol(u: int, table: dict, header, label: dict):
        if header is not None:
            if header[0] == "deliver":
                return DELIVER, None
            return header[1], ("deliver",)
        v = label["id"]
        if v == u:
            return DELIVER, None
        # Tree choice by exact per-tree distances (O(ζ) scan).
        best = float("inf")
        index = 0
        for i, own in enumerate(table["dist"]):
            d = label_distance(own, label["dist"][i])
            if d < best:
                best = d
                index = i
        tree_table = table["trees"][index]
        tree_label = label["trees"][index]
        base = tree_table["base"]
        if v in base:
            return base[v], ("deliver",)
        lam = lca_key(tree_table["phi"], tree_label["phi"])
        out_ports = dict(tree_table["h_out"].get(lam, []))
        in_ports = dict(tree_label["h_in"][lam])
        for w in sorted(in_ports):
            if w in faults:
                continue
            if w == u:
                return in_ports[w], ("deliver",)
            if w == v:
                return out_ports[w], ("deliver",)
            if w in out_ports:
                return out_ports[w], ("forward", in_ports[w])
        raise InvariantViolation(
            f"no live replica for lambda={lam}: all {len(in_ports)} "
            "replicas of the cut vertex are faulty"
        )

    return protocol


class _FtTreeData:
    """Per-tree preprocessing: navigator, replica ports, labels."""

    def __init__(self, cover_tree, f: int):
        self.cover_tree = cover_tree
        self.navigator = TreeNavigator(
            cover_tree.tree, 2, required=cover_tree.vertex_of_point
        )
        self.pack = self.navigator.pack
        self.phi_labeling = HeavyPathLabeling(
            Tree(self.pack.phi_parent, validate=False)
        )
        below = cover_tree.descendant_points()
        #: replicas[v] = R(v): up to f+1 descendant points, sorted by id.
        self.replicas = [sorted(pool[: f + 1]) for pool in below]

    def home_chain(self, p: int) -> List[Tuple[Tuple[int, int], List[int]]]:
        """(Φ-key, replica list of the cut vertex) for each internal
        ancestor of p's home node, including the home itself."""
        pack = self.pack
        beta = self.home_of(p)
        chain = []
        while beta != -1:
            if not pack.phi_leaf[beta]:
                cut = pack.phi_cuts[beta][0]
                chain.append((self.phi_labeling.key(beta), self.replicas[cut]))
            beta = pack.phi_parent[beta]
        return chain

    def home_of(self, p: int) -> int:
        """The Φ node holding point ``p``'s host vertex."""
        return self.pack.home[self.cover_tree.vertex_of_point[p]]

    def base_members(self, p: int) -> List[int]:
        home = self.home_of(p)
        if not self.pack.phi_leaf[home]:
            return []
        rep = self.cover_tree.rep_point
        return [rep[y] for y in self.pack.phi_cuts[home] if rep[y] != p]


class FaultTolerantRoutingScheme:
    """f-FT, 2-hop, (1 + O(ε))-stretch routing over a doubling metric."""

    def __init__(
        self,
        metric: Metric,
        f: int,
        eps: float = 0.45,
        cover: Optional[TreeCover] = None,
        seed: int = 0,
        validate: Optional[bool] = None,
    ):
        if validate is None:
            from ..resilience.validation import validation_enabled

            validate = validation_enabled()
        if validate:
            from ..resilience.validation import validate_metric

            validate_metric(metric)
        self.metric = metric
        self.f = f
        self.cover = cover if cover is not None else robust_tree_cover(metric, eps)
        self.trees = [_FtTreeData(ct, f) for ct in self.cover.trees]

        # Overlay: the FT spanner's biclique edges, union over trees.
        overlay = Graph(metric.n)
        for data in self.trees:
            reps = data.replicas
            for (a, b) in data.navigator.edges:
                for p in reps[a]:
                    for q in reps[b]:
                        if p != q:
                            overlay.add_edge(p, q, metric.distance(p, q))
        self.network = Network(overlay, seed=seed)
        self.overlay = overlay

        self._distance_labelings = [
            HeavyPathLabeling(ct.tree) for ct in self.cover.trees
        ]

        self.labels: Dict[int, dict] = {}
        self.tables: Dict[int, dict] = {}
        for p in range(metric.n):
            per_tree_labels = []
            per_tree_tables = []
            for data in self.trees:
                chain = data.home_chain(p)
                h_in = {}
                h_out = {}
                for key, replicas in chain:
                    h_in[key] = [
                        (w, None if w == p else self.network.port(w, p))
                        for w in replicas
                    ]
                    h_out[key] = [
                        (w, None if w == p else self.network.port(p, w))
                        for w in replicas
                    ]
                phi_label = data.phi_labeling.label(data.home_of(p))
                base = {
                    q: self.network.port(p, q) for q in data.base_members(p)
                }
                per_tree_labels.append({"phi": phi_label, "h_in": h_in})
                per_tree_tables.append(
                    {"phi": phi_label, "h_out": h_out, "base": base}
                )
            dist = [
                labeling.label(self.cover.trees[i].vertex_of_point[p])
                for i, labeling in enumerate(self._distance_labelings)
            ]
            self.labels[p] = {"id": p, "trees": per_tree_labels, "dist": dist}
            self.tables[p] = {"trees": per_tree_tables, "dist": dist}

    # ------------------------------------------------------------------

    def protocol_for(self, faults: Set[int]):
        """A decision function closed over the current faulty set.

        Delegates to the module-level :func:`ft_protocol_for` (kept as
        a method for backwards compatibility)."""
        return ft_protocol_for(faults)

    def route(
        self,
        u: int,
        v: int,
        faults: Iterable[int] = (),
        enforce_budget: bool = True,
    ) -> RouteResult:
        """Route one packet, avoiding the faulty set.

        With ``enforce_budget`` (the default), ``|F| > f`` raises
        :class:`FaultBudgetExceeded`.  ``enforce_budget=False`` is the
        best-effort mode used by :mod:`repro.resilience.degradation`:
        the packet is launched anyway and may fail with
        :class:`InvariantViolation` if every replica of a needed cut
        vertex is dead.
        """
        faulty = set(faults)
        if u in faulty or v in faulty:
            raise ValueError("endpoints must be non-faulty")
        if enforce_budget and len(faulty) > self.f:
            raise FaultBudgetExceeded(self.f, faulty)
        return self.network.route(
            u, self.protocol_for(faulty), self.labels[v], self.tables, max_hops=8
        )

    def verify_route(
        self, u: int, v: int, faults: Set[int], gamma: float
    ) -> Tuple[int, float]:
        """Route and check delivery, the 2-hop budget, fault avoidance
        and the stretch bound; raises :class:`InvariantViolation` (never
        a ``python -O``-stripped ``assert``) on violation."""
        result = self.route(u, v, faults)
        check(
            result.path[0] == u and result.path[-1] == v,
            f"route {result.path} does not connect ({u}, {v})",
        )
        check(result.hops <= 2, f"{result.path} uses {result.hops} hops")
        check(not (set(result.path) & faults), "route visits a faulty node")
        base = self.metric.distance(u, v)
        stretch = result.weight / base if base > 0 else 1.0
        check(stretch <= gamma + 1e-6, f"stretch {stretch} exceeds {gamma}")
        return result.hops, stretch

    # ------------------------------------------------------------------

    def label_size_bits(self, p: int, float_bits: int = 32) -> int:
        n = self.metric.n
        id_bits = max(1, (n - 1).bit_length())
        bits = id_bits
        label = self.labels[p]
        for tree_label in label["trees"]:
            bits += label_bits(tree_label["phi"], n, float_bits=0)
            for entries in tree_label["h_in"].values():
                bits += 2 * id_bits + len(entries) * 2 * id_bits
        for d in label["dist"]:
            bits += label_bits(d, n, float_bits=float_bits)
        return bits

    def table_size_bits(self, p: int, float_bits: int = 32) -> int:
        n = self.metric.n
        id_bits = max(1, (n - 1).bit_length())
        bits = 0
        table = self.tables[p]
        for tree_table in table["trees"]:
            bits += label_bits(tree_table["phi"], n, float_bits=0)
            for entries in tree_table["h_out"].values():
                bits += 2 * id_bits + len(entries) * 2 * id_bits
            bits += len(tree_table["base"]) * 2 * id_bits
        for d in table["dist"]:
            bits += label_bits(d, n, float_bits=float_bits)
        return bits