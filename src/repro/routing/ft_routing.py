"""Fault-tolerant 2-hop routing for doubling metrics (Theorem 5.2).

The scheme is Theorem 5.1's over every tree of a robust cover, with
each cut vertex standing for its replica set.  The per-tree state is
:class:`~repro.routing.tree_routing.TreeRoutingState`; where the non-FT
scheme stores, per recursion-tree ancestor β, one port to β's cut
vertex, the FT scheme stores the ports of all ``f + 1`` replicas
``R(cut(β))`` (ordered by id, as in Section 5.2): a source scans the
replica list for a non-faulty intermediate in O(f) time, and the biclique
edges of the FT spanner (Theorem 4.2) guarantee the two hops exist.
Labels and tables grow by the factor ``f`` the theorem predicts.

Fault knowledge follows the paper's model: nodes know the current faulty
set (the simulator passes it to the decision function); packets still
carry only ports in their headers.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set, Tuple

from ..errors import FaultBudgetExceeded, InvariantViolation
from ..graphs.graph import Graph
from ..metrics.base import Metric
from ..treecover.base import TreeCover
from ..treecover.dumbbell import robust_tree_cover
from .labels import cover_labelings, id_bits, label_bits, lca_key, pick_tree
from .ports import DELIVER, Network, RouteResult, check_route
from .tree_routing import TreeRoutingState

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
        index = pick_tree(table["dist"], label["dist"])
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
        self.trees = [TreeRoutingState(ct) for ct in self.cover.trees]
        #: replicas[t][v] = R(v) of tree t's vertex v, sorted by id.
        self.replicas = [
            [sorted(pool) for pool in ct.replica_sets(f)] for ct in self.cover.trees
        ]

        # Overlay: the FT spanner's biclique edges, union over trees.
        overlay = Graph(metric.n)
        for state, reps in zip(self.trees, self.replicas):
            for (a, b) in state.navigator.edges:
                for p in reps[a]:
                    for q in reps[b]:
                        if p != q:
                            overlay.add_edge(p, q, metric.distance(p, q))
        self.network = Network(overlay, seed=seed)
        port = self.network.port

        dist_tables = cover_labelings(self.cover)
        self.labels: Dict[int, dict] = {}
        self.tables: Dict[int, dict] = {}
        for p in range(metric.n):
            per_tree_labels = []
            per_tree_tables = []
            for state, reps in zip(self.trees, self.replicas):
                h_in = {}
                h_out = {}
                for key, cut in state.chain[p]:
                    h_in[key] = [
                        (w, None if w == p else port(w, p)) for w in reps[cut]
                    ]
                    h_out[key] = [
                        (w, None if w == p else port(p, w)) for w in reps[cut]
                    ]
                base = {q: port(p, q) for q in state.base[p]}
                per_tree_labels.append({"phi": state.phi[p], "h_in": h_in})
                per_tree_tables.append(
                    {"phi": state.phi[p], "h_out": h_out, "base": base}
                )
            dist = [table[p] for table in dist_tables]
            self.labels[p] = {"id": p, "trees": per_tree_labels, "dist": dist}
            self.tables[p] = {"trees": per_tree_tables, "dist": dist}

    # ------------------------------------------------------------------

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
            u, ft_protocol_for(faulty), self.labels[v], self.tables, max_hops=8
        )

    def verify_route(
        self, u: int, v: int, faults: Set[int], gamma: float
    ) -> Tuple[int, float]:
        """Route and check delivery, the 2-hop budget, fault avoidance
        and the stretch bound (see
        :func:`~repro.routing.ports.check_route`)."""
        return check_route(
            self.route(u, v, faults), u, v, self.metric.distance(u, v), gamma, faults
        )

    # ------------------------------------------------------------------

    def label_size_bits(self, p: int, float_bits: int = 32) -> int:
        label = self.labels[p]
        return id_bits(self.metric.n) + self._size_bits(label, "h_in", float_bits)

    def table_size_bits(self, p: int, float_bits: int = 32) -> int:
        return self._size_bits(self.tables[p], "h_out", float_bits)

    def _size_bits(self, entry: dict, ports: str, float_bits: int) -> int:
        """Per tree: the Φ label, each chain key with its replica
        (id, port) pairs, and each base (id, port); then the distance
        labels."""
        n = self.metric.n
        bits_per_id = id_bits(n)
        bits = 0
        for tree_entry in entry["trees"]:
            bits += label_bits(tree_entry["phi"], n, float_bits=0)
            for entries in tree_entry[ports].values():
                bits += 2 * bits_per_id + len(entries) * 2 * bits_per_id
            bits += len(tree_entry.get("base", ())) * 2 * bits_per_id
        for d in entry["dist"]:
            bits += label_bits(d, n, float_bits=float_bits)
        return bits
