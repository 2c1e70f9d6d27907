"""2-hop compact routing for metric spaces (Theorem 1.3).

The scheme composes the tree-metric routing of Theorem 5.1 with a tree
cover (Table 1):

* the overlay network is the union of the per-tree 2-hop spanners;
* every node stores, per tree, its routing table plus its own distance
  label; every node's *label* carries, per tree, its routing label plus
  its distance label (exact tree distances — our [FGNW17] substitute);
* the source evaluates the pair's distance in each tree from the two
  distance labels (O(ζ) decision time), picks the best tree, and routes
  inside it; with a *Ramsey* cover (general metrics) the destination's
  label simply names its home tree, giving O(1) decision time, and
  neither labels nor tables carry distance labels.

Headers grow by the tree index (⌈log ζ⌉ bits).  Each tree's state is
Theorem 5.1's :class:`~repro.routing.tree_routing.TreeRoutingScheme`
unchanged; this module only adds the distance labels and the tree
choice.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from ..graphs.graph import Graph
from ..metrics.base import Metric
from ..treecover.base import TreeCover
from .labels import cover_labelings, id_bits, label_bits, pick_tree
from .ports import DELIVER, Network, RouteResult, check_route
from .tree_routing import TreeRoutingScheme, header_bit_counter, tree_protocol

__all__ = [
    "MetricRoutingScheme",
    "metric_protocol",
    "metric_header_bits",
    "metric_header_bit_counter",
]


def metric_protocol(u: int, table: dict, header, destination_label: dict):
    """The Theorem 1.3 decision function (fixed-port model).

    Module-level and *pure*: it sees only the local table, the header
    and the destination label, exactly the information a node owns in
    the paper's model.  Its purity is what lets the netsim locality
    audit prove compiled nodes consult no global state — keep it free
    of closures over schemes, covers or metrics.

    Header format: ``(tree index, inner tree header)``.
    """
    if header is not None:
        index, inner = header
        port, inner = tree_protocol(
            u, table["trees"][index], inner, destination_label["trees"][index]
        )
        return port, None if port == DELIVER else (index, inner)
    if destination_label["id"] == u:
        return DELIVER, None
    index = destination_label["home"]
    if index is None:
        index = pick_tree(table["dist"], destination_label["dist"])
    port, inner = tree_protocol(
        u, table["trees"][index], None, destination_label["trees"][index]
    )
    return port, None if port == DELIVER else (index, inner)


def metric_header_bit_counter(n: int, zeta: int) -> Callable[[Any], int]:
    """:func:`metric_header_bits` for one network, as a one-argument
    function; ⌈log n⌉ and ⌈log ζ⌉ are computed once, not per header."""
    inner = header_bit_counter(n)
    index = id_bits(zeta)

    def bits(header) -> int:
        if header is None:
            return 0
        return inner(header[1]) + index

    return bits


def metric_header_bits(header, n: int, zeta: int) -> int:
    """On-wire header size: the inner tree header plus ⌈log ζ⌉ bits."""
    return metric_header_bit_counter(n, zeta)(header)


class MetricRoutingScheme:
    """Labels, tables and overlay for 2-hop routing over a tree cover."""

    def __init__(self, metric: Metric, cover: TreeCover, seed: int = 0):
        self.metric = metric
        self.cover = cover
        self.schemes: List[TreeRoutingScheme] = [
            TreeRoutingScheme(cover_tree) for cover_tree in cover.trees
        ]
        # Shared fixed-port overlay: the union of the per-tree spanners.
        overlay = Graph(metric.n)
        for scheme in self.schemes:
            for (a, b) in scheme.overlay_edges():
                overlay.add_edge(a, b, metric.distance(a, b))
        self.network = Network(overlay, seed=seed)
        for scheme in self.schemes:
            scheme.finalize(self.network)

        self.labels: Dict[int, dict] = {}
        self.tables: Dict[int, dict] = {}
        if cover.home is not None:
            # Ramsey cover: the label names the home tree, so no node
            # ever reads a distance label and none is stored.
            for p in range(metric.n):
                home = cover.home[p]
                self.labels[p] = {
                    "id": p,
                    "home": home,
                    "trees": {home: self.schemes[home].labels[p]},
                }
                self.tables[p] = {
                    "trees": [scheme.tables[p] for scheme in self.schemes],
                }
            return
        # Distance labels: exact tree distances from heavy-path labels.
        dist_tables = cover_labelings(cover)
        for p in range(metric.n):
            dist_labels = [table[p] for table in dist_tables]
            self.labels[p] = {
                "id": p,
                "home": None,
                "trees": {
                    i: scheme.labels[p] for i, scheme in enumerate(self.schemes)
                },
                "dist": dist_labels,
            }
            self.tables[p] = {
                "trees": [scheme.tables[p] for scheme in self.schemes],
                "dist": dist_labels,
            }

    # ------------------------------------------------------------------

    def route(self, u: int, v: int, max_hops: int = 8) -> RouteResult:
        """Route one packet; returns the trace for verification."""
        return self.network.route(
            u,
            metric_protocol,
            self.labels[v],
            self.tables,
            max_hops=max_hops,
            header_bits=metric_header_bit_counter(
                self.metric.n, len(self.schemes)),
        )

    # ------------------------------------------------------------------
    # Bit accounting

    def label_size_bits(self, p: int, float_bits: int = 32) -> int:
        n = self.metric.n
        label = self.labels[p]
        bits = id_bits(n)
        for index, tree_label in label["trees"].items():
            bits += self.schemes[index].label_size_bits(p, n)
        if label["home"] is None:
            for d in label["dist"]:
                bits += label_bits(d, n, float_bits=float_bits)
        else:
            bits += id_bits(len(self.schemes))
        return bits

    def table_size_bits(self, p: int, float_bits: int = 32) -> int:
        n = self.metric.n
        bits = 0
        for scheme in self.schemes:
            bits += scheme.table_size_bits(p, n)
        for d in self.tables[p].get("dist", ()):
            bits += label_bits(d, n, float_bits=float_bits)
        return bits

    def verify_route(self, u: int, v: int, gamma: float) -> Tuple[int, float]:
        """Route and check: delivered, <= 2 hops, stretch <= gamma
        (see :func:`~repro.routing.ports.check_route`)."""
        return check_route(self.route(u, v), u, v, self.metric.distance(u, v), gamma)
