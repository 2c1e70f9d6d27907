"""The fixed-port network simulator for routing schemes.

Routing in the paper's model (Section 5.1) happens on an *overlay
network* (a spanner); each node's incident links carry *port numbers
chosen by an adversary* (the fixed-port model), packets carry a small
header, and each node may consult only its local routing table plus the
destination label handed to the source.

:class:`Network` enforces exactly that: a routing protocol is a callable
that sees ``(node id, local table, header, destination label)`` and
returns either a port to forward on (with a new header) or ``DELIVER``;
the simulator walks the ports, verifies every hop is a real link,
accumulates the traveled weight, and reports the trace.
"""

from __future__ import annotations

import random
from typing import Callable, Collection, Dict, List, Tuple

from ..errors import RoutingError, check
from ..graphs.graph import Graph

__all__ = ["Network", "RouteResult", "DELIVER", "check_route"]

#: Sentinel a protocol returns to signal the packet has arrived.
DELIVER = -1


class RouteResult:
    """Outcome of one routed packet."""

    def __init__(self, path: List[int], weight: float, header_bits: int):
        self.path = path
        self.weight = weight
        #: Largest header (in bits) the packet carried along the route.
        self.header_bits = header_bits

    @property
    def hops(self) -> int:
        return len(self.path) - 1

    def __repr__(self) -> str:
        return f"RouteResult(hops={self.hops}, weight={self.weight:.3f})"


def check_route(
    result: RouteResult,
    u: int,
    v: int,
    distance: float,
    gamma: float,
    faults: Collection[int] = (),
) -> Tuple[int, float]:
    """Check a routed packet against the 2-hop schemes' guarantees.

    The route must connect ``(u, v)`` in at most two hops, visit no
    node of ``faults``, and weigh at most ``gamma`` times ``distance``
    (the pair's metric distance).  Returns ``(hops, stretch)``; raises
    :class:`~repro.errors.InvariantViolation` (never a ``python
    -O``-stripped ``assert``) on the first broken guarantee.
    """
    check(
        result.path[0] == u and result.path[-1] == v,
        f"route {result.path} does not connect ({u}, {v})",
    )
    check(result.hops <= 2, f"route {result.path} uses {result.hops} hops")
    check(not set(result.path) & set(faults), "route visits a faulty node")
    stretch = result.weight / distance if distance > 0 else 1.0
    check(stretch <= gamma + 1e-6, f"stretch {stretch} exceeds {gamma}")
    return result.hops, stretch


class Network:
    """A fixed-port overlay network over a weighted graph."""

    def __init__(self, graph: Graph, seed: int = 0):
        self.graph = graph
        rng = random.Random(seed)
        #: port_to[u][v] = the port at u leading to neighbor v.
        self.port_to: List[Dict[int, int]] = []
        #: neighbor_at[u][p] = the neighbor of u behind port p.
        self.neighbor_at: List[Dict[int, int]] = []
        for u in range(graph.n):
            neighbors = sorted(graph.adj[u])
            ports = list(range(len(neighbors)))
            rng.shuffle(ports)  # the adversary's port assignment
            self.port_to.append(dict(zip(neighbors, ports)))
            self.neighbor_at.append(dict(zip(ports, neighbors)))

    def port(self, u: int, v: int) -> int:
        """The (adversarial) port at ``u`` for the link to ``v``.

        Raises :class:`~repro.errors.RoutingError` when no link between
        ``u`` and ``v`` was ever wired — a dead or never-provisioned
        neighbor must surface as a typed routing failure, not a bare
        ``KeyError`` (the netsim fault plane makes this path reachable
        in ordinary operation).
        """
        try:
            return self.port_to[u][v]
        except KeyError:
            raise RoutingError(
                f"node {u} has no wired link to {v}: the overlay never "
                "provisioned that edge", node=u,
            ) from None

    def route(
        self,
        source: int,
        protocol: Callable,
        destination_label,
        tables,
        max_hops: int = 64,
        header_bits: Callable = None,
    ) -> RouteResult:
        """Walk a packet from ``source`` until the protocol delivers it.

        ``protocol(u, table_u, header, destination_label)`` must return
        ``(port, new_header)``; ``port == DELIVER`` ends the walk.
        """
        path = [source]
        header = None
        worst_header = 0
        weight = 0.0
        for _ in range(max_hops):
            u = path[-1]
            port, header = protocol(u, tables[u], header, destination_label)
            if port == DELIVER:
                return RouteResult(path, weight, worst_header)
            if port not in self.neighbor_at[u]:
                raise RoutingError(
                    f"node {u} has no port {port}: the protocol forwarded "
                    "onto a link that was never wired",
                    node=u, port=port,
                )
            if header_bits is not None and header is not None:
                worst_header = max(worst_header, header_bits(header))
            v = self.neighbor_at[u][port]
            weight += self.graph.adj[u][v]
            path.append(v)
        raise RoutingError(
            f"packet from {source} exceeded {max_hops} hops", node=path[-1]
        )
