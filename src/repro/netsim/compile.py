"""Compile routing schemes into per-node simulator state.

The adapters in this module are the *only* bridge between the global
construction world (metrics, covers, schemes — Theorems 5.1/1.3/5.2)
and the distributed world of the simulator.  Compilation is a one-way
door: each node receives copies of exactly the state the paper says it
owns — its label, its routing table, and the port numbers wired at it —
while the topology (links, weights, latencies) and the observer-side
oracle stay on the :class:`CompiledNetwork`, out of any node's reach.

The decision functions attached to a compiled network are the
module-level pure protocols from :mod:`repro.routing`
(:func:`~repro.routing.tree_routing.tree_protocol`,
:func:`~repro.routing.metric_routing.metric_protocol`) or, for the
fault-tolerant scheme, closures produced by
:func:`~repro.routing.ft_routing.ft_protocol_for` that capture nothing
but the faulty set.  :func:`repro.netsim.audit.audit_locality` verifies
all of this at runtime.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Tuple

from ..metrics.base import Metric
from ..routing.ft_routing import FaultTolerantRoutingScheme, ft_protocol_for
from ..routing.metric_routing import (
    MetricRoutingScheme,
    metric_header_bit_counter,
    metric_protocol,
)
from ..routing.ports import Network
from ..routing.tree_routing import (
    TreeRoutingScheme,
    header_bit_counter,
    tree_protocol,
)
from .links import Link
from .node import SimNode

__all__ = [
    "CompiledNetwork",
    "compile_tree_scheme",
    "compile_metric_scheme",
    "compile_ft_scheme",
]


class CompiledNetwork:
    """A scheme lowered to nodes + links + a pure decision function.

    Observer-side object: it may hold the metric (the simulator's
    stretch oracle, queried in batches) and contract metadata for
    *measurement*, but the :class:`SimNode` structs and the
    ``protocol`` callable it carries are what actually route, and those
    are locality-audited.
    """

    def __init__(
        self,
        name: str,
        nodes: List[SimNode],
        links: Dict[Tuple[int, int], Link],
        protocol: Callable,
        header_bits: Callable,
        labels: Dict[int, dict],
        metric: Metric,
        hop_budget: int,
        gamma: Optional[float] = None,
        protocol_factory: Optional[Callable] = None,
        f: int = 0,
        zeta: int = 1,
    ):
        self.name = name
        self.nodes = nodes
        self.links = links
        self.protocol = protocol
        self.header_bits = header_bits
        self.labels = labels
        self.metric = metric
        self.hop_budget = hop_budget
        self.gamma = gamma
        #: For FT schemes: faults -> decision function.  ``None`` for
        #: schemes without fault handling (kills then simply drop).
        self.protocol_factory = protocol_factory
        self.f = f
        self.zeta = zeta

    @property
    def n(self) -> int:
        return len(self.nodes)

    def num_links(self) -> int:
        return len(self.links)


def _build_links(
    network: Network,
    latency_scale: float,
    service_time: float,
    queue_cap: Optional[int],
) -> Dict[Tuple[int, int], Link]:
    """One directed :class:`Link` per (node, port) of the fixed-port net."""
    links: Dict[Tuple[int, int], Link] = {}
    graph = network.graph
    for u in range(graph.n):
        for port, v in network.neighbor_at[u].items():
            links[(u, port)] = Link(
                u, v, port, graph.adj[u][v],
                latency_scale=latency_scale,
                service_time=service_time,
                queue_cap=queue_cap,
            )
    return links


def _build_nodes(network: Network, labels: Dict[int, dict],
                 tables: Dict[int, dict]) -> List[SimNode]:
    return [
        SimNode(
            u,
            labels[u],
            tables[u],
            frozenset(network.neighbor_at[u].keys()),
        )
        for u in range(network.graph.n)
    ]


def compile_tree_scheme(
    scheme: TreeRoutingScheme,
    network: Network,
    latency_scale: float = 1.0,
    service_time: float = 0.0,
    queue_cap: Optional[int] = None,
) -> CompiledNetwork:
    """Lower a Theorem 5.1 tree scheme (stretch 1, 2 hops) to a network."""
    n = len(scheme.points)
    return CompiledNetwork(
        name="tree",
        nodes=_build_nodes(network, scheme.labels, scheme.tables),
        links=_build_links(network, latency_scale, service_time, queue_cap),
        protocol=tree_protocol,
        header_bits=header_bit_counter(n),
        labels=scheme.labels,
        metric=scheme.navigator.metric,
        hop_budget=2,
        gamma=1.0,
        zeta=1,
    )


def compile_metric_scheme(
    scheme: MetricRoutingScheme,
    gamma: Optional[float] = None,
    latency_scale: float = 1.0,
    service_time: float = 0.0,
    queue_cap: Optional[int] = None,
) -> CompiledNetwork:
    """Lower a Theorem 1.3 metric scheme (tree cover union overlay)."""
    n = scheme.metric.n
    zeta = len(scheme.schemes)
    if gamma is None:
        worst, _ = scheme.cover.measured_stretch(sample=300)
        gamma = 1.1 * worst
    return CompiledNetwork(
        name="metric",
        nodes=_build_nodes(scheme.network, scheme.labels, scheme.tables),
        links=_build_links(
            scheme.network, latency_scale, service_time, queue_cap
        ),
        protocol=metric_protocol,
        header_bits=metric_header_bit_counter(n, zeta),
        labels=scheme.labels,
        metric=scheme.metric,
        hop_budget=2,
        gamma=gamma,
        zeta=zeta,
    )


def _measured_ft_gamma(
    scheme: FaultTolerantRoutingScheme, sample: int = 200, seed: int = 0
) -> float:
    """An empirical stretch budget for FT routing *under faults*.

    The fault-free cover stretch does not bound the replica detours a
    faulty run takes, so the budget is measured the way the resilience
    harness measures it: sampled pairs, each against a random faulty
    set of the contractual size ``f``.  The headroom covers the fault
    sets the sample never drew — the gate exists to catch broken
    routing (2x+ blowups), not sampling noise on the empirical worst.
    """
    rng = random.Random(seed)
    n = scheme.metric.n
    worst = 1.0
    for _ in range(sample):
        u, v = rng.sample(range(n), 2)
        pool = [x for x in range(n) if x != u and x != v]
        faults = set(rng.sample(pool, min(scheme.f, len(pool))))
        result = scheme.route(u, v, faults=faults)
        d = scheme.metric.distance(u, v)
        if d > 0:
            worst = max(worst, result.weight / d)
    return 1.5 * worst


def compile_ft_scheme(
    scheme: FaultTolerantRoutingScheme,
    gamma: Optional[float] = None,
    latency_scale: float = 1.0,
    service_time: float = 0.0,
    queue_cap: Optional[int] = None,
    gamma_sample: int = 200,
    gamma_seed: int = 0,
) -> CompiledNetwork:
    """Lower a Theorem 5.2 FT scheme; kills re-arm the decision function."""
    n = scheme.metric.n
    if gamma is None:
        gamma = _measured_ft_gamma(scheme, sample=gamma_sample, seed=gamma_seed)
    return CompiledNetwork(
        name="ft",
        nodes=_build_nodes(scheme.network, scheme.labels, scheme.tables),
        links=_build_links(
            scheme.network, latency_scale, service_time, queue_cap
        ),
        protocol=ft_protocol_for(frozenset()),
        header_bits=header_bit_counter(n),
        labels=scheme.labels,
        metric=scheme.metric,
        hop_budget=2,
        gamma=gamma,
        protocol_factory=ft_protocol_for,
        f=scheme.f,
        zeta=len(scheme.cover.trees),
    )
