"""Compact routing schemes: trees (Thm 5.1), metrics (Thm 1.3), FT (Thm 5.2)."""

from .ft_routing import FaultTolerantRoutingScheme, ft_protocol_for
from .labels import HeavyPathLabeling, label_bits, label_distance, lca_key
from .metric_routing import MetricRoutingScheme, metric_header_bits, metric_protocol
from .ports import DELIVER, Network, RouteResult
from .tree_routing import (
    SELF,
    TreeRoutingScheme,
    TreeRoutingState,
    build_tree_network,
    header_bits,
    tree_protocol,
)

__all__ = [
    "FaultTolerantRoutingScheme",
    "ft_protocol_for",
    "HeavyPathLabeling",
    "label_bits",
    "label_distance",
    "lca_key",
    "MetricRoutingScheme",
    "metric_header_bits",
    "metric_protocol",
    "DELIVER",
    "Network",
    "RouteResult",
    "SELF",
    "TreeRoutingScheme",
    "TreeRoutingState",
    "build_tree_network",
    "header_bits",
    "tree_protocol",
]
