"""The paper's core: Ackermann inverses, Solomon 1-spanners, navigation."""

from .ackermann import (
    ackermann_a,
    ackermann_b,
    alpha_k,
    alpha_k_prime,
    inverse_ackermann,
    pettie_lambda,
)
from .decompose import decompose_centroid
from .mapped_navigator import PackedMetricNavigator, navigator_arrays
from .metric_navigator import MetricNavigator
from .navigation import TreeNavigator
from .packed_query import QueryPack, dedup_path

__all__ = [
    "ackermann_a",
    "ackermann_b",
    "alpha_k",
    "alpha_k_prime",
    "inverse_ackermann",
    "pettie_lambda",
    "decompose_centroid",
    "MetricNavigator",
    "PackedMetricNavigator",
    "QueryPack",
    "TreeNavigator",
    "dedup_path",
    "navigator_arrays",
]
