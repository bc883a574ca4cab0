"""Routing engines: ECMP, VLB, k-shortest-paths."""

from repro.routing.base import (
    Path,
    Router,
    RoutingError,
    WeightedPath,
    stable_hash,
)
from repro.routing.ecmp import ECMPRouter
from repro.routing.kshortest import KShortestPathsRouter
from repro.routing.tables import (
    RouteTable,
    ecmp_segment_table,
    kshortest_table,
    vlb_table,
)
from repro.routing.vlb import AdaptiveVLBRouter, DemandAwareVLBRouter, VLBRouter

__all__ = [
    "AdaptiveVLBRouter",
    "DemandAwareVLBRouter",
    "ECMPRouter",
    "KShortestPathsRouter",
    "Path",
    "Router",
    "RouteTable",
    "RoutingError",
    "VLBRouter",
    "WeightedPath",
    "ecmp_segment_table",
    "kshortest_table",
    "stable_hash",
    "vlb_table",
]
