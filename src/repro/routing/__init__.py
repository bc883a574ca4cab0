"""Routing engines: ECMP, VLB, k-shortest-paths."""

from repro import _lazy_exports

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

__getattr__, __dir__ = _lazy_exports(globals(), {
    "Path": "repro.routing.base",
    "Router": "repro.routing.base",
    "RoutingError": "repro.routing.base",
    "WeightedPath": "repro.routing.base",
    "stable_hash": "repro.routing.base",
    "ECMPRouter": "repro.routing.ecmp",
    "KShortestPathsRouter": "repro.routing.kshortest",
    "RouteTable": "repro.routing.tables",
    "ecmp_segment_table": "repro.routing.tables",
    "kshortest_table": "repro.routing.tables",
    "vlb_table": "repro.routing.tables",
    "AdaptiveVLBRouter": "repro.routing.vlb",
    "DemandAwareVLBRouter": "repro.routing.vlb",
    "VLBRouter": "repro.routing.vlb",
})
