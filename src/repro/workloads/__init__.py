"""Workload generators: traffic matrices, tasks, and the prototype experiment."""

from repro.workloads.crosstraffic import (
    CrossTrafficResult,
    normalized_latency_curve,
    prototype_quartz,
    prototype_tree,
    run_cross_traffic_experiment,
)
from repro.workloads.partition_aggregate import (
    PartitionAggregateQuery,
    QueryError,
    QueryTree,
    spread_query_tree,
)
from repro.workloads.patterns import (
    TrafficMatrix,
    incast,
    pathological_concentration,
    rack_level_shuffle,
    random_permutation,
)
from repro.workloads.tasks import (
    ScatterGatherTask,
    StreamingTask,
    TaskError,
    TaskSpec,
    build_task,
    random_task,
)

__all__ = [
    "CrossTrafficResult",
    "PartitionAggregateQuery",
    "QueryError",
    "QueryTree",
    "ScatterGatherTask",
    "StreamingTask",
    "TaskError",
    "TaskSpec",
    "TrafficMatrix",
    "build_task",
    "incast",
    "normalized_latency_curve",
    "pathological_concentration",
    "prototype_quartz",
    "prototype_tree",
    "rack_level_shuffle",
    "random_permutation",
    "random_task",
    "spread_query_tree",
]
