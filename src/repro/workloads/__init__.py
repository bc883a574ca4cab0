"""Workload generators: traffic matrices, tasks, and the prototype experiment."""

from repro import _lazy_exports

__all__ = [
    "CrossTrafficResult",
    "ScatterGatherTask",
    "StreamingTask",
    "TaskError",
    "TaskSpec",
    "TrafficMatrix",
    "build_task",
    "incast",
    "normalized_latency_curve",
    "prototype_quartz",
    "prototype_tree",
    "rack_level_shuffle",
    "random_permutation",
    "random_task",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    "CrossTrafficResult": "repro.workloads.crosstraffic",
    "normalized_latency_curve": "repro.workloads.crosstraffic",
    "prototype_quartz": "repro.workloads.crosstraffic",
    "prototype_tree": "repro.workloads.crosstraffic",
    "run_cross_traffic_experiment": "repro.workloads.crosstraffic",
    "TrafficMatrix": "repro.workloads.patterns",
    "incast": "repro.workloads.patterns",
    "rack_level_shuffle": "repro.workloads.patterns",
    "random_permutation": "repro.workloads.patterns",
    "ScatterGatherTask": "repro.workloads.tasks",
    "StreamingTask": "repro.workloads.tasks",
    "TaskError": "repro.workloads.tasks",
    "TaskSpec": "repro.workloads.tasks",
    "build_task": "repro.workloads.tasks",
    "random_task": "repro.workloads.tasks",
})
