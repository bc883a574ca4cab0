"""Flow-level (fluid) simulation: max-min fair throughput evaluation."""

from repro.flowsim.fct import (
    FCTError,
    FCTSimulator,
    FlowCompletion,
    TimedFlow,
    mean_fct,
)
from repro.flowsim.maxmin import (
    Flow,
    FlowSimError,
    Incidence,
    MaxMinSolution,
    ResidualSolver,
    capacities_of,
    flow_from_single_path,
    max_min_rates,
    max_min_rates_multipath,
)
from repro.flowsim.reference import oversubscribed_fabric
from repro.flowsim.throughput import (
    ThroughputResult,
    TrafficMatrix,
    achieved_throughput,
    build_flows,
    evaluate,
    ideal_throughput,
)

__all__ = [
    "FCTError",
    "FCTSimulator",
    "Flow",
    "FlowCompletion",
    "FlowSimError",
    "Incidence",
    "MaxMinSolution",
    "ResidualSolver",
    "TimedFlow",
    "max_min_rates_multipath",
    "mean_fct",
    "ThroughputResult",
    "TrafficMatrix",
    "achieved_throughput",
    "build_flows",
    "capacities_of",
    "evaluate",
    "flow_from_single_path",
    "ideal_throughput",
    "max_min_rates",
    "oversubscribed_fabric",
]
