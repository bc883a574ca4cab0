"""Flow-level (fluid) simulation: max-min fair throughput evaluation."""

from repro import _lazy_exports

__all__ = [
    "Flow",
    "FlowSimError",
    "Incidence",
    "MaxMinSolution",
    "ResidualSolver",
    "max_min_rates_multipath",
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

__getattr__, __dir__ = _lazy_exports(globals(), {
    "Flow": "repro.flowsim.maxmin",
    "FlowSimError": "repro.flowsim.maxmin",
    "Incidence": "repro.flowsim.maxmin",
    "MaxMinSolution": "repro.flowsim.maxmin",
    "ResidualSolver": "repro.flowsim.maxmin",
    "capacities_of": "repro.flowsim.maxmin",
    "flow_from_single_path": "repro.flowsim.maxmin",
    "max_min_rates": "repro.flowsim.maxmin",
    "max_min_rates_multipath": "repro.flowsim.maxmin",
    "oversubscribed_fabric": "repro.flowsim.reference",
    "ThroughputResult": "repro.flowsim.throughput",
    "TrafficMatrix": "repro.flowsim.throughput",
    "achieved_throughput": "repro.flowsim.throughput",
    "build_flows": "repro.flowsim.throughput",
    "evaluate": "repro.flowsim.throughput",
    "ideal_throughput": "repro.flowsim.throughput",
})
