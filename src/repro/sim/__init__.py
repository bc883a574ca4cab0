"""Packet-level discrete-event network simulator.

The paper evaluates Quartz with "our own packet-level discrete event
network simulator that we tailored to our specific requirements" and
validates it against queueing theory (Section 7).  This package is that
simulator: deterministic event engine, Table 16 switch models
(store-and-forward vs cut-through), output-queued ports, and the traffic
sources used in Sections 6 and 7.
"""

from repro.sim.engine import Engine, SimulationError
from repro.sim.fastpath import HopPlan, compile_plan
from repro.sim.knobs import env_truthy, resolve_flag
from repro.sim.faults import (
    FaultInjectionError,
    FaultInjector,
    SegmentCut,
    random_fault_schedule,
)
from repro.sim.network import (
    DEFAULT_PROPAGATION_DELAY,
    DEFAULT_SERVER_FORWARD_LATENCY,
    Network,
    NetworkSimError,
    Packet,
)
from repro.sim.parallel import (
    BoundaryMessage,
    ParallelScenario,
    ParallelSimError,
    RunResult,
    ShardNetwork,
    SourceSpec,
    boundary_links,
    lookahead,
    partition_racks,
    run_parallel,
    run_serial,
)
from repro.sim.sources import (
    DEFAULT_PACKET_BYTES,
    BurstSource,
    PoissonSource,
    RPCSource,
    SourceError,
)
from repro.sim.stats import (
    DeliveryBins,
    FaultLogEntry,
    FaultRecorder,
    HopStampStats,
    LatencyRecorder,
    LatencySummary,
    summarize_latencies,
)
from repro.sim.switch import CCS, MODELS, SF_1G, SwitchModel, ULL, get_model, register_model
from repro.sim.trace import (
    LatencyBreakdown,
    format_breakdown,
    mean_breakdown,
    packet_breakdown,
)

__all__ = [
    "BurstSource",
    "CCS",
    "env_truthy",
    "resolve_flag",
    "BoundaryMessage",
    "ParallelScenario",
    "ParallelSimError",
    "RunResult",
    "ShardNetwork",
    "SourceSpec",
    "boundary_links",
    "lookahead",
    "partition_racks",
    "run_parallel",
    "run_serial",
    "HopPlan",
    "compile_plan",
    "DEFAULT_PACKET_BYTES",
    "DEFAULT_PROPAGATION_DELAY",
    "DEFAULT_SERVER_FORWARD_LATENCY",
    "DeliveryBins",
    "Engine",
    "FaultInjectionError",
    "FaultInjector",
    "FaultLogEntry",
    "FaultRecorder",
    "HopStampStats",
    "SegmentCut",
    "random_fault_schedule",
    "LatencyBreakdown",
    "LatencyRecorder",
    "LatencySummary",
    "format_breakdown",
    "mean_breakdown",
    "packet_breakdown",
    "MODELS",
    "Network",
    "NetworkSimError",
    "Packet",
    "PoissonSource",
    "RPCSource",
    "SF_1G",
    "SimulationError",
    "SourceError",
    "SwitchModel",
    "ULL",
    "get_model",
    "register_model",
    "summarize_latencies",
]
