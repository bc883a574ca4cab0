"""Latency decomposition across the Section 7 architectures.

Explains the Figure 17 results component-by-component: runs a fixed
probe workload on each architecture with telemetry armed and
attributes the mean packet latency to serialization, switching,
queueing, and propagation (the paper's Table 2 framing).  The headline
mechanism becomes visible: the three-tier tree's budget is dominated by
the CCS core's switching latency, which every Quartz replacement
removes.
"""

from __future__ import annotations

from repro.experiments.section7 import TOPOLOGY_BUILDERS
from repro.routing import ECMPRouter
from repro.sim.network import Network
from repro.sim.sources import PoissonSource
from repro.sim.trace import (
    LatencyBreakdown,
    format_breakdown,
    mean_breakdown,
    packet_breakdown,
)


def latency_breakdown(
    topology: str,
    num_probes: int = 8,
    bandwidth_bps: float = 500e6,
    duration: float = 0.005,
    seed: int = 0,
) -> LatencyBreakdown:
    """Mean component breakdown of cross-rack probe traffic.

    Probes are Poisson streams between servers in distant racks (rack i
    to rack i + half-way around), so every stream crosses the
    architecture's full fabric.
    """
    if topology not in TOPOLOGY_BUILDERS:
        raise ValueError(f"unknown topology {topology!r}")
    topo = TOPOLOGY_BUILDERS[topology]()
    net = Network(topo, ECMPRouter(topo), telemetry=True)
    delivered = []

    racks = topo.racks()
    half = len(racks) // 2
    for i in range(num_probes):
        src_rack = racks[i % len(racks)]
        dst_rack = racks[(i + half) % len(racks)]
        src = topo.servers_in_rack(src_rack)[0]
        dst = topo.servers_in_rack(dst_rack)[-1]
        PoissonSource.at_bandwidth(
            net, src, dst, bandwidth_bps, group="probe",
            flow_id=i, seed=seed + i, on_delivered=lambda packet, _: delivered.append(packet),
        ).start()
    net.run(until=duration)
    return mean_breakdown(packet_breakdown(net, packet) for packet in delivered)


def breakdown_table(
    topologies: list[str] | None = None, **kwargs: float
) -> dict[str, LatencyBreakdown]:
    """Breakdowns for a roster of architectures."""
    if topologies is None:
        topologies = [
            "three-tier tree",
            "quartz in core",
            "quartz in edge",
            "quartz in edge and core",
            "jellyfish",
        ]
    return {t: latency_breakdown(t, **kwargs) for t in topologies}  # type: ignore[arg-type]


def format_breakdown_table(table: dict[str, LatencyBreakdown]) -> str:
    """Render the decomposition as aligned text."""
    lines = ["Latency decomposition of cross-rack traffic (mean per packet)"]
    for topology, breakdown in table.items():
        lines.append(format_breakdown(breakdown, topology))
    return "\n".join(lines)
