"""The prototype's cross-traffic experiment — paper Section 6.1 / Figure 14.

The hardware experiment: four 48-port 1 Gbps switches wired either as a
Quartz ring (full mesh via CWDM) or as a two-tier tree (one aggregation
+ three ToR switches).  A "Hello World" RPC runs between two servers on
different ToR switches (S2 → S3); three other servers on S1 and S2 blast
bursty Nuttcp traffic at a server on S3.  As the cross-traffic grows
from 0 to 200 Mb/s, tree RPC latency rises more than 70 % while Quartz
is unaffected.

This module builds both testbed topologies and runs the measurement at
one cross-traffic level; the Figure 14 benchmark sweeps it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.routing.ecmp import ECMPRouter
from repro.sim.network import Network
from repro.sim.sources import BurstSource, RPCSource
from repro.topology.base import LinkKind, NodeKind, Topology, connect_all
from repro.units import GBPS, MBPS


def prototype_quartz(servers_per_switch: int = 2) -> Topology:
    """The 4-switch Quartz prototype (Figure 12): a 1 Gbps full mesh."""
    topo = Topology("prototype-quartz")
    switches = [
        topo.add_switch(f"s{i}", NodeKind.TOR, rack=i - 1, switch_model="SF_1G")
        for i in range(1, 5)
    ]
    connect_all(topo, switches, 1 * GBPS, LinkKind.MESH)
    for i in range(1, 5):
        for j in range(servers_per_switch):
            server = topo.add_server(f"h{i}.{j}", rack=i - 1)
            topo.add_link(server, f"s{i}", 1 * GBPS, LinkKind.HOST)
    topo.validate()
    return topo


def prototype_tree(servers_per_switch: int = 2) -> Topology:
    """The same switches rewired as a two-tier tree (Figure 13(a)).

    S1 becomes the aggregation switch; S2–S4 are ToR switches, each
    connected to S1 (the experiment uses the servers on S2 and S3).
    """
    topo = Topology("prototype-tree")
    agg = topo.add_switch("s1", NodeKind.AGG, switch_model="SF_1G")
    for i in range(2, 5):
        tor = topo.add_switch(f"s{i}", NodeKind.TOR, rack=i - 2, switch_model="SF_1G")
        topo.add_link(tor, agg, 1 * GBPS, LinkKind.UPLINK)
        for j in range(servers_per_switch):
            server = topo.add_server(f"h{i}.{j}", rack=i - 2)
            topo.add_link(server, tor, 1 * GBPS, LinkKind.HOST)
    topo.validate()
    return topo


#: Simulated time the RPC loop may take before the run gives up.
RPC_TIME_LIMIT = 30.0

#: Simulated time between two checks of whether the RPC loop is done.
RUN_SLICE = 1e-3


@dataclass(frozen=True)
class CrossTrafficResult:
    """One point of the Figure 14 curve."""

    topology: str
    cross_traffic_bps: float
    mean_rpc_latency: float
    rpc_count: int


def run_cross_traffic_experiment(
    topology: str,
    cross_traffic_bps: float,
    num_calls: int = 1000,
    seed: int = 0,
) -> CrossTrafficResult:
    """Measure RPC latency under bursty cross-traffic.

    ``topology`` is ``"quartz"`` or ``"tree"``.  The RPC runs between a
    server on S2 and a server on S3; three cross-traffic senders (two on
    S1, one on S2) target a server on S3, exactly as in Figure 13.
    Cross-traffic of 0 runs the RPC alone (the baseline the paper
    normalizes against).
    """
    if topology == "quartz":
        topo = prototype_quartz()
        rpc_src, rpc_dst = "h2.0", "h3.0"
        cross = [("h1.0", "h3.1"), ("h1.1", "h3.1"), ("h2.1", "h3.1")]
    elif topology == "tree":
        topo = prototype_tree()
        # In the rewired tree S2..S4 hold the servers; the RPC crosses
        # S2 → agg → S3 and so does all the cross-traffic.
        rpc_src, rpc_dst = "h2.0", "h3.0"
        cross = [("h4.0", "h3.1"), ("h4.1", "h3.1"), ("h2.1", "h3.1")]
    else:
        raise ValueError(f"unknown topology {topology!r}")

    network = Network(topo, ECMPRouter(topo))
    rpc = RPCSource(network, rpc_src, rpc_dst, num_calls=num_calls, group="rpc")
    rpc.start()
    if cross_traffic_bps > 0:
        per_sender = cross_traffic_bps / len(cross)
        for i, (src, dst) in enumerate(cross):
            BurstSource(
                network,
                src,
                dst,
                target_bandwidth_bps=per_sender,
                group="cross",
                flow_id=100 + i,
                seed=seed + i,
            ).start()
    # The burst sources never stop, so the run ends at the slice in which
    # the closed RPC loop completes its last call.
    for step in range(1, round(RPC_TIME_LIMIT / RUN_SLICE) + 1):
        network.run(until=step * RUN_SLICE)
        if rpc.completed == num_calls:
            break
    if rpc.completed < num_calls:
        raise RuntimeError(
            f"RPC loop incomplete: {rpc.completed}/{num_calls} calls "
            f"(cross traffic {cross_traffic_bps / MBPS:.0f} Mb/s saturated the path)"
        )
    summary = network.stats.summary(group="rpc")
    return CrossTrafficResult(
        topology=topology,
        cross_traffic_bps=cross_traffic_bps,
        mean_rpc_latency=summary.mean,
        rpc_count=summary.count,
    )


def normalized_latency_curve(
    topology: str,
    cross_traffic_levels_bps: list[float],
    num_calls: int = 1000,
    seed: int = 0,
) -> list[tuple[float, float]]:
    """Figure 14 series: (cross-traffic bps, latency / no-load latency)."""
    baseline = run_cross_traffic_experiment(topology, 0.0, num_calls, seed)
    curve = [(0.0, 1.0)]
    for level in cross_traffic_levels_bps:
        if level == 0.0:
            continue
        point = run_cross_traffic_experiment(topology, level, num_calls, seed)
        curve.append((level, point.mean_rpc_latency / baseline.mean_rpc_latency))
    return curve
