"""Section 7.2: the pathological traffic pattern (Figure 20).

Multiple flows from servers on one Quartz switch to receivers on
another stress the single switch-to-switch channel.  Three fabrics are
compared:

* a **non-blocking core switch** (every server on one CCS switch) —
  unaffected by the concentration but pays the 6 µs store-and-forward
  core each way;
* **Quartz with ECMP** (direct paths only) — lowest latency until the
  offered load saturates the 40 Gbps channel, then unbounded;
* **Quartz with VLB** — spills the excess over two-hop paths, keeping
  latency low through 50 Gbps.
"""

from __future__ import annotations

from dataclasses import dataclass

import repro.topology as T
from repro.routing import AdaptiveVLBRouter, ECMPRouter, Router
from repro.runner import ExperimentSpec, run_cells
from repro.sim import Network, PoissonSource
from repro.sim.stats import LatencySummary
from repro.topology.base import LinkKind, NodeKind, Topology
from repro.units import GBPS

#: Paper setup: four 40 GbE switches in the ring (Figure 19(a)).
MESH_RATE = 40 * GBPS
HOST_RATE = 10 * GBPS
SERVERS_PER_RACK = 8


def quartz_core_testbed() -> Topology:
    """Four-switch 40 G Quartz ring, eight 10 G servers per switch."""
    return T.full_mesh(
        4, SERVERS_PER_RACK, link_rate=MESH_RATE, name="fig20-quartz"
    )


def nonblocking_testbed() -> Topology:
    """The same servers on one non-blocking store-and-forward core."""
    topo = Topology("fig20-core")
    topo.add_switch("core", NodeKind.CORE, switch_model="CCS")
    for rack in range(4):
        for s in range(SERVERS_PER_RACK):
            server = topo.add_server(f"h{rack}.{s}", rack=rack)
            topo.add_link(server, "core", HOST_RATE, LinkKind.HOST)
    topo.validate()
    return topo


@dataclass(frozen=True)
class PathologicalResult:
    """One Figure 20 point."""

    fabric: str
    offered_load_bps: float
    summary: LatencySummary
    saturated: bool

    @property
    def mean_latency(self) -> float:
        return self.summary.mean


def run_pathological(
    fabric: str,
    offered_load_bps: float,
    duration: float = 0.004,
    seed: int = 0,
) -> PathologicalResult:
    """Drive rack 0 → rack 1 at ``offered_load_bps`` aggregate.

    ``fabric`` is ``"nonblocking"``, ``"quartz-ecmp"`` or ``"quartz-vlb"``.
    VLB adapts its direct fraction to the offered load (Section 3.4).
    """
    if fabric == "nonblocking":
        topo = nonblocking_testbed()
        router: Router = ECMPRouter(topo)
        channel_capacity = float("inf")
    elif fabric == "quartz-ecmp":
        topo = quartz_core_testbed()
        router = ECMPRouter(topo)
        channel_capacity = MESH_RATE
    elif fabric == "quartz-vlb":
        topo = quartz_core_testbed()
        router = AdaptiveVLBRouter(topo, offered_load_bps=offered_load_bps)
        channel_capacity = 3 * MESH_RATE  # direct + two detours
    else:
        raise ValueError(f"unknown fabric {fabric!r}")

    net = Network(topo, router)
    senders = topo.servers_in_rack(0)
    receivers = topo.servers_in_rack(1)
    per_flow = offered_load_bps / len(senders)
    for i, (src, dst) in enumerate(zip(senders, receivers)):
        PoissonSource.at_bandwidth(
            net, src, dst, per_flow, group="pathological",
            flow_id=i, seed=seed + i, vary_flow_per_packet=True,
        ).start()
    net.run(until=duration)
    return PathologicalResult(
        fabric=fabric,
        offered_load_bps=offered_load_bps,
        summary=net.stats.summary("pathological"),
        saturated=offered_load_bps >= channel_capacity,
    )


def figure20_sweep(
    loads_gbps: list[float] | None = None,
    duration: float = 0.004,
    seed: int = 0,
    workers: int | None = 1,
) -> dict[str, list[PathologicalResult]]:
    """The full Figure 20: latency vs offered load for all three fabrics.

    Every (fabric, load) point is independent, so the grid fans out over
    :func:`repro.runner.run_cells`; any ``workers`` count returns
    bit-identical results.
    """
    if loads_gbps is None:
        loads_gbps = [10, 20, 30, 40, 50]
    fabrics = ("nonblocking", "quartz-ecmp", "quartz-vlb")
    cells = [
        ExperimentSpec(
            run_pathological,
            args=(fabric, g * GBPS),
            kwargs={"duration": duration, "seed": seed},
            label=f"fig20/{fabric}/{g}G",
        )
        for fabric in fabrics
        for g in loads_gbps
    ]
    results = iter(run_cells(cells, workers=workers))
    return {fabric: [next(results) for _ in loads_gbps] for fabric in fabrics}


def format_figure20(results: dict[str, list[PathologicalResult]]) -> str:
    """Render the Figure 20 series as a text table (µs per packet)."""
    loads = [r.offered_load_bps / GBPS for r in next(iter(results.values()))]
    header = f"{'fabric':<18}" + "".join(f"{g:>10.0f}G" for g in loads)
    lines = ["Figure 20: pathological rack-to-rack pattern", header, "-" * len(header)]
    for fabric, series in results.items():
        row = f"{fabric:<18}"
        for point in series:
            label = f"{point.mean_latency * 1e6:.2f}"
            if point.saturated:
                label += "*"
            row += f"{label:>11}"
        lines.append(row)
    lines.append("(* offered load at or above the routing scheme's channel capacity)")
    return "\n".join(lines)
