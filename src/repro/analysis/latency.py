"""Analytical (no-congestion) latency model — paper Tables 2, 9, 16.

Table 2's component latencies (standard vs state-of-the-art):

======================  ============  ===============
Component               Standard      State of the art
======================  ============  ===============
OS network stack        15 µs         1–4 µs
NIC                     2.5–32 µs     0.5 µs
Switch                  6 µs          0.5 µs
Congestion              50 µs         —
======================  ============  ===============

The Table 9 "latency without congestion" column is hop count weighted by
per-device latency: switch hops cost the switch latency, and server
relay hops (BCube) cost an OS-stack traversal.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.switch import get_model
from repro.topology.base import Topology
from repro.topology.metrics import HopProfile, hop_path
from repro.units import MICROSECONDS


@dataclass(frozen=True)
class ComponentLatencies:
    """Per-component one-way latency contributions (seconds)."""

    os_stack: float
    nic: float
    switch: float
    congestion: float = 0.0


#: Table 2, "Standard" column (midpoint for the NIC range).
STANDARD = ComponentLatencies(
    os_stack=15 * MICROSECONDS,
    nic=17 * MICROSECONDS,
    switch=6 * MICROSECONDS,
    congestion=50 * MICROSECONDS,
)

#: Table 2, "State of the Art" column.
STATE_OF_THE_ART = ComponentLatencies(
    os_stack=2.5 * MICROSECONDS,
    nic=0.5 * MICROSECONDS,
    switch=0.5 * MICROSECONDS,
    congestion=0.0,
)

#: OS-stack latency charged per server relay hop (Table 2 standard).
SERVER_RELAY_LATENCY = 15 * MICROSECONDS


def table9_latency(
    profile: HopProfile,
    switch_latency: float = 0.5 * MICROSECONDS,
    server_latency: float = SERVER_RELAY_LATENCY,
) -> float:
    """Table 9's formula: hops × per-device latency.

    The paper uses 0.5 µs per (cut-through) switch hop and ~15 µs per
    server relay hop — e.g. BCube's "2 switch hops & 1 server hop" →
    16 µs.
    """
    return (
        profile.switch_hops * switch_latency
        + profile.server_relay_hops * server_latency
    )


def path_latency(
    topo: Topology,
    src: str,
    dst: str,
    server_latency: float = SERVER_RELAY_LATENCY,
) -> float:
    """No-congestion latency of the shortest path using each switch's
    actual hardware model latency (Table 16), rather than Table 9's
    uniform 0.5 µs.
    """
    path = hop_path(topo, src, dst)
    total = 0.0
    for node in path:
        if topo.is_switch(node):
            total += get_model(topo.switch_model(node) or "ULL").latency
    for node in path[1:-1]:
        if topo.is_server(node):
            total += server_latency
    return total


def end_to_end_latency(
    network_latency: float,
    components: ComponentLatencies = STANDARD,
) -> float:
    """Full server-to-server latency: host stacks + NICs + the fabric.

    Adds one OS-stack and one NIC traversal at each end of the fabric
    path (Table 2's framing), plus the congestion allowance.
    """
    return (
        network_latency
        + 2 * components.os_stack
        + 2 * components.nic
        + components.congestion
    )
