"""Per-packet latency decomposition.

The paper reasons about latency as a sum of components (Table 2:
stack/NIC/switch/congestion).  :func:`packet_breakdown` attributes
every microsecond of a delivered packet's fabric time to one of four
buckets, reading nothing but the packet's hops in the hop log
(``Network(telemetry=True)``) and the network's per-node records:

* **serialization** — clocking bits onto links;
* **switching** — switch (and server-relay) processing latency;
* **queueing** — waiting for busy output ports;
* **propagation** — time on the fibre.

Used to explain *why* one topology beats another: e.g. the three-tier
tree's budget is dominated by the CCS core's switching latency while a
congested tree shifts toward queueing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.sim.network import Network, NetworkSimError, Packet


@dataclass(frozen=True)
class LatencyBreakdown:
    """A packet's (or aggregate) latency split into components."""

    serialization: float
    switching: float
    queueing: float
    propagation: float

    @property
    def total(self) -> float:
        return self.serialization + self.switching + self.queueing + self.propagation

    def __add__(self, other: "LatencyBreakdown") -> "LatencyBreakdown":
        return LatencyBreakdown(
            serialization=self.serialization + other.serialization,
            switching=self.switching + other.switching,
            queueing=self.queueing + other.queueing,
            propagation=self.propagation + other.propagation,
        )

    def scaled(self, factor: float) -> "LatencyBreakdown":
        return LatencyBreakdown(
            serialization=self.serialization * factor,
            switching=self.switching * factor,
            queueing=self.queueing * factor,
            propagation=self.propagation * factor,
        )


ZERO_BREAKDOWN = LatencyBreakdown(0.0, 0.0, 0.0, 0.0)


def packet_breakdown(network: Network, packet: Packet) -> LatencyBreakdown:
    """Split one delivered packet's latency into its four components.

    The packet's hops are read from the hop log — one ``(node, wait)``
    per port it was clocked onto, detours included — so the network
    needs telemetry armed.  Queueing is the waits; switching
    is the forwarding latency of every node after the first (switch
    model or server-relay OS stack); propagation is one delay per hop.
    Serialization is the remainder: the links' clocking times net of
    the overlap a cut-through hop buys by starting before the tail has
    arrived, at whatever rates the links ran at.  The components sum to
    the packet's latency less ``host_receive_latency``, which is host
    time, not fabric time.
    """
    hops = network.telemetry.hops_of(packet.packet_id) if network.telemetry else []
    if packet.delivered_at is None or not hops:
        raise NetworkSimError(
            f"packet {packet.packet_id} needs delivery and armed telemetry to decompose"
        )
    switching = sum(network._hop_rec[node][1] for node, _ in hops[1:])
    queueing = sum(wait for _, wait in hops)
    propagation = len(hops) * network.propagation_delay
    fabric = packet.latency - network.host_receive_latency
    return LatencyBreakdown(
        serialization=fabric - switching - queueing - propagation,
        switching=switching,
        queueing=queueing,
        propagation=propagation,
    )


def mean_breakdown(breakdowns: Iterable[LatencyBreakdown]) -> LatencyBreakdown:
    """Average component breakdown over a set of packets."""
    total, count = ZERO_BREAKDOWN, 0
    for item in breakdowns:
        total = total + item
        count += 1
    if not count:
        raise ValueError("no delivered packets to aggregate")
    return total.scaled(1.0 / count)


def format_breakdown(breakdown: LatencyBreakdown, label: str = "") -> str:
    """One-line human-readable rendering (µs)."""
    return (
        f"{label:<26}total {breakdown.total * 1e6:7.2f} us = "
        f"ser {breakdown.serialization * 1e6:6.2f} + "
        f"switch {breakdown.switching * 1e6:6.2f} + "
        f"queue {breakdown.queueing * 1e6:6.2f} + "
        f"prop {breakdown.propagation * 1e6:5.2f}"
    )
