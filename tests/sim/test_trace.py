"""Tests for latency decomposition (packet_breakdown over the hop log)."""

import pytest

import repro.topology as T
from repro.routing import ECMPRouter
from repro.sim.network import Network, NetworkSimError
from repro.sim.switch import get_model
from repro.sim.trace import (
    LatencyBreakdown,
    format_breakdown,
    mean_breakdown,
    packet_breakdown,
)
from repro.units import GBPS, MICROSECONDS, serialization_delay
from tests.sim.test_fastpath import model_of


def stamping_network(topo, **kwargs):
    return Network(topo, ECMPRouter(topo), telemetry=True, **kwargs)


def traced_packet(topo, src, dst, size=400, **kwargs):
    net = stamping_network(topo, **kwargs)
    packet = net.send(src, dst, size, group="probe")
    net.run()
    return packet, packet_breakdown(net, packet)


def clocked_serialization(topo, packet):
    """Link clocking times net of each cut-through hop's overlap, from
    the topology alone — the breakdown itself takes serialization as
    the remainder of the measured latency, so this is what makes the
    sum an assertion about the kernel."""
    path = packet.path
    sers = [
        serialization_delay(packet.size_bytes, topo.link(u, v).capacity)
        for u, v in zip(path, path[1:])
    ]
    overlap = sum(
        min(sers[i - 1], sers[i])
        for i in range(1, len(sers))
        if topo.is_switch(path[i])
        and get_model(topo.switch_model(path[i]) or "ULL").cut_through
    )
    return sum(sers) - overlap


class TestComponentsSumToLatency:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: T.full_mesh(4, 1),
            lambda: T.full_mesh(4, 1, switch_model="CCS"),
            lambda: T.three_tier_tree(),
            lambda: T.bcube(4, 1),
        ],
    )
    def test_sum_matches_measured(self, build):
        topo = build()
        servers = topo.servers()
        packet, breakdown = traced_packet(topo, servers[0], servers[-1])
        assert breakdown.total == pytest.approx(packet.latency, rel=1e-9)
        assert breakdown.serialization == pytest.approx(
            clocked_serialization(topo, packet), rel=1e-9
        )
        # The latency itself is the switch spec's (BCube: server relays).
        model = model_of(build())
        model.source([(0.0, [(servers[0], servers[-1], 400, 0, "probe")])])
        model.run(1.0)
        assert model.outcome()["samples"] == [packet.latency]

    def test_sum_matches_under_queueing(self):
        topo = T.full_mesh(2, 1, link_rate=1 * GBPS)
        net = stamping_network(topo)
        packets = [net.send("h0.0", "h1.0", 1500, group="p") for _ in range(10)]
        net.run()
        for packet in packets:
            breakdown = packet_breakdown(net, packet)
            assert breakdown.total == pytest.approx(packet.latency, rel=1e-9)
            assert breakdown.serialization == pytest.approx(
                clocked_serialization(topo, packet), rel=1e-9
            )

    def test_host_receive_latency_is_no_fabric_component(self):
        packet, breakdown = traced_packet(
            T.full_mesh(4, 1), "h0.0", "h3.0", host_receive_latency=5e-6
        )
        assert breakdown.total == pytest.approx(packet.latency - 5e-6, rel=1e-9)

    def test_needs_stamps_and_delivery(self):
        topo = T.full_mesh(4, 1)
        net = Network(topo, ECMPRouter(topo))
        packet = net.send("h0.0", "h3.0", 400)
        net.run()
        with pytest.raises(NetworkSimError, match="armed telemetry"):
            packet_breakdown(net, packet)
        armed = stamping_network(topo)
        with pytest.raises(NetworkSimError, match="delivery"):
            packet_breakdown(armed, armed.send("h0.0", "h3.0", 400))


class TestAttribution:
    def test_ccs_core_dominates_tree_switching(self):
        topo = T.three_tier_tree()
        _, breakdown = traced_packet(topo, "h0.0", "h15.0")
        # 4 ULL + 1 CCS: switching ≈ 7.5 µs, > 80 % of the total.
        assert breakdown.switching == pytest.approx(4 * 380e-9 + 6e-6, rel=1e-6)
        assert breakdown.switching > 0.8 * breakdown.total

    def test_server_relay_counts_as_switching(self):
        topo = T.bcube(4, 1)
        _, breakdown = traced_packet(topo, "h0", "h5")
        assert breakdown.switching > 15 * MICROSECONDS

    def test_queueing_attributed_to_waiting(self):
        topo = T.full_mesh(2, 1, link_rate=1 * GBPS)
        net = stamping_network(topo)
        net.send("h0.0", "h1.0", 1500)
        second = net.send("h0.0", "h1.0", 1500, group="p")
        net.run()
        # Waited exactly one 1500 B serialization behind the first.
        assert packet_breakdown(net, second).queueing == pytest.approx(
            12e-6, rel=1e-6
        )

    def test_uncongested_has_zero_queueing(self):
        _, breakdown = traced_packet(T.full_mesh(4, 1), "h0.0", "h3.0")
        assert breakdown.queueing == 0.0

    def test_cut_through_serialization_less_than_store_forward(self):
        _, ull = traced_packet(T.full_mesh(4, 1), "h0.0", "h3.0")
        _, ccs = traced_packet(
            T.full_mesh(4, 1, switch_model="CCS"), "h0.0", "h3.0"
        )
        assert ull.serialization < ccs.serialization


class TestAggregation:
    def test_mean_breakdown(self):
        topo = T.full_mesh(3, 1)
        net = stamping_network(topo)
        packets = [net.send("h0.0", "h1.0", 400, group="a") for _ in range(5)]
        net.run()
        mean = mean_breakdown(packet_breakdown(net, p) for p in packets)
        assert mean.total == pytest.approx(net.stats.summary("a").mean, rel=1e-9)

    def test_empty_aggregate_raises(self):
        with pytest.raises(ValueError):
            mean_breakdown([])

    def test_breakdown_arithmetic(self):
        a = LatencyBreakdown(1.0, 2.0, 3.0, 4.0)
        b = LatencyBreakdown(1.0, 1.0, 1.0, 1.0)
        total = a + b
        assert total.switching == 3.0
        assert total.scaled(0.5).queueing == 2.0
        assert total.total == 14.0

    def test_format(self):
        text = format_breakdown(LatencyBreakdown(1e-6, 2e-6, 0.0, 1e-7), "probe")
        assert "probe" in text
        assert "switch" in text
