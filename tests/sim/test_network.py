"""Tests for the packet-level network model."""

import inspect
import math

import pytest

import repro.topology as T
from repro.hybrid import HybridNetwork
from repro.routing import ECMPRouter
from repro.sim import CCS, Engine, Network, NetworkSimError, PoissonSource, ULL
from repro.sim.network import DEFAULT_PROPAGATION_DELAY
from repro.units import GBPS, MICROSECONDS, serialization_delay


def one_packet_latency(topo, src, dst, size=400, **net_kwargs):
    net = Network(topo, ECMPRouter(topo), **net_kwargs)
    packet = net.send(src, dst, size)
    net.run()
    return packet.latency, net


class TestUncongestedLatency:
    def test_mesh_two_cut_through_hops(self):
        topo = T.full_mesh(4, 1, link_rate=10 * GBPS)
        latency, _net = one_packet_latency(topo, "h0.0", "h3.0")
        # host serialization + 2 × (ULL latency) + 3 × propagation;
        # cut-through switches do not re-pay serialization.
        ser = serialization_delay(400, 10 * GBPS)
        expected = ser + 2 * ULL.latency + 3 * DEFAULT_PROPAGATION_DELAY
        assert latency == pytest.approx(expected, rel=1e-6)

    def test_store_and_forward_pays_serialization_per_hop(self):
        topo = T.full_mesh(4, 1, link_rate=10 * GBPS, switch_model="CCS")
        latency, _net = one_packet_latency(topo, "h0.0", "h3.0")
        ser = serialization_delay(400, 10 * GBPS)
        expected = 3 * ser + 2 * CCS.latency + 3 * DEFAULT_PROPAGATION_DELAY
        assert latency == pytest.approx(expected, rel=1e-6)

    def test_three_tier_dominated_by_core(self):
        topo = T.three_tier_tree()
        latency, _net = one_packet_latency(topo, "h0.0", "h15.0")
        assert latency > 6 * MICROSECONDS  # the CCS core hop alone

    def test_same_rack_single_hop(self):
        topo = T.full_mesh(4, 2)
        latency, _net = one_packet_latency(topo, "h0.0", "h0.1")
        assert latency < 1.5 * MICROSECONDS


class TestQueueing:
    def test_back_to_back_packets_queue_on_host_link(self):
        topo = T.full_mesh(2, 1, link_rate=10 * GBPS)
        net = Network(topo, ECMPRouter(topo))
        first = net.send("h0.0", "h1.0", 1500)
        second = net.send("h0.0", "h1.0", 1500)
        net.run()
        ser = serialization_delay(1500, 10 * GBPS)
        assert second.latency == pytest.approx(first.latency + ser, rel=1e-6)

    def test_cross_traffic_delays_on_shared_link(self):
        topo = T.two_tier_tree(2, 2, uplink_rate=10 * GBPS)
        net = Network(topo, ECMPRouter(topo))
        # Fill the tor0 → root uplink with a big packet, then probe while
        # the uplink is still draining it.
        net.send("h0.0", "h1.0", 9000)
        probes = []
        net.engine.schedule(
            2 * MICROSECONDS,
            lambda: probes.append(net.send("h0.1", "h1.1", 400)),
        )
        net.run()
        probe = probes[0]
        solo_latency, _ = one_packet_latency(
            T.two_tier_tree(2, 2, uplink_rate=10 * GBPS), "h0.1", "h1.1"
        )
        assert probe.latency > solo_latency


class TestServerRelay:
    def test_bcube_relay_pays_os_stack(self):
        topo = T.bcube(4, 1)
        latency, _net = one_packet_latency(topo, "h0", "h5")
        # One server relay hop at 15 µs dominates.
        assert latency > 15 * MICROSECONDS

    def test_relay_latency_configurable(self):
        topo = T.bcube(4, 1)
        fast, _ = one_packet_latency(
            topo, "h0", "h5", server_forward_latency=1 * MICROSECONDS
        )
        slow, _ = one_packet_latency(
            topo, "h0", "h5", server_forward_latency=15 * MICROSECONDS
        )
        assert slow - fast == pytest.approx(14 * MICROSECONDS, rel=1e-6)


class TestAccounting:
    def test_stats_recorded_per_group(self):
        topo = T.full_mesh(3, 1)
        net = Network(topo, ECMPRouter(topo))
        net.send("h0.0", "h1.0", 400, group="a")
        net.send("h0.0", "h2.0", 400, group="b")
        net.run()
        assert net.stats.count == 2
        assert net.stats.groups() == ["a", "b"]

    def test_delivery_callback_fires(self):
        topo = T.full_mesh(3, 1)
        net = Network(topo, ECMPRouter(topo))
        landed = []
        net.send("h0.0", "h1.0", 400, on_delivered=lambda p, t: landed.append((p.dst, t)))
        net.run()
        assert landed and landed[0][0] == "h1.0"

    def test_a_read_mid_run_keeps_every_later_delivery(self):
        """The loop holds the recorder's buffers for a run: a timer that
        reads the samples (a flush) must not strand what lands after."""
        topo = T.full_mesh(3, 1)
        net = Network(topo, ECMPRouter(topo))
        for k in range(6):
            net.engine.call_at(k * 1e-6, net.send, "h0.0", "h1.0", 400, 0, f"g{k % 2}")
        seen = []
        net.engine.call_at(3.5e-6, lambda: seen.append(net.stats.count))
        net.engine.call_at(3.5e-6, lambda: net.stats.array())
        net.run()
        assert 0 < seen[0] < 6 and net.stats.count == 6
        assert net.stats.groups() == ["g0", "g1"]

    def test_port_utilization(self):
        topo = T.full_mesh(2, 1, link_rate=10 * GBPS)
        net = Network(topo, ECMPRouter(topo))
        for _ in range(10):
            net.send("h0.0", "h1.0", 1250)  # 1 µs each at 10 G
        net.run()
        assert net.port_utilization("h0.0", "tor0", 1e-4) == pytest.approx(0.1, rel=0.01)

    def test_unutilized_port_is_zero(self):
        topo = T.full_mesh(2, 1)
        net = Network(topo, ECMPRouter(topo))
        assert net.port_utilization("h0.0", "tor0", 1.0) == 0.0


class TestErrors:
    def test_non_positive_size_rejected(self):
        topo = T.full_mesh(2, 1)
        net = Network(topo, ECMPRouter(topo))
        with pytest.raises(NetworkSimError):
            net.send("h0.0", "h1.0", 0)

    def test_bad_explicit_path_rejected(self):
        topo = T.full_mesh(2, 1)
        net = Network(topo, ECMPRouter(topo))
        with pytest.raises(NetworkSimError):
            net.send("h0.0", "h1.0", 400, path=("h1.0", "tor1", "h0.0"))

    def test_one_node_route_rejected(self):
        """A packet to itself has a one-node route, which no port can
        carry: ``send`` refuses it, router-chosen or explicit."""
        topo = T.full_mesh(2, 1)
        net = Network(topo, ECMPRouter(topo))
        with pytest.raises(NetworkSimError, match="does not join"):
            net.send("h0.0", "h0.0", 400)
        with pytest.raises(NetworkSimError, match="does not join"):
            net.send("h0.0", "h0.0", 400, path=("h0.0",))
        assert net._next_packet_id == 0 and not net._flows

    def test_source_to_itself_raises_at_its_fire(self):
        """A stream from a server to itself: the port-major pass stands
        down (``bad_route``) and leaves the error to the event loop's
        fire, which raises it from ``send``."""
        topo = T.full_mesh(2, 1)
        net = Network(topo, ECMPRouter(topo))
        PoissonSource(net, "h0.0", "h0.0", rate_pps=1_000_000.0, seed=1).start()
        with pytest.raises(NetworkSimError, match="does not join"):
            net.run(until=1e-3)
        assert net.standdowns == {"bad_route": 1}
        assert net.packets_delivered == 0

    def test_latency_before_delivery_raises(self):
        topo = T.full_mesh(2, 1)
        net = Network(topo, ECMPRouter(topo))
        packet = net.send("h0.0", "h1.0", 400)
        with pytest.raises(NetworkSimError):
            _ = packet.latency

    @pytest.mark.parametrize("value", [-1e-9, -math.inf, math.inf, math.nan])
    @pytest.mark.parametrize(
        "argument",
        ["propagation_delay", "server_forward_latency", "host_receive_latency"],
    )
    def test_bad_delay_rejected_at_construction(self, argument, value):
        """A negative or non-finite delay fails when the network is
        built, not at the first send or delivery: ``send`` queues a
        packet's arrival unchecked, relying on it."""
        topo = T.full_mesh(2, 1)
        with pytest.raises(NetworkSimError, match=argument):
            Network(topo, ECMPRouter(topo), **{argument: value})

    def test_zero_delays_accepted(self):
        latency, _ = one_packet_latency(
            T.full_mesh(2, 1), "h0.0", "h1.0", propagation_delay=0.0,
            server_forward_latency=0.0, host_receive_latency=0.0,
        )
        assert latency > 0

    def test_host_receive_latency_added(self):
        topo = T.full_mesh(2, 1)
        base, _ = one_packet_latency(topo, "h0.0", "h1.0")
        slow, _ = one_packet_latency(
            T.full_mesh(2, 1), "h0.0", "h1.0", host_receive_latency=5 * MICROSECONDS
        )
        assert slow - base == pytest.approx(5 * MICROSECONDS, rel=1e-6)


def _parameters(function):
    return set(inspect.signature(function).parameters) - {"self"}


def test_network_reference_paths_are_arguments():
    topo = T.quartz_ring(3, 1)
    net = Network(topo, ECMPRouter(topo))
    assert net.telemetry is None
    # One forwarding loop: no reference-loop argument, no flag for it.
    assert not hasattr(net, "fastpath_enabled")
    # The hybrid and parallel switches live on the classes that read them.
    assert not hasattr(net, "hybrid_enabled")
    assert not hasattr(net, "parallel_enabled")
    # The whole run and constructor surface, pinned: the run without the
    # port-major pass is ``engine.run``, telemetry is a plain boolean,
    # obs follows ``obs.arm()``, and the chunk, the residual floor and
    # the telemetry window are module constants.
    assert _parameters(Network.__init__) == {
        "topo", "router", "propagation_delay", "server_forward_latency",
        "host_receive_latency", "telemetry",
    }
    assert inspect.signature(Network.__init__).parameters["telemetry"].default is False
    assert _parameters(Network.run) == {"until"}
    assert _parameters(Engine.run) == {"until"}
    assert _parameters(PoissonSource.__init__) == {
        "network", "src", "dst", "rate_pps", "size_bytes", "group",
        "flow_id", "seed", "stop_at", "vary_flow_per_packet", "on_delivered",
    }
    assert _parameters(HybridNetwork.__init__) == {
        "topo", "router", "background", "hybrid", "record_timeline", "kwargs",
    }
