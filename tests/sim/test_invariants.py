"""Property-based invariants of the packet simulator."""

import random

from hypothesis import given, settings, strategies as st

import repro.topology as T
from repro.routing import ECMPRouter
from repro.sim import Network, PoissonSource
from repro.units import GBPS


class TestConservation:
    @given(
        st.integers(1, 40),
        st.floats(100, 9000),
        st.none() | st.integers(0, 100),
    )
    @settings(max_examples=25, deadline=None)
    def test_unbounded_buffers_never_drop(self, count, size, seed):
        """Every packet sent is delivered and recorded: one pair, or
        random pairs when ``seed`` is drawn."""
        topo = T.full_mesh(3, 2, link_rate=1 * GBPS)
        net = Network(topo, ECMPRouter(topo))
        servers = topo.servers()
        rng = random.Random(seed)
        for _ in range(count):
            src, dst = ("h0.0", "h1.0") if seed is None else rng.sample(servers, 2)
            net.send(src, dst, size)
        net.run()
        assert net.packets_dropped == 0
        assert net.packets_delivered == count
        assert net.stats.count == net.packets_delivered


class TestOrdering:
    @given(st.integers(2, 25), st.floats(200, 3000))
    @settings(max_examples=20, deadline=None)
    def test_fifo_per_path(self, count, size):
        """Same-path packets sent in order are delivered in order."""
        topo = T.full_mesh(2, 1, link_rate=1 * GBPS)
        net = Network(topo, ECMPRouter(topo))
        packets = [net.send("h0.0", "h1.0", size) for _ in range(count)]
        net.run()
        deliveries = [p.delivered_at for p in packets]
        assert deliveries == sorted(deliveries)

    @given(st.integers(1, 20))
    @settings(max_examples=15, deadline=None)
    def test_latency_never_below_zero_load_floor(self, count):
        topo = T.full_mesh(4, 1)
        net = Network(topo, ECMPRouter(topo))
        packets = [net.send("h0.0", "h3.0", 400) for _ in range(count)]
        net.run()
        floor = packets[0].latency  # first packet sees an idle network
        for p in packets:
            assert p.latency >= floor - 1e-12


class TestDeterminism:
    @given(st.integers(0, 50))
    @settings(max_examples=10, deadline=None)
    def test_identical_runs_identical_results(self, seed):
        def run():
            topo = T.quartz_ring(4, 2)
            net = Network(topo, ECMPRouter(topo))
            source = PoissonSource(
                net, "h0.0", "h2.0", rate_pps=200_000, seed=seed
            )
            source.start()
            net.run(until=0.002)
            return (net.stats.count, net.stats.summary().mean if net.stats.count else 0)

        assert run() == run()
