"""Integration: fibre failures → degraded mesh → multi-hop re-routing.

Validates Section 3.5's claim end-to-end at the packet level: after a
fibre cut kills a set of direct channels, every server pair remains
reachable over multi-hop paths on the surviving channels, at a modest
latency penalty.
"""

import pytest

from repro.core import QuartzRing
from repro.core.fault import RingFaultModel, degraded_mesh_topology
from repro.routing import ECMPRouter
from repro.sim import Network
from repro.topology.base import TopologyError
from repro.topology.graph import shortest_path


@pytest.fixture(scope="module")
def element():
    ring = QuartzRing(num_switches=9, server_ports=4, mesh_ports=8)
    return ring, ring.to_topology(servers_per_switch=1)


class TestDegradedTopology:
    def test_single_cut_removes_channels_but_not_connectivity(self, element):
        _ring, topo = element
        model = RingFaultModel(9, 1)
        failed = {(0, 3)}  # ring 0, fibre segment 3
        degraded = degraded_mesh_topology(topo, model, failed)
        assert degraded.graph.number_of_edges() < topo.graph.number_of_edges()
        degraded.validate()  # still connected

    def test_two_cuts_on_one_ring_partition(self, element):
        _ring, topo = element
        model = RingFaultModel(9, 1)
        degraded = degraded_mesh_topology(topo, model, {(0, 1), (0, 5)})
        with pytest.raises(TopologyError):
            degraded.validate()

    def test_two_rings_survive_two_cuts(self, element):
        _ring, topo = element
        model = RingFaultModel(9, 2)
        degraded = degraded_mesh_topology(topo, model, {(0, 1), (0, 5)})
        degraded.validate()

    def test_removing_unknown_link_rejected(self, element):
        _ring, topo = element
        with pytest.raises(TopologyError):
            topo.degraded([("tor0", "ghost")])


class TestReroutedTraffic:
    def test_affected_pair_takes_two_mesh_hops(self, element):
        _ring, topo = element
        model = RingFaultModel(9, 1)
        failed = {(0, 2)}
        degraded = degraded_mesh_topology(topo, model, failed)
        # Find a rack pair whose direct channel died.
        dead_pair = next(
            (s, t)
            for (s, t), (ring, links) in model.pair_routes.items()
            if ring == 0 and 2 in links
        )
        s, t = dead_pair
        path = shortest_path(degraded.graph, f"h{s}.0", f"h{t}.0")
        switches = [n for n in path if degraded.is_switch(n)]
        assert len(switches) == 3  # one detour switch

    def test_packets_still_delivered_with_latency_penalty(self, element):
        _ring, topo = element
        model = RingFaultModel(9, 1)
        failed = {(0, 2)}
        degraded = degraded_mesh_topology(topo, model, failed)
        dead_pair = next(
            (s, t)
            for (s, t), (ring, links) in model.pair_routes.items()
            if ring == 0 and 2 in links
        )
        s, t = dead_pair

        healthy_net = Network(topo, ECMPRouter(topo))
        healthy = healthy_net.send(f"h{s}.0", f"h{t}.0", 400)
        healthy_net.run()

        degraded_net = Network(degraded, ECMPRouter(degraded))
        rerouted = degraded_net.send(f"h{s}.0", f"h{t}.0", 400)
        degraded_net.run()

        assert rerouted.delivered_at is not None
        # One extra cut-through hop: a sub-microsecond penalty.
        assert healthy.latency < rerouted.latency < healthy.latency + 1e-6

    def test_all_pairs_deliver_after_single_cut(self, element):
        _ring, topo = element
        model = RingFaultModel(9, 1)
        degraded = degraded_mesh_topology(topo, model, {(0, 7)})
        net = Network(degraded, ECMPRouter(degraded))
        servers = degraded.servers()
        packets = [
            net.send(a, b, 400)
            for i, a in enumerate(servers)
            for b in servers[i + 1 :]
        ]
        net.run()
        assert all(p.delivered_at is not None for p in packets)
