"""Tests for the QuartzRing design element (paper Sections 3 and 3.2)."""

import pytest

from repro.core import QuartzConfigError, QuartzRing
from repro.topology.base import LinkKind, NodeKind
from repro.units import GBPS


class TestCanonicalElement:
    """The paper's 64-port, 32/32 split reference configuration."""

    @pytest.fixture()
    def ring(self):
        return QuartzRing.from_switch_ports(64)

    def test_mimics_1056_port_switch(self, ring):
        assert ring.num_switches == 33
        assert ring.total_server_ports == 1056  # 32 × 33

    def test_port_density(self, ring):
        assert ring.port_density == 64

    def test_oversubscription_is_32_to_1(self, ring):
        assert ring.oversubscription == 32.0

    def test_two_switch_worst_case(self, ring):
        assert ring.max_switch_hops == 2

    def test_needs_two_fibre_rings(self, ring):
        # Section 3.5: 137 (ours: 136) channels → two 80-channel WDMs.
        assert ring.physical_rings == 2
        assert ring.wdms_required == 66

    def test_validates(self, ring):
        ring.validate()

    def test_channel_plan_valid(self, ring):
        plan = ring.channel_plan()
        plan.validate()
        assert plan.ring_size == 33


class TestDualTor:
    def test_2080_ports(self):
        ring = QuartzRing.dual_tor(64)
        assert ring.total_server_ports == 2080  # 32 × 65
        assert ring.num_racks == 65
        assert ring.num_switches == 130

    def test_peers_split_between_rack_switches(self):
        ring = QuartzRing.dual_tor(64)
        assert ring.peers_per_switch == 32

    def test_topology_paths_stay_two_switches(self):
        topo = QuartzRing.dual_tor(8).to_topology(servers_per_switch=1)
        from repro.topology.graph import shortest_path

        servers = topo.servers()
        path = shortest_path(topo.graph, servers[0], servers[-1])
        switches = [n for n in path if topo.is_switch(n)]
        assert len(switches) <= 2


class TestConfigValidation:
    def test_too_few_switches(self):
        with pytest.raises(QuartzConfigError):
            QuartzRing(num_switches=1)

    def test_insufficient_mesh_ports(self):
        with pytest.raises(QuartzConfigError):
            QuartzRing(num_switches=40, server_ports=32, mesh_ports=32)

    def test_odd_port_count_rejected(self):
        with pytest.raises(QuartzConfigError):
            QuartzRing.from_switch_ports(63)

    def test_non_positive_ports_rejected(self):
        with pytest.raises(QuartzConfigError):
            QuartzRing(num_switches=4, server_ports=0, mesh_ports=4)

    def test_three_switches_per_rack_rejected(self):
        with pytest.raises(QuartzConfigError):
            QuartzRing(num_switches=9, switches_per_rack=3)


class TestTopologyMaterialization:
    def test_full_mesh_links(self):
        topo = QuartzRing(num_switches=5, server_ports=4, mesh_ports=4).to_topology(
            servers_per_switch=2
        )
        mesh_links = [l for l in topo.links() if l.link_kind is LinkKind.MESH]
        assert len(mesh_links) == 10  # C(5, 2)

    def test_server_count_and_racks(self):
        topo = QuartzRing(num_switches=4, server_ports=8, mesh_ports=3).to_topology(
            servers_per_switch=3
        )
        assert len(topo.servers()) == 12
        assert topo.racks() == [0, 1, 2, 3]

    def test_cannot_overfill_server_ports(self):
        ring = QuartzRing(num_switches=4, server_ports=2, mesh_ports=3)
        with pytest.raises(QuartzConfigError):
            ring.to_topology(servers_per_switch=3)

    def test_switch_model_propagates(self):
        topo = QuartzRing(
            num_switches=3, server_ports=2, mesh_ports=2, switch_model="SF_1G"
        ).to_topology(servers_per_switch=1)
        for sw in topo.switches():
            assert topo.switch_model(sw) == "SF_1G"

    def test_dual_tor_servers_dual_homed(self):
        topo = QuartzRing.dual_tor(8).to_topology(servers_per_switch=1)
        server = topo.servers()[0]
        tors = [n for n in topo.graph.neighbors(server)]
        assert len(tors) == 2
        assert all(topo.kind(t) is NodeKind.TOR for t in tors)


class TestOpticsAccounting:
    def test_transceiver_count_is_two_per_pair(self):
        ring = QuartzRing(num_switches=8, server_ports=8, mesh_ports=8)
        assert ring.transceivers_required == 8 * 7

    def test_amplifiers_scale_with_rings(self):
        small = QuartzRing(num_switches=8, server_ports=8, mesh_ports=8)
        assert small.physical_rings == 1
        assert small.amplifiers_required == 4  # ceil(8 / 2)

    def test_summary_mentions_key_numbers(self):
        text = QuartzRing.from_switch_ports(64).summary()
        assert "1056" in text
        assert "M=33" in text

    def test_custom_link_rate(self):
        ring = QuartzRing(
            num_switches=4, server_ports=4, mesh_ports=3, link_rate=40 * GBPS
        )
        topo = ring.to_topology(servers_per_switch=1)
        mesh = [l for l in topo.links() if l.link_kind is LinkKind.MESH]
        assert all(l.capacity == 40 * GBPS for l in mesh)
