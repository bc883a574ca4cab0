"""Tests for the typed topology graph."""

import pytest

from repro.topology.base import (
    LinkKind,
    NodeKind,
    Topology,
    TopologyError,
    connect_all,
)
from repro.units import GBPS


@pytest.fixture()
def tiny():
    topo = Topology("tiny")
    topo.add_switch("sw0", NodeKind.TOR, rack=0)
    topo.add_switch("sw1", NodeKind.TOR, rack=1)
    topo.add_link("sw0", "sw1", 10 * GBPS, LinkKind.MESH)
    topo.add_server("h0", rack=0)
    topo.add_link("h0", "sw0", 10 * GBPS, LinkKind.HOST)
    topo.add_server("h1", rack=1)
    topo.add_link("h1", "sw1", 10 * GBPS, LinkKind.HOST)
    return topo


class TestConstruction:
    def test_duplicate_node_rejected(self, tiny):
        with pytest.raises(TopologyError):
            tiny.add_server("h0")

    def test_duplicate_link_rejected(self, tiny):
        with pytest.raises(TopologyError):
            tiny.add_link("sw0", "sw1", 10 * GBPS)

    def test_self_loop_rejected(self, tiny):
        with pytest.raises(TopologyError):
            tiny.add_link("sw0", "sw0", 10 * GBPS)

    def test_unknown_endpoint_rejected(self, tiny):
        with pytest.raises(TopologyError):
            tiny.add_link("sw0", "ghost", 10 * GBPS)

    def test_non_positive_capacity_rejected(self, tiny):
        tiny.add_switch("sw2", NodeKind.TOR, rack=2)
        with pytest.raises(TopologyError):
            tiny.add_link("sw0", "sw2", 0)

    def test_server_as_switch_kind_rejected(self):
        topo = Topology("bad")
        with pytest.raises(TopologyError):
            topo.add_switch("x", NodeKind.SERVER)


class TestQueries:
    def test_servers_and_switches(self, tiny):
        assert tiny.servers() == ["h0", "h1"]
        assert set(tiny.switches()) == {"sw0", "sw1"}

    def test_kind_filter(self, tiny):
        assert tiny.switches(NodeKind.TOR) == ["sw0", "sw1"]
        assert tiny.switches(NodeKind.CORE) == []

    def test_tor_of(self, tiny):
        assert tiny.tor_of("h0") == "sw0"

    def test_tor_of_non_server_raises(self, tiny):
        with pytest.raises(TopologyError):
            tiny.tor_of("sw0")

    def test_link_lookup_either_orientation(self, tiny):
        assert tiny.link("sw1", "sw0").capacity == 10 * GBPS

    def test_missing_link_raises(self, tiny):
        with pytest.raises(TopologyError):
            tiny.link("h0", "h1")

    def test_racks(self, tiny):
        assert tiny.racks() == [0, 1]

    def test_servers_in_rack(self, tiny):
        assert tiny.servers_in_rack(1) == ["h1"]

    def test_contains_and_len(self, tiny):
        assert "h0" in tiny
        assert "ghost" not in tiny
        assert len(tiny) == 4

    def test_summary_counts(self, tiny):
        assert "2 servers" in tiny.summary()
        assert "2 switches" in tiny.summary()


class TestValidation:
    def test_valid_topology_passes(self, tiny):
        tiny.validate()

    def test_empty_topology_fails(self):
        with pytest.raises(TopologyError):
            Topology("empty").validate()

    def test_disconnected_fails(self, tiny):
        tiny.add_switch("lonely", NodeKind.TOR, rack=9)
        with pytest.raises(TopologyError):
            tiny.validate()

    def test_server_to_server_link_fails_unless_server_centric(self):
        topo = Topology("sc")
        topo.add_switch("sw", NodeKind.TOR, rack=0)
        topo.add_server("a", rack=0)
        topo.add_server("b", rack=0)
        topo.add_link("a", "sw", 1 * GBPS, LinkKind.HOST)
        topo.add_link("b", "sw", 1 * GBPS, LinkKind.HOST)
        topo.add_link("a", "b", 1 * GBPS, LinkKind.MESH)
        with pytest.raises(TopologyError):
            topo.validate()
        topo.graph.graph["server_centric"] = True
        topo.validate()


def recomputed(topo):
    """``topo``'s fingerprint computed afresh, on a copy of its graph that
    carries no memo."""
    return Topology(topo.name, topo.graph.copy()).fingerprint()


class TestFingerprintMemo:
    def test_a_copy_carries_its_originals_fingerprint(self, tiny):
        copy = tiny.copy()
        assert copy._fingerprint[3] == tiny.fingerprint() == recomputed(tiny)
        assert copy.fingerprint() == recomputed(copy)

    @pytest.mark.parametrize("change", [
        lambda g: g.add_node("sw2", kind=NodeKind.TOR, rack=2, switch_model="ULL"),
        lambda g: g.add_node("sw0", rack=7),  # an attribute, through add_node
        lambda g: g.add_edge("h0", "sw1", capacity=GBPS, link_kind=LinkKind.HOST),
        lambda g: g.add_edge("sw0", "sw1", capacity=GBPS),  # an attribute, through add_edge
        lambda g: g.remove_edge("h1", "sw1"),
        lambda g: g.graph.update(server_centric=True),  # a graph-level attribute
    ])
    def test_any_change_drops_the_memo(self, tiny, change):
        for topo in (tiny, tiny.copy()):
            before = topo.fingerprint()
            change(topo.graph)
            assert topo.fingerprint() == recomputed(topo) != before

    def test_a_new_graph_is_fingerprinted_afresh(self, tiny):
        tiny.fingerprint()
        tiny.graph = tiny.graph.subgraph(["sw0", "sw1"])
        assert tiny.fingerprint() == recomputed(tiny)


class TestHelpers:
    def test_connect_all_builds_full_mesh(self):
        topo = Topology("mesh")
        nodes = [topo.add_switch(f"s{i}", NodeKind.TOR, rack=i) for i in range(5)]
        connect_all(topo, nodes, 10 * GBPS)
        assert topo.graph.number_of_edges() == 10

    def test_switch_graph_excludes_servers(self, tiny):
        sg = tiny.switch_graph()
        assert set(sg.nodes()) == {"sw0", "sw1"}
