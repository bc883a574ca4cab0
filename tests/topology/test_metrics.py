"""Tests for topology metrics — the Table 9 reproduction machinery."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.topology as T
from repro.analysis.latency import table9_latency
from repro.topology.base import LinkKind, NodeKind, TopologyError
from repro.topology.graph import single_source_shortest_path
from repro.topology.metrics import _max_flow_value
from repro.units import usec
from tests.topology.nx_graph import to_networkx


class TestHopCounts:
    def test_mesh_is_two_switch_hops(self):
        topo = T.full_mesh(6, 1)
        assert T.switch_hops(topo, "h0.0", "h5.0") == 2

    def test_same_rack_is_one_hop(self):
        topo = T.full_mesh(4, 2)
        assert T.switch_hops(topo, "h0.0", "h0.1") == 1

    def test_two_tier_is_three_hops(self):
        topo = T.two_tier_tree(4, 2)
        assert T.switch_hops(topo, "h0.0", "h3.0") == 3

    def test_three_tier_worst_case_is_five(self):
        topo = T.three_tier_tree()
        worst = T.worst_case_hop_profile(topo, sample=20)
        assert worst.switch_hops == 5

    def test_bcube_profile(self):
        topo = T.bcube(4, 1)
        profile = T.worst_case_hop_profile(topo)
        assert profile.switch_hops == 2
        assert profile.server_relay_hops == 1


class TestPathDiversity:
    def test_table9_values(self):
        assert T.path_diversity(T.full_mesh(33, 1)) == 32
        assert T.path_diversity(T.two_tier_tree(16, 1)) == 1
        assert T.path_diversity(T.folded_clos(32, 16, 2, 1)) == 32
        assert T.path_diversity(T.bcube(8, 1)) == 2

    def test_jellyfish_bounded_by_degree(self):
        topo = T.jellyfish(16, 4, 1, seed=0)
        assert T.path_diversity(topo) <= 4

    def test_explicit_pair(self):
        topo = T.full_mesh(5, 1)
        assert T.path_diversity(topo, "tor0", "tor1") == 4

    def test_needs_two_endpoints(self):
        topo = T.full_mesh(2, 1)
        assert T.path_diversity(topo) == 1

    def test_one_endpoint_alone_is_an_error(self):
        topo = T.full_mesh(5, 1)
        with pytest.raises(ValueError, match="both endpoints"):
            T.path_diversity(topo, "tor0")
        with pytest.raises(ValueError, match="both endpoints"):
            T.path_diversity(topo, v="tor1")

    def test_no_connected_pair_is_a_topology_error(self):
        topo = T.Topology("islands")
        topo.add_switch("tor0", NodeKind.TOR, rack=0)
        topo.add_switch("tor1", NodeKind.TOR, rack=1)
        with pytest.raises(TopologyError, match="connected"):
            T.path_diversity(topo)

    def test_same_endpoint_twice_is_an_error(self):
        with pytest.raises(ValueError):
            T.path_diversity(T.full_mesh(3, 1), "tor0", "tor0")


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(1, 3)),
        min_size=1, max_size=24,
    ),
    st.integers(0, 7),
    st.integers(0, 7),
)
def test_max_flow_equals_networkx(edges, s, t):
    """Integer capacities on an undirected graph: the augmenting-path
    value equals networkx's ``maximum_flow_value``."""
    theirs = nx.Graph()
    theirs.add_nodes_from(range(8))
    for a, b, cap in edges:
        if a != b:
            theirs.add_edge(a, b, capacity=cap)
    residual = {node: {} for node in theirs}
    for a, b, cap in theirs.edges(data="capacity"):
        residual[a][b] = residual[b][a] = cap
    if s == t:
        with pytest.raises(ValueError):
            _max_flow_value(residual, s, t)
    else:
        assert _max_flow_value(residual, s, t) == nx.maximum_flow_value(theirs, s, t)


def _repaired_ring():
    """A ring whose first mesh link was cut and repaired: it sits last in
    both endpoints' neighbour order, which a copy reorders."""
    topo = T.quartz_ring.__wrapped__(6, 2)
    u, v = "tor0", "tor1"
    data = topo.graph.get_edge_data(u, v)
    topo.graph.remove_edge(u, v)
    topo.graph.add_edge(u, v, **data)
    return topo


def _tie_a_copy_reorders():
    """Two shortest h0–h2 paths, one through a relay server (two switches
    and a relay) and one through three switches.  h0's edge to ``a`` is
    added first, but ``s`` comes first in node order, so a copy — and
    networkx's graph — walks ``s`` first and takes the relay path."""
    topo = T.Topology("tie")
    for node in ("s", "a"):
        topo.add_switch(node, rack=0)
    for node in ("h0", "h1", "h2"):
        topo.add_server(node, rack=0)
    for node in ("b", "c", "t"):
        topo.add_switch(node, rack=0)
    for u, v in [("h0", "a"), ("h0", "s"), ("s", "h1"), ("h1", "t"), ("t", "h2"),
                 ("a", "b"), ("b", "c"), ("c", "h2")]:
        topo.add_link(u, v, 1.0)
    return topo


#: Every generator at a small size, a repaired fabric, and a hand-built
#: tie whose answer depends on walking neighbours in a copy's order.
SMALL_FABRICS = {
    "tie a copy reorders": _tie_a_copy_reorders,
    "mesh": lambda: T.full_mesh(5, 2),
    "quartz-ring": lambda: T.quartz_ring(6, 2),
    "repaired quartz-ring": _repaired_ring,
    "quartz-dual-tor": lambda: T.quartz_dual_tor(8, 1),
    "two-tier": lambda: T.two_tier_tree(4, 2, num_roots=2),
    "three-tier": lambda: T.three_tier_tree(num_pods=2, tors_per_pod=2, servers_per_tor=2),
    "fat-tree": lambda: T.fat_tree(4),
    "folded-clos": lambda: T.folded_clos(4, 2, 2, 2),
    "bcube": lambda: T.bcube(3, 1),
    "jellyfish": lambda: T.jellyfish(10, 3, 2, seed=0),
    "quartz-in-core": lambda: T.quartz_in_core(servers_per_tor=1),
    "quartz-in-edge": lambda: T.quartz_in_edge(servers_per_switch=1),
    "quartz-in-edge-and-core": lambda: T.quartz_in_edge_and_core(servers_per_switch=1),
    "quartz-in-jellyfish": lambda: T.quartz_in_jellyfish(servers_per_switch=1),
}


def _networkx_metrics(topo):
    """The worst hop profile and path diversity over every server, each
    computed on networkx as the metrics were before they moved in-tree."""
    servers = topo.servers()
    graph = to_networkx(topo.graph)
    worst = T.HopProfile(0, 0)
    for i, src in enumerate(servers):
        paths = nx.single_source_shortest_path(graph, src)
        for dst in servers[i + 1 :]:
            path = paths[dst]
            profile = T.HopProfile(
                sum(1 for n in path if topo.is_switch(n)),
                sum(1 for n in path[1:-1] if topo.is_server(n)),
            )
            if sum(vars(profile).values()) > sum(vars(worst).values()):
                worst = profile

    if topo.graph.graph.get("server_centric"):
        flow_on, endpoints = topo.graph, sorted(topo.servers())
    else:
        flow_on, endpoints = topo.switch_graph(), sorted(topo.switches(NodeKind.TOR))
    flow_graph, best = to_networkx(flow_on), -1
    for a in endpoints:
        lengths = nx.single_source_shortest_path_length(flow_graph, a)
        for b in endpoints:
            if a < b and lengths.get(b, -1) > best:
                (u, v), best = (a, b), lengths[b]
    multiplier = int(topo.graph.graph.get("physical_links_per_pair", 1))
    flows = nx.Graph()
    flows.add_nodes_from(flow_on.nodes())
    for a, b, data in flow_on.edges(data=True):
        flows.add_edge(a, b, capacity=multiplier if data["link_kind"] is LinkKind.UPLINK else 1)
    return worst, nx.maximum_flow_value(flows, u, v)


@pytest.mark.parametrize("name", sorted(SMALL_FABRICS))
def test_metrics_equal_networkx(name):
    """Each source's BFS paths, the worst hop profile and the path
    diversity equal networkx's, tie for tie."""
    topo = SMALL_FABRICS[name]()
    graph = to_networkx(topo.graph)
    copy = topo.graph.copy()
    for src in topo.servers():
        ours = single_source_shortest_path(copy, src)
        assert list(ours.items()) == list(nx.single_source_shortest_path(graph, src).items())
    worst, diversity = _networkx_metrics(topo)
    if name == "tie a copy reorders":
        assert worst == T.HopProfile(switch_hops=2, server_relay_hops=1)
    assert T.worst_case_hop_profile(topo) == worst
    assert T.path_diversity(topo) == diversity


class TestWiringComplexity:
    def test_table9_values(self):
        assert T.wiring_complexity(T.full_mesh(33, 1)) == 528
        assert T.wiring_complexity(T.two_tier_tree(16, 1)) == 16
        # Folded Clos with 2 parallel cables per pair: 32 × 16 × 2.
        assert T.wiring_complexity(T.folded_clos(32, 16, 2, 1)) == 1024

    def test_jellyfish_counts_random_links(self):
        topo = T.jellyfish(24, 20, 1, seed=1)
        assert T.wiring_complexity(topo) == 240

    def test_host_links_do_not_count(self):
        topo = T.full_mesh(3, 5)
        assert T.wiring_complexity(topo) == 3


class TestTable9:
    """Table 9 as ``benchmarks/results/table09_topologies.txt`` prints
    it, every column, exactly.

    Deviations from the paper's rows, stated:
    - BCube(32,1): 64 switches and 1024 cross-rack links against the
      paper's 32 and 960.  1024 servers need two levels of 32 switches;
      the paper's counts undercount its own construction.
    - Jellyfish: path diversity 20 against the paper's 32.  Each of its
      24 switches has 20 switch-facing ports, so no pair can have more
      than 20 edge-disjoint paths.
    """

    #: name → (builder, hop sample, (latency µs, switch hops, server
    #: hops, switches, wiring, diversity)).
    ROWS = {
        "2-tier tree": (lambda: T.two_tier_tree(16, 2), 48, (1.5, 3, 0, 17, 16, 1)),
        "fat-tree (folded Clos)": (
            lambda: T.folded_clos(32, 16, 2, 1), 48, (1.5, 3, 0, 48, 1024, 32)
        ),
        "BCube(32,1)": (lambda: T.bcube(32, 1), 24, (16.0, 2, 1, 64, 1024, 2)),
        "jellyfish": (lambda: T.jellyfish(24, 20, 1, seed=1), 48, (1.5, 3, 0, 24, 240, 20)),
        "mesh (Quartz)": (lambda: T.full_mesh(33, 1), 48, (1.0, 2, 0, 33, 528, 32)),
    }

    @pytest.mark.parametrize("name", list(ROWS))
    def test_row(self, name):
        build, hop_sample, expected = self.ROWS[name]
        topo = build()
        profile = T.worst_case_hop_profile(topo, sample=hop_sample)
        row = (
            usec(table9_latency(profile)),
            profile.switch_hops,
            profile.server_relay_hops,
            T.switch_count(topo),
            T.wiring_complexity(topo),
            T.path_diversity(topo),
        )
        assert row == expected


class TestSummaries:
    def test_summarize_mesh(self):
        row = T.summarize(T.full_mesh(33, 1), hop_sample=33)
        assert row.switch_hops == 2
        assert row.num_switches == 33
        assert row.wiring_complexity == 528
        assert row.path_diversity == 32

    def test_switch_count(self):
        assert T.switch_count(T.three_tier_tree()) == 22

