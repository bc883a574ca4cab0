"""Tests for the topology generators (trees, fat-tree, BCube, DCell,
Jellyfish, mesh, Quartz)."""

import importlib

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.topology as T
from repro.topology.base import LinkKind, NodeKind
from repro.topology.graph import shortest_path
from repro.topology.jellyfish import random_regular_graph
from repro.units import GBPS
from tests.topology.nx_graph import to_networkx

#: The module, which ``repro.topology``'s ``jellyfish`` function shadows.
jellyfish_module = importlib.import_module("repro.topology.jellyfish")


class TestTwoTierTree:
    def test_table9_configuration(self):
        topo = T.two_tier_tree(num_tors=16, servers_per_tor=2)
        assert len(topo.switches()) == 17
        assert len(topo.servers()) == 32

    def test_uplinks_are_uplink_kind(self):
        topo = T.two_tier_tree(4, 2)
        uplinks = [l for l in topo.links() if l.link_kind is LinkKind.UPLINK]
        assert len(uplinks) == 4

    def test_multiple_roots(self):
        topo = T.two_tier_tree(4, 2, num_roots=2)
        assert len(topo.switches(NodeKind.CORE)) == 2

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            T.two_tier_tree(0, 2)


class TestThreeTierTree:
    def test_default_structure(self):
        topo = T.three_tier_tree()
        assert len(topo.switches(NodeKind.CORE)) == 2
        assert len(topo.switches(NodeKind.AGG)) == 4  # 2 pods × 2
        assert len(topo.switches(NodeKind.TOR)) == 16
        assert len(topo.servers()) == 64

    def test_cores_are_ccs(self):
        topo = T.three_tier_tree()
        for core in topo.switches(NodeKind.CORE):
            assert topo.switch_model(core) == "CCS"

    def test_tor_connects_to_all_pod_aggs(self):
        topo = T.three_tier_tree(num_pods=2, aggs_per_pod=2)
        neighbors = set(topo.graph.neighbors("tor0.0"))
        assert {"agg0.0", "agg0.1"} <= neighbors
        assert not {"agg1.0", "agg1.1"} & neighbors

    def test_cross_pod_paths_traverse_core(self):
        topo = T.three_tier_tree()
        path = shortest_path(topo.graph, "h0.0", "h15.0")
        kinds = [topo.kind(n) for n in path if topo.is_switch(n)]
        assert NodeKind.CORE in kinds


class TestFatTree:
    def test_k4_counts(self):
        topo = T.fat_tree(4)
        assert len(topo.switches()) == 20  # 4 cores + 8 aggs + 8 edges
        assert len(topo.servers()) == 16

    def test_odd_k_rejected(self):
        with pytest.raises(ValueError):
            T.fat_tree(5)

    def test_reduced_hosts(self):
        topo = T.fat_tree(4, servers_per_edge=1)
        assert len(topo.servers()) == 8

    def test_too_many_hosts_rejected(self):
        with pytest.raises(ValueError):
            T.fat_tree(4, servers_per_edge=3)

    def test_cross_pod_reachability(self):
        topo = T.fat_tree(4)
        assert shortest_path(topo.graph, "h0.0", "h7.0")


class TestFoldedClos:
    def test_table9_fat_tree_row(self):
        topo = T.folded_clos(32, 16, 2, 1)
        assert len(topo.switches()) == 48

    def test_parallel_links_fold_into_capacity(self):
        topo = T.folded_clos(4, 2, links_per_pair=2, servers_per_edge=1,
                             fabric_rate=10 * GBPS)
        assert topo.capacity("edge0", "spine0") == 20 * GBPS

    def test_physical_link_count_recorded(self):
        topo = T.folded_clos(4, 2, links_per_pair=2, servers_per_edge=1)
        assert topo.graph.graph["physical_links_per_pair"] == 2


class TestBCube:
    def test_bcube1_counts(self):
        topo = T.bcube(4, 1)
        assert len(topo.servers()) == 16
        assert len(topo.switches()) == 8  # 2 levels × 4

    def test_each_server_has_k_plus_1_nics(self):
        topo = T.bcube(4, 1)
        for server in topo.servers():
            assert topo.graph.degree(server) == 2

    def test_bcube0_is_a_star(self):
        topo = T.bcube(4, 0)
        assert len(topo.switches()) == 1
        assert len(topo.servers()) == 4

    def test_marked_server_centric(self):
        assert T.bcube(4, 1).graph.graph["server_centric"]

    def test_shortest_cross_module_path_relays_through_server(self):
        topo = T.bcube(4, 1)
        # Servers 0 and 5 share no switch; the path relays via a server.
        path = shortest_path(topo.graph, "h0", "h5")
        relays = [n for n in path[1:-1] if topo.is_server(n)]
        assert len(relays) == 1

    def test_invalid_arity(self):
        with pytest.raises(ValueError):
            T.bcube(1, 1)


class TestJellyfish:
    def test_regular_degree(self):
        topo = T.jellyfish(16, 4, 2, seed=0)
        for sw in topo.switches():
            random_links = [
                l for l in topo.links()
                if l.link_kind is LinkKind.RANDOM and sw in l.endpoints()
            ]
            assert len(random_links) == 4

    def test_deterministic_per_seed(self):
        a = T.jellyfish(12, 4, 1, seed=3)
        b = T.jellyfish(12, 4, 1, seed=3)
        assert set(a.graph.edges()) == set(b.graph.edges())

    def test_odd_stub_count_rejected(self):
        with pytest.raises(ValueError):
            T.jellyfish(5, 3)

    def test_degree_too_high_rejected(self):
        with pytest.raises(ValueError):
            T.jellyfish(4, 4)


class TestJellyfishSampler:
    """``random_regular_graph`` against networkx 3.6.1's, draw for draw:
    the same edges in the same order, so the same links in the same
    order, the same fingerprint and the same routes."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(5, 39), st.integers(1, 7), st.integers(0, 10**6))
    def test_same_edges_in_the_same_order(self, n, degree, seed):
        degree = min(degree, n - 1)
        n += (n * degree) % 2
        ours = random_regular_graph(degree, n, seed)
        assert list(ours) == list(range(n))
        assert ours.edges() == list(nx.random_regular_graph(degree, n, seed=seed).edges())

    def test_the_retry_path_draws_as_networkx_does(self, monkeypatch):
        """Table 9's Jellyfish (24 switches of degree 20, seed 1) is
        accepted on its 22nd pairing; every abandoned try spends draws."""
        tries = []
        attempt = jellyfish_module._try_pairing

        def counted(*args):
            tries.append(1)
            return attempt(*args)

        monkeypatch.setattr(jellyfish_module, "_try_pairing", counted)
        ours = random_regular_graph(20, 24, 1)
        assert len(tries) == 22
        assert ours.edges() == list(nx.random_regular_graph(20, 24, seed=1).edges())

    def test_degree_zero_is_edgeless(self):
        graph = random_regular_graph(0, 6, 3)
        assert list(graph) == list(range(6)) and graph.edges() == []

    @pytest.mark.parametrize("degree, n", [(3, 5), (5, 5), (-1, 4)])
    def test_infeasible_degree_rejected(self, degree, n):
        with pytest.raises(ValueError):
            random_regular_graph(degree, n, 0)

    def test_the_fabric_is_the_one_networkx_gave(self, monkeypatch):
        """Built on networkx's sampler instead, each fabric has the same
        links, added in the same order: equal neighbour order everywhere."""

        def build():
            out = []
            for n, degree, servers, seed in [(16, 4, 4, 0), (24, 20, 1, 1), (12, 3, 2, 7)]:
                graph = T.jellyfish.__wrapped__(n, degree, servers, seed=seed).graph
                out.append([(node, list(nbrs.items())) for node, nbrs in graph.adj.items()])
            return out

        ours = build()
        monkeypatch.setattr(
            jellyfish_module, "random_regular_graph",
            lambda degree, n, seed: nx.random_regular_graph(degree, n, seed=seed),
        )
        assert ours == build()


class TestMeshAndQuartz:
    def test_full_mesh_link_count(self):
        topo = T.full_mesh(6, 1)
        mesh = [l for l in topo.links() if l.link_kind is LinkKind.MESH]
        assert len(mesh) == 15

    def test_quartz_ring_equals_mesh_shape(self):
        q = T.quartz_ring(6, 1)
        m = T.full_mesh(6, 1)
        assert nx.is_isomorphic(to_networkx(q.graph), to_networkx(m.graph))

    def test_quartz_dual_tor_topology(self):
        topo = T.quartz_dual_tor(8, servers_per_rack=1)
        # 8-port switches → 4 servers/rack capacity, 9 racks, 18 switches.
        assert len(topo.switches()) == 18
        for server in topo.servers():
            assert topo.graph.degree(server) == 2


class TestComposites:
    def test_quartz_in_core_has_no_ccs(self):
        topo = T.quartz_in_core()
        models = {topo.switch_model(s) for s in topo.switches()}
        assert models == {"ULL"}

    def test_quartz_in_core_ring_is_meshed(self):
        topo = T.quartz_in_core(core_ring_size=4)
        ring = [s for s in topo.switches() if s.startswith("qcore")]
        assert len(ring) == 4
        for i, u in enumerate(ring):
            for v in ring[i + 1 :]:
                assert topo.graph.has_edge(u, v)

    def test_quartz_in_edge_keeps_ccs_core(self):
        topo = T.quartz_in_edge()
        cores = topo.switches(NodeKind.CORE)
        assert cores and all(topo.switch_model(c) == "CCS" for c in cores)

    def test_quartz_in_edge_and_core_all_ull(self):
        topo = T.quartz_in_edge_and_core()
        assert {topo.switch_model(s) for s in topo.switches()} == {"ULL"}

    def test_quartz_in_jellyfish_inter_ring_degree(self):
        topo = T.quartz_in_jellyfish(num_rings=4, inter_ring_links=4, seed=0)
        random_capacity = sum(
            l.capacity for l in topo.links() if l.link_kind is LinkKind.RANDOM
        )
        # 4 rings × 4 links / 2 = 8 inter-ring links of 10 G (possibly
        # folded into fewer edges with added capacity).
        assert random_capacity == 8 * 10 * GBPS

    def test_quartz_in_jellyfish_connected_rings(self):
        topo = T.quartz_in_jellyfish(num_rings=4, seed=1)
        topo.validate()

    def test_odd_inter_ring_stub_rejected(self):
        with pytest.raises(ValueError):
            T.quartz_in_jellyfish(num_rings=3, inter_ring_links=3)

    def test_all_composites_have_64_servers_by_default(self):
        for build in (
            T.quartz_in_core,
            T.quartz_in_edge,
            T.quartz_in_edge_and_core,
            T.quartz_in_jellyfish,
        ):
            assert len(build().servers()) == 64
