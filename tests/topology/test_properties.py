"""Property-based invariants of the topology generators."""

import networkx as nx
from hypothesis import given, settings, strategies as st

import repro.topology as T
from repro.topology.base import LinkKind
from repro.topology.graph import is_connected, shortest_path
from tests.topology.nx_graph import to_networkx


class TestMeshProperties:
    @given(st.integers(2, 12), st.integers(1, 4))
    @settings(max_examples=20, deadline=None)
    def test_mesh_structure(self, switches, servers):
        topo = T.full_mesh(switches, servers)
        mesh_links = [l for l in topo.links() if l.link_kind is LinkKind.MESH]
        assert len(mesh_links) == switches * (switches - 1) // 2
        assert len(topo.servers()) == switches * servers
        # Every server pair is at most 2 switch hops apart.
        profile = T.worst_case_hop_profile(topo, sample=8)
        assert profile.switch_hops <= 2


class TestTreeProperties:
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_three_tier_counts(self, pods, tors, servers):
        topo = T.three_tier_tree(
            num_pods=pods, tors_per_pod=tors, servers_per_tor=servers
        )
        assert len(topo.servers()) == pods * tors * servers
        topo.validate()

    @given(st.integers(1, 8), st.integers(1, 4))
    @settings(max_examples=20, deadline=None)
    def test_two_tier_diameter(self, tors, servers):
        topo = T.two_tier_tree(tors, servers)
        diameter = nx.diameter(to_networkx(topo.graph))
        assert diameter <= 4  # server-tor-root-tor-server


class TestJellyfishProperties:
    @given(st.integers(0, 20))
    @settings(max_examples=15, deadline=None)
    def test_regular_and_connected(self, seed):
        try:
            topo = T.jellyfish(12, 4, 2, seed=seed)
        except ValueError:
            return  # disconnected sample: generator correctly rejects
        sg = topo.switch_graph()
        assert all(sg.degree(n) == 4 for n in sg)
        assert is_connected(topo.graph)


class TestBCubeProperties:
    @given(st.integers(2, 6), st.integers(0, 1))
    @settings(max_examples=15, deadline=None)
    def test_counts_and_nic_degree(self, n, k):
        topo = T.bcube(n, k)
        assert len(topo.servers()) == n ** (k + 1)
        assert len(topo.switches()) == (k + 1) * n**k
        for server in topo.servers():
            assert topo.graph.degree(server) == k + 1


class TestQuartzCompositeProperties:
    @given(st.integers(2, 4), st.integers(2, 4))
    @settings(max_examples=10, deadline=None)
    def test_quartz_in_edge_connectivity(self, rings, ring_size):
        topo = T.quartz_in_edge(
            num_rings=rings, ring_size=ring_size, servers_per_switch=1
        )
        topo.validate()
        # Intra-ring pairs never need the core.
        path = shortest_path(topo.graph, "h0.0", "h1.0")
        assert all(not n.startswith("core") for n in path)

    @given(st.integers(0, 10))
    @settings(max_examples=10, deadline=None)
    def test_quartz_in_jellyfish_connected(self, seed):
        topo = T.quartz_in_jellyfish(seed=seed)
        topo.validate()


class TestDegradedProperties:
    @given(st.integers(3, 8), st.integers(0, 50))
    @settings(max_examples=20, deadline=None)
    def test_single_mesh_link_removal_keeps_connectivity(self, switches, seed):
        import random

        topo = T.full_mesh(switches, 1)
        rng = random.Random(seed)
        mesh_links = [l for l in topo.links() if l.link_kind is LinkKind.MESH]
        victim = rng.choice(mesh_links)
        degraded = topo.degraded([(victim.u, victim.v)])
        assert is_connected(degraded.graph)
