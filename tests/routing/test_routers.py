"""Tests for the routing engines."""

import pytest

import repro.topology as T
from repro.routing import (
    AdaptiveVLBRouter,
    ECMPRouter,
    KShortestPathsRouter,
    RoutingError,
    VLBRouter,
    stable_hash,
)
from repro.sim import Network, PoissonSource
from repro.units import GBPS


@pytest.fixture()
def mesh():
    return T.full_mesh(5, 2)


@pytest.fixture()
def tree():
    return T.three_tier_tree(num_pods=2, tors_per_pod=2, servers_per_tor=2)


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash("a", 1) == stable_hash("a", 1)

    def test_discriminates(self):
        assert stable_hash("a", 1) != stable_hash("a", 2)


class TestECMP:
    def test_mesh_always_uses_direct_path(self, mesh):
        router = ECMPRouter(mesh)
        # "Since there is a single shortest path between any pair of
        # switches in a full mesh, ECMP always selects the direct
        # one-hop path" (Section 3.4).
        for flow in range(10):
            path = router.route("h0.0", "h3.0", flow)
            assert path == ("h0.0", "tor0", "tor3", "h3.0")

    def test_tree_spreads_over_equal_cost_paths(self, tree):
        router = ECMPRouter(tree)
        paths = router.paths("h0.0", "h3.0")
        assert len(paths) > 1
        chosen = {router.route("h0.0", "h3.0", f) for f in range(50)}
        assert len(chosen) > 1

    def test_max_paths_bound(self, tree):
        router = ECMPRouter(tree, max_paths=1)
        assert len(router.paths("h0.0", "h3.0")) == 1

    def test_invalid_max_paths(self, tree):
        with pytest.raises(ValueError):
            ECMPRouter(tree, max_paths=0)

    def test_weighted_paths_even_split(self, tree):
        router = ECMPRouter(tree)
        weighted = router.weighted_paths("h0.0", "h3.0")
        assert sum(w.weight for w in weighted) == pytest.approx(1.0)
        assert len({w.weight for w in weighted}) == 1


class TestVLB:
    def test_paths_direct_first(self, mesh):
        router = VLBRouter(mesh)
        paths = router.paths("h0.0", "h3.0")
        assert paths[0] == ("h0.0", "tor0", "tor3", "h3.0")
        # 3 detours through the other mesh switches.
        assert len(paths) == 4
        assert all(len(p) == 5 for p in paths[1:])

    def test_weights_match_direct_fraction(self, mesh):
        router = VLBRouter(mesh, direct_fraction=0.4)
        weighted = router.weighted_paths("h0.0", "h3.0")
        assert weighted[0].weight == pytest.approx(0.4)
        assert sum(w.weight for w in weighted) == pytest.approx(1.0)
        for detour in weighted[1:]:
            assert detour.weight == pytest.approx(0.6 / 3)

    def test_full_direct_fraction_uses_single_path(self, mesh):
        router = VLBRouter(mesh, direct_fraction=1.0)
        weighted = router.weighted_paths("h0.0", "h3.0")
        assert len(weighted) == 1

    def test_same_rack_short_circuit(self, mesh):
        router = VLBRouter(mesh)
        assert router.paths("h0.0", "h0.1") == [("h0.0", "tor0", "h0.1")]

    def test_route_split_roughly_matches_fraction(self, mesh):
        router = VLBRouter(mesh, direct_fraction=0.5)
        direct = sum(
            1
            for f in range(400)
            if len(router.route("h0.0", "h3.0", f)) == 4
        )
        assert 120 <= direct <= 280  # ~50 % ± sampling noise

    def test_invalid_fraction(self, mesh):
        with pytest.raises(ValueError):
            VLBRouter(mesh, direct_fraction=1.5)

    def test_non_mesh_topology_rejected(self, tree):
        with pytest.raises(RoutingError):
            VLBRouter(tree)

    def test_adaptive_stays_direct_under_light_load(self, mesh):
        router = AdaptiveVLBRouter(mesh, offered_load_bps=1 * GBPS)
        assert router.direct_fraction == 1.0

    def test_adaptive_spills_under_heavy_load(self, mesh):
        # 40 G offered over a 10 G channel at the default 90 % target:
        # k = 0.9 × 10 / 40.
        router = AdaptiveVLBRouter(mesh, offered_load_bps=40 * GBPS)
        assert router.direct_fraction == pytest.approx(0.225)

    def test_adaptive_target_is_configurable(self, mesh):
        router = AdaptiveVLBRouter(
            mesh, offered_load_bps=40 * GBPS, utilization_target=1.0
        )
        assert router.direct_fraction == pytest.approx(0.25)


class TestKShortest:
    def test_returns_k_paths(self, mesh):
        router = KShortestPathsRouter(mesh, k=3)
        assert len(router.paths("h0.0", "h3.0")) == 3

    def test_paths_sorted_by_length(self, mesh):
        router = KShortestPathsRouter(mesh, k=4)
        lengths = [len(p) for p in router.paths("h0.0", "h3.0")]
        assert lengths == sorted(lengths)

    def test_invalid_k(self, mesh):
        with pytest.raises(ValueError):
            KShortestPathsRouter(mesh, k=0)


class TestRouterCaching:
    def test_cache_returns_same_objects(self, mesh):
        router = ECMPRouter(mesh)
        first = router._cached_paths("h0.0", "h3.0")
        second = router._cached_paths("h0.0", "h3.0")
        assert first is second


class TestNoRouteContract:
    """One answer to "no path", whichever router is asked and whichever
    of its entry points: :class:`RoutingError`.  A server whose only
    uplink is cut used to surface three ways — ``RoutingError`` from
    k-shortest, the graph library's no-path exception from ECMP's
    search, ``TopologyError`` from VLB's ToR lookup.  A node the
    topology does not hold is not "no path" but a caller's bug: a
    ``KeyError`` naming it."""

    ROUTERS = [ECMPRouter, KShortestPathsRouter, VLBRouter]

    @staticmethod
    def _isolate(topo, router, server):
        uplink = (server, topo.tor_of(server))
        topo.graph.remove_edge(*uplink)
        router.invalidate_links([uplink])

    @pytest.mark.parametrize("make_router", ROUTERS)
    @pytest.mark.parametrize("isolated_end", ["src", "dst"])
    def test_isolated_server_raises_routing_error(self, make_router, isolated_end):
        topo = T.quartz_ring(4, 2)
        router = make_router(topo)
        servers = topo.servers()
        src, dst = servers[0], servers[-1]
        router.route(src, dst, flow_id=3)  # warm the caches the cut must drop
        self._isolate(topo, router, src if isolated_end == "src" else dst)
        with pytest.raises(RoutingError):
            router.route(src, dst, flow_id=3)
        with pytest.raises(RoutingError):
            router.weighted_paths(src, dst)
        # Pairs that do not touch the isolated server still route.
        assert router.route(servers[2], servers[4])

    @pytest.mark.parametrize("make_router", ROUTERS)
    @pytest.mark.parametrize("unknown_end", ["src", "dst"])
    def test_unknown_node_is_a_key_error(self, make_router, unknown_end):
        topo = T.quartz_ring(4, 2)
        router = make_router(topo)
        known = topo.servers()[0]
        src, dst = ("ghost", known) if unknown_end == "src" else (known, "ghost")
        with pytest.raises(KeyError, match="ghost"):
            router.route(src, dst)
        with pytest.raises(KeyError, match="ghost"):
            router.weighted_paths(src, dst)

    def test_tree_ecmp_isolated_server(self, tree):
        router = ECMPRouter(tree)
        servers = tree.servers()
        self._isolate(tree, router, servers[0])
        with pytest.raises(RoutingError):
            router.route(servers[0], servers[-1])

    @pytest.mark.parametrize("make_router", ROUTERS)
    def test_no_route_is_not_cached(self, make_router):
        """Not past a repair: the pair routes again."""
        topo = T.quartz_ring(4, 2)
        router = make_router(topo)
        servers = topo.servers()
        uplink = (servers[0], topo.tor_of(servers[0]))
        data = dict(topo.graph.get_edge_data(*uplink))
        self._isolate(topo, router, servers[0])
        with pytest.raises(RoutingError):
            router.route(servers[0], servers[-1])
        topo.graph.add_edge(*uplink, **data)
        router.invalidate_links([uplink], repaired=True)
        assert router.route(servers[0], servers[-1])[0] == servers[0]

    @pytest.mark.parametrize("make_router", [ECMPRouter, KShortestPathsRouter])
    def test_no_path_is_searched_once_per_outage(self, make_router, monkeypatch):
        """Every fire of a partitioned pair asks the router; "no path" is
        memoized, so only the first one searches.  A repair flushes it."""
        topo = T.quartz_ring(4, 2)
        net = Network(topo, make_router(topo))
        src, dst = topo.servers()[0], topo.servers()[-1]
        searched = []
        paths = net.router.paths
        monkeypatch.setattr(
            net.router, "paths", lambda s, d: searched.append((s, d)) or paths(s, d)
        )
        uplink = (src, topo.tor_of(src))
        net.fail_link(*uplink)
        source = PoissonSource(net, src, dst, rate_pps=1e6, seed=0)
        source.start()
        net.engine.run(until=1e-4)
        assert net.packets_unroutable == source.packets_sent > 10
        assert searched == [(src, dst)]
        net.repair_link(*uplink)
        assert net.router.route(src, dst)[0] == src
        net.engine.run(until=2e-4)
        assert net.packets_delivered > 0
