"""k-shortest-paths routing under the batched route-table cache.

Covers the three contract points for the cached router: path order is
deterministic, table-served results equal a per-pair enumeration, and
the table is set aside (and restored) around ``fail_link``/``repair_link``.
"""

from itertools import islice

import pytest

import repro.topology as T
from repro.cache import artifact_cache, reset
from repro.routing import KShortestPathsRouter, RoutingError
from repro.routing.base import stable_hash
from repro.topology.graph import shortest_simple_paths


@pytest.fixture(autouse=True)
def _fresh_cache():
    reset()
    yield
    reset()


def _enumerate(topo, src, dst, k):
    """Yen's enumeration for one pair, straight off the graph."""
    return [tuple(p) for p in islice(shortest_simple_paths(topo.graph, src, dst), k)]


def _all_pairs(topo):
    servers = topo.servers()
    return [(s, d) for s in servers for d in servers if s != d]


@pytest.fixture
def topo():
    return T.jellyfish(8, 4, 2, seed=1)


def _first_pair(topo):
    servers = topo.servers()
    return servers[0], servers[-1]


class TestDeterminism:
    def test_repeated_calls_identical(self, topo):
        router = KShortestPathsRouter(topo, k=4)
        src, dst = _first_pair(topo)
        first = router.paths(src, dst)
        assert all(router.paths(src, dst) == first for _ in range(3))

    def test_fresh_router_same_order(self, topo):
        src, dst = _first_pair(topo)
        a = KShortestPathsRouter(topo, k=4).paths(src, dst)
        b = KShortestPathsRouter(T.jellyfish(8, 4, 2, seed=1), k=4).paths(src, dst)
        assert a == b

    def test_paths_are_sorted_by_length_and_bounded(self, topo):
        router = KShortestPathsRouter(topo, k=4)
        src, dst = _first_pair(topo)
        paths = router.paths(src, dst)
        assert 1 <= len(paths) <= 4
        lengths = [len(p) for p in paths]
        assert lengths == sorted(lengths)
        assert all(p[0] == src and p[-1] == dst for p in paths)


class TestCacheEquivalence:
    def test_cached_equals_uncached_for_every_pair(self, topo):
        router = KShortestPathsRouter(topo, k=3)
        for src, dst in _all_pairs(topo):
            assert router.paths(src, dst) == _enumerate(topo, src, dst, 3)

    def test_route_pick_identical_with_and_without_cache(self, topo):
        src, dst = _first_pair(topo)
        options = _enumerate(topo, src, dst, 4)
        expected = options[stable_hash(src, dst, 7) % len(options)]
        assert KShortestPathsRouter(topo, k=4).route(src, dst, flow_id=7) == expected


class TestInvalidation:
    def _cut(self, topo, router, link):
        topo.graph.remove_edge(*link)
        router.invalidate_links([link])

    def _repair(self, topo, router, link, data):
        topo.graph.add_edge(*link, **data)
        router.invalidate_links([link], repaired=True)

    def test_cut_reroutes_around_dead_link(self, topo):
        router = KShortestPathsRouter(topo, k=2)
        src, dst = _first_pair(topo)
        before = router.paths(src, dst)
        shortest = before[0]
        link = (shortest[1], shortest[2])  # a switch hop of the best path
        data = dict(topo.graph.get_edge_data(*link))
        self._cut(topo, router, link)
        after = router._cached_paths(src, dst)
        for path in after:
            hops = list(zip(path, path[1:]))
            assert link not in hops and (link[1], link[0]) not in hops
        self._repair(topo, router, link, data)

    def test_repair_restores_original_paths(self, topo):
        router = KShortestPathsRouter(topo, k=3)
        src, dst = _first_pair(topo)
        before = router._cached_paths(src, dst)
        shortest = before[0]
        link = (shortest[1], shortest[2])
        data = dict(topo.graph.get_edge_data(*link))
        self._cut(topo, router, link)
        assert router._cached_paths(src, dst) != before
        self._repair(topo, router, link, data)
        assert router._cached_paths(src, dst) == before

    def test_unaffected_pairs_survive_a_cut(self, topo):
        router = KShortestPathsRouter(topo, k=2)
        servers = topo.servers()
        src, dst = servers[0], servers[-1]
        before = router._cached_paths(src, dst)
        # Cut a link no cached path crosses: the cached entry survives.
        used = {
            frozenset(hop)
            for path in before
            for hop in zip(path, path[1:])
        }
        link = next(
            (l.u, l.v)
            for l in topo.links()
            if frozenset((l.u, l.v)) not in used
        )
        self._cut(topo, router, link)
        assert (src, dst) in router._cache
        assert router._cached_paths(src, dst) == before

    def test_cut_enumerates_per_pair_without_a_table(self, topo):
        """A cut re-enumerates severed pairs over the live graph instead
        of building the degraded graph's all-pairs table; the repair
        back to the intact graph serves the intact table again."""
        router = KShortestPathsRouter(topo, k=3)
        pairs = _all_pairs(topo)
        intact = {pair: router.paths(*pair) for pair in pairs}
        link = next(
            (l.u, l.v) for l in topo.links()
            if topo.is_switch(l.u) and topo.is_switch(l.v)
        )
        data = dict(topo.graph.get_edge_data(*link))
        misses = artifact_cache().stats.misses
        self._cut(topo, router, link)
        for src, dst in pairs:
            assert router.paths(src, dst) == _enumerate(topo, src, dst, 3)
        self._repair(topo, router, link, data)
        assert {pair: router.paths(*pair) for pair in pairs} == intact
        assert artifact_cache().stats.misses == misses

    def test_disconnected_pair_raises(self):
        topo = T.quartz_ring(3, 1)
        router = KShortestPathsRouter(topo, k=2)
        server = topo.servers()[0]
        host_link = (server, topo.tor_of(server))
        topo.graph.remove_edge(*host_link)
        router.invalidate_links([host_link])
        with pytest.raises(RoutingError):
            router._cached_paths(server, topo.servers()[-1])
