"""Correctness contract: cached artifacts are value-equal to fresh builds.

Every constructor wrapped by :func:`repro.cache.cached` keeps its raw
implementation reachable as ``__wrapped__``; these property tests build
each artifact twice — once through the cache (forcing hits by repeating
the call) and once raw — and require value equality.  This is the
property that lets caching change wall-clock time but never results.
"""

import pytest
from hypothesis import given, settings, strategies as st

import repro.topology as T
from repro.cache import reset
from repro.core.channels import greedy_assignment
from repro.core.multiring import plan_rings
from repro.routing.tables import kshortest_table, vlb_table
from repro.topology.base import topologies_equal


@pytest.fixture(autouse=True)
def _fresh_cache():
    """Route every test through an empty process-wide cache."""
    reset()
    yield
    reset()


class TestPlanEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(ring_size=st.integers(min_value=2, max_value=14))
    def test_greedy_cached_equals_fresh(self, ring_size):
        cached_plan = greedy_assignment(ring_size)
        again = greedy_assignment(ring_size)
        fresh = greedy_assignment.__wrapped__(ring_size)
        assert cached_plan == again == fresh

    @settings(max_examples=10, deadline=None)
    @given(
        ring_size=st.integers(min_value=4, max_value=12),
        seed=st.integers(min_value=0, max_value=3),
    )
    def test_greedy_seed_is_part_of_the_key(self, ring_size, seed):
        assert greedy_assignment(ring_size, seed=seed) == greedy_assignment.__wrapped__(
            ring_size, seed=seed
        )

    @settings(max_examples=8, deadline=None)
    @given(ring_size=st.integers(min_value=4, max_value=12))
    def test_multiring_cached_equals_fresh(self, ring_size):
        # Two rings with the default WDM budget: always feasible at
        # these sizes, still exercises the multi-ring placement.
        cached_plan = plan_rings(ring_size, num_rings=2)
        fresh = plan_rings.__wrapped__(ring_size, num_rings=2)
        assert cached_plan == plan_rings(ring_size, num_rings=2) == fresh


class TestTopologyEquivalence:
    @settings(max_examples=8, deadline=None)
    @given(
        racks=st.integers(min_value=3, max_value=8),
        servers=st.integers(min_value=1, max_value=3),
    )
    def test_quartz_ring_cached_equals_fresh(self, racks, servers):
        cached_topo = T.quartz_ring(racks, servers)
        fresh = T.quartz_ring.__wrapped__(racks, servers)
        assert topologies_equal(cached_topo, fresh)

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=5))
    def test_jellyfish_cached_equals_fresh(self, seed):
        cached_topo = T.jellyfish(8, 4, 2, seed=seed)
        fresh = T.jellyfish.__wrapped__(8, 4, 2, seed=seed)
        assert topologies_equal(cached_topo, fresh)

    def test_hit_returns_an_independent_copy(self):
        first = T.quartz_ring(5, 2)
        second = T.quartz_ring(5, 2)
        assert first is not second
        assert first.graph is not second.graph
        u, v = next(iter(first.graph.edges()))
        first.graph.remove_edge(u, v)
        # Mutating one returned topology must not leak into the cache.
        third = T.quartz_ring(5, 2)
        assert third.graph.has_edge(u, v)
        assert topologies_equal(second, third)


class TestRouteTableEquivalence:
    @settings(max_examples=5, deadline=None)
    @given(
        k=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2),
    )
    def test_kshortest_table_cached_equals_fresh(self, k, seed):
        topo = T.jellyfish(6, 3, 2, seed=seed)
        cached_table = kshortest_table(topo, k)
        fresh = kshortest_table.__wrapped__(topo, k)
        assert cached_table == kshortest_table(topo, k) == fresh

    def test_vlb_table_cached_equals_fresh(self):
        topo = T.quartz_ring(6, 2)
        assert vlb_table(topo) == vlb_table.__wrapped__(topo)

    def test_fingerprint_keys_degraded_topology_separately(self):
        topo = T.quartz_ring(6, 2)
        intact = kshortest_table(topo, 2)
        u, v = next(
            (l.u, l.v) for l in topo.links() if l.link_kind.value == "mesh"
        )
        topo.graph.remove_edge(u, v)
        degraded = kshortest_table(topo, 2)
        assert degraded != intact
        assert degraded == kshortest_table.__wrapped__(topo, 2)
