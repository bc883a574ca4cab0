"""ECMP's per-flow pick against its definition.

A flow's route is ``paths(src, dst)[stable_hash(src, dst, flow_id) %
len]``.  A route miss between two single-homed servers builds only that
path: the pair's stitched paths are ``(src, *segment, dst)`` over one
switch pair's segment list, which is sorted, so the hash picks the same
segment.  Every other pair — a multi-homed server, a server-centric
fabric, a pair with no segment left — picks from the enumeration.  The
oracle is the definition itself: a fresh router's enumeration over the
intact fabric, and, through cuts and repairs, a router that picks every
flow from its enumeration (:class:`Enumerating`), driven alongside the
one under test — a pick memoized before a cut that does not cross it
stands, in both.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import repro.topology as T
from repro.experiments.section7 import TOPOLOGY_BUILDERS
from repro.routing import ECMPRouter
from repro.routing.base import Router, RoutingError, stable_hash

#: The five fabrics of Fig. 17.
FABRICS = (
    "three-tier tree",
    "jellyfish",
    "quartz in core",
    "quartz in edge",
    "quartz in edge and core",
)


class Enumerating(ECMPRouter):
    """Every pick from the pair's enumeration: ``Router._pick``."""

    def _pick(self, src, dst, flow_id):
        return Router._pick(self, src, dst, flow_id)


def agree(router, oracle, src, dst, flow_id):
    try:
        expected = oracle.route(src, dst, flow_id)
    except RoutingError:
        with pytest.raises(RoutingError):
            router.route(src, dst, flow_id)
        return
    assert router.route(src, dst, flow_id) == expected


@pytest.mark.parametrize("fabric", FABRICS)
def test_every_pair_picks_as_the_enumeration(fabric):
    topo = TOPOLOGY_BUILDERS[fabric]()
    router = ECMPRouter(topo)
    oracle = ECMPRouter(topo)
    servers = topo.servers()
    assert all(router._home(server) is not None for server in servers)
    for src in servers:
        for dst in servers:
            options = oracle.paths(src, dst)
            for flow_id in range(4):
                assert router.route(src, dst, flow_id) == options[
                    stable_hash(src, dst, flow_id) % len(options)
                ]


def switch_links(topo):
    return sorted(
        (link.u, link.v) for link in topo.links()
        if topo.is_switch(link.u) and topo.is_switch(link.v)
    )


@settings(max_examples=40, deadline=None)
@given(fabric=st.sampled_from(FABRICS), data=st.data())
def test_after_cuts_and_a_repair(fabric, data):
    """Flows routed on the intact fabric, after each of one or two cuts
    (a server's uplink among the candidates) and after the repair pick as
    a router that enumerates every pick, through the same invalidations."""
    topo = TOPOLOGY_BUILDERS[fabric]()
    servers = topo.servers()
    routers = ECMPRouter(topo), Enumerating(topo)
    flows = st.tuples(st.sampled_from(servers), st.sampled_from(servers), st.integers(0, 2**40))
    candidates = switch_links(topo) + [(servers[0], topo.tor_of(servers[0]))]
    cuts = data.draw(st.lists(st.sampled_from(candidates), min_size=1, max_size=2, unique=True))
    removed = []
    for step in ("intact", *cuts, "repaired"):
        if step == "repaired":
            for u, v, edge in removed:
                topo.graph.add_edge(u, v, **edge)
                for router in routers:
                    router.invalidate_links([(u, v)], repaired=True)
        elif step != "intact":
            u, v = step
            removed.append((u, v, dict(topo.graph.get_edge_data(u, v))))
            topo.graph.remove_edge(u, v)
            for router in routers:
                router.invalidate_links([(u, v)])
        for src, dst, flow_id in data.draw(st.lists(flows, min_size=1, max_size=6)):
            agree(*routers, src, dst, flow_id)


@settings(max_examples=30, deadline=None)
@given(flow_id=st.integers(0, 2**40), data=st.data())
def test_a_multi_homed_server_takes_the_enumeration(flow_id, data):
    """A server given a second uplink reaches two switch pairs; its pairs
    pick from the stitched enumeration over both."""
    topo = TOPOLOGY_BUILDERS["three-tier tree"]()
    servers = topo.servers()
    homed = servers[0]
    tor = topo.tor_of(homed)
    other = next(s for s in topo.switches() if s != tor and topo.rack(s) is not None)
    topo.graph.add_edge(homed, other, **topo.graph.get_edge_data(homed, tor))
    router = ECMPRouter(topo)
    assert router._home(homed) is None
    peer = data.draw(st.sampled_from(servers[1:]))
    for src, dst in ((homed, peer), (peer, homed)):
        agree(router, Enumerating(topo), src, dst, flow_id)


@settings(max_examples=30, deadline=None)
@given(flow_id=st.integers(0, 2**40), data=st.data())
def test_a_server_centric_fabric_takes_the_enumeration(flow_id, data):
    topo = T.bcube(4, 1)
    servers = topo.servers()
    router = ECMPRouter(topo)
    src, dst = data.draw(st.sampled_from(servers)), data.draw(st.sampled_from(servers))
    assert router._home(src) is None
    agree(router, Enumerating(topo), src, dst, flow_id)
