"""Per-pair route sets and their batched, content-addressed tables.

Each router's per-pair computation lives here once —
:func:`kshortest_paths`, :func:`ecmp_paths` and :func:`vlb_paths` —
and both the router and its all-pairs table call it.  For the sweep
workloads (Figure 10, Table 9) the same topology is routed over and
over, so each table computes a router's *entire* per-pair set in one
pass and memoizes it through :mod:`repro.cache`, keyed on the
topology's structural fingerprint
(:meth:`~repro.topology.base.Topology.fingerprint`).

Fingerprint keying is what keeps fault injection correct: a fibre cut
changes the graph, hence the fingerprint, hence the key, and a full
repair restores the original fingerprint, so the pre-cut table is
reused instead of rebuilt.

Disconnected or unroutable pairs are stored as empty tuples; routers
translate those back into the usual :class:`~repro.routing.base.RoutingError`.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator

from repro.cache import cached
from repro.routing.base import Path
from repro.topology.base import LinkKind, Topology, TopologyError
from repro.topology.graph import (
    Graph,
    all_shortest_paths,
    paths_from_predecessors,
    shortest_path_predecessors,
    shortest_simple_paths,
)

#: pair -> paths, in the router's stable order.  Empty tuple = unroutable.
RouteTable = dict[tuple[str, str], tuple[Path, ...]]


def kshortest_paths(graph: Graph, src: str, dst: str, k: int) -> list[Path]:
    """The ``k`` shortest simple ``src``–``dst`` paths, in Yen's order."""
    return [tuple(p) for p in islice(shortest_simple_paths(graph, src, dst), k)]


def ecmp_paths(graph: Graph, src: str, dst: str, max_paths: int) -> list[Path]:
    """The first ``max_paths`` shortest ``src``–``dst`` paths, sorted.

    The identity pair is the one-node path.
    """
    return _first_sorted(all_shortest_paths(graph, src, dst), max_paths)


def _first_sorted(found: Iterator[list[str]], max_paths: int) -> list[Path]:
    return sorted(tuple(p) for p in islice(found, max_paths))


def mesh_peers(topo: Topology) -> dict[str, set[str]]:
    """Each switch's live mesh neighbours."""
    peers: dict[str, set[str]] = {}
    for link in topo.links():
        if link.link_kind is LinkKind.MESH:
            peers.setdefault(link.u, set()).add(link.v)
            peers.setdefault(link.v, set()).add(link.u)
    return peers


def vlb_paths(
    src: str, dst: str, tor_src: str, tor_dst: str, peers: dict[str, set[str]]
) -> list[Path]:
    """VLB's path set between two servers behind ``tor_src``/``tor_dst``.

    A same-rack pair gets the lone host path; a cross-rack pair the
    direct channel (when alive) followed by the two-hop detours through
    every common mesh peer, in sorted order.  Empty when the direct
    channel is dead and no detour remains.
    """
    if tor_src == tor_dst:
        return [(src, tor_src, dst)]
    detours = [
        (src, tor_src, mid, tor_dst, dst)
        for mid in sorted(peers.get(tor_src, set()) & peers.get(tor_dst, set()))
        if mid not in (tor_src, tor_dst)
    ]
    if tor_dst in peers.get(tor_src, ()):
        return [(src, tor_src, tor_dst, dst), *detours]
    return detours


@cached("route-table/kshortest", copy=dict)
def kshortest_table(topo: Topology, k: int) -> RouteTable:
    """:func:`kshortest_paths` for every ordered server pair."""
    servers = topo.servers()
    return {
        (src, dst): tuple(kshortest_paths(topo.graph, src, dst, k))
        for src in servers
        for dst in servers
        if src != dst
    }


@cached("route-table/ecmp-segments", copy=dict)
def ecmp_segment_table(topo: Topology, max_paths: int) -> RouteTable:
    """:func:`ecmp_paths` over the switch subgraph, every ordered switch pair.

    One BFS per source switch serves all its targets: the predecessor
    map does not depend on the target.
    """
    switches = topo.switches()
    switch_graph = topo.switch_graph()
    table: RouteTable = {}
    for sw_s in switches:
        pred = shortest_path_predecessors(switch_graph, sw_s)
        # Each row starts at the identity pair: the order is pinned in
        # tests/golden/route_pins.json.
        for sw_d in (sw_s, *(d for d in switches if d != sw_s)):
            found = paths_from_predecessors(sw_s, sw_d, pred)
            table[(sw_s, sw_d)] = tuple(_first_sorted(found, max_paths))
    return table


@cached("route-table/vlb", copy=dict)
def vlb_table(topo: Topology) -> RouteTable:
    """:func:`vlb_paths` for every ordered server pair.

    Pairs ``VLBRouter.paths`` refuses to route (no ToR, or no surviving
    path) are stored empty.
    """
    peers = mesh_peers(topo)
    servers = topo.servers()
    tors: dict[str, str | None] = {}
    for server in servers:
        try:
            tors[server] = topo.tor_of(server)
        except TopologyError:
            tors[server] = None
    table: RouteTable = {}
    for src in servers:
        for dst in servers:
            if src == dst:
                continue
            if tors[src] is None or tors[dst] is None:
                table[(src, dst)] = ()
            else:
                table[(src, dst)] = tuple(vlb_paths(src, dst, tors[src], tors[dst], peers))
    return table
