"""Batched, content-addressed all-pairs route tables.

``KShortestPathsRouter`` historically re-ran Yen's enumeration
(:func:`~repro.topology.graph.shortest_simple_paths`) on every ``paths()`` call, and the ECMP
switch-segment and VLB detour sets were recomputed lazily per pair in
every process.  For the sweep workloads (Figure 10, Table 9) the same
topology is routed over and over, so this module computes each router's
*entire* per-pair table in one pass and memoizes it through
:mod:`repro.cache`, keyed on the topology's structural fingerprint
(:meth:`~repro.topology.base.Topology.fingerprint`).

Fingerprint keying is what keeps fault injection correct: a fibre cut
changes the graph, hence the fingerprint, hence the key — the degraded
topology gets its own (cached) table — and a full repair restores the
original fingerprint, so the pre-cut table is reused instead of rebuilt.

Equivalence contract: every table entry is **exactly** what the lazy
per-pair computation would have produced (same generator, same
truncation, same sort), so cached and uncached routing are
value-identical — property-tested in ``tests/routing/``.

Disconnected or unroutable pairs are stored as empty tuples; routers
translate those back into the usual :class:`~repro.routing.base.RoutingError`.
"""

from __future__ import annotations

from itertools import islice

from repro.cache import cached
from repro.routing.base import Path
from repro.topology.base import LinkKind, Topology, TopologyError
from repro.topology.graph import all_shortest_paths, shortest_simple_paths

#: pair -> paths, in the router's stable order.  Empty tuple = unroutable.
RouteTable = dict[tuple[str, str], tuple[Path, ...]]


@cached("route-table/kshortest", copy=dict)
def kshortest_table(topo: Topology, k: int) -> RouteTable:
    """The ``k`` shortest simple paths for every ordered server pair.

    Replicates ``KShortestPathsRouter.paths`` exactly: the same
    deterministic ``shortest_simple_paths`` enumeration truncated to
    ``k`` entries, per pair.
    """
    table: RouteTable = {}
    servers = topo.servers()
    graph = topo.graph
    for src in servers:
        for dst in servers:
            if src == dst:
                continue
            found = shortest_simple_paths(graph, src, dst)
            table[(src, dst)] = tuple(tuple(p) for p in islice(found, k))
    return table


@cached("route-table/ecmp-segments", copy=dict)
def ecmp_segment_table(topo: Topology, max_paths: int) -> RouteTable:
    """Bounded all-shortest switch-to-switch segments, all ordered pairs.

    Replicates ``ECMPRouter._switch_segment`` exactly: the identity pair
    maps to the one-node path, distinct pairs to the first ``max_paths``
    entries of ``all_shortest_paths`` over the switch subgraph,
    sorted for a stable order.
    """
    table: RouteTable = {}
    switches = topo.switches()
    switch_graph = topo.switch_graph()
    for sw_s in switches:
        table[(sw_s, sw_s)] = ((sw_s,),)
        for sw_d in switches:
            if sw_s == sw_d:
                continue
            found = all_shortest_paths(switch_graph, sw_s, sw_d)
            table[(sw_s, sw_d)] = tuple(sorted(tuple(p) for p in islice(found, max_paths)))
    return table


@cached("route-table/vlb", copy=dict)
def vlb_table(topo: Topology) -> RouteTable:
    """Direct-plus-detour VLB path sets for every ordered server pair.

    Replicates ``VLBRouter.paths`` exactly: same-rack pairs get the
    lone host path, cross-rack pairs the direct channel (when alive)
    followed by the sorted two-hop detours.  Pairs ``VLBRouter.paths``
    would refuse to route (no ToR, or no surviving path) are stored
    empty.
    """
    peers: dict[str, set[str]] = {}
    for link in topo.links():
        if link.link_kind is LinkKind.MESH:
            peers.setdefault(link.u, set()).add(link.v)
            peers.setdefault(link.v, set()).add(link.u)

    table: RouteTable = {}
    servers = topo.servers()
    tors: dict[str, str | None] = {}
    for server in servers:
        try:
            tors[server] = topo.tor_of(server)
        except TopologyError:
            tors[server] = None

    for src in servers:
        for dst in servers:
            if src == dst:
                continue
            tor_src = tors[src]
            tor_dst = tors[dst]
            if tor_src is None or tor_dst is None:
                table[(src, dst)] = ()
                continue
            if tor_src == tor_dst:
                table[(src, dst)] = ((src, tor_src, dst),)
                continue
            detours = tuple(
                (src, tor_src, mid, tor_dst, dst)
                for mid in sorted(peers.get(tor_src, set()) & peers.get(tor_dst, set()))
                if mid not in (tor_src, tor_dst)
            )
            if tor_dst in peers.get(tor_src, ()):
                table[(src, dst)] = ((src, tor_src, tor_dst, dst), *detours)
            else:
                table[(src, dst)] = detours
    return table
