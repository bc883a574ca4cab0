"""Topology metrics — paper Section 5 / Table 9.

The paper compares candidate low-latency design elements on four axes:

* **latency without congestion** — switch hops (and server relay hops
  for server-centric networks) weighted by per-device latency; computed
  in :mod:`repro.analysis.latency` from the hop counts measured here;
* **equipment** — number of switches;
* **wiring complexity** — the number of cross-rack links (links whose
  endpoints are in different racks, or that leave the rack for an
  aggregation/core switch);
* **path diversity** — following Teixeira et al. [39], the number of
  edge-disjoint switch-level paths between a representative pair of
  ToR switches (computed exactly via max-flow).

Every search is in-tree (:mod:`repro.topology.graph`): the per-pair hop
counts use :func:`~repro.topology.graph.shortest_path`, the all-pairs
loops one breadth-first search per source, walking neighbours in
:meth:`~repro.topology.graph.Graph.copy`'s order (the order networkx
built its graph in, so each pair's path is the one networkx's
``single_source_shortest_path`` took), and the path diversity an
augmenting-path max-flow.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.topology.base import LinkKind, NodeKind, Topology, TopologyError
from repro.topology.graph import (
    Graph,
    shortest_path,
    shortest_path_lengths,
    single_source_shortest_path,
)


def hop_path(topo: Topology, src: str, dst: str) -> list[str]:
    """A shortest path between two nodes; ``TopologyError`` if none."""
    path = shortest_path(topo.graph, src, dst)
    if not path:
        raise TopologyError(f"no path from {src!r} to {dst!r}")
    return path


def switch_hops(topo: Topology, src: str, dst: str) -> int:
    """Number of switches on a shortest path between two servers."""
    path = hop_path(topo, src, dst)
    return sum(1 for node in path if topo.is_switch(node))


def server_relay_hops(topo: Topology, src: str, dst: str) -> int:
    """Number of *intermediate* servers on a shortest path (BCube)."""
    path = hop_path(topo, src, dst)
    return sum(1 for node in path[1:-1] if topo.is_server(node))


@dataclass(frozen=True)
class HopProfile:
    """Hop counts between a server pair."""

    switch_hops: int
    server_relay_hops: int


def _sample_servers(topo: Topology, sample: int | None) -> list[str]:
    """A deterministic, rack-spanning subset of servers.

    Taking the *first* N servers would bias toward one pod, so the
    sample strides evenly across the full server list.
    """
    servers = topo.servers()
    if sample is None or sample >= len(servers):
        return servers
    stride = len(servers) / sample
    return [servers[int(i * stride)] for i in range(sample)]


def worst_case_hop_profile(topo: Topology, sample: int | None = None) -> HopProfile:
    """The maximum-hop profile over server pairs.

    For large topologies pass ``sample`` to bound the pair count; the
    sample strides across racks so worst-case cross-pod pairs are seen.
    """
    servers = _sample_servers(topo, sample)
    graph = topo.graph.copy()
    worst = HopProfile(0, 0)
    for i, src in enumerate(servers):
        lengths = single_source_shortest_path(graph, src)
        for dst in servers[i + 1 :]:
            path = lengths[dst]
            profile = HopProfile(
                switch_hops=sum(1 for n in path if topo.is_switch(n)),
                server_relay_hops=sum(1 for n in path[1:-1] if topo.is_server(n)),
            )
            if (profile.switch_hops + profile.server_relay_hops) > (
                worst.switch_hops + worst.server_relay_hops
            ):
                worst = profile
    return worst


def path_diversity(topo: Topology, u: str | None = None, v: str | None = None) -> int:
    """Edge-disjoint path count between two endpoints (max-flow, [39]).

    Defaults to the "most distant" representative pair.  For
    switch-routed topologies this is the ToR pair at maximum
    switch-graph distance — diversity between the racks.  For
    server-centric topologies (BCube) the communication endpoints
    with multiple paths are the multi-NIC *servers*, so the pair is the
    most distant server pair and the flow runs over the full graph.

    Each physical cable counts one unit of flow, so logical edges that
    fold parallel cables (``physical_links_per_pair``) count accordingly.
    Name both endpoints or neither: one alone is a ``ValueError``.
    """
    if (u is None) != (v is None):
        raise ValueError("name both endpoints of the pair, or neither")
    server_centric = bool(topo.graph.graph.get("server_centric"))
    if server_centric:
        graph = topo.graph
        endpoints = sorted(topo.servers())
    else:
        graph = topo.switch_graph()
        endpoints = sorted(topo.switches(NodeKind.TOR))
    if len(endpoints) < 2:
        raise ValueError("need at least two candidate endpoints")
    if u is None:
        u, v = _most_distant_pair(graph, endpoints)

    multiplier = int(topo.graph.graph.get("physical_links_per_pair", 1))
    residual: dict[str, dict[str, int]] = {node: {} for node in graph}
    for a, b, data in graph.edges(data=True):
        cables = multiplier if data["link_kind"] is LinkKind.UPLINK else 1
        residual[a][b] = residual[b][a] = cables
    return _max_flow_value(residual, u, v)


def _max_flow_value(residual: dict[str, dict[str, int]], s: str, t: str) -> int:
    """The maximum ``s``–``t`` flow over integer capacities, augmenting
    along shortest residual paths (Edmonds–Karp).

    ``residual[a][b]`` starts as the capacity of the undirected edge
    ``a``–``b`` in each direction and is consumed in place.  The value
    does not depend on which augmenting paths are found.
    """
    for node in (s, t):
        if node not in residual:
            raise KeyError(node)
    if s == t:
        raise ValueError("the two endpoints are the same node")
    flow = 0
    while True:
        parent = {s: s}
        frontier = [s]
        while frontier and t not in parent:
            nxt = []
            for a in frontier:
                for b, left in residual[a].items():
                    if left and b not in parent:
                        parent[b] = a
                        nxt.append(b)
            frontier = nxt
        if t not in parent:
            return flow
        path = [t]
        while path[-1] != s:
            path.append(parent[path[-1]])
        path.reverse()
        push = min(residual[a][b] for a, b in zip(path, path[1:]))
        for a, b in zip(path, path[1:]):
            residual[a][b] -= push
            residual[b][a] += push
        flow += push


def _most_distant_pair(graph: Graph, endpoints: list[str]) -> tuple[str, str]:
    """The connected pair at the greatest hop distance, first in
    ``endpoints`` order on ties; ``TopologyError`` if no pair is connected."""
    best: tuple[str, str] | None = None
    best_dist = -1
    for src in endpoints:
        lengths = shortest_path_lengths(graph, src)
        for dst in endpoints:
            if dst <= src:
                continue
            d = lengths.get(dst)
            if d is not None and d > best_dist:
                best, best_dist = (src, dst), d
    if best is None:
        raise TopologyError("no two candidate endpoints are connected")
    return best


def wiring_complexity(topo: Topology) -> int:
    """Number of cross-rack links (the paper's deployment-cost proxy).

    A link is cross-rack when its endpoints live in different racks, or
    when one endpoint (an aggregation or core switch) has no rack at all.
    Host links inside a rack do not count.  Parallel physical cables
    folded into one logical edge (``physical_links_per_pair``) are
    counted individually.
    """
    multiplier = int(topo.graph.graph.get("physical_links_per_pair", 1))
    count = 0
    for link in topo.links():
        rack_u = topo.rack(link.u)
        rack_v = topo.rack(link.v)
        if rack_u is None or rack_v is None or rack_u != rack_v:
            count += multiplier if link.link_kind is LinkKind.UPLINK else 1
    return count


def switch_count(topo: Topology) -> int:
    return len(topo.switches())


@dataclass(frozen=True)
class TopologySummary:
    """The Table 9 row for one topology."""

    name: str
    switch_hops: int
    server_relay_hops: int
    num_switches: int
    wiring_complexity: int
    path_diversity: int


def summarize(topo: Topology, hop_sample: int | None = 64) -> TopologySummary:
    """Compute the full Table 9 metric row for ``topo``."""
    worst = worst_case_hop_profile(topo, sample=hop_sample)
    return TopologySummary(
        name=topo.name,
        switch_hops=worst.switch_hops,
        server_relay_hops=worst.server_relay_hops,
        num_switches=switch_count(topo),
        wiring_complexity=wiring_complexity(topo),
        path_diversity=path_diversity(topo),
    )
