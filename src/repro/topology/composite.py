"""Quartz as a design element inside larger DCNs — paper Section 4 / Figure 15.

Builders for the simulated architectures of Section 7:

* :func:`quartz_in_core` — each core switch replaced by a Quartz ring
  (Figure 15(b)); aggregation switches connect to the ring over 40 Gbps.
* :func:`quartz_in_edge` — ToR and aggregation tiers replaced by Quartz
  rings (Figure 15(c)); servers attach at 10 Gbps, rings uplink to the
  cores at 40 Gbps.
* :func:`quartz_in_edge_and_core` — both replacements (Figure 15(d)).
* :func:`quartz_in_jellyfish` — a random graph of Quartz rings instead
  of a random graph of switches (Section 4.3).

Each simulated Quartz ring consists of four switches by default, as in
the paper ("the size of the ring does not affect performance and only
affects the size of the DCN").
"""

from __future__ import annotations

import random

from repro.topology.base import cached_builder, connect_all, LinkKind, NodeKind, Topology
from repro.units import GBPS


def _add_quartz_ring(
    topo: Topology,
    prefix: str,
    ring_size: int,
    mesh_rate: float,
    first_rack: int,
    switch_model: str = "ULL",
) -> list[str]:
    """Add a ``ring_size``-switch Quartz mesh; returns the switch names."""
    switches = [
        topo.add_switch(
            f"{prefix}{i}", NodeKind.TOR, rack=first_rack + i, switch_model=switch_model
        )
        for i in range(ring_size)
    ]
    connect_all(topo, switches, mesh_rate, LinkKind.MESH)
    return switches


@cached_builder("quartz-in-core")
def quartz_in_core(
    num_pods: int = 2,
    tors_per_pod: int = 8,
    aggs_per_pod: int = 2,
    core_ring_size: int = 4,
    servers_per_tor: int = 4,
    host_rate: float = 10 * GBPS,
    uplink_rate: float = 40 * GBPS,
    name: str | None = None,
) -> Topology:
    """Three-tier tree with the core tier replaced by a Quartz ring.

    Mirrors :func:`repro.topology.tree.three_tier_tree` below the core;
    each aggregation switch keeps two core uplinks, landing on distinct
    ring switches (round-robin), so redundancy matches the baseline.
    """
    topo = Topology(name or "quartz-in-core")
    ring = _add_quartz_ring(topo, "qcore", core_ring_size, uplink_rate, first_rack=10_000)
    # Core-ring switches are not rack switches; clear their rack ids and
    # mark them as core-tier for metrics.
    for sw in ring:
        topo.graph.add_node(sw, rack=None, kind=NodeKind.CORE)

    rack = 0
    agg_counter = 0
    for p in range(num_pods):
        aggs = [
            topo.add_switch(f"agg{p}.{a}", NodeKind.AGG, switch_model="ULL")
            for a in range(aggs_per_pod)
        ]
        for agg in aggs:
            for j in range(2):
                target = ring[(agg_counter + j) % core_ring_size]
                topo.add_link(agg, target, uplink_rate, LinkKind.UPLINK)
            agg_counter += 2
        for t in range(tors_per_pod):
            tor = topo.add_switch(f"tor{p}.{t}", NodeKind.TOR, rack=rack, switch_model="ULL")
            for agg in aggs:
                topo.add_link(tor, agg, uplink_rate, LinkKind.UPLINK)
            for s in range(servers_per_tor):
                server = topo.add_server(f"h{rack}.{s}", rack=rack)
                topo.add_link(server, tor, host_rate, LinkKind.HOST)
            rack += 1
    topo.validate()
    return topo


@cached_builder("quartz-in-edge")
def quartz_in_edge(
    num_rings: int = 4,
    ring_size: int = 4,
    num_cores: int = 2,
    servers_per_switch: int = 4,
    host_rate: float = 10 * GBPS,
    mesh_rate: float = 10 * GBPS,
    uplink_rate: float = 40 * GBPS,
    core_model: str = "CCS",
    name: str | None = None,
) -> Topology:
    """ToR + aggregation tiers replaced by Quartz rings (Figure 15(c)).

    Each ring switch hosts servers at ``host_rate`` and uplinks to every
    core switch at ``uplink_rate``.
    """
    topo = Topology(name or "quartz-in-edge")
    cores = [
        topo.add_switch(f"core{c}", NodeKind.CORE, switch_model=core_model)
        for c in range(num_cores)
    ]
    rack = 0
    for r in range(num_rings):
        ring = _add_quartz_ring(topo, f"q{r}.", ring_size, mesh_rate, first_rack=rack)
        rack += ring_size
        for sw in ring:
            for core in cores:
                topo.add_link(sw, core, uplink_rate, LinkKind.UPLINK)
            for s in range(servers_per_switch):
                server = topo.add_server(f"h{topo.rack(sw)}.{s}", rack=topo.rack(sw))
                topo.add_link(server, sw, host_rate, LinkKind.HOST)
    topo.validate()
    return topo


@cached_builder("quartz-in-edge-and-core")
def quartz_in_edge_and_core(
    num_rings: int = 4,
    ring_size: int = 4,
    core_ring_size: int = 4,
    servers_per_switch: int = 4,
    host_rate: float = 10 * GBPS,
    mesh_rate: float = 10 * GBPS,
    uplink_rate: float = 40 * GBPS,
    name: str | None = None,
) -> Topology:
    """Quartz rings at the edge connected through a Quartz core ring
    (Figure 15(d)).

    Each edge-ring switch takes two uplinks to distinct core-ring
    switches (round-robin), matching the redundancy of the tree baseline.
    """
    topo = Topology(name or "quartz-in-edge-and-core")
    core_ring = _add_quartz_ring(
        topo, "qcore", core_ring_size, uplink_rate, first_rack=10_000
    )
    for sw in core_ring:
        topo.graph.add_node(sw, rack=None, kind=NodeKind.CORE)

    rack = 0
    uplink_counter = 0
    for r in range(num_rings):
        ring = _add_quartz_ring(topo, f"q{r}.", ring_size, mesh_rate, first_rack=rack)
        rack += ring_size
        for sw in ring:
            for j in range(2):
                target = core_ring[(uplink_counter + j) % core_ring_size]
                topo.add_link(sw, target, uplink_rate, LinkKind.UPLINK)
            uplink_counter += 2
            for s in range(servers_per_switch):
                server = topo.add_server(f"h{topo.rack(sw)}.{s}", rack=topo.rack(sw))
                topo.add_link(server, sw, host_rate, LinkKind.HOST)
    topo.validate()
    return topo


@cached_builder("quartz-in-jellyfish")
def quartz_in_jellyfish(
    num_rings: int = 4,
    ring_size: int = 4,
    inter_ring_links: int = 4,
    servers_per_switch: int = 4,
    host_rate: float = 10 * GBPS,
    mesh_rate: float = 10 * GBPS,
    seed: int = 0,
    name: str | None = None,
) -> Topology:
    """A random graph of Quartz rings (Section 4.3 / Section 7 item 6).

    Each ring dedicates ``inter_ring_links`` 10 Gbps links to switches in
    other rings.  Link endpoints rotate round-robin over ring members, so
    the random cabling spreads across switches.  Deterministic per seed;
    resamples (bounded) until the ring-level graph is connected.
    """
    if num_rings < 2:
        raise ValueError("need at least two rings")
    if (num_rings * inter_ring_links) % 2:
        raise ValueError("num_rings * inter_ring_links must be even")

    rng = random.Random(seed)
    for _attempt in range(100):
        pairing = _random_multigraph(num_rings, inter_ring_links, rng)
        if pairing is not None and _rings_connected(pairing, num_rings):
            break
    else:
        raise ValueError("could not sample a connected inter-ring graph")

    topo = Topology(name or "quartz-in-jellyfish")
    rings: list[list[str]] = []
    rack = 0
    for r in range(num_rings):
        ring = _add_quartz_ring(topo, f"q{r}.", ring_size, mesh_rate, first_rack=rack)
        rack += ring_size
        rings.append(ring)
        for sw in ring:
            for s in range(servers_per_switch):
                server = topo.add_server(f"h{topo.rack(sw)}.{s}", rack=topo.rack(sw))
                topo.add_link(server, sw, host_rate, LinkKind.HOST)

    next_port = [0] * num_rings
    for r1, r2 in pairing:
        u = rings[r1][next_port[r1] % ring_size]
        v = rings[r2][next_port[r2] % ring_size]
        next_port[r1] += 1
        next_port[r2] += 1
        if not topo.graph.has_edge(u, v):
            topo.add_link(u, v, host_rate, LinkKind.RANDOM)
        else:
            # Parallel link between the same switch pair: model as added
            # capacity on the existing edge.
            topo.graph[u][v]["capacity"] += host_rate
    topo.validate()
    return topo


def _random_multigraph(
    num_rings: int, degree: int, rng: random.Random
) -> list[tuple[int, int]] | None:
    """Configuration-model pairing of link stubs; None if a self-loop lands."""
    stubs = [r for r in range(num_rings) for _ in range(degree)]
    rng.shuffle(stubs)
    pairs = []
    for i in range(0, len(stubs), 2):
        a, b = stubs[i], stubs[i + 1]
        if a == b:
            return None
        pairs.append((min(a, b), max(a, b)))
    return pairs


def _rings_connected(pairs: list[tuple[int, int]], num_rings: int) -> bool:
    """Union-find connectivity over the ring-level multigraph."""
    parent = list(range(num_rings))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        parent[find(a)] = find(b)
    return len({find(r) for r in range(num_rings)}) == 1
