"""Jellyfish — random-graph DCNs (Singla et al., NSDI 2012).

Switches form a random ``r``-regular graph; the remaining ports face
servers.  Random topologies have short average path lengths and high
path diversity but no locality structure and high wiring complexity —
the properties the paper contrasts Quartz against in Sections 5 and 7.

The paper's Section 7 instance: 16 ULL switches, each dedicating four
10 Gbps links to other switches.

The switch graph comes from :func:`random_regular_graph`, networkx
3.6.1's sampler ported draw for draw: the same seed gives the same
edges in the same order, so every fingerprint, route and digest built
on a Jellyfish is what the graph library gave.
"""

from __future__ import annotations

import random

from repro.topology.base import cached_builder, LinkKind, NodeKind, Topology
from repro.topology.graph import Graph, is_connected
from repro.units import GBPS


def random_regular_graph(degree: int, n: int, seed: int) -> Graph:
    """A random ``degree``-regular graph on nodes ``0..n-1``.

    networkx 3.6.1's ``random_regular_graph(degree, n, seed)``, draw for
    draw (Steger and Wormald's pairing): shuffle every node's ``degree``
    stubs, pair them off, keep the pairs that are new simple edges, and
    pair the rest again until none are left, starting over when no
    suitable pair remains.  The edges are added by iterating the same
    ``set``, so :meth:`Graph.edges` yields networkx's order.
    """
    if (n * degree) % 2:
        raise ValueError("n * degree must be even")
    if not 0 <= degree < n:
        raise ValueError("the 0 <= degree < n inequality must be satisfied")
    rng = random.Random(seed)
    edges = _try_pairing(degree, n, rng)
    while edges is None:
        edges = _try_pairing(degree, n, rng)
    graph = Graph()
    for node in range(n):
        graph.add_node(node)
    for u, v in edges:
        graph.add_edge(u, v)
    return graph


def _try_pairing(degree: int, n: int, rng: random.Random) -> set[tuple[int, int]] | None:
    """One attempt at an edge set, or ``None`` if it got stuck."""
    edges: set[tuple[int, int]] = set()
    stubs = list(range(n)) * degree
    while stubs:
        potential: dict[int, int] = {}
        rng.shuffle(stubs)
        pairs = iter(stubs)
        for s1, s2 in zip(pairs, pairs):
            if s1 > s2:
                s1, s2 = s2, s1
            if s1 != s2 and (s1, s2) not in edges:
                edges.add((s1, s2))
            else:
                potential[s1] = potential.get(s1, 0) + 1
                potential[s2] = potential.get(s2, 0) + 1
        if not _suitable(edges, potential):
            return None
        stubs = [node for node, left in potential.items() for _ in range(left)]
    return edges


def _suitable(edges: set[tuple[int, int]], potential: dict[int, int]) -> bool:
    """Whether some pair of leftover stubs could still form a new edge.

    networkx's check as written, the swap inside the inner loop included:
    it decides when an attempt is abandoned, and so how many draws the
    accepted graph cost.
    """
    if not potential:
        return True
    for s1 in potential:
        for s2 in potential:
            if s1 == s2:
                break
            if s1 > s2:
                s1, s2 = s2, s1
            if (s1, s2) not in edges:
                return True
    return False


@cached_builder("jellyfish")
def jellyfish(
    num_switches: int = 16,
    network_degree: int = 4,
    servers_per_switch: int = 4,
    link_rate: float = 10 * GBPS,
    switch_model: str = "ULL",
    seed: int = 0,
    name: str | None = None,
) -> Topology:
    """A random ``network_degree``-regular switch graph with servers attached.

    Deterministic for a given ``seed``.  Raises if the sampled random
    regular graph is disconnected (retry with a different seed) or the
    degree is infeasible.
    """
    if num_switches < 2:
        raise ValueError("need at least two switches")
    if not 0 <= network_degree < num_switches:
        raise ValueError(
            f"degree {network_degree} impossible with {num_switches} switches"
        )
    if (num_switches * network_degree) % 2:
        raise ValueError("num_switches * network_degree must be even")

    random_graph = random_regular_graph(network_degree, num_switches, seed)
    if not is_connected(random_graph):
        raise ValueError(
            f"random graph with seed {seed} is disconnected; try another seed"
        )

    topo = Topology(name or f"jellyfish-{num_switches}d{network_degree}")
    for sw in range(num_switches):
        topo.add_switch(f"sw{sw}", NodeKind.TOR, rack=sw, switch_model=switch_model)
    for u, v in random_graph.edges():
        topo.add_link(f"sw{u}", f"sw{v}", link_rate, LinkKind.RANDOM)
    for sw in range(num_switches):
        for s in range(servers_per_switch):
            server = topo.add_server(f"h{sw}.{s}", rack=sw)
            topo.add_link(server, f"sw{sw}", link_rate, LinkKind.HOST)
    topo.validate()
    return topo
