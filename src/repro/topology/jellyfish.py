"""Jellyfish — random-graph DCNs (Singla et al., NSDI 2012).

Switches form a random ``r``-regular graph; the remaining ports face
servers.  Random topologies have short average path lengths and high
path diversity but no locality structure and high wiring complexity —
the properties the paper contrasts Quartz against in Sections 5 and 7.

The paper's Section 7 instance: 16 ULL switches, each dedicating four
10 Gbps links to other switches.
"""

from __future__ import annotations

from repro.topology.base import cached_builder, LinkKind, NodeKind, Topology
from repro.units import GBPS


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
    if network_degree >= num_switches:
        raise ValueError(
            f"degree {network_degree} impossible with {num_switches} switches"
        )
    if (num_switches * network_degree) % 2:
        raise ValueError("num_switches * network_degree must be even")
    import networkx as nx  # the sampler is the one graph-library need here

    random_graph = nx.random_regular_graph(network_degree, num_switches, seed=seed)
    if not nx.is_connected(random_graph):
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
