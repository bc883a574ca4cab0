"""Traffic-matrix generators — the paper's communication patterns.

Section 5.1's three patterns for the bisection-bandwidth study:

* **random permutation** — each server sends to one randomly selected
  server and receives from exactly one other;
* **incast** — each server receives from 10 servers at random locations
  (the MapReduce shuffle stage);
* **rack-level shuffle** — the servers of each rack send to servers in
  several other racks (VM-migration style load balancing).

All generators are seeded and deterministic.
"""

from __future__ import annotations

import random

from repro.topology.base import Topology

#: A traffic matrix: (source server, destination server, demand bps).
TrafficMatrix = list[tuple[str, str, float]]


def random_permutation(
    topo: Topology, demand: float, seed: int = 0
) -> TrafficMatrix:
    """Each server sends to one other server; each receives from one.

    A random derangement of the server list, so no server sends to
    itself.
    """
    servers = topo.servers()
    if len(servers) < 2:
        raise ValueError("need at least two servers")
    rng = random.Random(seed)
    receivers = _derangement(servers, rng)
    return [(s, r, demand) for s, r in zip(servers, receivers)]


def _derangement(items: list[str], rng: random.Random) -> list[str]:
    """A uniformly sampled derangement (retry sampling)."""
    while True:
        shuffled = items[:]
        rng.shuffle(shuffled)
        if all(a != b for a, b in zip(items, shuffled)):
            return shuffled


def incast(
    topo: Topology, demand: float, fan_in: int = 10, seed: int = 0
) -> TrafficMatrix:
    """Each server receives from ``fan_in`` random other servers."""
    servers = topo.servers()
    if len(servers) <= fan_in:
        raise ValueError(f"need more than {fan_in} servers for fan-in {fan_in}")
    rng = random.Random(seed)
    matrix: TrafficMatrix = []
    for receiver in servers:
        candidates = [s for s in servers if s != receiver]
        for sender in rng.sample(candidates, fan_in):
            matrix.append((sender, receiver, demand))
    return matrix


def rack_level_shuffle(
    topo: Topology, demand: float, target_racks: int = 4, seed: int = 0
) -> TrafficMatrix:
    """Each rack's servers send to servers spread over other racks.

    Every server sends ``target_racks`` flows, one to a random server in
    each of ``target_racks`` distinct foreign racks.
    """
    racks = topo.racks()
    if len(racks) <= target_racks:
        raise ValueError(
            f"need more than {target_racks} racks, topology has {len(racks)}"
        )
    rng = random.Random(seed)
    # One linear pass instead of a servers_in_rack scan per draw; the
    # per-rack lists are identical, so the RNG stream (and thus the
    # matrix) is unchanged.
    by_rack = topo.servers_by_rack()
    matrix: TrafficMatrix = []
    for rack in racks:
        foreign = [r for r in racks if r != rack]
        for server in by_rack.get(rack, []):
            for target in rng.sample(foreign, target_racks):
                receiver = rng.choice(by_rack[target])
                matrix.append((server, receiver, demand))
    return matrix

