"""Typed datacenter topology graph.

A :class:`Topology` is a thin, typed wrapper around an undirected
:class:`~repro.topology.graph.Graph`.  Nodes are servers or switches; edges are links
with a capacity and a kind.  All topology generators in
:mod:`repro.topology` produce instances of this class, and both the
packet-level simulator (:mod:`repro.sim`) and the flow-level simulator
(:mod:`repro.flowsim`) consume it.

Node attributes
---------------
``kind``
    One of :class:`NodeKind` — ``SERVER``, ``TOR``, ``AGG``, ``CORE``.
``rack``
    Integer rack id, or ``None`` for nodes that are not rack-local
    (aggregation and core switches).  Used by the wiring-complexity
    metric and by localized workloads.
``switch_model``
    For switches, the name of a :class:`repro.sim.switch.SwitchModel`
    (e.g. ``"ULL"`` or ``"CCS"``).  Ignored for servers.

Edge attributes
---------------
``capacity``
    Link capacity in bits/second.
``link_kind``
    One of :class:`LinkKind` — ``HOST`` (server to ToR), ``MESH``
    (Quartz/mesh switch-to-switch), ``UPLINK`` (edge to aggregation or
    aggregation to core), ``RANDOM`` (Jellyfish inter-switch).
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from repro.cache import cached
from repro.topology.graph import Graph, is_connected


class NodeKind(str, enum.Enum):
    """Role of a node in the datacenter network."""

    SERVER = "server"
    TOR = "tor"
    AGG = "agg"
    CORE = "core"


#: Node kinds that forward packets (everything except servers).
SWITCH_KINDS = frozenset({NodeKind.TOR, NodeKind.AGG, NodeKind.CORE})


class LinkKind(str, enum.Enum):
    """Role of a link in the datacenter network."""

    HOST = "host"
    MESH = "mesh"
    UPLINK = "uplink"
    RANDOM = "random"


@dataclass(frozen=True)
class Link:
    """A resolved view of one edge in a :class:`Topology`."""

    u: str
    v: str
    capacity: float
    link_kind: LinkKind

    def endpoints(self) -> tuple[str, str]:
        return (self.u, self.v)


class TopologyError(ValueError):
    """Raised for structurally invalid topology operations."""


@dataclass
class Topology:
    """A datacenter network: servers and switches joined by capacitated links."""

    name: str
    graph: Graph = field(default_factory=Graph)
    #: :meth:`fingerprint`'s memo: ``(graph, its version, its graph-level
    #: attributes, digest)``.
    _fingerprint: "tuple | None" = field(default=None, init=False, repr=False, compare=False)

    # -- construction --------------------------------------------------------

    def add_server(self, node: str, rack: int | None = None) -> str:
        """Add a server node attached to rack ``rack``."""
        self._add_node(node, NodeKind.SERVER, rack=rack, switch_model=None)
        return node

    def add_switch(
        self,
        node: str,
        kind: NodeKind = NodeKind.TOR,
        rack: int | None = None,
        switch_model: str = "ULL",
    ) -> str:
        """Add a switch node of the given kind and hardware model."""
        if kind not in SWITCH_KINDS:
            raise TopologyError(f"{kind} is not a switch kind")
        self._add_node(node, kind, rack=rack, switch_model=switch_model)
        return node

    def _add_node(
        self,
        node: str,
        kind: NodeKind,
        rack: int | None,
        switch_model: str | None,
    ) -> None:
        if node in self.graph:
            raise TopologyError(f"duplicate node {node!r}")
        self.graph.add_node(node, kind=kind, rack=rack, switch_model=switch_model)

    def add_link(
        self,
        u: str,
        v: str,
        capacity: float,
        link_kind: LinkKind = LinkKind.MESH,
    ) -> None:
        """Join ``u`` and ``v`` with a bidirectional link of ``capacity`` bps."""
        for node in (u, v):
            if node not in self.graph:
                raise TopologyError(f"unknown node {node!r}")
        if u == v:
            raise TopologyError(f"self-loop on {u!r}")
        if self.graph.has_edge(u, v):
            raise TopologyError(f"duplicate link {u!r} -- {v!r}")
        if capacity <= 0:
            raise TopologyError(f"capacity must be positive, got {capacity}")
        self.graph.add_edge(u, v, capacity=capacity, link_kind=link_kind)

    # -- queries --------------------------------------------------------------

    def kind(self, node: str) -> NodeKind:
        return self.graph.nodes[node]["kind"]

    def rack(self, node: str) -> int | None:
        return self.graph.nodes[node]["rack"]

    def switch_model(self, node: str) -> str | None:
        return self.graph.nodes[node]["switch_model"]

    def is_server(self, node: str) -> bool:
        return self.kind(node) is NodeKind.SERVER

    def is_switch(self, node: str) -> bool:
        return self.kind(node) in SWITCH_KINDS

    def servers(self) -> list[str]:
        """All server nodes, in insertion order."""
        return [n for n in self.graph if self.is_server(n)]

    def switches(self, kind: NodeKind | None = None) -> list[str]:
        """All switch nodes, optionally filtered to one kind."""
        if kind is None:
            return [n for n in self.graph if self.is_switch(n)]
        return [n for n in self.graph if self.kind(n) is kind]

    def links(self) -> Iterator[Link]:
        """Iterate over all links as :class:`Link` records."""
        for u, v, data in self.graph.edges(data=True):
            yield Link(u, v, data["capacity"], data["link_kind"])

    def link(self, u: str, v: str) -> Link:
        """The link between ``u`` and ``v`` (either orientation)."""
        data = self.graph.get_edge_data(u, v)
        if data is None:
            raise TopologyError(f"no link {u!r} -- {v!r}")
        return Link(u, v, data["capacity"], data["link_kind"])

    def capacity(self, u: str, v: str) -> float:
        return self.link(u, v).capacity

    def tor_of(self, server: str) -> str:
        """The first ToR switch adjacent to ``server``."""
        if not self.is_server(server):
            raise TopologyError(f"{server!r} is not a server")
        for neighbor in self.graph.neighbors(server):
            if self.kind(neighbor) is NodeKind.TOR:
                return neighbor
        raise TopologyError(f"server {server!r} has no ToR neighbor")

    def servers_in_rack(self, rack: int) -> list[str]:
        return [n for n in self.servers() if self.rack(n) == rack]

    def servers_by_rack(self) -> dict[int, list[str]]:
        """Rack id → its servers (insertion order), built in one pass.

        Equivalent to calling :meth:`servers_in_rack` per rack but
        linear instead of quadratic — workload generators that touch
        every rack should use this.
        """
        by_rack: dict[int, list[str]] = {}
        for server in self.servers():
            rack = self.rack(server)
            if rack is not None:
                by_rack.setdefault(rack, []).append(server)
        return by_rack

    def racks(self) -> list[int]:
        """Sorted list of distinct rack ids that contain servers."""
        seen = {self.rack(n) for n in self.servers()}
        return sorted(r for r in seen if r is not None)

    # -- derived views ---------------------------------------------------------

    def degraded(self, removed_links: Iterable[tuple[str, str]]) -> "Topology":
        """A copy of this topology with the given links removed.

        Used for failure studies: remove the mesh channels killed by a
        fibre cut, then re-route over what survives.  Unknown links
        raise; the degraded copy is *not* validated (it may legitimately
        be disconnected — check with :meth:`validate` if required).
        """
        graph = self.graph.copy()
        for u, v in removed_links:
            if not graph.has_edge(u, v):
                raise TopologyError(f"no link {u!r} -- {v!r} to remove")
            graph.remove_edge(u, v)
        return Topology(name=f"{self.name}+degraded", graph=graph)

    def switch_graph(self) -> Graph:
        """The subgraph induced on switches only (servers removed)."""
        return self.graph.subgraph(self.switches())

    def copy(self) -> "Topology":
        """An independent structural copy (shared immutable attributes).

        Node/edge attribute values (enums, floats, strings) are
        immutable, so the shallow-copied attribute dicts are safe:
        structural mutation (``fail_link`` etc.) of the copy never
        touches the original.  The copy carries the original's
        fingerprint: a cached builder's copies share one digest.
        """
        copy = Topology(name=self.name, graph=self.graph.copy())
        graph = copy.graph
        copy._fingerprint = (graph, graph.version, dict(graph.graph), self.fingerprint())
        return copy

    def fingerprint(self) -> str:
        """Content hash of the graph *structure* (name excluded).

        Two topologies with equal node sets, link sets, and attributes
        share a fingerprint regardless of how they were constructed or
        in which order nodes were inserted.  Derived pure artifacts
        (route tables) use this as their cache key, so a topology
        degraded by a fibre cut automatically keys differently from the
        intact one — and keys *identically* again after full repair.

        Memoized until the graph changes: a node or edge added or
        removed (:attr:`Graph.version`) or a graph-level attribute set.
        """
        graph = self.graph
        memo = self._fingerprint
        if (
            memo is not None and memo[0] is graph and memo[1] == graph.version
            and memo[2] == graph.graph
        ):
            return memo[3]
        h = hashlib.sha256()
        for key, value in sorted(self.graph.graph.items()):
            h.update(f"g:{key}={value!r}\n".encode())
        for node, data in sorted(self.graph.nodes(data=True)):
            attrs = ",".join(f"{k}={v!r}" for k, v in sorted(data.items()))
            h.update(f"n:{node}|{attrs}\n".encode())
        for u, v, data in sorted(
            (min(u, v), max(u, v), data) for u, v, data in self.graph.edges(data=True)
        ):
            attrs = ",".join(f"{k}={val!r}" for k, val in sorted(data.items()))
            h.update(f"e:{u}--{v}|{attrs}\n".encode())
        digest = h.hexdigest()
        self._fingerprint = (graph, graph.version, dict(graph.graph), digest)
        return digest

    def __cache_key__(self) -> tuple[str, str]:
        """Key contribution when a topology appears in an artifact spec."""
        return ("topology", self.fingerprint())

    def validate(self) -> None:
        """Check structural invariants; raise :class:`TopologyError` on failure.

        Invariants: the network is connected, every server has at least
        one link, and — unless the topology is marked server-centric
        (``graph.graph["server_centric"]``: servers relay for each
        other) — every server's neighbors are switches.
        """
        if len(self.graph) == 0:
            raise TopologyError("empty topology")
        if not is_connected(self.graph):
            raise TopologyError(f"{self.name}: topology is not connected")
        server_centric = bool(self.graph.graph.get("server_centric"))
        for server in self.servers():
            neighbors = list(self.graph.neighbors(server))
            if not neighbors:
                raise TopologyError(f"server {server!r} has no links")
            if server_centric:
                continue
            for neighbor in neighbors:
                if not self.is_switch(neighbor):
                    raise TopologyError(
                        f"server {server!r} connects to non-switch {neighbor!r}"
                    )

    # -- convenience ----------------------------------------------------------

    def __contains__(self, node: str) -> bool:
        return node in self.graph

    def __len__(self) -> int:
        return len(self.graph)

    def summary(self) -> str:
        """One-line human-readable description."""
        n_srv = len(self.servers())
        n_sw = len(self.switches())
        n_link = self.graph.number_of_edges()
        return f"{self.name}: {n_srv} servers, {n_sw} switches, {n_link} links"


def topologies_equal(a: Topology, b: Topology) -> bool:
    """Value equality: same name, nodes, links, and all attributes.

    ``Topology``'s dataclass ``__eq__`` compares the underlying
    :class:`Graph` objects by identity, which is never what artifact
    equivalence tests want — this compares content (neighbour order
    aside).
    """
    g, h = a.graph, b.graph
    return a.name == b.name and (g.adj, g.nodes, g.graph) == (h.adj, h.nodes, h.graph)


def cached_builder(
    namespace: str,
) -> Callable[[Callable[..., Topology]], Callable[..., Topology]]:
    """Memoize a pure topology builder through :mod:`repro.cache`.

    Builders are keyed by their fully-bound arguments.  Topologies are
    mutable (the packet simulator's fault injection edits the live
    graph), so every return — hit or miss — is an independent
    :meth:`Topology.copy` of the stored instance.
    """
    return cached(f"topology/{namespace}", copy=Topology.copy)


def connect_all(
    topo: Topology,
    nodes: Iterable[str],
    capacity: float,
    link_kind: LinkKind = LinkKind.MESH,
) -> None:
    """Add a full mesh of links among ``nodes`` (helper for mesh builders)."""
    nodes = list(nodes)
    for i, u in enumerate(nodes):
        for v in nodes[i + 1 :]:
            topo.add_link(u, v, capacity, link_kind)
