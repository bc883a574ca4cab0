"""A :class:`~repro.topology.graph.Graph` as a ``networkx.Graph``, for
the differential tests that hold the in-tree searches, sampler and
metrics to networkx (a ``dev`` dependency only)."""

from __future__ import annotations

import networkx as nx

from repro.topology.graph import Graph


def to_networkx(graph: Graph) -> nx.Graph:
    """A ``networkx.Graph`` built in :meth:`Graph.copy`'s order: nodes
    first, then every adjacency entry, so each node's neighbours sit in
    the order a copy gives them."""
    out = nx.Graph()
    out.graph.update(graph.graph)
    out.add_nodes_from((n, attrs.copy()) for n, attrs in graph.nodes.items())
    out.add_edges_from(
        (u, v, attrs.copy()) for u, nbrs in graph.adj.items() for v, attrs in nbrs.items()
    )
    return out
