"""The undirected graph under every :class:`~repro.topology.base.Topology`.

A :class:`Graph` is a dict-of-dicts adjacency plus a node-attribute
dict and a graph-attribute dict — the part of ``networkx.Graph`` the
simulator touches, and nothing else.  The searches below are the ones
the run path and the Table 9 metrics need: ECMP's all-shortest-paths,
the detour's shortest path, Yen's k-shortest simple paths, one
shortest path to every node, hop counts, and connectivity.

**Tie order is the contract.**  Every search walks neighbours in
adjacency-dict order and follows networkx 3.6.1 step by step
(``predecessor`` plus ``_build_paths_from_predecessors``; the
alternating-fringe ``_bidirectional_pred_succ``;
``shortest_simple_paths`` with its ``PathBuffer``;
``single_source_shortest_path``), and every mutation
orders the adjacency as ``networkx.Graph`` does: ``add_edge`` appends a
new neighbour to both endpoints' dicts (so a re-added edge sits last),
and :meth:`Graph.copy` re-adds edges in adjacency-iteration order, so
a copy's neighbour order is not always the original's.  The same
operation history therefore gives the same paths, tie for tie
(``tests/topology/test_graph.py`` checks this against networkx).

A node that is not in the graph raises ``KeyError`` naming it; a pair
with no path is an empty result, never an exception.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Any, Hashable, Iterable, Iterator

Node = Hashable


class _Nodes(dict):
    """Node → attribute dict; ``nodes(data=True)`` as in networkx."""

    def __call__(self, data: bool = False):
        return self.items() if data else self.keys()


class Graph:
    """An undirected simple graph with node and edge attributes."""

    def __init__(self) -> None:
        self.adj: dict[Node, dict[Node, dict[str, Any]]] = {}
        self.nodes: _Nodes = _Nodes()
        self.graph: dict[str, Any] = {}
        #: Bumped by every change made through the methods below, which
        #: are the only writers of nodes, edges and their attributes
        #: (``Topology.fingerprint`` keys its memo on it).
        self.version = 0

    def add_node(self, node: Node, **attr: Any) -> None:
        self.version += 1
        if node not in self.nodes:
            self.adj[node] = {}
            self.nodes[node] = {}
        self.nodes[node].update(attr)

    def add_edge(self, u: Node, v: Node, **attr: Any) -> None:
        self.version += 1
        for node in (u, v):
            if node not in self.nodes:
                self.adj[node] = {}
                self.nodes[node] = {}
        data = self.adj[u].get(v, {})
        data.update(attr)
        self.adj[u][v] = data
        self.adj[v][u] = data

    def remove_edge(self, u: Node, v: Node) -> None:
        self.version += 1
        del self.adj[u][v]
        del self.adj[v][u]

    def has_edge(self, u: Node, v: Node) -> bool:
        return v in self.adj.get(u, ())

    def get_edge_data(self, u: Node, v: Node) -> dict[str, Any] | None:
        return self.adj.get(u, {}).get(v)

    def neighbors(self, node: Node) -> Iterator[Node]:
        return iter(self.adj[node])

    def degree(self, node: Node) -> int:
        return len(self.adj[node])

    def edges(self, data: bool = False) -> list:
        """Each edge once, from the endpoint that comes first in node order."""
        seen: set[Node] = set()
        out = []
        for u, nbrs in self.adj.items():
            for v, attrs in nbrs.items():
                if v not in seen:
                    out.append((u, v, attrs) if data else (u, v))
            seen.add(u)
        return out

    def number_of_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self.adj.values()) // 2

    def __getitem__(self, node: Node) -> dict[Node, dict[str, Any]]:
        return self.adj[node]

    def __iter__(self) -> Iterator[Node]:
        return iter(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, node: object) -> bool:
        return node in self.nodes

    def copy(self) -> "Graph":
        """An independent copy, edges re-added in adjacency order."""
        return self._copy_of(list(self.nodes), None)

    def subgraph(self, nodes: Iterable[Node]) -> "Graph":
        """An independent copy of the subgraph induced on ``nodes``.

        Equals networkx's ``subgraph(nodes).copy()``, node order
        included: the filtered view iterates the node *set* when it
        holds fewer than half the graph's nodes.
        """
        show = set(n for n in nodes if n in self.adj)
        if 2 * len(show) < len(self.adj):
            order = list(show)
        else:
            order = [n for n in self.adj if n in show]
        return self._copy_of(order, show)

    def _copy_of(self, order: list[Node], show: set[Node] | None) -> "Graph":
        copy = Graph()
        copy.graph.update(self.graph)
        for node in order:
            copy.adj[node] = {}
            copy.nodes[node] = self.nodes[node].copy()
        adj = copy.adj
        for u in order:
            mine = adj[u]
            for v, attrs in self.adj[u].items():
                if (show is None or v in show) and v not in mine:
                    mine[v] = adj[v][u] = attrs.copy()
        return copy


def _check(graph: Graph, *nodes: Node) -> None:
    for node in nodes:
        if node not in graph.adj:
            raise KeyError(node)


def all_shortest_paths(graph: Graph, source: Node, target: Node) -> Iterator[list[Node]]:
    """Every shortest ``source``–``target`` path, lazily, in networkx's order."""
    _check(graph, source, target)
    return paths_from_predecessors(source, target, shortest_path_predecessors(graph, source))


def shortest_path_predecessors(graph: Graph, source: Node) -> dict[Node, list[Node]]:
    """Each node's predecessors on its shortest paths from ``source``.

    networkx's ``predecessor``: one BFS over the whole component, so
    the result serves every target (:func:`paths_from_predecessors`).
    """
    _check(graph, source)
    adj = graph.adj
    level = 0
    next_level = [source]
    seen = {source: level}
    pred: dict[Node, list[Node]] = {source: []}
    while next_level:
        level += 1
        this_level = next_level
        next_level = []
        for v in this_level:
            for w in adj[v]:
                if w not in seen:
                    pred[w] = [v]
                    seen[w] = level
                    next_level.append(w)
                elif seen[w] == level:
                    pred[w].append(v)
    return pred


def paths_from_predecessors(
    source: Node, target: Node, pred: dict[Node, list[Node]]
) -> Iterator[list[Node]]:
    """Every shortest ``source``–``target`` path through ``pred``, lazily.

    ``pred`` is :func:`shortest_path_predecessors` from ``source``; a
    ``target`` it never reached yields nothing.
    """
    if target not in pred:
        return
    seen = {target}
    stack = [[target, 0]]
    top = 0
    while top >= 0:
        node, i = stack[top]
        if node == source:
            yield [p for p, _ in reversed(stack[: top + 1])]
        if len(pred[node]) > i:
            stack[top][1] = i + 1
            nxt = pred[node][i]
            if nxt in seen:
                continue
            seen.add(nxt)
            top += 1
            if top == len(stack):
                stack.append([nxt, 0])
            else:
                stack[top][:] = [nxt, 0]
        else:
            seen.discard(node)
            top -= 1


def shortest_path(graph: Graph, source: Node, target: Node) -> list[Node]:
    """One shortest path (bidirectional BFS), or ``[]`` if there is none."""
    _check(graph, source, target)
    return _bidirectional(graph.adj, source, target, (), ())


def _bidirectional(adj, source, target, ignore_nodes, ignore_edges) -> list[Node]:
    """networkx's ``_bidirectional_pred_succ`` with its ignore filters,
    and the path it meets in."""
    if source in ignore_nodes or target in ignore_nodes:
        return []
    if source == target:
        return [source]
    met = _meet(adj, source, target, ignore_nodes, ignore_edges)
    if met is None:
        return []
    pred, succ, w = met
    path = []
    while w is not None:
        path.append(w)
        w = pred[w]
    path.reverse()
    w = succ[path[-1]]
    while w is not None:
        path.append(w)
        w = succ[w]
    return path


def _meet(adj, source, target, ignore_nodes, ignore_edges):
    """Expand the smaller fringe (the forward one on ties) a level at a
    time; stop at the first node the other search has reached."""
    pred = {source: None}
    succ = {target: None}
    forward = [source]
    reverse = [target]
    while forward and reverse:
        if len(forward) <= len(reverse):
            this_level, forward = forward, []
            for v in this_level:
                for w in adj[v]:
                    if w in ignore_nodes or (v, w) in ignore_edges or (w, v) in ignore_edges:
                        continue
                    if w not in pred:
                        forward.append(w)
                        pred[w] = v
                    if w in succ:
                        return pred, succ, w
        else:
            this_level, reverse = reverse, []
            for v in this_level:
                for w in adj[v]:
                    if w in ignore_nodes or (v, w) in ignore_edges or (w, v) in ignore_edges:
                        continue
                    if w not in succ:
                        succ[w] = v
                        reverse.append(w)
                    if w in pred:
                        return pred, succ, w
    return None


def shortest_simple_paths(graph: Graph, source: Node, target: Node) -> Iterator[list[Node]]:
    """Simple paths from shortest up (Yen's algorithm), lazily, in
    networkx's order: candidates are ranked by ``(length, push count)``."""
    _check(graph, source, target)
    return _yen(graph.adj, source, target)


def _yen(adj, source: Node, target: Node) -> Iterator[list[Node]]:
    found: list[list[Node]] = []
    heap: list[tuple[int, int, list[Node]]] = []
    queued: set[tuple[Node, ...]] = set()
    counter = count()

    def push(cost: int, path: list[Node]) -> None:
        key = tuple(path)
        if key not in queued:
            heappush(heap, (cost, next(counter), path))
            queued.add(key)

    first = _bidirectional(adj, source, target, (), ())
    if first:
        push(len(first), first)
    while heap:
        _, _, path = heappop(heap)
        queued.remove(tuple(path))
        yield path
        found.append(path)
        ignore_nodes: set[Node] = set()
        ignore_edges: set[tuple[Node, Node]] = set()
        for i in range(1, len(path)):
            root = path[:i]
            for earlier in found:
                if earlier[:i] == root:
                    ignore_edges.add((earlier[i - 1], earlier[i]))
            spur = _bidirectional(adj, root[-1], target, ignore_nodes, ignore_edges)
            if spur:
                push(len(root) + len(spur), root[:-1] + spur)
            ignore_nodes.add(root[-1])


def single_source_shortest_path(graph: Graph, source: Node) -> dict[Node, list[Node]]:
    """A shortest path from ``source`` to every node it reaches: breadth
    first, each node keeping the path of the first neighbour to reach it."""
    _check(graph, source)
    adj = graph.adj
    everyone = len(adj)
    paths = {source: [source]}
    frontier = [source]
    while frontier:
        nxt = []
        for v in frontier:
            path = paths[v]
            for w in adj[v]:
                if w not in paths:
                    paths[w] = path + [w]
                    nxt.append(w)
            if len(paths) == everyone:
                return paths
        frontier = nxt
    return paths


def shortest_path_lengths(graph: Graph, source: Node) -> dict[Node, int]:
    """Hop count from ``source`` to every node it reaches."""
    _check(graph, source)
    adj = graph.adj
    everyone = len(adj)
    lengths = {source: 0}
    frontier = [source]
    level = 0
    while frontier:
        level += 1
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if w not in lengths:
                    lengths[w] = level
                    nxt.append(w)
            if len(lengths) == everyone:
                return lengths
        frontier = nxt
    return lengths


def is_connected(graph: Graph) -> bool:
    """Whether every node is reachable from the first one."""
    if not graph.adj:
        raise ValueError("connectivity is undefined for the empty graph")
    return len(shortest_path_lengths(graph, next(iter(graph.adj)))) == len(graph.adj)
