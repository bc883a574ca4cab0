"""Levels of a window's port graph, cycles included, for :mod:`repro.sim.portmajor`."""

from __future__ import annotations

import itertools

import numpy as np


def _port_order(chains: list, ports: int) -> "tuple[np.ndarray, list]":
    """Each port's level in the graph "port of hop h → port of hop h+1"
    over the ``chains`` (routes as port numbers): one past the deepest
    port before it, so every packet crosses ascending levels.  Indexed by
    port number (``ports`` of them, and one more for ``−1``), ``−1``
    where no route crosses.  Kahn's order, a level at a time; where it
    stalls on a cycle, :func:`_cyclic_order` places the rest.  Returns
    ``(level, runs)``: ``runs`` the ``(first, stop)`` levels of each
    cycle of ports, none when Kahn's walk completes."""
    chains = set(chains)
    edges: set = set()
    for chain in chains:
        edges.update(zip(chain, chain[1:]))
    after: dict = {port: [] for port in dict.fromkeys(itertools.chain.from_iterable(chains))}
    waiting = dict.fromkeys(after, 0)
    for port, following in edges:
        after[port].append(following)
        waiting[following] += 1
    ready = [port for port, count in waiting.items() if not count]
    level = np.full(ports + 1, -1)
    depth = 0
    placed = 0
    while ready:
        level[ready] = depth
        placed += len(ready)
        later = []
        for port in ready:
            for following in after[port]:
                waiting[following] -= 1
                if not waiting[following]:
                    later.append(following)
        ready = later
        depth += 1
    if placed < len(waiting):
        return level, _cyclic_order(after, level, depth)
    return level, []


def _cyclic_order(after: dict, level: np.ndarray, depth: int) -> list:
    """Levels, from ``depth`` on, for the ports Kahn's walk left unplaced
    (``level`` −1): the strongly connected sets they form
    (:func:`_components`), in Kahn's order over the sets.  A round's
    single ports share a level; each cycle gets a contiguous run of
    levels of its own, ordered by Kahn over its internal edges: where
    that stalls, the port fed from outside the cycle with the fewest
    feeds left starts the next level, its feeds from inside becoming the
    run's back edges.  (Starting every port fed from outside at once
    makes fewer levels, but on a ring fed at every port, a Quartz
    ring's shape, each sweep then carries a packet one port further:
    7–11 sweeps on the 5-ring where this takes 2–5.)  Returns the runs,
    ``(first, stop)`` levels."""
    left = [port for port in after if level[port] < 0]
    parts = _components(left, after)
    part_of = {port: k for k, part in enumerate(parts) for port in part}
    feeds: dict = {port: [] for port in left}  # each left port's predecessors
    entering = [0] * len(parts)
    for port, following in after.items():
        for next_port in following:
            if next_port in feeds:
                feeds[next_port].append(port)
                if port in part_of and part_of[port] != part_of[next_port]:
                    entering[part_of[next_port]] += 1
    runs = []
    ready = [k for k, count in enumerate(entering) if not count]
    while ready:
        single = [parts[k][0] for k in ready if len(parts[k]) == 1]
        if single:
            level[single] = depth
            depth += 1
        for k in ready:
            if len(parts[k]) > 1:
                first = depth
                depth = _cycle_levels(parts[k], after, feeds, level, depth)
                runs.append((first, depth))
        later = []
        for k in ready:
            for port in parts[k]:
                for next_port in after[port]:
                    other = part_of[next_port]
                    if other != k:
                        entering[other] -= 1
                        if not entering[other]:
                            later.append(other)
        ready = later
    return runs


def _cycle_levels(part: list, after: dict, feeds: dict, level: np.ndarray, depth: int) -> int:
    """Level the cycle ``part`` from ``depth`` on; returns its stop."""
    inside = set(part)
    waiting = {port: sum(feed in inside for feed in feeds[port]) for port in part}
    outside = {port: len(feeds[port]) > waiting[port] for port in part}
    ready: list = []
    while inside:
        if not ready:
            ready = [min(inside, key=lambda port: (not outside[port], waiting[port], port))]
        level[ready] = depth
        depth += 1
        inside.difference_update(ready)
        later = []
        for port in ready:
            for next_port in after[port]:
                if next_port in inside:
                    waiting[next_port] -= 1
                    if not waiting[next_port]:
                        later.append(next_port)
        ready = later
    return depth


def _components(nodes: list, after: dict) -> list:
    """The strongly connected sets of the graph ``after`` restricted to
    ``nodes`` (closed under ``after``): Tarjan's, iterative, each set a
    list."""
    index: dict = {}
    low: dict = {}
    stack: list = []
    on_stack: set = set()
    parts = []
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(after[root]))]
        while work:
            node, successors = work[-1]
            for next_node in successors:
                if next_node not in index:
                    index[next_node] = low[next_node] = len(index)
                    stack.append(next_node)
                    on_stack.add(next_node)
                    work.append((next_node, iter(after[next_node])))
                    break
                if next_node in on_stack and index[next_node] < low[node]:
                    low[node] = index[next_node]
            else:
                work.pop()
                if work and low[node] < low[work[-1][0]]:
                    low[work[-1][0]] = low[node]
                if low[node] == index[node]:
                    part = []
                    while True:
                        port = stack.pop()
                        on_stack.discard(port)
                        part.append(port)
                        if port == node:
                            break
                    parts.append(part)
    return parts
