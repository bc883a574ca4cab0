"""Port-major solution of the open-loop stretches of a run.

Between two events that can change what the fabric does, a queue of
Poisson sources' fire chains and packets already in flight is a
feed-forward computation, not an event simulation: no event can change
what a source sends, so every fire time is known up front, and where
the ports form a DAG under the routes in use each port's whole arrival
sequence is known once the ports upstream of it are done (a cycle of
ports is swept to its fixed point: "Cycles" below).
:func:`advance` — called by :meth:`Network.run` before ``engine.run``,
and again each time the event loop has crossed what the pass could not
— clocks such a stretch a level of ports at a time with the kernel's
own float operations, one budgeted **window** after another, and hands
back exactly the state the event-by-event run would have reached; a
declined window is left to the event loop, and every decline counted
by reason in ``Network.standdowns`` (armed :mod:`repro.obs`:
``batch.standdown.<reason>``).

**Roots, foreign entries, and where a window ends.**  One scan sorts
the queue entries due by ``until`` (later ones cannot matter) into two
kinds.  A **root** is something the pass can own: the live ``_fire``
chain of a :class:`PoissonSource` of this network, or the queued
arrival (a ``_PACKET`` entry) of one of its packets in flight — not
``dropped``, no dead link on the rest of its plan — whose
``on_delivered`` is nothing or a :class:`~repro.sim.stats.DeliveryBins`.  Everything else is
**foreign**: a plain timer (a cut, a repair, a hybrid epoch boundary),
another kind of chain (a burst, a stopped source's last fire), a
packet the kernel would sever, call back or detour, a ``stop_at``.
*A foreign entry bounds the window instead of vetoing it*: the horizon
is the last float before the earliest foreign time, and what ties a
foreign entry stays with the event loop.  What vetoes: no horizon, a
run loop already dispatching, a sharded network, a due source with
several destinations, ``vary_flow_per_packet`` or another callback
(``closed_loop_source``), a route that does not join its source to its
destination (``bad_route``), a cycle of ports not settled within
``MAX_SWEEPS`` sweeps (``cyclic_ports``), and expected fires
``Σ (horizon − first fire) · rate`` under ``MIN_WINDOW_FIRES`` or
``MIN_FIRES_PER_SOURCE`` per firing source (``budget``).  A stretch past
``MAX_WINDOW_FIRES`` is cut there; what one window hands back is what
the next one starts from.

**The resume rule.**  The same scan tells :meth:`Network.run` how far
the event loop must go before the pass is worth another scan: to the
first foreign time that *starts a gap wide enough to hold a budgeted
window* — ``(next foreign time − this one) · Σ rate`` at least the
budget floor, ``until`` closing the last gap — or, when no gap is, to
``until`` itself.  So a cut and its repair cost a scan each (plus one
per packet the cut left to detour), while a few thousand hybrid epoch
boundaries 2 µs apart cost one scan in all, not one each.

**Faults.**  Dead links do not stand the pass down: routes bound after
a cut avoid them, and a packet in flight whose plan still crosses one
is foreign until the kernel has detoured it.  A source the router has
no path for is a **fires-only column**: fire times only, each fire
counted as ``Network.note_unroutable`` counts it.  With in-flight
tracking armed the hand-back enters every packet still flying into
``plan.flights[packet.hop]``, and each flow's outage clock is replayed
from the window's dropped fires and deliveries (:func:`_outages`).

**Telemetry** does not veto: armed, the pass appends each port it clocks
to the hop log (:class:`~repro.telemetry.windows.HopLog`) as one row of
columns in heap order, and a window's deliveries as one array of ids,
which every query reads as it reads the kernel's rows.

**Reading the roots.**  One pass over a window's roots reads, once
each, a root's flow binding, the route it still has to walk as port
numbers (the plan's rows, kept per network), its size, group, sink and
— for a fire chain — its gap buffer, which feeds the window's fire table
(:meth:`PoissonSource._fires_through`).  A flow the window starts is
routed once: the router's pick, checked as ``Network._bind`` checks it,
its plan compiled aside, and the flow bound to it
(``Network._bind_route``) only past the last stand-down.

**Clocking a level.**  A port's packets are all known once the ports
before it are clocked, so the pass clocks the window's port graph a
**level** at a time (:func:`_port_order`): every port one past the
deepest port before it, 5–6 levels on Fig. 17's fabrics.  A level's
events — hop, column, time — are gathered from the roots' routes (a
slice of the table's row when one hop's roots are neighbours), put in
(port, heap) order by one sort — none when the level is one port whose
times already increase — and clocked as one array of runs, one per
port (:func:`_tails`): a packet that finds its port idle leaves at
``earliest + ser``; where one port's packets queue,
:func:`_contended_tails` guesses the busy periods in closed form and
certifies the guess against the kernel's recurrence, and the other
queued packets of the level are replayed in one loop.  The clock's
rows then say how far each column got: a column whose last arrival is
due was delivered, and only the others are counted row by row.

**Cycles.**  Where routes cross ports in opposite orders (Fig. 17's
Jellyfish and Quartz in edge and core, at 4–8 tasks), Kahn's walk
stalls; the ports it leaves are condensed into strongly connected sets
(Tarjan's), and each cycle gets a run of levels of its own, ordered by
Kahn over its internal edges with the edges that close it broken
(:func:`_cyclic_order`).  The run is clocked, then clocked again from
its ports' states at its start, each **sweep** reading the arrivals its
broken edges carry as the sweep before wrote them (``inf``, not yet
clocked, at first), until a sweep writes what it read
(:func:`_settle`); an event whose arrival is ``inf`` or past ``until``
is not due, and its next arrival is put back to ``inf`` each sweep.
The levels downstream are clocked once, after.  The fixed point is the
event loop's answer whenever every hop strictly advances time: a
packet's next arrival is at least ``ser > 0`` after its fire, and at
least its node's latency plus ``propagation_delay`` after an arrival (a
cut-through switch credits the serialization back), so with
``propagation_delay > 0`` or every node's latency > 0 let ``δ > 0`` be
the least such advance — a network with neither stands a cyclic window
down (``cyclic_ports``).  By induction on sweeps: after
sweep ``k`` every arrival the event loop puts at or before ``T + kδ``
(``T`` the window's start) is exact and every other one reads later
than ``T + kδ``.  For an arrival whose parent event is at ``a ≤ T +
kδ``, the parent's input is exact, and the port's packets ahead of it
in heap order are exactly those the loop has there — every one that
arrives before it is exact, every one that does not reads later than
``a`` — so its tail is the loop's; one whose parent is later reads
later than ``T + (k + 1)δ``.  A fixed point is reached by that
induction from any start, so it is the answer, and the sweep that
reaches it has nothing left to change.  Window and state are committed
only once every cycle has settled: until then the window's port
counters are copies, its hop-log blocks are its own and its new flows
unbound, and a window that stands down puts back the generators its
fires drew from.

**Event order from ancestry.**  The heap orders events by ``(time,
seq)``, and an event's seq was drawn while its *parent* ran: the
previous hop of the same packet; the fire, for a packet's first
arrival (drawn before the source's re-arm); the previous fire, for a
fire; the queue entry's own seq at a root.  So ``e ≺ f`` iff
``t_e < t_f``, or the times tie and ``parent(e) ≺ parent(f)``, or they
share a parent and ``e`` is the packet.  No seq is ever materialized:
events are sorted by time and only those that tie a neighbour are
ranked by their ancestors' times (:class:`_Lineage`).
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import operator

import numpy as np

from repro.routing.base import RoutingError
from repro.sim.engine import _PACKET
from repro.sim.fastpath import compile_plan
from repro.sim.network import Network, NetworkSimError, Packet, PortState
from repro.sim.sources import PoissonSource, _spans
from repro.sim.stats import DeliveryBins

#: Expected fires of a window.  Below the floor — in all, and per firing
#: source — the set-up costs more than the events it saves (measured
#: break-even, EXPERIMENTS.md Finding 2).  ``MAX_WINDOW_FIRES`` is where a
#: longer horizon is cut: a window's tables grow with its fires and a
#: larger window is not resolvably faster per packet (PR 18 rows).
#: Bounds in the manner of ``Network.FLOW_TABLE_LIMIT``, not knobs.
MIN_WINDOW_FIRES = 64
MIN_FIRES_PER_SOURCE = 6
MAX_WINDOW_FIRES = 16_384
#: Sweeps a cycle of ports may take to settle ("Cycles") before its window
#: is left to the event loop: Fig. 17's take 2–4.  A bound in the manner
#: of ``MAX_WINDOW_FIRES``, not a knob.
MAX_SWEEPS = 12
#: Fewest packets a guess of :func:`_contended_tails` must spare the loop
#: (or an eighth of those left, if more) to be worth its fixed cost: made
#: only where at least that many queue, kept making only while each
#: certifies that many.  Break-even measured at 165–300 + n/9 queued
#: packets in a call of n (EXPERIMENTS.md, Finding 4).
MIN_CERTIFIED = 256


class _StandDown(Exception):
    """The window is left to the event loop.  ``args`` are the reason's
    name and, from a scan that got as far as its foreign entries, where
    the pass is worth trying again (as :func:`_window` returns it)."""

    def __init__(self, why: str, resume: "float | None" = None) -> None:
        super().__init__(why, resume)


def advance(net: Network, until: "float | None") -> "tuple[bool, float | None]":
    """Solve port-major what the queue lets the pass own of the horizon
    up to ``until``: window after window, up to the first foreign entry.

    Returns ``(solved, resume)``: whether any window was solved, and the
    time the event loop has to reach before the pass is worth calling
    again — ``None`` when the rest of the horizon is the event loop's.
    Every event up to the end of the last solved window has been applied
    and the queue holds what is pending past it.  A window that stands
    down has changed nothing but how far ahead sources drew their gaps.
    """
    solved = False
    resume = None
    try:
        more = True
        while more:
            roots, horizon, resume, more = _window(net, until)
            _solve(net, horizon, roots)
            solved = True
    except _StandDown as why:
        reason, at = why.args
        if at is not None:
            resume = at
        net.standdowns[reason] = net.standdowns.get(reason, 0) + 1
        if net.obs is not None:
            net.obs.incr("batch.standdown." + reason)
    return solved, resume


def _window(
    net: Network, until: "float | None"
) -> "tuple[list, float, float | None, bool]":
    """One scan of the queue: ``(roots, horizon, resume, more)``.

    ``roots`` are the entries the pass owns due by ``horizon``, in queue
    order; ``horizon`` the last float before the first foreign entry
    (``until`` if none), or the cut at ``MAX_WINDOW_FIRES`` — ``more``
    says the next window starts there; ``resume`` the first foreign time
    that starts a gap wide enough for a budgeted window (``None`` if
    none).  :class:`_StandDown` when the pass may not run or the window
    is under budget.
    """
    engine = net.engine
    if until is None or net.owned is not None or engine.running:
        raise _StandDown("not_open_loop")
    fire = PoissonSource._fire
    dead = net._dead_links
    roots = []
    starts = []
    foreign = []
    for entry in engine._heap:
        time = entry[0]
        if time > until:
            continue
        if entry[3] is _PACKET:
            packet = entry[4]
            sink = packet.on_delivered
            if (
                packet.dropped
                or (sink is not None and type(sink) is not DeliveryBins)
                or (dead and not dead.isdisjoint(packet.plan.keys[packet.hop + 1:]))
            ):
                foreign.append(time)
            else:
                roots.append(entry)
            continue
        if entry[3] is not None:
            foreign.append(time)  # a plain timer
            continue
        step = entry[2]
        owner = getattr(step, "__self__", None)
        if (
            getattr(step, "__func__", None) is fire
            and owner.network is net
            and entry[4] == owner._generation
            and owner.size_bytes > 0
        ):
            sink = owner.on_delivered
            if (
                owner._dst_rng is not None
                or owner.vary_flow_per_packet
                or (sink is not None and type(sink) is not DeliveryBins)
            ):
                raise _StandDown("closed_loop_source")
            stop_at = owner.stop_at
            if stop_at is not None and stop_at <= until:
                foreign.append(max(stop_at, time))
                if time >= stop_at:
                    continue  # the fire that ends the chain
            roots.append(entry)
            starts.append((time, owner.rate_pps))
        else:
            foreign.append(time)  # another chain: a burst, a stopped source's last fire

    foreign.sort()
    # ``t <= horizon`` below reads "strictly before the first foreign
    # entry": what ties it stays with the event loop, and its seqs.
    horizon = math.nextafter(foreign[0], -math.inf) if foreign else until
    foreign.append(until)
    all_rates = sum(rate for _, rate in starts)
    wide = _floor(len(starts))
    resume = next(
        (this for this, then in zip(foreign, foreign[1:]) if (then - this) * all_rates >= wide),
        None,
    )

    starts = [start for start in starts if start[0] <= horizon]
    expected = sum((horizon - first) * rate for first, rate in starts)
    more = expected > MAX_WINDOW_FIRES
    if more:
        horizon = min(starts)[0] + MAX_WINDOW_FIRES / sum(rate for _, rate in starts)
        starts = [start for start in starts if start[0] <= horizon]
        expected = sum((horizon - first) * rate for first, rate in starts)
    if expected < _floor(len(starts)):
        raise _StandDown("budget", resume)
    # (time, seq): the order the heap would pop them in
    return sorted(entry for entry in roots if entry[0] <= horizon), horizon, resume, more


def _floor(sources: int) -> int:
    """The fewest expected fires a window of ``sources`` firing sources
    is worth setting up for."""
    return max(MIN_WINDOW_FIRES, MIN_FIRES_PER_SOURCE * sources)


def _numbering(net: Network) -> "tuple[dict, list, list]":
    """The network's ports, numbered: ``(number by link key, port state by
    number, link key by number)``, built at its first window."""
    if net._port_numbers is None:
        keys = list(net._link_rec)
        net._port_numbers = (
            dict(zip(keys, range(len(keys)))), [rec[1] for rec in net._link_rec.values()], keys,
        )
    return net._port_numbers


def _rows(plan, numbers: dict) -> tuple:
    """``plan``'s port numbers and per-byte ``ser``, ``latf`` and ``lat``
    per hop, derived from ``HopPlan.hops``: the pass keeps them with the
    network's plans (``Network._plan_rows``), dropped as they are."""
    latf, lat, _, ser = zip(*plan.hops)
    return (tuple(map(numbers.__getitem__, plan.keys)), ser, latf, lat)


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


class _Lineage:
    """Heap order of a window's events, rebuilt from their ancestry.

    ``times`` is the ``(hops + 1) × packets`` table, root-major: row 0
    the fire times, row ``h`` the arrival at the path's ``h``-th node.
    The event ``(n, h)`` has as generation-``g`` ancestor its own hop
    ``h − g``, then its source's earlier fires ``n − (g − h)``, and
    nothing past ``first[n]``, the root; a packet that was in flight is
    its own root, its column ``−inf`` above its queued arrival."""

    def __init__(
        self, times: np.ndarray, root_of: np.ndarray, start: np.ndarray, root_t: np.ndarray
    ) -> None:
        self.times = times
        self.root_of = root_of
        self.start = start  # each root's first column
        #: Columns alone in their root: a packet in flight, a single fire.
        self.alone = np.zeros(root_t.size, dtype=bool)
        self.alone[start[np.diff(start, append=root_t.size) == 1]] = True
        self.rank = self._rank(root_t, root_of, start, self.alone)

    @staticmethod
    def _rank(
        root_t: np.ndarray, root_of: np.ndarray, start: np.ndarray, alone: np.ndarray
    ) -> np.ndarray:
        """Position of every column's first event, at ``root_t``, in the
        heap's order of all of them: the fixed point of ``rank = order by
        (time, rank[parent])``, a root's parent key its queue position.
        A pair tying ``d`` generations deep is right from iteration
        ``d + 1``; lockstep streams are right at once, the first guess
        being queue order.  Without ties the time order is the answer,
        found without a sort when the times increase or only ``alone``
        columns are out of place (:func:`_merged`)."""
        index = np.arange(root_t.size)
        if _increasing(root_t):
            return index
        placed = _merged(root_t, alone)
        rank = np.empty_like(index)
        if placed is not None:
            rank[placed] = index
            return rank
        by_time = np.argsort(root_t)
        ts = root_t[by_time]
        same = ts[1:] == ts[:-1]
        if not same.any():
            rank[by_time] = index
            return rank
        run = np.cumsum(np.concatenate(([True], ~same)))  # each time's number
        tied = np.zeros(index.size, dtype=bool)
        tied[1:] = same
        tied[:-1] |= same
        at = np.flatnonzero(tied)
        sub, run = by_time[at], run[at]

        def ranked(key: np.ndarray) -> np.ndarray:
            # Each run of tied times by ``key``, as one integer key:
            # parent keys are distinct, so no quicksort tie is left.
            key = key[sub] - key[sub].min()
            order = by_time.copy()
            order[at] = sub[np.argsort(run * (int(key.max()) + 1) + key)]
            placed = np.empty_like(index)
            placed[order] = index
            return placed

        root = np.zeros(root_t.size, dtype=bool)
        root[start] = True
        rank = ranked(root_of)
        while True:
            again = ranked(np.where(root, root_of - (root_of[-1] + 1), rank[index - 1]))
            if np.array_equal(again, rank):
                return rank
            rank = again

    def fire_rank(self, columns: np.ndarray, skip: np.ndarray) -> np.ndarray:
        """``rank`` of ``columns`` over the fires that take a packet id —
        ``skip`` are the columns that do not: packets in flight, drops."""
        rank = self.rank[columns]
        return rank - np.searchsorted(np.sort(self.rank[skip]), rank)

    def order(
        self, n: np.ndarray, hop: np.ndarray, t: np.ndarray, child: "np.ndarray | None" = None,
        port: "int | np.ndarray | None" = None,
    ) -> "np.ndarray | None":
        """The permutation that puts the events ``(n, hop)``, at times
        ``t``, in heap order — ``None`` when they are, their times
        strictly increasing.  ``child`` breaks a tie between the same
        parent's events (the packet before the re-arm); ``port`` (a
        number, or one per event) orders a level's events port by port.
        One port's lone out-of-place columns are placed without a sort
        (:func:`_merged`)."""
        primary = [t]
        if port is None or isinstance(port, int):
            if _increasing(t):
                return None
            placed = _merged(t, self.alone[n])
            if placed is not None:
                return placed
            order = np.argsort(t)
        else:  # by port, a radix sort: done if each port's times increase
            order = np.argsort(port, kind="stable")
            ts, ps = t[order], port[order]
            if not ((ts[1:] <= ts[:-1]) & (ps[1:] == ps[:-1])).any():
                return order
            order = np.argsort(t)
            order = order[np.argsort(port[order], kind="stable")]
            primary.append(port)
        return _ties(order, primary, lambda sub: self._keys(n[sub], hop[sub]) if child is None
                     else [child[sub]] + self._keys(n[sub], hop[sub]))

    def _keys(self, n: np.ndarray, hop: np.ndarray) -> list:
        """``np.lexsort`` keys, least significant first: ``−hop``, the rank
        of the oldest ancestor looked at, then the ancestors' times from
        it to the parent; ``−inf`` past the root."""
        times = self.times
        depth = times.shape[0] - 1
        first = self.start[self.root_of[n]]  # each event's root column
        columns = []
        for g in range(depth, 0, -1):
            fire = n - np.maximum(g - hop, 0)
            column = times[np.maximum(hop - g, 0), np.maximum(fire, first)]
            column[fire < first] = -np.inf
            columns.append(column)
        oldest = np.maximum(n - (depth - hop), first)
        return [-hop, self.rank[oldest]] + columns


def _ties(order: np.ndarray, primary: list, keys) -> np.ndarray:
    """``order``, sorted by the ``primary`` keys with ties in any order,
    with each run of ties put in the order of ``keys(sub)`` (lexsort keys
    of the tied entries ``sub``), then of position, as a stable sort."""
    primary = [key[order] for key in primary]
    same = np.logical_and.reduce([key[1:] == key[:-1] for key in primary])
    if not same.any():
        return order
    tied = np.zeros(order.size, dtype=bool)
    tied[1:] = same
    tied[:-1] |= same
    at = np.flatnonzero(tied)
    sub = order[at]
    order[at] = sub[np.lexsort([sub] + keys(sub) + [key[at] for key in primary])]
    return order


def _increasing(t: np.ndarray) -> bool:
    """Whether ``t`` strictly increases: heap order already, nothing tied."""
    return bool((t[1:] > t[:-1]).all())


def _merged(t: np.ndarray, lone: np.ndarray) -> "np.ndarray | None":
    """The permutation that sorts ``t`` when only the few ``lone`` entries
    are out of place and no two times tie: each placed by a binary
    search.  ``None`` when that does not hold, or no entry is lone."""
    solo = np.flatnonzero(lone)
    if not solo.size or solo.size == t.size:
        return None
    if np.count_nonzero(t[1:] <= t[:-1]) > 2 * solo.size:
        return None  # each lone entry out of place makes at most two descents
    t_rest = np.delete(t, solo)
    t_solo = t[solo]
    if solo.size > 1 and not _increasing(t_solo):
        by = np.argsort(t_solo, kind="stable")
        solo, t_solo = solo[by], t_solo[by]
    if not (_increasing(t_rest) and _increasing(t_solo)):
        return None
    at = np.searchsorted(t_rest, t_solo)
    if (np.searchsorted(t_rest, t_solo, "right") != at).any():
        return None  # a tie: the lineage decides
    return np.insert(np.delete(np.arange(t.size), solo), at, solo)


def _pick(index: np.ndarray, *columns) -> list:
    """Each column at ``index``; a scalar one (one hop, one port) as is."""
    return [column if isinstance(column, int) else column[index] for column in columns]


def _columns(roots: np.ndarray, start: np.ndarray, count: np.ndarray) -> "slice | np.ndarray":
    """The columns of ``roots`` (ascending), root-major: a slice when the
    roots are neighbours, and so are their columns."""
    if roots[-1] - roots[0] == roots.size - 1:
        return slice(int(start[roots[0]]), int(start[roots[-1]] + count[roots[-1]]))
    return _spans(start[roots], count[roots])


def _index(columns: "slice | np.ndarray") -> np.ndarray:
    """``columns`` as an index array."""
    if isinstance(columns, slice):
        return np.arange(columns.start, columns.stop)
    return columns


def _solve(net: Network, until: float, roots: list) -> None:
    engine = net.engine
    numbers, states, port_keys = _numbering(net)

    # (1) One pass over the roots reads what each has still to cross, as
    # port numbers, with its size, group, sink and, for a fire chain, its
    # gap buffer: the rest of a packet's path; a bound flow's plan; a new
    # flow's route, picked by the router once and checked as
    # ``Network._bind`` and ``compile_plan`` would, its plan compiled aside
    # and the flow bound (``Network._bind_route``) only past the last
    # stand-down — each flow as its first packet would, every later one a
    # plan hit.  A source the router has no path for has no plan: its
    # fires drop.  Then each port's level.
    width = len(roots)
    flows = net._flows
    held = net._plans
    kept = net._plan_rows
    route_of = net.router.route
    origins = []  # each root's packet or source
    chains = []
    rows = []  # each root's compiled rows (:func:`_rows`)
    plans = []
    row = [0] * width  # the table row of each root's queued event
    firing = []  # the fire chains' roots, and of each its source,
    sources = []
    buffers = []  # the gaps it has drawn and not spent,
    first = []  # and its queued fire's time
    flown = []  # (root, packet) of the packets in flight
    dropping = []  # the roots of fires-only columns
    unbound = []  # (root, flow, route) of the flows the window starts
    compiled: dict = {}  # their plans the network does not hold, by route
    for j, entry in enumerate(roots):
        origin = entry[4]
        if type(origin) is Packet:
            plan = origin.plan
            flown.append((j, origin))
            row[j] = origin.hop + 1
        else:
            origin = entry[2].__self__
            firing.append(j)
            sources.append(origin)
            buffers.append(origin._gaps[origin._gap_i:])
            first.append(entry[0])
            flow = (origin.src, origin._dsts[0], origin.flow_id)
            plan = flows.get(flow)
            if plan is not None:
                plan = plan[1]
            else:
                try:
                    route = route_of(*flow)
                except RoutingError:
                    dropping.append(j)
                else:
                    if len(route) < 2 or route[0] != flow[0] or route[-1] != flow[1]:
                        raise _StandDown("bad_route")  # the scalar run raises at its fire
                    if type(route) is not tuple:
                        route = tuple(route)
                    plan = held.get(route) or compiled.get(route)
                    if plan is None:
                        try:
                            plan = compiled[route] = compile_plan(
                                net._link_rec, net._hop_rec, net._in_flight, route, net.owned
                            )
                        except NetworkSimError:
                            raise _StandDown("bad_route") from None
                    unbound.append((j, flow, route))
        origins.append(origin)
        plans.append(plan)
        if plan is None:
            rows.append(None)
            chains.append(())
            continue
        mine = kept.get(plan)
        if mine is None:  # a plan compiled aside is kept once bound (:func:`_bind`)
            mine = _rows(plan, numbers)
            if compiled.get(plan.path) is not plan:
                kept[plan] = mine
        rows.append(mine)
        chains.append(mine[0][row[j]:])
    sizes = [origin.size_bytes for origin in origins]
    groups = [origin.group for origin in origins]
    sinks = [origin.on_delivered for origin in origins]  # ``None`` or a DeliveryBins
    hops = np.fromiter(map(len, chains), np.intp, width)
    owner = np.repeat(np.arange(width), hops)
    crossed = np.fromiter(itertools.chain.from_iterable(chains), np.intp, owner.size)
    level, runs = _port_order(chains, len(states))
    if runs and not (
        net.propagation_delay > 0 or min(lat for _, lat in net._hop_rec.values()) > 0
    ):
        raise _StandDown("cyclic_ports")  # a hop may not advance time ("Cycles")
    row = np.array(row)
    if not runs:
        _bind(net, unbound, plans, rows)  # nothing stands down past this point
    else:
        # A cycle may yet stand the window down: its new flows stay
        # unbound, and the generators the fires draw from are kept to be
        # put back.
        drawn = [source._gap_rng.bit_generator for source in sources]
        drawn = [(generator, generator.state) for generator in drawn]
    fire_t, fires, next_fire, unspent = PoissonSource._fires_through(
        sources, buffers, np.array(first), until
    )

    count = np.ones(width, dtype=np.intp)
    count[firing] = fires
    end = np.cumsum(count)
    start = end - count
    total = int(end[-1])
    drops = [np.arange(start[j], end[j]) for j in dropping]  # their columns
    dropped = sum(columns.size for columns in drops)
    fired = total - len(flown) - dropped  # the packets born: one id each
    root_of = np.repeat(np.arange(width, dtype=np.int32), count)
    # A dropped fire reaches no hop (``last`` −1): never delivered.
    last = np.array([-1 if plan is None else plan.last for plan in plans])
    depth = max(int(last.max()), 0)
    times = np.full((depth + 1, total), np.inf)
    if flown:
        at = end[[j for j, _ in flown]] - 1
        taken = 0  # the fires fill the runs of columns between packets in flight
        for lo, hi in zip([0] + (at + 1).tolist(), at.tolist() + [total]):
            times[0, lo:hi] = fire_t[taken:taken + hi - lo]
            taken += hi - lo
    else:
        times[0] = fire_t
    next_fire = next_fire.tolist()
    del fire_t
    root_t = born = times[0]
    if flown:
        root_t = born.copy()
        born = born.copy()
        for column, (j, packet) in zip(at.tolist(), flown):
            times[:packet.hop + 1, column] = -np.inf
            times[packet.hop + 1, column] = root_t[column] = roots[j][0]
            born[column] = packet.created_at
    lineage = _Lineage(times, root_of, start, root_t)
    # A packet id counts the fires that came before, less the drops; a
    # packet in flight keeps its own.  Armed, the log needs every column's.
    skip = ([at] if flown else []) + drops
    log = net.telemetry
    if log is not None:
        ids = net._next_packet_id + (
            lineage.fire_rank(np.arange(total), np.concatenate(skip)) if skip else lineage.rank
        )
        if flown:
            ids[at] = [packet.packet_id for _, packet in flown]
        labels = np.array(groups, dtype=object)

    # The coefficient tables, ``depth × roots``, gathered from the rows.
    size = np.array(sizes, dtype=float)
    carried = size[last > 0]  # what crosses a port
    one_size = bool((carried == carried[:1]).all())
    hop_of = _spans(row, hops)
    port_at = np.full((depth, width), -1, dtype=np.intp)
    port_at[hop_of, owner] = crossed
    coefficients = np.zeros((3, depth, width))  # ser, credit, lat
    uniform = True  # every root multiplies alike at each hop: scalars
    per_hop = np.zeros((3, depth))  # a coefficient of each hop
    if crossed.size:
        compiled = [mine for mine in rows if mine is not None]
        full = np.fromiter((len(mine[0]) for mine in compiled), np.intp, len(compiled))
        offset = np.zeros(width, dtype=np.intp)
        offset[[j for j, mine in enumerate(rows) if mine is not None]] = np.cumsum(full) - full
        values = np.array([
            np.fromiter(itertools.chain.from_iterable(mine[k] for mine in compiled), float, int(full.sum()))
            for k in (1, 2, 3)
        ])[:, _spans(offset + row, hops)]
        values[:2] *= size[owner]
        coefficients[:, hop_of, owner] = values
        per_hop[:, hop_of] = values
        uniform = bool((values == per_hop[:, hop_of]).all())
    ser, credit, lat = coefficients
    del chains, hop_of

    # (2) Clock the ports a level at a time, upstream first: the level's
    # events sorted by (port, heap order), one port's run after another —
    # the event ``(n, hop)`` is ``hop·total + n`` of ``times``, its
    # coefficients ``hop·width + root`` of ``credit``, ``lat`` and ``ser``.
    prop = net.propagation_delay
    flat = times.reshape(-1)
    at_level = level[port_at]
    placed = np.flatnonzero(level[:-1] >= 0)
    members: list = [[] for _ in range(int(level.max()) + 1)]  # each level's ports, ascending
    rank = np.zeros(level.size, dtype=np.uint16 if level.size < 2**16 else np.intp)
    for number, stage in zip(placed.tolist(), level[placed].tolist()):
        rank[number] = len(members[stage])  # the port's rank in its level
        members[stage].append(number)

    def clock(stage: int, ports: list, blocks: "list | None", sweeping: bool) -> None:
        """Clock the level ``stage`` on the port states ``ports`` (by
        number), its hop-log rows appended to ``blocks``; ``sweeping`` puts
        the next arrival of each of its events not due back to ``inf``."""
        clocked = members[stage]
        hs, js = np.nonzero(at_level == stage)
        hop = int(hs[0])
        if hop == hs[-1]:  # one hop: a scalar, and ``n`` maybe a slice
            n = _columns(js, start, count)
            t = times[hop, n]
        else:
            hop = np.repeat(hs, count[js])
            n = _spans(start[js], count[js])
            t = flat.take(hop * total + n)
        # Each event's port as its rank in the level (a radix sort's key).
        port = 0 if len(clocked) == 1 else np.repeat(rank[port_at[hs, js]], count[js])
        due = t <= until
        if not due.all():
            n = _index(n)
            if sweeping:
                late = ~due
                after = hop[late] + 1 if isinstance(hop, np.ndarray) else hop + 1
                flat[after * total + n[late]] = np.inf
            n, t, hop, port = _pick(due, n, t, hop, port)
            if not t.size:
                return
        if not (isinstance(port, int) and _increasing(t)):
            n = _index(n)
            order = lineage.order(n, np.full(n.size, hop) if isinstance(hop, int) else hop, t,
                                  port=port)
            if order is not None:
                n, t, hop, port = _pick(order, n, t, hop, port)
        if uniform and isinstance(hop, int):  # scalars
            service, credit_, lat_ = per_hop[:, hop].tolist()
            earliest = (t + credit_) + lat_
        else:
            coefficient = hop * width + root_of[n]
            earliest = (t + credit.take(coefficient)) + lat.take(coefficient)
            service = ser.take(coefficient)
        if isinstance(port, int):
            heads = [0]
        else:
            heads = np.flatnonzero(np.concatenate(([True], port[1:] != port[:-1])))
            clocked = [clocked[k] for k in port[heads].tolist()]
            heads = heads.tolist()
        busy = [ports[number].busy_until for number in clocked]
        tails = _tails(earliest, service, heads, busy)
        bounds = heads + [t.size]
        whose = root_of[n] if log is not None or not one_size else None
        ends = [float(tails[-1])] if len(heads) == 1 else tails[np.array(bounds[1:]) - 1].tolist()
        for number, a, b, tail in zip(clocked, bounds, bounds[1:], ends):
            state = ports[number]
            state.busy_until = tail
            state.packets_sent += b - a
            if one_size:
                state.bytes_sent = _repeated_add(state.bytes_sent, carried[0], b - a)
            else:
                state.bytes_sent = functools.reduce(
                    operator.add, size.take(whose[a:b]).tolist(), state.bytes_sent
                )  # one add per packet, in its port's order
        if log is not None:
            ahead = np.append(0.0, tails[:-1])
            ahead[heads] = busy
            started = np.maximum(ahead, earliest)
            ids_ = ids[n]
            for number, a, b in zip(clocked, bounds, bounds[1:]):
                mine = whose[a:b]
                blocks.append((
                    port_keys[number], ids_[a:b], earliest[a:b], started[a:b], tails[a:b],
                    size[mine], labels[mine],
                ))
        if isinstance(hop, int):
            times[hop + 1, n] = tails + prop
        else:
            flat[(hop + 1) * total + n] = tails + prop

    if not runs:
        for stage in range(len(members)):
            clock(stage, states, None if log is None else log.hops, False)
    else:
        # A cyclic window clocks on copies of its ports' states and keeps
        # its hop-log blocks, both committed once every run has settled.
        ports = list(states)
        for number in placed.tolist():
            state = states[number]
            ports[number] = PortState(state.busy_until, state.packets_sent, state.bytes_sent)
        blocks: list = []
        settled = []
        stops = dict(runs)
        stage = 0
        while stage < len(members):
            stop = stops.get(stage)
            if stop is None:
                clock(stage, ports, blocks, False)
                stage += 1
                continue
            inside = (at_level >= stage) & (at_level < stop)
            back = inside[1:] & inside[:-1] & (at_level[:-1] >= at_level[1:])
            hs, js = np.nonzero(back)  # hop ``hs + 1`` fed by a back edge
            fed = np.repeat(hs + 1, count[js]) * total + _spans(start[js], count[js])
            cycle = [number for first in range(stage, stop) for number in members[first]]
            try:
                sweeps, logged = _settle(
                    clock, range(stage, stop), ports, states, cycle, flat, fed, until
                )
            except _StandDown:
                for generator, state in drawn:
                    generator.state = state
                raise
            blocks += logged
            settled.append(sweeps)
            stage = stop
        for number in placed.tolist():
            state, mine = states[number], ports[number]
            state.busy_until = mine.busy_until
            state.packets_sent = mine.packets_sent
            state.bytes_sent = mine.bytes_sent
        if log is not None:
            log.hops += blocks
        _bind(net, unbound, plans, rows)
        for sweeps in settled:
            net.sweeps[sweeps] = net.sweeps.get(sweeps, 0) + 1

    # (3) Deliveries, in event order.  Arrivals only grow along a path,
    # so a column whose last arrival is due is delivered; only the others
    # are counted row by row, to the row they reached.
    final = last[root_of]
    if (last == last[0]).all() and last[0] > 0:
        complete = times[last[0]] <= until
    else:
        complete = flat.take(np.maximum(final, 0) * total + np.arange(total)) <= until
        complete &= final >= 0
    done = np.flatnonzero(complete)
    short = np.flatnonzero(~complete)
    del complete
    reached = final.copy()
    reached[short] = np.count_nonzero(times[:, short] <= until, axis=0) - 1
    hops = final.take(done)
    arrived = flat.take(hops * total + done)
    order = lineage.order(done, hops, arrived)
    if order is not None:
        done, hops, arrived = done[order], hops[order], arrived[order]
    sender = root_of.take(done)
    delivered = arrived + net.host_receive_latency
    _record(net.stats, groups, sender, delivered - born[done])
    net.packets_delivered += done.size
    if dropped:  # as ``note_unroutable`` counts each fire
        net.packets_unroutable += dropped
        net.packets_dropped += dropped
        net.packets_dropped_fault += dropped
    if log is not None:
        log.deliveries.append(ids[done])
        log.unroutable += dropped
    track = net._track_in_flight
    if track and (dropping or net.fault_stats.awaiting_recovery):
        _outages(
            net.fault_stats, lineage, groups, sender, done, hops, arrived,
            [(groups[j], columns) for j, columns in zip(dropping, drops)],
        )
    for sink in {id(sink): sink for sink in sinks if sink is not None}.values():
        mine = np.array([other is sink for other in sinks])
        into = slice(None) if mine.all() else mine[sender]
        sink.add_many(delivered[into], size[sender][into])
    # A fire's column counts its arrivals; a root packet's also the rows
    # above its queued one, which this window did not process.
    engine.credit_events(int(reached.sum()) + total - int(row.sum()))

    # A packet that was in flight is the caller's object: it ends where
    # the kernel would have left it, and its entry goes if it arrived.
    heap = engine._heap
    landed = set()
    for j, packet in flown:
        column = int(end[j]) - 1
        flights = packet.plan.flights
        if track:
            flights[packet.hop].discard(packet)
        packet.hop = int(reached[column])
        if packet.hop == packet.plan.last:
            packet.delivered_at = float(times[packet.hop, column]) + net.host_receive_latency
            landed.add(id(roots[j]))
        elif track:
            flights[packet.hop].add(packet)
    if landed:
        heap[:] = [entry for entry in heap if id(entry) not in landed]

    # (4) What is pending at the horizon, in the order the event loop
    # would have drawn its seqs: by parent, the packet before the re-arm.
    flying = short[reached[short] < final[short]]
    rearm = end[firing] - 1
    n = np.concatenate((flying, rearm))
    hop = np.concatenate((reached[flying], np.zeros_like(rearm)))
    child = np.concatenate((np.zeros_like(flying), np.ones_like(rearm)))
    pending = lineage.order(n, hop, flat.take(hop * total + n), child)
    pending = range(n.size) if pending is None else pending.tolist()
    rank = lineage.fire_rank(flying, np.concatenate(skip)) if skip else lineage.rank[flying]
    packet_id = (net._next_packet_id + rank).tolist()
    created = born[flying].tolist()
    arrival = times[reached[flying] + 1, flying].tolist()
    at_hop = reached[flying].tolist()
    owner = root_of[flying].tolist()
    sent = count[firing].tolist()
    del times, flat, lineage, root_of, reached, final, born, root_t  # before the packets exist

    seq = engine._seq
    for index in pending:
        if index >= len(owner):  # a source's re-arm
            entry = roots[firing[index - len(owner)]]
            entry[0] = next_fire[index - len(owner)]
        else:
            entry = roots[owner[index]]
            if type(entry[4]) is Packet:  # was in flight: its own entry, re-timed
                entry[0] = arrival[index]
            else:
                source = entry[2].__self__
                plan = plans[owner[index]]
                packet = Packet(
                    packet_id[index], source.src, source._dsts[0], source.size_bytes,
                    plan.path, created[index], source.group, source.on_delivered,
                    hop=at_hop[index], plan=plan,
                )
                if track:
                    plan.flights[at_hop[index]].add(packet)
                entry = [arrival[index], seq, net, _PACKET, packet]
                heap.append(entry)
        entry[1] = seq
        seq += 1
    engine._seq = seq
    heapq.heapify(heap)

    net._next_packet_id += fired
    for source, consumed, gaps in zip(sources, sent, unspent):
        source.packets_sent += consumed
        # The spent gaps are dropped with the window's draw: the buffer
        # holds only what the fires left, as Python floats again.
        source._gaps = gaps
        source._gap_i = 0
    obs = net.obs
    if obs is not None:
        if dropped:
            obs.incr("drops.unroutable", dropped)
        obs.incr("fastpath.plan_hits", fired - len(unbound))
        obs.incr("batch.cohorts")
        obs.incr("batch.packets", fired)
        obs.observe("batch.cohort_size", fired)


def _bind(net: Network, unbound: list, plans: list, rows: list) -> None:
    """Bind the window's new flows (``(root, flow, route)``) to their
    plans, as their first packets would, the rows of each kept."""
    for j, flow, route in unbound:
        net._bind_route(flow, route, plans[j])
        net._plan_rows[plans[j]] = rows[j]


def _settle(
    clock, stages: range, ports: list, states: list, cycle: list, flat: np.ndarray,
    fed: np.ndarray, until: float,
) -> "tuple[int, list]":
    """Sweep a cycle's run of levels ``stages`` to its fixed point:
    ``(sweeps, hop-log blocks of the last)``.  Each sweep clocks the
    run from the port states its ports (``cycle``) had at the run's start
    and reads its back-edge arrivals (``fed``, flat indices of
    ``flat``) as the sweep before left them; the run has settled when a
    sweep writes the arrivals it read (:func:`_settled`).  A run not
    settled in ``MAX_SWEEPS`` stands the window down (``cyclic_ports``)."""
    for sweep in range(1, MAX_SWEEPS + 1):
        for number in cycle:
            state = states[number]
            ports[number] = PortState(state.busy_until, state.packets_sent, state.bytes_sent)
        read = flat.take(fed)
        blocks: list = []
        for stage in stages:
            clock(stage, ports, blocks, True)
        if _settled(read, flat.take(fed), until):
            return sweep, blocks
    raise _StandDown("cyclic_ports")


def _settled(read: np.ndarray, wrote: np.ndarray, until: float) -> bool:
    """Whether a sweep wrote, bit for bit, the back-edge arrivals it read:
    one past ``until`` is not due whatever its value, as ``inf`` is."""
    return np.array_equal(
        np.where(read <= until, read, np.inf), np.where(wrote <= until, wrote, np.inf)
    )


def _outages(
    faults, lineage: _Lineage, groups: list, sender: np.ndarray, done: np.ndarray,
    hops: np.ndarray, arrived: np.ndarray, drops: list,
) -> None:
    """Each flow's outage clock through the window, as the event loop
    leaves it: a dropped fire opens the flow's outage if none is open, a
    delivery closes it.  ``sender``, ``done``, ``hops`` and ``arrived``
    are the deliveries in delivery order; ``drops`` pairs each fires-only
    root's group with its columns.  Each flow's events are merged alone,
    in heap order, keeping only what can move its clock — each run of
    drops, the delivery after a run, the first delivery — and all flows'
    are applied in delivery order, drops just before the delivery after.
    """
    names = list(dict.fromkeys(groups))
    number = {name: g for g, name in enumerate(names)}
    group = np.array([number[name] for name in groups])[sender]
    seen, first = np.unique(group, return_index=True)
    first_of = dict(zip(seen.tolist(), first.tolist()))
    fired: dict = {}  # group number -> columns of its dropped fires
    for name, columns in drops:
        fired.setdefault(number[name], []).append(columns)
    times = lineage.times[0]
    actions = []  # (delivery position, 0 drops | 1 a delivery, group, drops, time)
    for g, name in enumerate(names):
        at = first_of.get(g)
        if g not in fired:
            if at is not None:
                actions.append((at, 1, name, 0, float(arrived[at])))
            continue
        columns = np.concatenate(fired.pop(g))
        fire_t = times[columns]
        if at is None:
            actions.append((math.inf, 0, name, columns.size, float(fire_t.min())))
            continue
        mine = np.flatnonzero(group == g)
        m = columns.size
        t = np.concatenate((fire_t, arrived[mine]))
        order = lineage.order(
            np.concatenate((columns, done[mine])),
            np.concatenate((np.zeros(m, dtype=hops.dtype), hops[mine])),
            t,
        )
        if order is None:
            order = np.arange(t.size)
        drop = order < m
        after = np.concatenate(([True], drop[:-1]))  # follows a drop, or is first
        runs = np.flatnonzero(drop & ~np.concatenate(([False], drop[:-1])))
        landed = np.flatnonzero(~drop)
        position = mine[order[landed] - m]
        ends = np.searchsorted(landed, runs)
        stop = np.append(landed, t.size)[ends]
        before = np.append(position, math.inf)[ends]
        for key, run, start in zip(before.tolist(), (stop - runs).tolist(), runs.tolist()):
            actions.append((key, 0, name, run, float(t[order[start]])))
        for k in np.flatnonzero(after[landed]).tolist():
            actions.append((int(position[k]), 1, name, 0, float(t[order[landed[k]]])))
    actions.sort(key=lambda action: action[:2])
    for _, kind, name, run, time in actions:
        if kind:
            faults.record_delivery(name, time)
        else:
            faults.record_drops(name, run, time)


def _tails(e: np.ndarray, ser: "float | np.ndarray", heads: np.ndarray, busy: list) -> np.ndarray:
    """The kernel's tails over one level: ``e`` the earliest starts, port by
    port, each in heap order; ``heads`` where each port's run begins;
    ``busy`` its ``busy_until``; ``ser`` one time or one per event.  One
    comparison finds the packets that queue; a port where at least
    ``MIN_CERTIFIED`` do, on one ``ser``, is :func:`_contended_tails`'
    to guess, and the rest are replayed in one :func:`_replay` pass."""
    out = e + ser
    if len(heads) == 1 and not isinstance(ser, np.ndarray):  # one port, one ser
        if e[0] < busy[0] or bool((e[1:] < out[:-1]).any()):
            _contended_tails(e, busy[0], ser, out)
        return out
    late = np.empty(e.size, dtype=bool)
    late[1:] = e[1:] < out[:-1]
    late[heads] = e[heads] < busy
    queueing = np.add.reduceat(late, heads)  # per port
    if not queueing.any():
        return out
    bounds = heads + [e.size]
    for k in np.flatnonzero(queueing >= MIN_CERTIFIED).tolist():
        a, b = bounds[k], bounds[k + 1]
        service = ser[a:b] if isinstance(ser, np.ndarray) else np.array([ser])
        if (service == service[0]).all():  # mixed sizes on one port are replayed
            _contended_tails(e[a:b], busy[k], float(service[0]), out[a:b])
            late[a:b] = False
    if late.any():
        service = ser.tolist() if isinstance(ser, np.ndarray) else [ser] * e.size
        _replay(e.tolist(), out, np.flatnonzero(late).tolist(), busy, service, bounds)
    return out


def _contended_tails(
    e: np.ndarray, busy: float, ser: "float | np.ndarray", out: "np.ndarray | None" = None
) -> np.ndarray:
    """Port tail times when packets queue on each other (or a busy port):
    bit for bit the recurrence ``start = max(busy, earliest); tail =
    start + ser``, packet by packet.  ``ser`` is one time, or one per
    packet (replayed as written); ``out``, if given, holds ``e + ser`` and
    is filled in place.

    With one ``ser`` the tails are **guessed, certified and repaired**:
    :func:`_guess_tails` fills every busy period in closed form, and the
    guess is exact where each entry satisfies the recurrence given its
    predecessor (one vectorized comparison).  From the first that fails
    the loop replays to the next idle packet, then guesses again.  A
    guess is made only where at least ``MIN_CERTIFIED`` packets, and an
    eighth of those left, queue; so no input costs more than the loop
    and a bounded number of vectorized passes."""
    if isinstance(ser, np.ndarray):
        return _tails(e, ser, [0], [busy])
    if out is None:
        out = e + ser  # the tail of a packet that finds the port idle
    size = e.size
    arrivals = None
    i = 0
    whole = [0, size]
    while True:
        # Packets that arrive before their predecessor's idle tail: what
        # the loop would replay, or about (a busy period's later packets
        # need not be among them).
        queued = np.flatnonzero(e[i + 1:] < out[i:-1]) + (i + 1)
        worth = max(MIN_CERTIFIED, (size - i) // 8)
        if queued.size < worth:
            break
        rest = e[i:]
        b = float(out[i - 1]) if i else busy
        guess = _guess_tails(rest, b, ser)
        prev = np.empty_like(guess)
        prev[0] = b
        prev[1:] = guess[:-1]
        held = guess == np.maximum(prev, rest) + ser
        good = rest.size if held.all() else int(held.argmin())
        out[i:i + good] = guess[:good]
        i += good
        if i == size:
            return out
        if good < worth:
            break
        # Repair: the busy period of the first entry that failed.
        if arrivals is None:
            arrivals = e.tolist()
        i = _replay(arrivals, out, [i], [busy], [ser] * size, whole)
        if i == size:
            return out
    if arrivals is None:
        arrivals = e.tolist()
    _replay(arrivals, out, [i] + queued[queued > i].tolist(), [busy], [ser] * size, whole)
    return out


def _replay(
    arrivals: list, out: np.ndarray, starts: list, busy: list, ser: list, bounds: list
) -> int:
    """The recurrence, packet by packet, over the busy periods that begin
    at ``starts`` (ascending; one inside the period just replayed is
    skipped), never into the next port's run: port ``k``'s run is
    ``bounds[k]:bounds[k + 1]``, a period at its head starts from
    ``busy[k]``.  ``ser`` holds each packet's service time, ``out`` every
    other tail already.  Returns the index after the last one replayed."""
    i = 0
    k = 0
    for start in starts:
        if start < i:
            continue
        i = start
        while bounds[k + 1] <= i:
            k += 1
        stop = bounds[k + 1]
        b = busy[k] if i == bounds[k] else float(out[i - 1])
        b = (arrivals[i] if b < arrivals[i] else b) + ser[i]
        out[i] = b
        i += 1
        while i < stop and arrivals[i] < b:
            b = b + ser[i]
            out[i] = b
            i += 1
    return i


def _guess_tails(e: np.ndarray, busy: float, ser: float) -> np.ndarray:
    """The recurrence's tails, guessed for the caller to certify: every
    busy period in closed form, split where its tails cross a power of
    two.  A period starts where ``e[i] − i·ser`` reaches its running max
    (``busy`` included; the max-plus form only *locates* starts).  From
    ``x0`` it leaves first at ``t1 = x0 + ser``, then every ``d = (t1 +
    ser) − t1``, ``t1 + m·d`` being exact inside a binade — on a half-ulp
    ``ser`` too, the tie that made ``t1`` having fixed the parity every
    later tie rounds from.  At the binade's top a new period starts from
    the tail before it, as the recurrence steps from it."""
    index = np.arange(e.size)
    key = e - index * ser
    key[0] = max(key[0], busy)  # the running max starts from ``busy``
    level = np.maximum.accumulate(key)
    start = key == level
    start[0] = True
    first = np.flatnonzero(start)
    x0 = e[first]
    x0[0] = max(x0[0], busy)
    t1 = x0 + ser
    d = (t1 + ser) - t1
    end = np.append(first[1:], e.size)
    parts = [(first, t1, d)]
    while True:
        # ``top − t1`` is exact, and the rounded quotient's ceiling is
        # never past the first m that reaches ``top``: a split too early
        # only restarts the period from a tail that is still exact.
        top = np.ldexp(1.0, np.frexp(t1)[1])
        with np.errstate(divide="ignore"):
            cross = first + np.ceil((top - t1) / d)
        split = cross < end
        if not split.any():
            break
        at = cross[split].astype(first.dtype)
        t1 = np.maximum(t1[split] + (at - 1 - first[split]) * d[split], e[at]) + ser
        d = (t1 + ser) - t1
        first, end = at, end[split]
        parts.append((first, t1, d))
    if len(parts) > 1:
        first, t1, d = (np.concatenate(column) for column in zip(*parts))
        order = first.argsort()
        first, t1, d = first[order], t1[order], d[order]
    else:
        first, t1, d = parts[0]
    length = np.diff(first, append=e.size)
    # Inside one binade every period steps alike: ``d`` is then a scalar.
    step = d[0] if bool((d == d[0]).all()) else np.repeat(d, length)
    return np.repeat(t1, length) + (index - np.repeat(first, length)) * step


def _repeated_add(base: float, step: float, count: int) -> float:
    """``base`` after ``count`` sequential ``+= step``, bit for bit: one
    multiply-add for whole numbers under 2**53, the adds replayed else."""
    base = float(base)
    step = float(step)
    total = base + step * count
    if base.is_integer() and step.is_integer() and abs(total) < 9007199254740992.0:
        return total
    for _ in range(count):
        base += step
    return base


def _record(stats, names: list, owner: np.ndarray, latency: np.ndarray) -> None:
    """``latency`` (delivery order; ``owner[i]`` sample ``i``'s root) into
    ``stats`` as one block, each under its root's group, as per-packet
    ``record`` calls would."""
    distinct = {name: g for g, name in enumerate(dict.fromkeys(names))}
    if len(distinct) == 1:
        (name,) = distinct
        stats.record_many(latency, name if latency.size else None)
        return
    if not latency.size:
        return
    numbers = [distinct[name] for name in names]
    group = np.array(numbers, dtype=np.min_scalar_type(len(distinct)))[owner]
    present, first = np.unique(group, return_index=True)
    labels = list(distinct)
    codes = np.zeros(len(labels), dtype=np.intp)
    for g in present[np.argsort(first)].tolist():  # by first delivery
        codes[g] = stats.code(labels[g])
    stats.record_many(latency, codes=codes[group])
