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

**A window as a value.**  Each window the scan hands over is a
:class:`_Window`, which :func:`advance` passes through six stages in
turn, each reading what the ones before it wrote:

1. :func:`_read_roots` — each root's flow binding, the route it still
   has to walk as port numbers (``HopPlan.rows``, filled in at the
   pass's first read of a plan), its size, group, sink and gap buffer.
   A flow the window starts is routed once — the router's pick, checked
   by ``Network._route`` as ``Network.send`` checks it — and its plan
   compiled aside.  Then each port's **level**
   (:func:`~repro.sim.levels._port_order`):
   one past the deepest port before it, 5–6 levels on Fig. 17's
   fabrics, so a port's packets are all known once the levels before it
   are clocked.
2. :func:`_draw_fires` — the fire table
   (:meth:`PoissonSource._fires_through`) and the window's heap order
   (:class:`_Lineage`).
3. :func:`_gather_coefficients` — each crossing's ``ser``, cut-through
   credit and latency, from the plans' rows.
4. :func:`_clock_levels` — a level at a time: its events put in (port,
   heap) order by one sort — none when the level is one port whose
   times already increase — and clocked as one array of runs, one per
   port, by the port recurrence (:mod:`repro.sim.recurrence`); a cycle
   of ports swept to its fixed point ("Cycles").  The window clocks on
   its own copy of its ports' states and commits them, its hop-log rows
   and its new flows (``Network._bind_route``) once every level is done.
5. :func:`_deliver` — a column whose last arrival is due was delivered,
   and only the others are counted row by row.
6. :func:`_hand_back` — what is pending at the horizon, back on the
   queue in the order the event loop would have drawn its seqs.

**Cycles.**  Where routes cross ports in opposite orders (Fig. 17's
Jellyfish and Quartz in edge and core, at 4–8 tasks), Kahn's walk
stalls; the ports it leaves are condensed into strongly connected sets
(Tarjan's), and each cycle gets a run of levels of its own, ordered by
Kahn over its internal edges with the edges that close it broken
(:mod:`repro.sim.levels`).  The run is clocked, then clocked again from
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
reaches it has nothing left to change.  A sweep starts from copies of
its cycle's port states, the window's only copies; nothing is
committed until every cycle has settled, and a window that stands down
puts back the generators its fires drew from.

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
from repro.sim.levels import _port_order
from repro.sim.fastpath import compile_plan
from repro.sim.network import Network, NetworkSimError, Packet
from repro.sim.recurrence import _bytes_after, _tails
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

_number = operator.attrgetter("number")  # a port's, as ``HopPlan.rows`` holds it


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
            window = _read_roots(net, horizon, roots)
            _draw_fires(window)
            _gather_coefficients(window)
            _clock_levels(window)
            _deliver(window)
            _hand_back(window)
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
        columns are out of place (:func:`_merged`); with them, each
        iteration re-sorts only the tied columns, by time and then their
        parents' ranks."""
        index = np.arange(root_t.size)
        if _increasing(root_t):
            return index
        order = _merged(root_t, alone)  # no tie where it places them
        if order is None:
            order = np.argsort(root_t)
        rank = np.empty_like(index)
        rank[order] = index
        t = root_t[order]
        same = t[1:] == t[:-1]
        if not same.any():
            return rank
        run = np.cumsum(np.concatenate(([True], ~same)))  # each time's number
        at = _tied(same)
        sub, run = order[at], run[at]
        root = np.zeros(root_t.size, dtype=bool)
        root[start] = True
        root = root[sub]
        queued = root_of[sub] - (root_of[-1] + 1)  # a root's parent key: before every rank
        key = root_of[sub]  # the first guess: queue order
        moved = None
        while True:
            # Each run of tied times by ``key``, as one integer key: parent
            # keys are distinct, so no quicksort tie is left.
            key = key - key.min()
            again = sub[np.argsort(run * (int(key.max()) + 1) + key)]
            if moved is not None and np.array_equal(again, moved):
                return rank
            moved = again
            rank[moved] = at
            key = np.where(root, queued, rank[sub - 1])

    def fire_rank(self, columns: np.ndarray, skip: np.ndarray) -> np.ndarray:
        """``rank`` of ``columns`` over the fires that take a packet id —
        ``skip`` are the columns that do not: packets in flight, drops."""
        rank = self.rank[columns]
        return rank - np.searchsorted(np.sort(self.rank[skip]), rank)

    def order(
        self, n: np.ndarray, hop: np.ndarray, t: np.ndarray, child: "np.ndarray | None" = None,
        port: "np.ndarray | None" = None,
    ) -> "np.ndarray | None":
        """The permutation that puts the events ``(n, hop)``, at times
        ``t``, in heap order — ``None`` when they are, their times
        strictly increasing.  ``child`` breaks a tie between the same
        parent's events (the packet before the re-arm); ``port`` (one per
        event) orders a level's events port by port.  One port's lone
        out-of-place columns are placed without a sort (:func:`_merged`)."""
        def keys(sub: np.ndarray) -> list:
            ancestry = self._keys(n[sub], hop[sub])
            return ancestry if child is None else [child[sub]] + ancestry

        if port is None or not port.any():
            if _increasing(t):
                return None
            placed = _merged(t, self.alone[n])
            if placed is not None:
                return placed
            return _ties(np.argsort(t), [t], keys)
        # By port, a radix sort: done if each port's times increase.
        order = np.argsort(port, kind="stable")
        ts, ps = t[order], port[order]
        if not ((ts[1:] <= ts[:-1]) & (ps[1:] == ps[:-1])).any():
            return order
        order = np.argsort(t)
        order = order[np.argsort(port[order], kind="stable")]
        return _ties(order, [t, port], keys)

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
    at = _tied(same)
    sub = order[at]
    order[at] = sub[np.lexsort([sub] + keys(sub) + [key[at] for key in primary])]
    return order


def _tied(same: np.ndarray) -> np.ndarray:
    """The positions of a sorted array's entries that tie a neighbour,
    ``same[i]`` saying whether entries ``i`` and ``i + 1`` tie."""
    tied = np.zeros(same.size + 1, dtype=bool)
    tied[1:] = same
    tied[:-1] |= same
    return np.flatnonzero(tied)


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


class _Window:
    """One window of the pass, as a value: :func:`advance` hands it to
    the six stages in turn, each reading what the ones before it wrote.
    A **column** is one fire or packet in flight, root-major; ``times``
    is the ``(hops + 1) × columns`` table of their events, row 0 the
    fire times."""

    __slots__ = (
        "net", "until", "roots", "width", "plans", "row", "last", "size", "groups", "sinks", "rows",
        "firing", "sources", "flown", "dropping", "unbound", "owner", "hop_of", "port_at", "level",
        "runs", "drawn", "next_fire", "unspent", "count", "start", "end", "total", "root_of",
        "drops", "dropped", "fired", "times", "flat", "born", "lineage", "skip", "ids", "labels",
        "coefficients", "one_size", "at_level", "members", "port_rank", "busy", "sent", "bytes",
        "blocks", "port_keys", "final", "reached", "short",
    )


def _read_roots(net: Network, until: float, roots: list) -> _Window:
    """Stage 1: the window, with what each root still has to cross."""
    w = _Window()
    w.net, w.until, w.roots = net, until, roots
    width = w.width = len(roots)
    flows = net._flows
    held = net._plans
    origins = []  # each root's packet or source
    chains = []  # the port numbers each root still crosses
    rows = w.rows = ([], [], [])  # and the plan's ``ser``, ``latf`` and ``lat`` there
    plans = w.plans = []
    row = [0] * width  # the table row of each root's queued event
    firing = w.firing = []  # the fire chains' roots, and of each its source
    sources = w.sources = []
    flown = w.flown = []  # (root, packet) of the packets in flight
    dropping = w.dropping = []  # the roots of fires-only columns
    unbound = w.unbound = []  # (root, flow, route) of the flows the window starts
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
            flow = (origin.src, origin._dsts[0], origin.flow_id)
            plan = flows.get(flow)
            if plan is not None:
                plan = plan[1]
            else:
                try:
                    route = net._route(*flow)
                    plan = held.get(route) or compiled.get(route)
                    if plan is None:
                        plan = compiled[route] = compile_plan(
                            net._link_rec, net._hop_rec, net._in_flight, route, net.owned
                        )
                except RoutingError:
                    dropping.append(j)
                except NetworkSimError:
                    raise _StandDown("bad_route") from None  # the scalar run raises at its fire
                else:
                    unbound.append((j, flow, route))
        origins.append(origin)
        plans.append(plan)
        if plan is None:
            chains.append(())
            continue
        mine = plan.rows
        if mine is None:  # the pass's first read of the plan
            latf, lat, ports, ser = zip(*plan.hops)
            mine = plan.rows = (tuple(map(_number, ports)), ser, latf, lat)
        chains.append(mine[0][row[j]:])
        for into, values in zip(rows, mine[1:]):
            into += values[row[j]:]
    w.size = np.array([origin.size_bytes for origin in origins], dtype=float)
    w.groups = [origin.group for origin in origins]
    w.sinks = [origin.on_delivered for origin in origins]  # ``None`` or a DeliveryBins
    w.row = row = np.array(row)
    # A dropped fire reaches no hop (``last`` −1): never delivered.
    w.last = last = np.array([-1 if plan is None else plan.last for plan in plans])
    hops = np.fromiter(map(len, chains), np.intp, width)
    w.owner = owner = np.repeat(np.arange(width), hops)
    w.hop_of = _spans(row, hops)
    w.port_at = np.full((max(int(last.max()), 0), width), -1, dtype=np.intp)
    w.port_at[w.hop_of, owner] = np.fromiter(
        itertools.chain.from_iterable(chains), np.intp, owner.size
    )
    w.level, w.runs = _port_order(chains, len(net._ports))
    if w.runs and not (
        net.propagation_delay > 0 or min(lat for _, lat in net._hop_rec.values()) > 0
    ):
        raise _StandDown("cyclic_ports")  # a hop may not advance time ("Cycles")
    return w


def _draw_fires(w: _Window) -> None:
    """Stage 2: the fire table, the columns' heap order and, armed, packet ids."""
    net = w.net
    sources = w.sources
    w.drawn = None
    if w.runs:
        drawn = [source._gap_rng.bit_generator for source in sources]
        w.drawn = [(generator, generator.state) for generator in drawn]
    fire_t, fires, next_fire, w.unspent = PoissonSource._fires_through(
        sources, [source._gaps[source._gap_i:] for source in sources],
        np.array([w.roots[j][0] for j in w.firing]), w.until,
    )
    w.next_fire = next_fire.tolist()
    width = w.width
    count = w.count = np.ones(width, dtype=np.intp)
    count[w.firing] = fires
    end = w.end = np.cumsum(count)
    start = w.start = end - count
    total = w.total = int(end[-1])
    drops = w.drops = [np.arange(start[j], end[j]) for j in w.dropping]  # their columns
    w.dropped = sum(columns.size for columns in drops)
    flown = w.flown
    w.fired = total - len(flown) - w.dropped  # the packets born: one id each
    w.root_of = np.repeat(np.arange(width, dtype=np.int32), count)
    times = w.times = np.full((w.port_at.shape[0] + 1, total), np.inf)
    w.flat = times.reshape(-1)
    at = end[[j for j, _ in flown]] - 1  # each packet in flight's column
    taken = 0  # the fires fill the runs of columns between packets in flight
    for lo, hi in zip([0] + (at + 1).tolist(), at.tolist() + [total]):
        times[0, lo:hi] = fire_t[taken:taken + hi - lo]
        taken += hi - lo
    root_t = born = times[0]
    if flown:
        root_t = born.copy()
        born = born.copy()
        for column, (j, packet) in zip(at.tolist(), flown):
            times[:packet.hop + 1, column] = -np.inf
            times[packet.hop + 1, column] = root_t[column] = w.roots[j][0]
            born[column] = packet.created_at
    w.born = born
    w.lineage = lineage = _Lineage(times, w.root_of, start, root_t)
    # A packet id counts the fires that came before, less the drops; a
    # packet in flight keeps its own.  Armed, the log needs every column's.
    w.skip = np.concatenate([at] + drops)
    if net.telemetry is not None:
        w.ids = net._next_packet_id + lineage.fire_rank(np.arange(total), w.skip)
        if flown:
            w.ids[at] = [packet.packet_id for _, packet in flown]
        w.labels = np.array(w.groups, dtype=object)


def _gather_coefficients(w: _Window) -> None:
    """Stage 3: each (hop, root)'s ``ser``, cut-through credit and latency."""
    coefficients = w.coefficients = np.zeros((3,) + w.port_at.shape)  # ser, credit, lat
    if w.owner.size:
        values = np.array(w.rows)
        values[:2] *= w.size[w.owner]
        coefficients[:, w.hop_of, w.owner] = values
    carried = w.size[w.last > 0]  # what crosses a port
    w.one_size = float(carried[0]) if carried.size and (carried == carried[0]).all() else None


def _clock_levels(w: _Window) -> None:
    """Stage 4: the levels, each cycle's run swept (:func:`_settle`), then the commit."""
    net = w.net
    level = w.level
    at_level = w.at_level = level[w.port_at]
    placed = np.flatnonzero(level[:-1] >= 0).tolist()
    members = w.members = [[] for _ in range(int(level.max()) + 1)]  # each level's ports, ascending
    rank = w.port_rank = np.zeros(level.size, dtype=np.uint16 if level.size < 2**16 else np.intp)
    for number, stage in zip(placed, level[placed].tolist()):
        rank[number] = len(members[stage])  # the port's rank in its level
        members[stage].append(number)
    states = list(net._ports.values())
    w.busy = {number: states[number].busy_until for number in placed}
    w.sent = dict.fromkeys(placed, 0)
    w.bytes = {number: states[number].bytes_sent for number in placed}
    w.blocks = []
    w.port_keys = None if net.telemetry is None else list(net._ports)
    settled = []
    stops = dict(w.runs)
    stage = 0
    while stage < len(members):
        stop = stops.get(stage)
        if stop is None:
            _clock_level(w, stage, False)
            stage += 1
            continue
        inside = (at_level >= stage) & (at_level < stop)
        back = inside[1:] & inside[:-1] & (at_level[:-1] >= at_level[1:])
        hs, js = np.nonzero(back)  # hop ``hs + 1`` fed by a back edge
        fed = np.repeat(hs + 1, w.count[js]) * w.total + _spans(w.start[js], w.count[js])
        cycle = [number for first in range(stage, stop) for number in members[first]]
        try:
            settled.append(_settle(w, range(stage, stop), cycle, fed))
        except _StandDown:
            for generator, state in w.drawn:
                generator.state = state
            raise
        stage = stop
    totals = w.bytes.values()
    if w.one_size is not None:
        totals = _bytes_after(
            np.fromiter(totals, float, len(placed)), w.one_size,
            np.fromiter(w.sent.values(), np.intp, len(placed)),
        ).tolist()
    for number, busy, packets, carried in zip(placed, w.busy.values(), w.sent.values(), totals):
        state = states[number]
        state.busy_until = busy
        state.packets_sent += packets
        state.bytes_sent = carried
    if net.telemetry is not None:
        net.telemetry.hops += w.blocks
    for j, flow, route in w.unbound:
        net._bind_route(flow, route, w.plans[j])
    for sweeps in settled:
        net.sweeps[sweeps] = net.sweeps.get(sweeps, 0) + 1


def _clock_level(w: _Window, stage: int, sweeping: bool) -> None:
    """Clock the level ``stage`` on the window's port states: its events
    ``(n, hop)`` sorted by (port, heap order), one port's run after
    another (:func:`~repro.sim.recurrence._tails`), its hop-log rows
    appended to ``blocks``.  ``sweeping`` puts the next arrival of each
    event not due back to ``inf``.

    A level on one hop — all of md1_validation's events, over half of
    Fig. 17's — reads and writes a row of the table, a slice of it where
    the roots are neighbours, with one coefficient each where the roots
    are alike; any other level is gathered by flat index.  Without the
    row, md1's steps cost 1.7× as much (EXPERIMENTS.md, Finding 10)."""
    hs, js = np.nonzero(w.at_level == stage)
    counts = w.count[js]
    total = w.total
    one_hop = hs[0] == hs[-1]
    if one_hop:  # ``at`` the events' columns in the level's row
        hop = int(hs[0])
        row, below = w.times[hop], w.times[hop + 1]
        if js[-1] - js[0] == js.size - 1:
            at = slice(int(w.start[js[0]]), int(w.end[js[-1]]))
        else:
            at = _spans(w.start[js], counts)
    else:  # ``at`` each event's place in ``flat``; ``below`` a row down
        row, below = w.flat, w.flat[total:]
        at = np.repeat(hs * total, counts) + _spans(w.start[js], counts)
    t = row[at]
    due = t <= w.until
    every = due.all()
    if not every:
        if type(at) is slice:
            at = np.arange(at.start, at.stop)
        if sweeping:
            below[at[~due]] = np.inf
        at, t = at[due], t[due]
        if not t.size:
            return
    clocked = w.members[stage]
    if not (len(clocked) == 1 and _increasing(t)):
        if type(at) is slice:
            at = np.arange(at.start, at.stop)
        port = np.repeat(w.port_rank[w.port_at[hs, js]], counts)  # a radix sort's key
        if not every:
            port = port[due]
        hops, n = (np.full(at.size, hop), at) if one_hop else np.divmod(at, total)
        order = w.lineage.order(n, hops, t, port=port)
        if order is not None:
            at, t, port = at[order], t[order], port[order]
    n = at
    if not one_hop:
        hop, n = np.divmod(at, total)
    alike = w.coefficients[:, hop, js] if one_hop else None
    if one_hop and (alike == alike[:, :1]).all():
        ser, credit, lat = alike[:, 0].tolist()
    else:
        coefficient = hop * w.width + w.root_of[n]
        ser, credit, lat = w.coefficients.reshape(3, -1).take(coefficient, axis=1)
    earliest = (t + credit) + lat
    heads = [0]
    if len(clocked) > 1:
        heads = np.flatnonzero(np.concatenate(([True], port[1:] != port[:-1])))
        clocked = [clocked[k] for k in port[heads].tolist()]
        heads = heads.tolist()
    busy = [w.busy[number] for number in clocked]
    tails = _tails(earliest, ser, heads, busy)
    bounds = heads + [t.size]
    ends = [float(tails[-1])] if len(heads) == 1 else tails[np.array(bounds[1:]) - 1].tolist()
    size = w.size
    if w.one_size is None or w.port_keys is not None:
        who = w.root_of[n]
    for number, a, b, tail in zip(clocked, bounds, bounds[1:], ends):
        w.busy[number] = tail
        w.sent[number] += b - a
        if w.one_size is None:  # one add per packet, in its port's order
            w.bytes[number] = functools.reduce(
                operator.add, size.take(who[a:b]).tolist(), w.bytes[number]
            )
    if w.port_keys is not None:
        ahead = np.append(0.0, tails[:-1])
        ahead[heads] = busy
        started = np.maximum(ahead, earliest)
        ids = w.ids[n]
        for number, a, b in zip(clocked, bounds, bounds[1:]):
            mine = who[a:b]
            w.blocks.append((
                w.port_keys[number], ids[a:b], earliest[a:b], started[a:b], tails[a:b],
                size[mine], w.labels[mine],
            ))
    below[at] = tails + w.net.propagation_delay


def _settle(w: _Window, stages: range, cycle: list, fed: np.ndarray) -> int:
    """Sweep a cycle's run of levels ``stages`` to its fixed point;
    returns the sweeps it took.  Each sweep clocks the run from the
    states its ports (``cycle``) had at the run's start — the window's
    only copies — and reads its back-edge arrivals (``fed``, flat indices
    of ``flat``) as the sweep before left them; only the last sweep's
    hop-log rows are kept.  The run has settled when a sweep writes the
    arrivals it read (:func:`_settled`).  A run not settled in
    ``MAX_SWEEPS`` stands the window down (``cyclic_ports``)."""
    start = [(number, w.busy[number], w.sent[number], w.bytes[number]) for number in cycle]
    mark = len(w.blocks)
    for sweep in range(1, MAX_SWEEPS + 1):
        for number, busy, sent, carried in start:
            w.busy[number], w.sent[number], w.bytes[number] = busy, sent, carried
        del w.blocks[mark:]
        read = w.flat.take(fed)
        for stage in stages:
            _clock_level(w, stage, True)
        if _settled(read, w.flat.take(fed), w.until):
            return sweep
    raise _StandDown("cyclic_ports")


def _settled(read: np.ndarray, wrote: np.ndarray, until: float) -> bool:
    """Whether a sweep wrote, bit for bit, the back-edge arrivals it read:
    one past ``until`` is not due whatever its value, as ``inf`` is."""
    return np.array_equal(
        np.where(read <= until, read, np.inf), np.where(wrote <= until, wrote, np.inf)
    )


def _deliver(w: _Window) -> None:
    """Stage 5: the deliveries, in event order, and the engine's event credit."""
    net = w.net
    until = w.until
    times, flat, total, root_of, last = w.times, w.flat, w.total, w.root_of, w.last
    final = w.final = last[root_of]
    if (last == last[0]).all() and last[0] > 0:
        complete = times[last[0]] <= until
    else:
        complete = flat.take(np.maximum(final, 0) * total + np.arange(total)) <= until
        complete &= final >= 0
    done = np.flatnonzero(complete)
    short = w.short = np.flatnonzero(~complete)
    del complete
    reached = w.reached = final.copy()
    reached[short] = np.count_nonzero(times[:, short] <= until, axis=0) - 1
    hops = final.take(done)
    arrived = flat.take(hops * total + done)
    order = w.lineage.order(done, hops, arrived)
    if order is not None:
        done, hops, arrived = done[order], hops[order], arrived[order]
    sender = root_of.take(done)
    delivered = arrived + net.host_receive_latency
    groups = w.groups
    _record(net.stats, groups, sender, delivered - w.born[done])
    net.packets_delivered += done.size
    dropped = w.dropped
    if dropped:  # as ``note_unroutable`` counts each fire
        net.packets_unroutable += dropped
        net.packets_dropped += dropped
        net.packets_dropped_fault += dropped
    log = net.telemetry
    if log is not None:
        log.deliveries.append(w.ids[done])
        log.unroutable += dropped
    if net._track_in_flight and (w.dropping or net.fault_stats.awaiting_recovery):
        _outages(
            net.fault_stats, w.lineage, groups, sender, done, hops, arrived,
            [(groups[j], columns) for j, columns in zip(w.dropping, w.drops)],
        )
    sinks = w.sinks
    for sink in {id(sink): sink for sink in sinks if sink is not None}.values():
        mine = np.array([other is sink for other in sinks])
        into = slice(None) if mine.all() else mine[sender]
        sink.add_many(delivered[into], w.size[sender][into])
    # A fire's column counts its arrivals; a root packet's also the rows
    # above its queued one, which this window did not process.
    net.engine.credit_events(int(reached.sum()) + total - int(w.row.sum()))


def _hand_back(w: _Window) -> None:
    """Stage 6: the queue, and the packets that were in flight, as the loop leaves them."""
    net = w.net
    engine = net.engine
    heap = engine._heap
    roots = w.roots
    track = net._track_in_flight
    reached = w.reached
    landed = set()
    for j, packet in w.flown:
        column = int(w.end[j]) - 1
        flights = packet.plan.flights
        if track:
            flights[packet.hop].discard(packet)
        packet.hop = int(reached[column])
        if packet.hop == packet.plan.last:
            packet.delivered_at = float(w.times[packet.hop, column]) + net.host_receive_latency
            landed.add(id(roots[j]))
        elif track:
            flights[packet.hop].add(packet)
    if landed:
        heap[:] = [entry for entry in heap if id(entry) not in landed]

    short = w.short
    flying = short[reached[short] < w.final[short]]
    firing = w.firing
    rearm = w.end[firing] - 1
    n = np.concatenate((flying, rearm))
    hop = np.concatenate((reached[flying], np.zeros_like(rearm)))
    child = np.concatenate((np.zeros_like(flying), np.ones_like(rearm)))
    lineage = w.lineage
    pending = lineage.order(n, hop, w.flat.take(hop * w.total + n), child)
    pending = range(n.size) if pending is None else pending.tolist()
    packet_id = (net._next_packet_id + lineage.fire_rank(flying, w.skip)).tolist()
    created = w.born[flying].tolist()
    arrival = w.times[reached[flying] + 1, flying].tolist()
    at_hop = reached[flying].tolist()
    owner = w.root_of[flying].tolist()
    next_fire = w.next_fire
    plans = w.plans
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

    fired = w.fired
    net._next_packet_id += fired
    for source, consumed, gaps in zip(w.sources, w.count[firing].tolist(), w.unspent):
        source.packets_sent += consumed
        # The spent gaps are dropped with the window's draw: the buffer
        # holds only what the fires left, as Python floats again.
        source._gaps = gaps
        source._gap_i = 0
    obs = net.obs
    if obs is not None:
        if w.dropped:
            obs.incr("drops.unroutable", w.dropped)
        obs.incr("fastpath.plan_hits", fired - len(w.unbound))
        obs.incr("batch.cohorts")
        obs.incr("batch.packets", fired)
        obs.observe("batch.cohort_size", fired)


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
