"""Port-major solution of the open-loop stretches of a run.

Between two events that can change what the fabric does, a queue of
Poisson sources' fire chains and packets already in flight is a
feed-forward computation, not an event simulation: no event can change
what a source sends, so every fire time is known up front, and on a
fabric whose ports form a DAG under the routes in use each port's whole
arrival sequence is known once the ports upstream of it are done.
:func:`advance` — called by :meth:`Network.run` before ``engine.run``,
and again each time the event loop has crossed what the pass could not
— clocks such a stretch port by port with the kernel's own float
operations, one budgeted **window** after another, and hands back
exactly the state the event-by-event run would have reached; a window
it declines is left as it was, to the event loop, and every decline is
counted under ``batch.standdown.<reason>``.

**Roots, foreign entries, and where a window ends.**  One scan sorts
the queue entries due by ``until`` (later ones cannot matter) into two
kinds.  A **root** is something the pass can own: the live ``_fire``
chain of a :class:`PoissonSource` of this network, or the ``_hop``
chain of one of its packets in flight — not ``dropped``, no ``stamps``,
no dead link on the rest of its plan — whose ``on_delivered`` is
nothing or a :class:`~repro.sim.stats.DeliveryBins` (a callback the
pass can apply a window at a time).  Everything else is **foreign**: a
plain timer (a fibre cut, a repair, a hybrid epoch boundary), another
kind of chain (a burst source, the last fire of a stopped source), a
packet the kernel would sever, stamp, call back or detour, and a
source's ``stop_at``.  *A foreign entry bounds the window instead of
vetoing it*: the horizon is the last float before the earliest foreign
time, so the window's ``t <= horizon`` tests mean "strictly before
it", and whatever ties a foreign entry stays with the event loop, which
orders it by the seqs the pass hands back.  What still vetoes: armed
telemetry, no horizon at all, a run loop already dispatching, a sharded network, a due source with
several destinations, ``vary_flow_per_packet`` or a callback the pass
cannot apply (``closed_loop_source``), a route that does not join its
source to its destination (``bad_route``), a cyclic directed graph
"port of hop h → port of hop h+1" over the routes still to be walked,
and a window whose expected
fires ``Σ (horizon − first fire) · rate`` are under ``MIN_WINDOW_FIRES``
or ``MIN_FIRES_PER_SOURCE`` per firing source (``budget``).  A stretch
that expects more than ``MAX_WINDOW_FIRES`` is cut there and the rest is
the next window: what one window hands back — packets in flight,
re-armed sources — is what the next one starts from.

**The resume rule.**  The same scan tells :meth:`Network.run` how far
the event loop must go before the pass is worth another scan: to the
first foreign time that *starts a gap wide enough to hold a budgeted
window* — ``(next foreign time − this one) · Σ rate`` at least the
budget floor, ``until`` closing the last gap — or, when no gap is, to
``until`` itself.  So a cut and its repair cost a scan each (plus one
per packet the cut left to detour), while a few thousand hybrid epoch
boundaries 2 µs apart cost one scan in all, not one each.

**Faults.**  Dead links do not stand the pass down: routes bound after
a cut avoid them by construction, and a packet in flight whose plan
still crosses one is foreign until the kernel has detoured it.  A
source the router has no path for (a partitioned mesh) is a
**fires-only column**: fire times and nothing else — no hops, plan,
port or packet id — each fire counted as ``Network.note_unroutable``
counts it.  With in-flight tracking armed the hand-back enters every
packet still flying into ``plan.flights[packet.hop]`` — the set a later
cut of that link severs — and moves a root packet from its old link's
set; and each flow's outage clock (``FaultRecorder``) is replayed from
the window's dropped fires, which open it, and deliveries, which close
it, in heap order (:func:`_outages`).

**Clocking a port.**  A port is clocked once per window, over every
packet that crosses it, gathered on flat indices into the window's
tables and put in heap order (nothing is sorted when the times already
strictly increase).  A packet that finds the port idle leaves at
``earliest + ser``; where packets queue, :func:`_contended_tails`
guesses the busy periods in closed form, certifies the guess against
the kernel's recurrence with one vectorized comparison, and replays
packet by packet only from an entry that fails — so a queueing port
costs a few vectorized passes, not a Python step per queued packet.

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

import heapq
import math

import numpy as np

from repro.routing.base import RoutingError
from repro.sim.network import Network, Packet
from repro.sim.sources import PoissonSource
from repro.sim.stats import DeliveryBins

#: Expected fires of a window.  Below the floor — in all, and per firing
#: source, whose routes, plans and ports are the pass's fixed cost — the
#: set-up costs more than the events it saves (break-even measured at
#: 3–12 fires per source, EXPERIMENTS.md).  ``MAX_WINDOW_FIRES`` is where
#: a longer horizon is cut: a window's tables grow with its fires
#: (first-cell RSS of a 225 k-packet stream: +15 MiB at 16 k, +20 at
#: 32 k, +26 at 64 k) and a larger window is not resolvably faster per
#: packet (EXPERIMENTS.md, PR 18 rows).
#: Bounds in the manner of ``Network.FLOW_TABLE_LIMIT``, not knobs, as is
#: ``MIN_CERTIFIED`` below.
MIN_WINDOW_FIRES = 64
MIN_FIRES_PER_SOURCE = 8
MAX_WINDOW_FIRES = 16_384
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
    — ports, stats, counters, packet ids, sources, in-flight sets, open
    outages, delivery bins, the packets that were in flight — and the
    queue holds what is pending past it (each in-flight packet on a
    chain entry at its next arrival, each source re-armed at its next
    fire) for ``engine.run`` to find.  A window that stands down has
    changed nothing but how far ahead sources have drawn their gaps.
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
        if net.obs is not None:
            net.obs.incr("batch.standdown." + reason)
    return solved, resume


def _window(
    net: Network, until: "float | None"
) -> "tuple[list, float, float | None, bool]":
    """One scan of the queue: ``(roots, horizon, resume, more)``.

    ``roots`` are the entries the pass owns that are due by ``horizon``,
    in queue order.  ``horizon`` is the last float before the first
    foreign entry (``until`` when there is none) — or, when that many
    fires exceed ``MAX_WINDOW_FIRES``, the cut that holds them to it,
    and ``more`` says the next window starts right there.  ``resume`` is
    the first foreign time that starts a gap — to the next foreign time,
    or to ``until`` — wide enough to hold a budgeted window; ``None``
    when no gap is.  :class:`_StandDown` when the pass may not run at
    all, a source only the event loop can fire is due, or the window is
    under budget.
    """
    engine = net.engine
    if net.telemetry is not None:
        raise _StandDown("telemetry")
    if until is None or net.owned is not None or engine.running:
        raise _StandDown("not_open_loop")
    fire = PoissonSource._fire
    hop = Network._hop
    dead = net._dead_links
    roots = []
    starts = []
    foreign = []
    for entry in engine._heap:
        time = entry[0]
        if time > until:
            continue
        if entry[3] is not None:
            foreign.append(time)  # a plain timer
            continue
        step = entry[2]
        kind = getattr(step, "__func__", None)
        owner = getattr(step, "__self__", None)
        if kind is hop and owner is net:
            packet = entry[4]
            sink = packet.on_delivered
            if (
                packet.dropped
                or packet.stamps is not None
                or (sink is not None and type(sink) is not DeliveryBins)
                or (dead and not dead.isdisjoint(packet.plan.keys[packet.hop + 1:]))
            ):
                foreign.append(time)
            else:
                roots.append(entry)
        elif (
            kind is fire
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


def _routes(net: Network, roots: list) -> list:
    """What each root has still to walk: a source's route — bound
    already, or the router's pick, checked as :meth:`Network._bind` and
    ``compile_plan`` would; ``()`` when the router has no path, every
    fire being a drop — or the rest of a packet's path."""
    routes = []
    for entry in roots:
        packet = entry[4]
        if type(packet) is Packet:
            routes.append(packet.plan.path[packet.hop + 1:])
            continue
        source = entry[2].__self__
        src, dst = source.src, source._dsts[0]
        bound = net._flows.get((src, dst, source.flow_id))
        if bound is not None:
            routes.append(bound[0])
            continue
        try:
            route = net.router.route(src, dst, source.flow_id)
        except RoutingError:
            routes.append(())  # a fires-only column
            continue
        if (
            len(route) < 2
            or route[0] != src
            or route[-1] != dst
            or any(key not in net._link_rec for key in zip(route, route[1:]))
        ):
            raise _StandDown("bad_route")  # the scalar run raises at its fire
        routes.append(route)
    return routes


def _port_order(routes: list) -> "tuple[list, list[list[int]], list[int]]":
    """Number the directed links the routes use and sort them so that
    every route crosses them in ascending position.  Returns ``(link
    keys by port number, each route as port numbers, the order)``."""
    numbers: dict = {}
    chains = []
    after: list[set[int]] = []
    for route in routes:
        chain = []
        for key in zip(route, route[1:]):
            port = numbers.get(key)
            if port is None:
                port = numbers[key] = len(numbers)
                after.append(set())
            chain.append(port)
        for port, following in zip(chain, chain[1:]):
            after[port].add(following)
        chains.append(chain)
    waiting = [0] * len(numbers)
    for following in after:
        for port in following:
            waiting[port] += 1
    ready = [port for port, count in enumerate(waiting) if not count]
    order = []
    while ready:
        port = ready.pop()
        order.append(port)
        for following in after[port]:
            waiting[following] -= 1
            if not waiting[following]:
                ready.append(following)
    if len(order) < len(numbers):
        raise _StandDown("cyclic_ports")
    return list(numbers), chains, order


class _Lineage:
    """Heap order of a window's events, rebuilt from their ancestry.

    ``times`` is the ``(hops + 1) × packets`` table, packets root-major:
    row 0 the fire times, row ``h`` the arrival at the path's ``h``-th
    node (``inf`` where not reached).  The event ``(n, h)`` has as
    generation-``g`` ancestor its own hop ``h − g``, then its source's
    earlier fires ``n − (g − h)`` — root-major makes them neighbours —
    and nothing past ``first[n]``, the source's queued (root) fire.  A
    packet that was in flight is its own root (``first[n] = n``) and its
    column reads ``−inf`` above the row of its queued arrival, which is
    what "nothing past the root" looks like in a column.
    """

    def __init__(
        self, times: np.ndarray, first: np.ndarray, root_of: np.ndarray, root_t: np.ndarray
    ) -> None:
        self.times = times
        self.first = first
        self.rank = self._rank(root_t, first, root_of)

    @staticmethod
    def _rank(root_t: np.ndarray, first: np.ndarray, root_of: np.ndarray) -> np.ndarray:
        """Position of every column's first event — its fire, or the
        queued arrival of a packet in flight, at ``root_t`` — in the
        heap's order of all of them: the fixed point of ``rank = order
        by (time, rank[parent])``, a root's parent key being its queue
        position (``root_of`` is in queue order, and a root precedes
        whatever an event of the window scheduled).  A pair that ties
        ``d`` generations deep is right from iteration ``d + 1`` on, so
        the loop ends; lockstep streams tie all the way down and are
        right at once, because the first guess is queue order."""
        index = np.arange(root_t.size)
        root = index == first
        rank = np.empty_like(index)
        rank[np.lexsort((root_of, root_t))] = index
        while True:
            parent_key = np.where(root, root_of - (root_of[-1] + 1), rank[index - 1])
            again = np.empty_like(index)
            again[np.lexsort((parent_key, root_t))] = index
            if np.array_equal(again, rank):
                return rank
            rank = again

    def fire_rank(self, skip: np.ndarray) -> np.ndarray:
        """``rank`` counted over the fires that send alone, ``skip``
        being the columns that take no packet id — the packets that were
        in flight, the dropped fires: what a fire adds to the network's
        next packet id."""
        return self.rank - np.searchsorted(np.sort(self.rank[skip]), self.rank)

    def order(
        self, n: np.ndarray, hop: np.ndarray, t: np.ndarray, child: "np.ndarray | None" = None
    ) -> "np.ndarray | None":
        """The permutation that puts the events ``(n, hop)``, at times
        ``t``, in heap order — ``None`` when they are in it already, their
        times strictly increasing.  ``child`` breaks the tie between two
        events that are the same event (the hand-back orders pending
        events by their parents: the packet before the re-arm)."""
        if bool((t[1:] > t[:-1]).all()):
            return None
        order = np.argsort(t, kind="stable")
        ts = t[order]
        same = ts[1:] == ts[:-1]
        if not same.any():
            return order
        tied = np.zeros(ts.size, dtype=bool)
        tied[1:] = same
        tied[:-1] |= same
        at = np.flatnonzero(tied)
        sub = order[at]
        keys = self._keys(n[sub], hop[sub])
        if child is not None:
            keys.insert(0, child[sub])
        keys.append(ts[at])
        # Time is the primary key, so each run of equal times is sorted
        # within the positions it already holds.
        order[at] = sub[np.lexsort(keys)]
        return order

    def _keys(self, n: np.ndarray, hop: np.ndarray) -> list:
        """``np.lexsort`` keys, least significant first: ``−hop`` (of two
        descendants of one fire at equal depth, the one further along
        took the packet branch earlier), the rank of the oldest
        ancestor looked at, then the ancestors' times from that one back
        up to the parent; ``−inf`` past the root."""
        times = self.times
        depth = times.shape[0] - 1
        first = self.first[n]
        columns = []
        for g in range(depth, 0, -1):
            fire = n - np.maximum(g - hop, 0)
            column = times[np.maximum(hop - g, 0), np.maximum(fire, first)]
            column[fire < first] = -np.inf
            columns.append(column)
        oldest = np.maximum(n - (depth - hop), first)
        return [-hop, self.rank[oldest]] + columns


def _solve(net: Network, until: float, roots: list) -> None:
    engine = net.engine

    # (1) What each root has still to walk, and the order of ports.
    routes = _routes(net, roots)
    port_keys, chains, port_order = _port_order(routes)

    # One column of the table per fire and per packet in flight,
    # root-major; one column of coefficients per root, multiplied as the
    # kernel does.  Nothing stands down past this point: each flow is
    # bound as its first packet would, every later one is a plan hit.
    # A source with no route has no plan: its fires are drops.
    plans = []
    sizes = []
    groups = []
    sinks = []  # each root's ``on_delivered``: ``None`` or a DeliveryBins
    rows = []  # the table row of each root's queued event
    fires = []
    flown = []  # (root, packet) of the packets in flight
    dropping = []  # the roots of fires-only columns
    unbound = 0
    for j, entry in enumerate(roots):
        packet = entry[4]
        if type(packet) is Packet:
            flown.append((j, packet))
            plans.append(packet.plan)
            sizes.append(packet.size_bytes)
            groups.append(packet.group)
            sinks.append(packet.on_delivered)
            rows.append(packet.hop + 1)
            fires.append(None)
            continue
        source = entry[2].__self__
        if routes[j]:
            src, dst = source.src, source._dsts[0]
            bound = net._flows.get((src, dst, source.flow_id))
            if bound is None:
                unbound += 1
                bound = net._bind(src, dst, source.flow_id, None)
            plans.append(bound[1])
        else:
            dropping.append(j)
            plans.append(None)
        sizes.append(source.size_bytes)
        groups.append(source.group)
        sinks.append(source.on_delivered)
        rows.append(0)
        fires.append(source._fires_through(entry[0], until))
    firing = [j for j, times in enumerate(fires) if times is not None]

    count = np.array([1 if f is None else f.size - 1 for f in fires])
    end = np.cumsum(count)
    total = int(end[-1])
    drops = [np.arange(end[j] - count[j], end[j]) for j in dropping]  # their columns
    dropped = sum(columns.size for columns in drops)
    fired = total - len(flown) - dropped  # the packets born: one id each
    root_of = np.repeat(np.arange(len(roots), dtype=np.int32), count)
    # A dropped fire reaches no hop (``last`` −1): never delivered, never
    # in flight.
    last = np.array([-1 if plan is None else plan.last for plan in plans])
    depth = max(int(last.max()), 0)
    times = np.full((depth + 1, total), np.inf)
    times[0] = np.concatenate([[-np.inf] if f is None else f[:-1] for f in fires])
    next_fire = [float(fires[j][-1]) for j in firing]
    del fires
    root_t = born = times[0]
    if flown:
        at = end[[j for j, _ in flown]] - 1
        root_t = born.copy()
        born = born.copy()
        for column, (j, packet) in zip(at.tolist(), flown):
            times[:rows[j], column] = -np.inf
            times[rows[j], column] = root_t[column] = roots[j][0]
            born[column] = packet.created_at
    lineage = _Lineage(times, (end - count)[root_of], root_of, root_t)

    size = np.array(sizes, dtype=float)
    carried = size[last > 0]  # what crosses a port
    one_size = bool((carried == carried[:1]).all())
    port_at = np.full((depth, len(roots)), -1, dtype=np.int32)
    ser = np.zeros((depth, len(roots)))
    credit = np.zeros_like(ser)
    lat = np.zeros_like(ser)
    for j, (plan, chain, row, bytes_) in enumerate(zip(plans, chains, rows, sizes)):
        if plan is None:
            continue
        hops = plan.last
        port_at[row:hops, j] = chain
        ser[row:hops, j] = [bytes_ * x for x in plan.ser[row:]]
        credit[row:hops, j] = [bytes_ * x for x in plan.latf[row:]]
        lat[row:hops, j] = plan.lat[row:]

    # Which packets cross which port at which hop: per hop, packets
    # sorted by port number (stable, so root-major within a port).
    numbers = np.arange(len(port_keys))
    by_port = []
    for h in range(depth):
        column = port_at[h][root_of]
        packets = np.argsort(column, kind="stable").astype(np.int32)
        column = column[packets]
        by_port.append((
            h, packets,
            np.searchsorted(column, numbers, "left").tolist(),
            np.searchsorted(column, numbers, "right").tolist(),
        ))

    # (2) Clock every port, upstream first, on flat indices: the event
    # ``(n, hop)`` is ``hop·total + n`` of ``times``, its coefficients
    # ``hop·width + root`` of ``credit``, ``lat`` and ``ser``.
    prop = net.propagation_delay
    ports = net._ports
    width = len(roots)
    flat = times.reshape(-1)
    for number in port_order:
        parts = [
            (h, packets[lo[number]:hi[number]])
            for h, packets, lo, hi in by_port if hi[number] > lo[number]
        ]
        n = np.concatenate([part for _, part in parts])
        hop = np.repeat([h for h, _ in parts], [part.size for _, part in parts])
        t = flat.take(hop * total + n)
        due = t <= until
        if not due.all():
            n, hop, t = n[due], hop[due], t[due]
            if not n.size:
                continue
        order = lineage.order(n, hop, t)
        if order is not None:
            n, hop, t = n[order], hop[order], t[order]
        j = root_of.take(n)
        coefficient = hop * width + j
        earliest = (t + credit.take(coefficient)) + lat.take(coefficient)
        service = ser.take(coefficient)
        port = ports[port_keys[number]]
        busy = port.busy_until
        tails = earliest + service
        if earliest[0] < busy or bool((earliest[1:] < tails[:-1]).any()):
            # One size is not one service time: a packet in flight across
            # a hybrid epoch keeps the plan, and the rate, it started with.
            uniform = one_size and bool((service == service[0]).all())
            tails = _contended_tails(
                earliest, busy, float(service[0]) if uniform else service
            )
        port.busy_until = float(tails[-1])
        port.packets_sent += n.size
        if one_size:
            port.bytes_sent = _repeated_add(port.bytes_sent, carried[0], n.size)
        else:
            sent = port.bytes_sent
            for bytes_ in size.take(j).tolist():
                sent += bytes_
            port.bytes_sent = sent
        flat[(hop + 1) * total + n] = tails + prop

    del by_port

    # (3) Deliveries, in event order.
    reached = np.count_nonzero(times <= until, axis=0) - 1  # arrivals only grow along a path
    final = last[root_of]
    done = np.flatnonzero(reached == final)
    hops = final.take(done)
    arrived = flat.take(hops * total + done)
    order = lineage.order(done, hops, arrived)
    if order is not None:
        done, arrived = done[order], arrived[order]
    sender = root_of.take(done)
    delivered = arrived + net.host_receive_latency
    latency = (delivered - born[done]).tolist()
    net.stats.record_many(latency)
    _record_groups(net.stats.by_group, groups, sender, latency)
    net.packets_delivered += done.size
    if dropped:  # as ``note_unroutable`` counts each fire
        net.packets_unroutable += dropped
        net.packets_dropped += dropped
        net.packets_dropped_fault += dropped
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
    engine.credit_events(int(reached.sum()) + total - sum(rows))

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
    flying = np.flatnonzero(reached < final)
    rearm = end[firing] - 1
    n = np.concatenate((flying, rearm))
    hop = np.concatenate((reached[flying], np.zeros_like(rearm)))
    child = np.concatenate((np.zeros_like(flying), np.ones_like(rearm)))
    pending = lineage.order(n, hop, flat.take(hop * total + n), child)
    pending = range(n.size) if pending is None else pending.tolist()
    # A packet id counts the fires that came before, less the drops.
    skip = ([at] if flown else []) + drops
    rank = lineage.fire_rank(np.concatenate(skip)) if skip else lineage.rank
    packet_id = (net._next_packet_id + rank[flying]).tolist()
    created = born[flying].tolist()
    arrival = times[reached[flying] + 1, flying].tolist()
    at_hop = reached[flying].tolist()
    owner = root_of[flying].tolist()
    sent = count[firing].tolist()
    del times, flat, lineage, root_of, reached, final, born, root_t  # before the packets exist

    seq = engine._seq
    step = net._hop
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
                entry = [arrival[index], seq, step, None, packet]
                heap.append(entry)
        entry[1] = seq
        seq += 1
    engine._seq = seq
    heapq.heapify(heap)

    net._next_packet_id += fired
    for j, consumed in zip(firing, sent):
        source = roots[j][2].__self__
        source.packets_sent += consumed
        # The gaps behind the cursor are spent: a long stream holds one
        # window's draw, not the run's.
        del source._gaps[: source._gap_i + consumed]
        source._gap_i = 0
    obs = net.obs
    if obs is not None:
        if dropped:
            obs.incr("drops.unroutable", dropped)
        obs.incr("fastpath.plan_hits", fired - unbound)
        obs.incr("batch.cohorts")
        obs.incr("batch.packets", fired)
        obs.observe("batch.cohort_size", fired)


def _outages(
    faults, lineage: _Lineage, groups: list, sender: np.ndarray, done: np.ndarray,
    hops: np.ndarray, arrived: np.ndarray, drops: list,
) -> None:
    """Each flow's outage clock through the window, as the event loop
    leaves it: a dropped fire opens the flow's outage if none is open
    (``record_drop``), a delivery closes it (``record_delivery``).

    ``sender``, ``done``, ``hops`` and ``arrived`` are the deliveries, in
    delivery order; ``drops`` pairs each fires-only root's group with
    its columns.  Flows touch each other only through the order
    ``recovery_times_by_flow`` gains keys — that of their first close,
    always a delivery — so each flow's events are merged on their own,
    in heap order (:meth:`_Lineage.order`, fires being hop-0 events;
    a flow with one kind needs no merge), and only those that can move
    its clock are kept: each run of drops (one ``record_drops``), the
    delivery right after a run, and the first delivery, which closes an
    outage open before the window.  All flows' are then applied in
    delivery order, a run of drops just before the delivery after it.
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


def _contended_tails(
    e: np.ndarray, busy: float, ser: "float | np.ndarray"
) -> np.ndarray:
    """Port tail times when packets queue on each other (or a busy port).

    The result is, bit for bit, the reference recurrence — ``start =
    busy; if start < earliest: start = earliest; tail = start + ser`` —
    run packet by packet.  ``ser`` is one serialization time, or one per
    packet (mixed sizes on one port), which is replayed as written.

    With one ``ser`` the tails are **guessed, certified and repaired**.
    :func:`_guess_tails` fills every busy period in closed form; the
    guess is *the* sequential result exactly when each entry satisfies
    the recurrence given its predecessor — ``guess == max(prev, e) +
    ser`` with ``prev = [busy, guess[:-1]]``, one vectorized comparison,
    and induction does the rest.  From the first entry that fails, the
    loop replays the recurrence to the next packet that finds the port
    idle, and the rest is guessed again.  A guess is made only where at
    least ``MIN_CERTIFIED`` packets, and an eighth of those left, arrive
    before their predecessor's idle tail; one that certified fewer than
    that leaves the rest of the call to the loop.  So no input costs
    more than the loop and a bounded number of vectorized passes, and a
    port where few packets queue costs what the loop costs.
    """
    if isinstance(ser, np.ndarray):
        out = np.empty_like(e)
        b = busy
        for i, (earliest, s) in enumerate(zip(e.tolist(), ser.tolist())):
            start = earliest if b < earliest else b
            b = start + s
            out[i] = b
        return out
    out = e + ser  # the tail of a packet that finds the port idle
    size = e.size
    arrivals = None
    i = 0
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
        i = _replay(arrivals, out, [i], busy, ser)
        if i == size:
            return out
    if arrivals is None:
        arrivals = e.tolist()
    _replay(arrivals, out, [i] + queued[queued > i].tolist(), busy, ser)
    return out


def _replay(arrivals: list, out: np.ndarray, starts: list, busy: float, ser: float) -> int:
    """The recurrence, packet by packet, over the busy periods that begin
    at ``starts`` (ascending; a start inside the period just replayed is
    skipped), each from its first packet while arrivals precede the
    running tail.  ``out`` holds every other tail already: a certified
    guess before the first start, ``e + ser`` — a packet that finds the
    port idle — after it.  Returns the index after the last packet
    replayed."""
    size = len(arrivals)
    i = 0
    for start in starts:
        if start < i:
            continue
        i = start
        b = float(out[i - 1]) if i else busy
        b = (arrivals[i] if b < arrivals[i] else b) + ser
        out[i] = b
        i += 1
        while i < size and arrivals[i] < b:
            b = b + ser
            out[i] = b
            i += 1
    return i


def _guess_tails(e: np.ndarray, busy: float, ser: float) -> np.ndarray:
    """The tails of the recurrence, guessed: every busy period in closed
    form, split where its tails cross a power of two.  The caller
    certifies it.

    A busy period starts where ``e[i] − i·ser`` reaches the running max
    of it (``busy`` included) — the max-plus form of the recurrence,
    which rounds differently, so it only *locates* the starts.  A period
    from ``x0`` (its first arrival, or ``busy``) first leaves at ``t1 =
    x0 + ser`` and then every ``d = (t1 + ser) − t1`` later, ``t1 + m·d``
    being exact: inside a binade, adding ``ser`` to a multiple of its ulp
    always rounds by the same amount — on a half-ulp ``ser`` too when
    ``x0`` shares ``t1``'s binade, because the tie that made ``t1``
    rounded to even and fixed the parity every later tie rounds from.
    Where ``t1 + m·d`` would reach the binade's top, a new period starts
    from the tail before it, as the recurrence would step from it.
    """
    index = np.arange(e.size)
    key = e - index * ser
    level = np.maximum.accumulate(np.maximum(key, busy))
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
    return np.repeat(t1, length) + (index - np.repeat(first, length)) * np.repeat(d, length)


def _repeated_add(base: float, step: float, count: int) -> float:
    """``base`` after ``count`` sequential ``+= step`` operations.

    Matches the scalar loop's per-packet ``bytes_sent += size`` float
    accumulation bit for bit.  Integer-valued floats below 2**53 sum
    exactly, so the common case (whole-byte sizes and counters) is one
    multiply-add; anything else replays the additions.
    """
    base = float(base)
    step = float(step)
    total = base + step * count
    if base.is_integer() and step.is_integer() and abs(total) < 9007199254740992.0:
        return total
    for _ in range(count):
        base += step
    return base


def _record_groups(by_group: dict, names: list, owner: np.ndarray, latency: list) -> None:
    """File ``latency`` (delivery order; ``owner[i]`` the root of sample
    ``i``) under the roots' groups — the same float objects
    ``stats.samples`` holds, a new group's key created at its first
    delivery, as per-packet ``record`` calls would."""
    distinct = {name: g for g, name in enumerate(dict.fromkeys(names))}
    if len(distinct) == 1:
        (name,) = distinct
        if name is not None and latency:
            by_group.setdefault(name, []).extend(latency)
        return
    group = np.array([distinct[name] for name in names])[owner]
    seen, first_at = np.unique(group, return_index=True)
    labels = list(distinct)
    for g in seen[np.argsort(first_at)].tolist():
        if labels[g] is None:
            continue
        bucket = by_group.setdefault(labels[g], [])
        if seen.size == 1:
            bucket.extend(latency)
        else:
            bucket.extend([latency[i] for i in np.flatnonzero(group == g).tolist()])
