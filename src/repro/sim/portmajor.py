"""Port-major solution of an open-loop window of traffic.

Up to a horizon, a queue that holds nothing but Poisson sources' fire
chains is a feed-forward computation, not an event simulation: no event
can change what a source sends, so every fire time is known up front,
and on a fabric whose ports form a DAG under the routes in use each
port's whole arrival sequence is known once the ports upstream of it
are done.  :func:`advance` — tried by :meth:`Network.run` before it
calls ``engine.run`` — clocks such a window port by port with the
kernel's own float operations and hands back exactly the state the
event-by-event run would have reached; a window it declines is left as
it was, every decline is counted under ``batch.standdown.<reason>``.

**When a window qualifies.**  ``batch_enabled`` (so: compiled plans,
unbounded buffers, no telemetry), a horizon and no ``max_events``, the
heap scheduler with no cancelled entries, no dead links or fault
tracking, an unsharded network, and *every* queued entry the live
``_fire`` chain of a :class:`PoissonSource` of this network with one
destination, no ``on_delivered``, no ``vary_flow_per_packet`` and no
``stop_at`` at or before the horizon; every firing flow routable; the
directed graph "port of hop h → port of hop h+1" over the routes
acyclic; and the expected fires ``Σ (until − first fire) · rate`` inside
``MIN_WINDOW_FIRES … MAX_WINDOW_FIRES`` and at least
``MIN_FIRES_PER_SOURCE`` per firing source.

**Event order from ancestry.**  The heap orders events by ``(time,
seq)``, and an event's seq was drawn while its *parent* ran: the
previous hop of the same packet; the fire, for a packet's first
arrival (drawn before the source's re-arm); the previous fire, for a
fire; the queue entry's own seq at the root.  So ``e ≺ f`` iff
``t_e < t_f``, or the times tie and ``parent(e) ≺ parent(f)``, or they
share a parent and ``e`` is the packet.  No seq is ever materialized:
events are sorted by time and only those that tie a neighbour are
ranked by their ancestors' times (:class:`_Lineage`).
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.routing.base import RoutingError
from repro.sim.network import Network, Packet, _contended_tails, _repeated_add
from repro.sim.sources import PoissonSource

#: Expected fires a window must hold to be solved port-major.  Below the
#: floor — in all, and per firing source, whose routes, plans and ports
#: are the pass's fixed cost — the set-up costs more than the events it
#: saves (break-even measured at 3–12 fires per source, EXPERIMENTS.md);
#: above the ceiling the whole-horizon tables outgrow the heap they
#: replace (one 200 k-packet stream: 1.9× slower than cohorts, twice the
#: memory).  Bounds in the manner of ``Network.FLOW_TABLE_LIMIT``, not
#: knobs.
MIN_WINDOW_FIRES = 64
MIN_FIRES_PER_SOURCE = 8
MAX_WINDOW_FIRES = 65_536


class _StandDown(Exception):
    """The window is left to the event loop; ``args[0]`` names why."""


def advance(net: Network, until: "float | None", max_events: "int | None" = None) -> bool:
    """Solve the window up to ``until`` port-major if it is open loop.

    Returns whether it did.  On ``True`` every event with ``time ≤
    until`` has been applied — ports, stats, counters, packet ids,
    sources — and the queue holds what is pending past the horizon (each
    in-flight packet on a chain entry at its next arrival, each source
    re-armed at its next fire) for ``engine.run(until)`` to find.  On
    ``False`` nothing has changed but how far ahead sources have drawn
    their gaps.
    """
    try:
        _solve(net, until, _firing_entries(net, until, max_events))
    except _StandDown as why:
        if net.obs is not None:
            net.obs.incr("batch.standdown." + why.args[0])
        return False
    return True


def _firing_entries(net: Network, until: "float | None", max_events: "int | None") -> list:
    """The queue entries that fire by ``until``, in queue order — or
    :class:`_StandDown` when the window is not provably open loop."""
    engine = net.engine
    if net.telemetry is not None:
        raise _StandDown("telemetry")
    if not net.batch_enabled:
        raise _StandDown("disabled")
    if max_events is not None:
        raise _StandDown("bounded_run")
    heap = engine._heap
    if heap is None:
        raise _StandDown("scheduler")
    if net._track_in_flight or net._dead_links:
        raise _StandDown("faults")
    if until is None or net.owned is not None or engine._n_cancelled or engine.batching_ok:
        raise _StandDown("not_open_loop")
    fire = PoissonSource._fire
    firing = []
    expected = 0.0
    for entry in heap:
        step = entry[2]
        source = getattr(step, "__self__", None)
        if (
            entry[3] is not None
            or getattr(step, "__func__", None) is not fire
            or source.network is not net
            or entry[4] != source._generation
            or source.size_bytes <= 0
        ):
            raise _StandDown("not_open_loop")
        if (
            source._dst_rng is not None
            or source.on_delivered is not None
            or source.vary_flow_per_packet
            or (source.stop_at is not None and source.stop_at <= until)
        ):
            raise _StandDown("closed_loop_source")
        if entry[0] <= until:
            expected += (until - entry[0]) * source.rate_pps
            firing.append(entry)
    floor = max(MIN_WINDOW_FIRES, MIN_FIRES_PER_SOURCE * len(firing))
    if not floor <= expected <= MAX_WINDOW_FIRES:
        raise _StandDown("budget")
    firing.sort()  # (time, seq): the order the heap would pop them in
    return firing


def _routes(net: Network, sources: "list[PoissonSource]") -> list:
    """Each source's route — bound already, or the router's pick —
    checked as :meth:`Network._bind` and ``compile_plan`` would."""
    routes = []
    for source in sources:
        src, dst = source.src, source._dsts[0]
        bound = net._flows.get((src, dst, source.flow_id))
        if bound is not None:
            routes.append(bound[0])
            continue
        try:
            route = net.router.route(src, dst, source.flow_id)
        except RoutingError:
            raise _StandDown("unroutable") from None
        if (
            len(route) < 2
            or route[0] != src
            or route[-1] != dst
            or any(key not in net._link_rec for key in zip(route, route[1:]))
        ):
            raise _StandDown("unroutable")  # the scalar run raises at its fire
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

    ``times`` is the ``(hops + 1) × packets`` table, packets flow-major:
    row 0 the fire times, row ``h`` the arrival at the path's ``h``-th
    node (``inf`` where not reached).  The event ``(n, h)`` has as
    generation-``g`` ancestor its own hop ``h − g``, then its source's
    earlier fires ``n − (g − h)`` — flow-major makes them neighbours —
    and nothing past ``first[n]``, the source's queued (root) fire.
    """

    def __init__(self, times: np.ndarray, first: np.ndarray, src_of: np.ndarray) -> None:
        self.times = times
        self.first = first
        self.rank = self._fire_rank(times[0], first, src_of)

    @staticmethod
    def _fire_rank(fire_t: np.ndarray, first: np.ndarray, src_of: np.ndarray) -> np.ndarray:
        """Position of every fire in the heap's order of all fires: the
        fixed point of ``rank = order by (time, rank[parent])``, a root's
        parent key being its queue position (``src_of`` is in queue
        order, and a root precedes whatever an event of the window
        scheduled).  A pair that ties ``d`` generations deep is right
        from iteration ``d + 1`` on, so the loop ends; lockstep streams
        tie all the way down and are right at once, because the first
        guess is queue order."""
        index = np.arange(fire_t.size)
        root = index == first
        rank = np.empty_like(index)
        rank[np.lexsort((src_of, fire_t))] = index
        while True:
            parent_key = np.where(root, src_of - (src_of[-1] + 1), rank[index - 1])
            again = np.empty_like(index)
            again[np.lexsort((parent_key, fire_t))] = index
            if np.array_equal(again, rank):
                return rank
            rank = again

    def order(
        self, n: np.ndarray, hop: np.ndarray, t: np.ndarray, child: "np.ndarray | None" = None
    ) -> np.ndarray:
        """The permutation that puts the events ``(n, hop)``, at times
        ``t``, in heap order.  ``child`` breaks the tie between two
        events that are the same event (the hand-back orders pending
        events by their parents: the packet before the re-arm)."""
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
        took the packet branch earlier), the fire rank of the oldest
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


def _solve(net: Network, until: float, firing: list) -> None:
    engine = net.engine
    sources: list[PoissonSource] = [entry[2].__self__ for entry in firing]

    # (1) Fire times, flat and flow-major; routes; the order of ports.
    fires = [
        source._fires_through(entry[0], until) for source, entry in zip(sources, firing)
    ]
    routes = _routes(net, sources)
    port_keys, chains, port_order = _port_order(routes)

    # Nothing stands down past this point.  Bind each flow as its first
    # packet would; every later packet of a bound flow is a plan hit.
    plans = []
    unbound = 0
    for source in sources:
        src, dst = source.src, source._dsts[0]
        bound = net._flows.get((src, dst, source.flow_id))
        if bound is None:
            unbound += 1
            bound = net._bind(src, dst, source.flow_id, None)
        plans.append(bound[1])

    count = np.array([f.size - 1 for f in fires])
    end = np.cumsum(count)
    total = int(end[-1])
    src_of = np.repeat(np.arange(len(sources), dtype=np.int32), count)
    depth = max(plan.last for plan in plans)
    times = np.full((depth + 1, total), np.inf)
    times[0] = np.concatenate([f[:-1] for f in fires])
    next_fire = [float(f[-1]) for f in fires]
    del fires
    lineage = _Lineage(times, (end - count)[src_of], src_of)

    # Per-source, per-hop coefficients, multiplied as the kernel does.
    size = np.array([source.size_bytes for source in sources], dtype=float)
    one_size = bool((size == size[0]).all())
    last = np.array([plan.last for plan in plans])
    port_at = np.full((depth, len(sources)), -1, dtype=np.int32)
    ser = np.zeros((depth, len(sources)))
    credit = np.zeros_like(ser)
    lat = np.zeros_like(ser)
    for j, (source, plan, chain) in enumerate(zip(sources, plans, chains)):
        hops = plan.last
        bytes_ = source.size_bytes
        port_at[:hops, j] = chain
        ser[:hops, j] = [bytes_ * x for x in plan.ser]
        credit[:hops, j] = [bytes_ * x for x in plan.latf]
        lat[:hops, j] = plan.lat

    # Which packets cross which port at which hop: per hop, packets
    # sorted by port number (stable, so flow-major within a port).
    numbers = np.arange(len(port_keys))
    by_port = []
    for h in range(depth):
        column = port_at[h][src_of]
        packets = np.argsort(column, kind="stable").astype(np.int32)
        column = column[packets]
        by_port.append((
            h, packets,
            np.searchsorted(column, numbers, "left").tolist(),
            np.searchsorted(column, numbers, "right").tolist(),
        ))

    # (2) Clock every port, upstream first.
    prop = net.propagation_delay
    ports = net._ports
    for number in port_order:
        parts = [
            (h, packets[lo[number]:hi[number]])
            for h, packets, lo, hi in by_port if hi[number] > lo[number]
        ]
        n = np.concatenate([part for _, part in parts])
        hop = np.repeat([h for h, _ in parts], [part.size for _, part in parts])
        t = times[hop, n]
        due = t <= until
        if not due.all():
            n, hop, t = n[due], hop[due], t[due]
            if not n.size:
                continue
        order = lineage.order(n, hop, t)
        n, hop, t = n[order], hop[order], t[order]
        j = src_of[n]
        earliest = (t + credit[hop, j]) + lat[hop, j]
        service = ser[hop, j]
        port = ports[port_keys[number]]
        busy = port.busy_until
        tails = earliest + service
        if earliest[0] < busy or bool((earliest[1:] < tails[:-1]).any()):
            tails = _contended_tails(
                earliest, busy, float(service[0]) if one_size else service
            )
        port.busy_until = float(tails[-1])
        port.packets_sent += n.size
        if one_size:
            port.bytes_sent = _repeated_add(port.bytes_sent, size[0], n.size)
        else:
            sent = port.bytes_sent
            for bytes_ in size[j].tolist():
                sent += bytes_
            port.bytes_sent = sent
        times[hop + 1, n] = tails + prop

    # (3) Deliveries, in event order.
    reached = np.count_nonzero(times <= until, axis=0) - 1  # arrivals only grow along a path
    final = last[src_of]
    done = np.flatnonzero(reached == final)
    t = times[final[done], done]
    order = lineage.order(done, final[done], t)
    done = done[order]
    latency = ((t[order] + net.host_receive_latency) - times[0, done]).tolist()
    net.stats.record_many(latency)
    _record_groups(
        net.stats.by_group, [source.group for source in sources], src_of[done], latency
    )
    net.packets_delivered += done.size
    engine.credit_events(int(reached.sum()) + total)

    # (4) What is pending at the horizon, in the order the event loop
    # would have drawn its seqs: by parent, the packet before the re-arm.
    flying = np.flatnonzero(reached < final)
    n = np.concatenate((flying, end - 1))
    hop = np.concatenate((reached[flying], np.zeros_like(end)))
    child = np.concatenate((np.zeros_like(flying), np.ones_like(end)))
    pending = lineage.order(n, hop, times[hop, n], child).tolist()
    packet_id = (net._next_packet_id + lineage.rank[flying]).tolist()
    created = times[0, flying].tolist()
    arrival = times[reached[flying] + 1, flying].tolist()
    at_hop = reached[flying].tolist()
    owner = src_of[flying].tolist()
    sent = count.tolist()
    del times, lineage, by_port, src_of, reached, final  # before the packets exist

    heap = engine._heap
    seq = engine._seq
    step = net._hop
    for index in pending:
        if index < len(owner):
            source = sources[owner[index]]
            plan = plans[owner[index]]
            packet = Packet(
                packet_id[index], source.src, source._dsts[0], source.size_bytes,
                plan.path, created[index], source.group, hop=at_hop[index], plan=plan,
            )
            heap.append([arrival[index], seq, step, None, packet])
        else:
            entry = firing[index - len(owner)]
            entry[0] = next_fire[index - len(owner)]
            entry[1] = seq
        seq += 1
    engine._seq = seq
    heapq.heapify(heap)

    net._next_packet_id += total
    for source, fired in zip(sources, sent):
        source.packets_sent += fired
        source._gap_i += fired
    obs = net.obs
    if obs is not None:
        obs.incr("fastpath.plan_hits", total - unbound)
        obs.incr("batch.cohorts")
        obs.incr("batch.packets", total)
        obs.observe("batch.cohort_size", total)


def _record_groups(by_group: dict, names: list, owner: np.ndarray, latency: list) -> None:
    """File ``latency`` (delivery order; ``owner[i]`` the source of
    sample ``i``) under the sources' groups — the same float objects
    ``stats.samples`` holds, a new group's key created at its first
    delivery, as per-packet ``record`` calls would."""
    distinct = {name: g for g, name in enumerate(dict.fromkeys(names))}
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
