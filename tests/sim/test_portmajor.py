"""Port-major pass: bit-identical to the event-by-event kernel.

``Network.run(until=…)`` solves an open-loop window port by port
(:mod:`repro.sim.portmajor`) instead of event by event.  Like the
compiled fast path before it, that must be a pure speed change: the
oracle throughout is the same scenario run by ``engine.run``, which
never tries the pass, and the fingerprint holds everything a later
event could read — stats in delivery order, every port's counters and
clock, the sources' counters, the logical event count, the packets a
caller holds, the fault bookkeeping (per-flow counters, outages open
and closed, which packets each link holds) and the pending queue *in
seq order* (the pass draws fresh seqs for what it hands back; their
order is the only thing about them that can matter).
"""

import heapq
import math
import random
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.topology as T
from repro import obs
from repro.routing import ECMPRouter
from repro.routing.base import RoutingError
from repro.sim import DeliveryBins, Network, portmajor
from repro.sim.network import NetworkSimError
from repro.sim.sources import PoissonSource
from repro.sim.switch import SwitchModel, register_model
from repro.topology.base import LinkKind, NodeKind, Topology
from repro.units import GBPS
from tests.sim.test_fastpath import network_fingerprint

TOPOLOGIES = {
    # Store-and-forward CCS core over cut-through ULL tiers.
    "tree": lambda: T.three_tier_tree(
        num_pods=2, tors_per_pod=2, servers_per_tor=4, uplink_rate=10 * GBPS
    ),
    # One Quartz ring: a full mesh of cut-through ToRs.
    "mesh": lambda: T.quartz_ring(num_switches=4, servers_per_switch=4),
    "jellyfish": lambda: T.jellyfish(
        num_switches=8, network_degree=3, servers_per_switch=2, seed=7
    ),
    # 10 G hosts under 40 G uplinks: cut-through credit min(ser_in, ser_out).
    "mixed": lambda: T.three_tier_tree(num_pods=2, tors_per_pod=2, servers_per_tor=4),
}

SIZES = {
    "equal": lambda j: 400,
    "mixed": lambda j: (400, 1500, 64)[j % 3],
    "non_integer": lambda j: (400.5, 1499.25, 333.1)[j % 3],
}


def build(topology, batch, router=None):
    """A network whose ``run`` is ``Network.run`` with ``batch``, else
    the oracle's ``engine.run``."""
    topo = TOPOLOGIES[topology]() if isinstance(topology, str) else topology
    net = Network(topo, (router or ECMPRouter)(topo))
    if not batch:
        net.run = net.engine.run
    return net


def start_tasks(net, tasks, sizes="equal", grouping="task", rate=31_250.0):
    """``tasks`` is a list of ``(kind, hub index, fan, seed)``; stream
    ``j`` of a task draws from ``seed + j`` — ``build_task``'s rule, under
    which neighbouring tasks share whole gap sequences."""
    servers = net.topo.servers()
    sources = []
    for index, (kind, hub, fan, seed) in enumerate(tasks):
        hub = servers[hub % len(servers)]
        peers = random.Random(seed).sample([s for s in servers if s != hub], fan)
        group = {"none": None, "shared": "all", "task": f"task{index}"}[grouping]
        for j, peer in enumerate(peers):
            src, dst = (hub, peer) if kind == "scatter" else (peer, hub)
            sources.append(PoissonSource(
                net, src, dst, rate_pps=rate, size_bytes=SIZES[sizes](j),
                group=group, flow_id=index * 100 + j, seed=seed + j,
            ))
    for source in sources:
        source.start()
    return sources


def pending_in_seq_order(net):
    def identity(entry):
        if entry[3] is not None:
            return (entry[0], "timer")
        arg = entry[4]
        if isinstance(arg, int):  # a source's fire chain carries its generation
            return (entry[0], "fire", entry[2].__self__.flow_id, arg)
        return (entry[0], "packet", arg.packet_id, arg.hop, arg.created_at, arg.plan.path)

    return tuple(identity(entry) for entry in sorted(net.engine._heap, key=lambda e: e[1]))


def fingerprint(net, sources, held=()):
    return {
        "held": tuple(
            (p.packet_id, p.hop, p.delivered_at, p.dropped, p.rerouted) for p in held
        ),
        "faults": network_fingerprint(net)[10:],
        "dropped_rerouted": (net.packets_dropped_fault, net.packets_rerouted),
        "unroutable": (net.packets_unroutable, net.packets_dropped),
        "delivered": net.packets_delivered,
        "next_packet_id": net._next_packet_id,
        "events": net.engine.events_processed,
        "samples": tuple(net.stats.samples),
        "by_group": tuple((k, tuple(v)) for k, v in net.stats.by_group.items()),
        "packets_sent": tuple(source.packets_sent for source in sources),
        "ports": tuple(
            (key, port.packets_sent, port.bytes_sent, port.busy_until)
            for key, port in sorted(net._ports.items())
        ),
        "pending": net.engine.pending(),
        "pending_order": pending_in_seq_order(net),
        "now": net.engine.now,
    }


@contextmanager
def watching():
    """Whether each ``portmajor.advance`` call made by ``Network.run``
    solved a window: one call per run, and one more per hand-back from
    the event loop across a foreign entry."""
    seen = []
    real = portmajor.advance

    def spy(net, until):
        answer = real(net, until)
        seen.append(answer[0])
        return answer

    portmajor.advance = spy
    try:
        yield seen
    finally:
        portmajor.advance = real


@contextmanager
def budget(cut):
    """Windows of ``cut`` expected fires, and no floor to speak of: a
    millisecond becomes a chain, every window of it but the first
    starting from the packets the one before left in flight."""
    saved = portmajor.MAX_WINDOW_FIRES, portmajor.MIN_WINDOW_FIRES, portmajor.MIN_FIRES_PER_SOURCE
    if cut is not None:
        portmajor.MAX_WINDOW_FIRES, portmajor.MIN_WINDOW_FIRES = cut, 1
        portmajor.MIN_FIRES_PER_SOURCE = 0
    try:
        yield
    finally:
        (portmajor.MAX_WINDOW_FIRES, portmajor.MIN_WINDOW_FIRES,
         portmajor.MIN_FIRES_PER_SOURCE) = saved


def run_legs(net, sources, horizons, between=None, held=()):
    """Fingerprints after each horizon, then 0.3 ms further (where a
    wrong gap cursor or hand-back seq would surface)."""
    prints = []
    for i, until in enumerate(horizons):
        net.run(until=until)
        prints.append(fingerprint(net, sources, held))
        if between is not None and i == 0:
            between(sources)
    net.run(until=horizons[-1] + 3e-4)
    prints.append(fingerprint(net, sources, held))
    return prints


def differential(topology, tasks, horizons, router=None, between=None, before=None,
                 after=None, cut=None, **traffic):
    """Run the scenario with the pass and on the oracle; assert equal
    fingerprints at every horizon; return what ``advance`` answered.
    ``before(net)`` injects packets ahead of the sources and returns
    them: the caller's objects, compared field by field; ``after(net)``
    queues what must come after the sources' first fires."""
    def legs(batch):
        net = build(topology, batch=batch, router=router)
        held = before(net) if before is not None else ()
        sources = start_tasks(net, tasks, **traffic)
        if after is not None:
            after(net)
        return run_legs(net, sources, horizons, between, held)

    expected = legs(batch=False)
    with watching() as engaged, budget(cut):
        got = legs(batch=True)
    for leg, (mine, theirs) in enumerate(zip(got, expected)):
        for field in theirs:
            assert mine[field] == theirs[field], (leg, field)
    return engaged


def events_of(topology, tasks, until, **traffic):
    """``(time, is a fire)`` of every fire and arrival up to ``until``."""
    net = build(topology, batch=False)
    events = []
    hop = net._hop

    def logging_hop(packet, earliest_start=None):
        events.append((net.engine.now, earliest_start is not None))
        return hop(packet, earliest_start)

    net._hop = logging_hop
    start_tasks(net, tasks, **traffic)
    net.run(until=until)
    return sorted(events)


FOUR_TASKS = [("scatter", 0, 9, 3000), ("scatter", 5, 9, 3001),
              ("gather", 10, 6, 3002), ("scatter", 15, 9, 3003)]


class TestDifferential:
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @pytest.mark.parametrize("sizes", SIZES)
    @pytest.mark.parametrize("grouping", ["none", "shared", "task"])
    def test_window_equals_event_loop(self, topology, sizes, grouping):
        engaged = differential(
            topology, FOUR_TASKS, [1e-3], sizes=sizes, grouping=grouping
        )
        assert engaged[0] is True

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_split_horizon_hands_back_to_the_event_loop(self, topology):
        engaged = differential(
            topology, FOUR_TASKS, [6e-4, 1e-3], sizes="mixed", rate=200_000.0
        )
        # The packets in flight at 0.6 ms are the second leg's roots.
        assert engaged[:2] == [True, True]

    def test_horizon_before_the_first_fire(self):
        first = events_of("tree", FOUR_TASKS, 1e-3)[0][0]
        engaged = differential("tree", FOUR_TASKS, [first / 2, 1e-3])
        assert engaged[:2] == [False, True]

    @pytest.mark.parametrize("which", [0.35, 0.6, 0.9])
    def test_horizon_exactly_on_an_event_time(self, which):
        events = events_of("mesh", FOUR_TASKS, 1e-3)
        until = events[int(which * len(events))][0]
        engaged = differential("mesh", FOUR_TASKS, [until, 1e-3])
        assert engaged[0] is True

    @settings(max_examples=25, deadline=None)
    @given(
        topology=st.sampled_from(sorted(TOPOLOGIES)),
        tasks=st.lists(
            st.tuples(
                st.sampled_from(["scatter", "gather"]),
                st.integers(0, 15), st.integers(2, 9), st.integers(0, 3),
            ),
            min_size=1, max_size=8,
        ),
        sizes=st.sampled_from(sorted(SIZES)),
        grouping=st.sampled_from(["none", "shared", "task"]),
        rate=st.sampled_from([31_250.0, 120_000.0, 400_000.0]),
        horizons=st.sampled_from(
            [[1e-3], [5e-4, 9e-4], [1e-5, 7e-4], [2e-4], [1e-4, 2e-4, 3e-4, 4e-4]]
        ),
        cut=st.sampled_from([None, 40, 150, 600]),
    )
    def test_generated_scenarios(self, topology, tasks, sizes, grouping, rate, horizons, cut):
        # Seeds 0-3 with ``seed + j`` per stream: most draws hold several
        # streams with identical gap sequences, on different hubs.  Under
        # a cut every window but the first starts from tens of packets
        # in flight, lockstep ones among them.
        differential(
            topology, tasks, horizons, cut=cut, sizes=sizes, grouping=grouping, rate=rate
        )


def ring_of_switches(n):
    """``n`` switches in a cycle, one server each: the shortest path from
    ``h{i}`` to ``h{i+2}`` runs ``s{i} → s{i+1} → s{i+2}``."""
    topo = Topology(f"cycle-{n}")
    for i in range(n):
        topo.add_switch(f"s{i}", NodeKind.TOR, rack=i)
        topo.add_server(f"h{i}", rack=i)
        topo.add_link(f"h{i}", f"s{i}", 10 * GBPS, LinkKind.HOST)
    for i in range(n):
        topo.add_link(f"s{i}", f"s{(i + 1) % n}", 10 * GBPS, LinkKind.MESH)
    return topo


def ring_sources(net, which, delay=0.0):
    """h{i} → h{i+2} round a 5-ring for ``i`` in ``which``: port
    s{i}→s{i+1} feeds port s{i+1}→s{i+2}."""
    sources = [
        PoissonSource(net, f"h{i}", f"h{(i + 2) % 5}", rate_pps=400_000.0,
                      seed=i, flow_id=i, group="ring")
        for i in which
    ]
    for source in sources:
        source.start(delay)
    return sources


def two_ahead(net):
    """All five: the feeding goes all the way round — a cyclic port graph."""
    return ring_sources(net, range(5))


class Partitioned(ECMPRouter):
    """No path for flow 3 (stream 3 of the first task)."""

    def route(self, src, dst, flow_id=0):
        if flow_id == 3:
            raise RoutingError("no path")
        return super().route(src, dst, flow_id)


class TestPinned:
    def test_lockstep_sources(self):
        """Two hubs whose streams share seeds: every fire ties its twin,
        and most arrivals do; queue order at the root decides."""
        tasks = [("scatter", 0, 9, 77), ("scatter", 4, 9, 77)]
        engaged = differential("tree", tasks, [1e-3], rate=120_000.0)
        assert engaged[0] is True

    def test_packet_and_rearm_share_a_parent_at_the_hand_back(self):
        """A horizon on a fire's own time leaves that fire's two
        children pending: its packet (seq drawn first) and the re-arm."""
        tasks = [("scatter", 0, 9, 5)]
        fires = [t for t, fire in events_of("tree", tasks, 1e-3, rate=120_000.0) if fire]
        engaged = differential("tree", tasks, [fires[300], 1e-3], rate=120_000.0)
        assert engaged[0] is True

    def test_cyclic_port_graph_stands_down(self):
        oracle = build(ring_of_switches(5), batch=False)
        expected = run_legs(oracle, two_ahead(oracle), [1e-3])
        net = build(ring_of_switches(5), batch=True)
        sources = two_ahead(net)
        assert portmajor.advance(net, 1e-3) == (False, None)
        assert not net._flows and not net._plans  # nothing was bound
        assert run_legs(net, sources, [1e-3]) == expected

    def test_unroutable_flow_is_solved_as_a_column_of_drops(self):
        tasks = [("scatter", 0, 9, 21)]
        net = build("mesh", batch=True, router=Partitioned)
        sources = start_tasks(net, tasks)
        assert portmajor.advance(net, 1e-3) == (True, None)
        # Every fire of flow 3 is a drop, and takes no packet id.
        unroutable = sources[3].packets_sent
        assert net.packets_unroutable == net.packets_dropped == unroutable > 0
        sent = sum(source.packets_sent for source in sources)
        assert net._next_packet_id == sent - unroutable
        engaged = differential("mesh", tasks, [1e-3], router=Partitioned)
        assert engaged[0] is True

    def test_stop_then_start_after_a_pass(self):
        def restart(sources):
            for source in sources:
                source.stop()
            for source in sources[::2]:
                source.start()

        engaged = differential("tree", FOUR_TASKS, [5e-4, 1e-3], between=restart)
        # The stopped chains' last fires are still queued: each bounds a
        # window, none is wide enough until the last of them has ended
        # its chain, and the restarted half is solved from there.
        assert engaged[:2] == [True, False] and engaged[-2] is True

    def test_engine_run_is_never_solved_port_major(self):
        net = build("tree", batch=True)
        sources = start_tasks(net, FOUR_TASKS)
        with watching() as engaged:
            net.engine.run(until=1e-3)
        assert engaged == []
        solved = build("tree", batch=True)
        solved_sources = start_tasks(solved, FOUR_TASKS)
        with watching() as engaged:
            solved.run(until=1e-3)
        assert engaged == [True]
        assert fingerprint(net, sources) == fingerprint(solved, solved_sources)


def sent_ahead(net):
    """Twelve packets injected by ``net.send`` before any source starts:
    queued ``_hop`` chains, some of them tying (equal sizes, one hub)."""
    servers = net.topo.servers()
    return [
        net.send(servers[i % 3], servers[-1 - i % 5], (400, 1500)[i % 2], flow_id=900 + i,
                 group=("sent", None)[i % 2])
        for i in range(12)
    ]


class TestRootsAndChains:
    """Windows that start from packets in flight, and horizons solved as
    a chain of them."""

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @pytest.mark.parametrize("cut", [None, 150])
    def test_packets_sent_before_the_sources_are_roots(self, topology, cut):
        """The held ``Packet`` objects end with the oracle's ``hop`` /
        ``delivered_at`` / ``packet_id`` at every horizon."""
        engaged = differential(
            topology, FOUR_TASKS, [4e-4, 1e-3], before=sent_ahead, cut=cut,
            sizes="mixed", rate=200_000.0,
        )
        assert engaged == [True, True, True]

    def test_lockstep_chain(self):
        """Every window of the chain starts from packets that tie their
        twins: queue position among the roots decides."""
        tasks = [("scatter", 0, 9, 77), ("scatter", 4, 9, 77)]
        engaged = differential("tree", tasks, [3e-4, 1e-3], cut=150, rate=120_000.0)
        assert engaged[:2] == [True, True]

    @pytest.mark.parametrize("mark", ["on_delivered", "stamps"])
    def test_a_root_the_kernel_would_call_back_stands_down_untouched(self, mark):
        """Such a packet is no root but a foreign entry: its next
        arrival bounds the window — before the first fire here, so the
        pass stands down, nothing touched — and the pass is worth trying
        again from that arrival on; the event loop walks the packet
        home, hop by hop, between windows."""
        called = []

        def marked(net):
            held = sent_ahead(net)
            if mark == "stamps":
                held[3].stamps = []  # white box: as armed telemetry leaves it
            else:
                held[3].on_delivered = lambda packet, when: called.append(when)
            return held

        net = build("tree", batch=True)
        held = marked(net)
        sources = start_tasks(net, FOUR_TASKS)
        before = fingerprint(net, sources, held)
        cursors = [source._gap_i for source in sources]
        (arrival,) = [entry[0] for entry in net.engine._heap if entry[4] is held[3]]
        assert portmajor.advance(net, 1e-3) == (False, arrival)
        assert fingerprint(net, sources, held) == before
        assert [source._gap_i for source in sources] == cursors
        engaged = differential("tree", FOUR_TASKS, [1e-3], before=marked)
        assert engaged[0] is False and engaged[-2] is True
        assert mark == "stamps" or called[0] == called[1]  # once per leg

    def test_a_root_whose_route_closes_a_port_cycle_stands_down(self):
        def legs(batch, closing):
            net = build(ring_of_switches(5), batch=batch)
            # h4 → h1 crosses s4→s0 and s0→s1: with it the ports form a ring.
            held = [net.send("h4", "h1", 400, flow_id=4)] if closing else []
            return run_legs(net, ring_sources(net, range(4)), [1e-3], held=held)

        expected = [legs(False, closing) for closing in (False, True)]
        with watching() as engaged:
            assert [legs(True, closing) for closing in (False, True)] == expected
        # Closing: the pass stands down while the packet is in flight, and
        # solves the next run once it has been delivered.
        assert engaged == [True, True, False, True]

    def test_stand_down_in_the_middle_of_a_chain(self, monkeypatch):
        """The source that closes the ring of ports starts half-way: the
        windows before its first fire are solved, the rest is the event
        loop's."""
        def legs(batch):
            net = build(ring_of_switches(5), batch=batch)
            sources = ring_sources(net, range(4)) + ring_sources(net, [4], delay=5e-4)
            return run_legs(net, sources, [1e-3])

        solved = []
        solve = portmajor._solve
        monkeypatch.setattr(
            portmajor, "_solve",
            lambda net, until, roots: (solve(net, until, roots), solved.append(until)),
        )
        with budget(150):
            got = legs(True)
        assert got == legs(False)
        first_leg = [until for until in solved if until <= 1e-3]
        assert len(first_leg) >= 3 and max(first_leg) < 5.5e-4

    def test_a_long_stream_holds_one_window_of_gaps(self):
        topo = T.full_mesh(2, 1, link_rate=10 * GBPS)
        net = Network(topo, ECMPRouter(topo))
        source = PoissonSource(net, "h0.0", "h1.0", rate_pps=500_000.0,
                               size_bytes=1250, seed=3)
        source.start()
        with watching() as engaged:
            net.run(until=0.25)
        assert engaged == [True]
        assert source.packets_sent > 7 * portmajor.MAX_WINDOW_FIRES
        assert len(source._gaps) < portmajor.MAX_WINDOW_FIRES // 8

    def test_a_stream_in_order_is_never_sorted(self, monkeypatch):
        """An md1-shaped stream cut into windows at ``MAX_WINDOW_FIRES``:
        its fires, and every hop's arrivals, are in heap order already,
        and the packet in flight at a window's start is placed by a
        binary search.  So ``_rank``, the hops' port tables, the ports'
        and the deliveries' orders sort nothing, although some windows
        start with packets in flight, out of place: what a window sorts
        is the handful of events pending at its end."""
        sorted_sizes = []
        for name in ("sort", "argsort", "lexsort", "unique"):
            real = getattr(np, name)

            def counting(keys, *args, real=real, **kwargs):
                sorted_sizes.append(np.shape(keys)[-1])
                return real(keys, *args, **kwargs)

            monkeypatch.setattr(np, name, counting)
        in_flight = []
        solve, merged = portmajor._solve, portmajor._merged
        placed = []

        def spy(net, until, roots):
            in_flight.append(sum(type(entry[4]) is portmajor.Packet for entry in roots))
            solve(net, until, roots)

        def placing(t, lone):
            order = merged(t, lone)
            placed.append(order is not None)
            return order

        monkeypatch.setattr(portmajor, "_solve", spy)
        monkeypatch.setattr(portmajor, "_merged", placing)
        topo = T.full_mesh(2, 1, link_rate=10 * GBPS)
        net = Network(topo, ECMPRouter(topo))
        PoissonSource(net, "h0.0", "h1.0", rate_pps=500_000.0, size_bytes=1250,
                      seed=0).start()
        sorted_sizes.clear()  # building the network may sort
        net.run(until=0.1)
        assert len(in_flight) >= 4 and any(in_flight) and any(placed)
        assert max(sorted_sizes) <= 16  # of ~16 k events a window

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 40), min_size=1, max_size=24), st.data())
    def test_lone_entries_are_placed_as_a_sort_would(self, times, data):
        """``_merged`` answers exactly when the entries that are not lone
        strictly increase and no two times tie, and then with the sort's
        permutation; otherwise the lineage's sort decides."""
        t = np.array(times, dtype=float)
        lone = np.array(data.draw(st.lists(st.booleans(), min_size=t.size, max_size=t.size)))
        placed = portmajor._merged(t, lone)
        answerable = (
            0 < lone.sum() < t.size
            and bool((np.diff(t[~lone]) > 0).all())
            and np.unique(t).size == t.size
        )
        assert (placed is not None) == answerable
        if answerable:
            assert placed.tolist() == np.argsort(t, kind="stable").tolist()


# -- foreign entries bound a window ---------------------------------------------------


def noop():
    pass


def probing(log):
    """``before`` / ``after`` hook factory: a timer at ``when`` that notes
    what has happened by the time it runs — whether the fire that ties
    it has sent its packet."""
    def hook(when):
        def queue(net):
            net.engine.call_at(
                when, lambda: log.append((net._next_packet_id, net.packets_delivered))
            )
            return ()
        return queue
    return hook


def wall_of_timers(net):
    for k in range(1, 201):
        net.engine.call_at(2e-6 * k, noop)
    return ()


def crossing(net):
    """One packet from the first server to the last: six hops on the
    trees, led by the host link it is on when this returns."""
    servers = net.topo.servers()
    return net.send(servers[0], servers[-1], 400, flow_id=900, group="probe")


class TestForeignEntries:
    """An entry the pass cannot own bounds the window at its time — what
    ties it is the event loop's — and the pass resumes past it."""

    ONE_TASK = [("scatter", 0, 9, 5)]
    ONE_STREAM = [("scatter", 0, 1, 5)]

    @pytest.mark.parametrize("queued", ["before", "after"])
    @pytest.mark.parametrize("which", [0, 1, 200])
    def test_timer_on_a_fires_own_time(self, queued, which):
        """Queued before the source started the timer precedes every
        fire it ties; queued after, it follows the first fire (the
        root's own seq) and precedes a later one (whose seq the fire
        before drew during the run)."""
        fires = [t for t, fire in events_of("tree", self.ONE_STREAM, 1e-3, rate=400_000.0) if fire]
        log = []
        engaged = differential(
            "tree", self.ONE_STREAM, [1e-3], rate=400_000.0,
            **{queued: probing(log)(fires[which])},
        )
        assert any(engaged)
        assert log[0] == log[1]  # oracle, then the pass
        sent_by_then = which + (queued == "after" and which == 0)
        assert log[0][0] == sent_by_then

    def test_timer_on_an_arrivals_own_time(self):
        events = events_of("tree", self.ONE_TASK, 1e-3, rate=120_000.0)
        arrivals = [t for t, fire in events if not fire]
        log = []
        engaged = differential(
            "tree", self.ONE_TASK, [1e-3], rate=120_000.0,
            after=probing(log)(arrivals[len(arrivals) // 2]),
        )
        assert any(engaged) and log[0] == log[1]

    def test_timer_at_now(self):
        def at_now(net):
            net.engine.call_at(net.engine.now, noop)
            return ()

        engaged = differential(
            "tree", FOUR_TASKS, [5e-4, 1e-3], before=at_now,
            between=lambda sources: at_now(sources[0].network),
        )
        # Each run: nothing fits before the timer, one hand-back, a window.
        assert engaged[:4] == [False, True, False, True]

    def test_a_wall_of_timers_costs_one_scan(self, monkeypatch):
        """200 timers 2 us apart: no gap holds a budgeted window, so the
        run is one scan and the event loop."""
        scans = []
        window = portmajor._window
        monkeypatch.setattr(
            portmajor, "_window", lambda *args: (scans.append(args[1]), window(*args))[1]
        )
        engaged = differential("tree", FOUR_TASKS, [4e-4], before=wall_of_timers)
        # One per ``Network.run`` call; the oracle's ``engine.run`` makes none.
        assert engaged[0] is False and scans == [4e-4, 7e-4]

    def test_burst_fires_bound_windows(self):
        from repro.sim.sources import BurstSource

        def bursting(net):
            servers = net.topo.servers()
            BurstSource(net, servers[1], servers[-2], 2 * GBPS, burst_packets=8,
                        group="burst", flow_id=7, seed=1).start()
            return ()

        engaged = differential("mixed", FOUR_TASKS, [1e-3], before=bursting, rate=400_000.0)
        assert engaged.count(True) > 3  # a window per burst interval

    @pytest.mark.parametrize("ahead", [1, 3])
    def test_root_packet_with_a_dead_link_ahead(self, ahead):
        """The packet is the event loop's until it has detoured; the
        streams bound after the cut avoid the link by construction."""
        def cut_ahead(net):
            packet = crossing(net)
            net.fail_link(*packet.plan.keys[ahead])
            return [packet]

        engaged = differential("tree", FOUR_TASKS, [1e-3], before=cut_ahead, rate=120_000.0)
        assert engaged[0] is False and any(engaged)

    def test_dropped_root_packet(self):
        def severed(net):
            net.enable_fault_tracking()
            packet = crossing(net)
            net.engine.run(until=net.engine.peek_time())  # onto its second link
            assert net.fail_link(*packet.plan.keys[packet.hop]) == 1 and packet.dropped
            return [packet]

        engaged = differential("tree", FOUR_TASKS, [1e-3], before=severed, rate=120_000.0)
        assert engaged[0] is False and any(engaged)

    def test_deliveries_close_open_outages(self):
        """A root packet and a stream deliver while their flows await
        recovery: each outage closes at the flow's first delivery."""
        def awaiting(net):
            net.enable_fault_tracking()
            held = sent_ahead(net)
            for flow in ("sent", "task1", "never"):  # white box: as a drop opens one
                net.fault_stats.record_drop(flow, net.engine.now)
            return held

        closed = []
        real = portmajor._solve

        def solve(net, until, roots):
            real(net, until, roots)
            closed.append(dict(net.fault_stats.recovery_times_by_flow))

        portmajor._solve = solve
        try:
            engaged = differential("tree", FOUR_TASKS, [1e-3], before=awaiting)
        finally:
            portmajor._solve = real
        assert engaged[0] is True
        assert sorted(closed[0]) == ["sent", "task1"] and all(
            len(times) == 1 for times in closed[0].values()
        )

    @pytest.mark.parametrize("sizes", ["equal", "non_integer"])
    def test_delivery_bins_fill_as_the_callback_would(self, sizes):
        """Streams and packets in flight that carry a ``DeliveryBins``
        stay the pass's; two streams share a second one."""
        def legs(batch):
            net = build("tree", batch=batch)
            most, some = DeliveryBins(1e-4, 8), DeliveryBins(3e-5, 4)
            held = sent_ahead(net)
            for packet in held[::2]:
                packet.on_delivered = most
            sources = start_tasks(net, FOUR_TASKS, sizes=sizes, rate=120_000.0)
            for j, source in enumerate(sources):
                source.on_delivered = (most, some, None)[min(j % 7, 2)]
            prints = []
            for until in (4e-4, 1e-3):
                net.run(until=until)
                prints.append((fingerprint(net, sources, held), most.bits[:], some.bits[:]))
            return prints

        with watching() as engaged:
            got = legs(True)
        assert got == legs(False)
        assert engaged == [True, True] and min(got[-1][1]) > 0


# -- a tie between events at different hop depths on one port ---------------------

#: Everything below is a dyadic rational of few bits, so every float
#: addition is exact and ties can be placed by construction.
UNIT = 2.0 ** -20  # seconds: serialization of 1024 bytes at 2**33 bit/s
DYADIC = SwitchModel("DYADIC", latency=UNIT, cut_through=False, ports_10g=64, ports_40g=16)


def two_depths(slow_b):
    """A: hA → s0 → s1 → s2 → dA;  B: hB → s1 → s2 → dB.  Port s1→s2
    clocks A's packets at hop 2 and B's at hop 1."""
    register_model(DYADIC)
    topo = Topology("two-depths")
    for name in ("s0", "s1", "s2"):
        topo.add_switch(name, NodeKind.TOR, switch_model="DYADIC")
    for name in ("hA", "hB", "dA", "dB"):
        topo.add_server(name)
    rate = 2.0 ** 33
    for u, v, capacity in (
        ("hA", "s0", rate), ("s0", "s1", rate), ("s1", "s2", rate),
        ("s2", "dA", rate), ("s2", "dB", rate),
        ("hB", "s1", rate / 4 if slow_b else rate),
    ):
        topo.add_link(u, v, capacity, LinkKind.MESH)
    return topo


def run_two_depths(slow_b, batch):
    """Both sources replay the same dyadic gaps; B starts late by exactly
    the head start A's extra hop costs, so each A packet reaches port
    s1→s2 at the very time its B twin does.  In units of ``UNIT``, with
    A firing at ``T``: A reaches s0 at ``T + 3`` and s1 at ``T + 7``.

    ``slow_b=False``: B fires at ``T + 4`` — after A's parent (the
    arrival at s0), so A goes first although B is at the shallower hop.
    ``slow_b=True``: B's first link takes 4 units, B fires at ``T + 1``
    — before A's parent: B first, although A is the earlier root and the
    lower flow index.
    """
    topo = two_depths(slow_b)
    net = Network(topo, ECMPRouter(topo), propagation_delay=2 * UNIT)
    run = net.run if batch else net.engine.run
    gaps = [(6 + (k * 5) % 7) * UNIT for k in range(64)]
    head_start = (5 - (4 if slow_b else 1)) * UNIT
    sources = []
    for name, dst, delay, flow in (
        ("hA", "dA", 4 * UNIT, 0), ("hB", "dB", 4 * UNIT + head_start, 1)
    ):
        source = PoissonSource(net, name, dst, rate_pps=1e6, size_bytes=1024,
                               group=name, flow_id=flow, seed=flow)
        source._gaps = list(gaps)  # white box: the pre-drawn buffer, made exact
        source.start(delay)
        sources.append(source)
    until = 200 * UNIT
    with watching() as engaged:
        run(until=until)
        first = fingerprint(net, sources)
        run(until=until + 40 * UNIT)
    return engaged, first, fingerprint(net, sources)


class TestTieAcrossHopDepths:
    @pytest.mark.parametrize("slow_b", [False, True])
    def test_parent_order_decides(self, slow_b):
        engaged, *got = run_two_depths(slow_b, batch=True)
        _, *expected = run_two_depths(slow_b, batch=False)
        assert got == expected
        assert engaged[0] is True
        # The construction holds: every packet ties its twin on port
        # s1→s2 and the loser waits one serialization time, so each
        # stream reads one latency — unloaded (A: 15 units; B: 11, or 14
        # over the slow link) for the winner, one unit more for the loser.
        latency = {group: set(samples) for group, samples in got[1]["by_group"]}
        if slow_b:
            assert latency == {"hA": {16 * UNIT}, "hB": {14 * UNIT}}
        else:
            assert latency == {"hA": {15 * UNIT}, "hB": {12 * UNIT}}


# -- mutations the differential must catch ----------------------------------------


def mutated(monkeypatch, name):
    order = portmajor._Lineage.order
    if name == "time_only":
        monkeypatch.setattr(
            portmajor._Lineage, "order",
            lambda self, n, hop, t, child=None: np.argsort(t, kind="stable"),
        )
    elif name == "ties_by_flow_index":
        monkeypatch.setattr(
            portmajor._Lineage, "order",
            lambda self, n, hop, t, child=None: np.lexsort((n, t)),
        )
    elif name == "cummax":
        def cummax_tails(e, busy, ser):
            """The max-plus form of the recurrence, returned as the tails.
            ``_contended_tails`` locates its busy periods with this very
            formula — as a guess it then certifies; uncertified, it is not
            IEEE-identical to the recurrence and must fail."""
            i = np.arange(e.size)
            if isinstance(ser, float):
                offset = ser * i
                return ser * (i + 1) + np.maximum(busy, np.maximum.accumulate(e - offset))
            before = np.concatenate(([0.0], np.cumsum(ser)[:-1]))
            return (before + ser) + np.maximum(busy, np.maximum.accumulate(e - before))
        monkeypatch.setattr(portmajor, "_contended_tails", cummax_tails)
    elif name == "hand_back_in_packet_id_order":
        def by_packet_id(self, n, hop, t, child=None):
            if child is None:
                return order(self, n, hop, t)
            return np.lexsort((self.rank[n], child))  # packets by id, then the sources
        monkeypatch.setattr(portmajor._Lineage, "order", by_packet_id)


def mutated_roots(monkeypatch, name):
    """Wrong-but-plausible ways to take packets in flight as roots."""
    window, solve = portmajor._window, portmajor._solve

    def flown(roots):
        return [entry for entry in roots if isinstance(entry[4], portmajor.Packet)]

    if name == "roots_ranked_by_time_alone":
        def by_time(net, until):
            roots, *rest = window(net, until)
            return sorted(roots, key=lambda entry: (entry[0], -entry[1])), *rest
        monkeypatch.setattr(portmajor, "_window", by_time)
    elif name == "packet_ids_rank_roots_too":
        monkeypatch.setattr(
            portmajor._Lineage, "fire_rank", lambda self, columns, skip: self.rank[columns]
        )
    elif name == "credit_without_the_root_term":
        def uncorrected(net, until, roots):
            term = sum(-entry[4].hop for entry in flown(roots))  # Σ (1 − r)
            solve(net, until, roots)
            net.engine.events_processed -= term
        monkeypatch.setattr(portmajor, "_solve", uncorrected)
    elif name == "delivered_root_left_queued":
        def left_queued(net, until, roots):
            was = [(entry, entry[0], entry[1]) for entry in flown(roots)]
            solve(net, until, roots)
            for entry, time, seq in was:
                if entry[4].delivered_at is not None:
                    entry[0], entry[1] = time, seq
                    heapq.heappush(net.engine._heap, entry)
        monkeypatch.setattr(portmajor, "_solve", left_queued)


def mutated_bounds(monkeypatch, name):
    """Wrong-but-plausible ways to stop at a foreign entry."""
    window, solve = portmajor._window, portmajor._solve

    if name == "horizon_on_the_foreign_time":
        def inclusive(net, until):
            roots, horizon, resume, more = window(net, until)
            if not more and horizon < until:
                horizon = math.nextafter(horizon, math.inf)  # ``<=`` the timer
            return roots, horizon, resume, more
        monkeypatch.setattr(portmajor, "_window", inclusive)
    elif name == "hand_back_outside_the_flight_sets":
        def untracked(net, until, roots):
            solve(net, until, roots)
            for flight in net._in_flight.values():
                flight.clear()
        monkeypatch.setattr(portmajor, "_solve", untracked)


def cut_mid_run(net):
    """Tracking armed from the start, an uplink cut at 0.5 ms."""
    net.enable_fault_tracking()
    net.engine.call_at(5e-4, net.fail_link, "tor0.0", "agg0.0")
    return ()


class TestMutationsAreCaught:
    """Each wrong-but-plausible variant of the pass must fail the
    differential on a pinned scenario — the comparison has teeth."""

    LOCKSTEP = [("scatter", 0, 9, 3000), ("scatter", 5, 9, 3001),
                ("scatter", 10, 9, 3002), ("scatter", 15, 9, 3003)]

    @pytest.mark.parametrize(
        "name", ["time_only", "ties_by_flow_index", "cummax", "hand_back_in_packet_id_order"]
    )
    def test_fig17_shaped_cell(self, monkeypatch, name):
        differential("tree", self.LOCKSTEP, [6e-4, 1e-3], rate=120_000.0)
        mutated(monkeypatch, name)
        with pytest.raises(AssertionError):
            differential("tree", self.LOCKSTEP, [6e-4, 1e-3], rate=120_000.0)

    @pytest.mark.parametrize("name", [
        "roots_ranked_by_time_alone", "packet_ids_rank_roots_too",
        "credit_without_the_root_term", "delivered_root_left_queued",
    ])
    def test_chain_of_windows(self, monkeypatch, name):
        differential("tree", self.LOCKSTEP, [6e-4, 1e-3], cut=150, rate=120_000.0)
        mutated_roots(monkeypatch, name)
        # A delivered packet met again as a root has no row in the table.
        with pytest.raises((AssertionError, IndexError)):
            differential("tree", self.LOCKSTEP, [6e-4, 1e-3], cut=150, rate=120_000.0)

    def test_a_cut_after_a_window_severs_what_it_handed_back(self, monkeypatch):
        scenario = dict(before=cut_mid_run, rate=400_000.0)
        differential("tree", FOUR_TASKS, [1e-3], **scenario)
        mutated_bounds(monkeypatch, "hand_back_outside_the_flight_sets")
        with pytest.raises(AssertionError):
            differential("tree", FOUR_TASKS, [1e-3], **scenario)

    def test_what_ties_a_timer_is_the_event_loops(self, monkeypatch):
        mutated_bounds(monkeypatch, "horizon_on_the_foreign_time")
        with pytest.raises(AssertionError):
            TestForeignEntries().test_timer_on_a_fires_own_time("after", 200)

    def test_time_only_fails_on_the_deeper_hop_first_case(self, monkeypatch):
        mutated(monkeypatch, "time_only")
        assert run_two_depths(False, True)[1:] != run_two_depths(False, False)[1:]

    def test_flow_index_fails_on_the_later_root_first_case(self, monkeypatch):
        mutated(monkeypatch, "ties_by_flow_index")
        assert run_two_depths(True, True)[1:] != run_two_depths(True, False)[1:]


# -- observability ----------------------------------------------------------------


@pytest.fixture
def disarmed():
    obs.disarm()
    yield
    obs.disarm()


def armed_run(make_net, start, until=1e-3, run=None):
    """One armed ``Network.run`` (or ``run(net)``): ``(fingerprint, obs
    counters)``.  The network is built after ``obs.arm()``, so it
    reports into the armed registry."""
    obs.arm()
    try:
        net = make_net()
        sources = start(net)
        if run is None:
            net.run(until=until)
        else:
            run(net)
        return fingerprint(net, sources), dict(obs.registry().counters)
    finally:
        obs.disarm()


def armed_tree(**kwargs):
    def make_net():
        topo = TOPOLOGIES["tree"]()
        return Network(topo, ECMPRouter(topo), **kwargs)
    return make_net


def event_loop(net):
    """The pass's reference: the same horizon through ``engine.run``."""
    net.engine.run(until=1e-3)


def four_tasks(net):
    return start_tasks(net, FOUR_TASKS)


def decline(counters):
    (name,) = [n for n in counters if n.startswith("batch.standdown.")]
    return name.rsplit(".", 1)[1]


@pytest.mark.usefixtures("disarmed")
class TestObservability:
    def test_armed_equals_disarmed_and_counts_the_pass(self):
        armed, counters = armed_run(armed_tree(), four_tasks)
        plain = build("tree", batch=True)
        sources = four_tasks(plain)
        plain.run(until=1e-3)
        assert armed == fingerprint(plain, sources)
        assert counters["batch.cohorts"] == 1
        assert counters["batch.packets"] == armed["next_packet_id"] > 0
        assert not any(name.startswith("batch.standdown") for name in counters)

    def test_plan_counters_read_as_the_event_loop_leaves_them(self):
        _, with_pass = armed_run(armed_tree(), four_tasks)
        _, scalar = armed_run(armed_tree(), four_tasks, run=event_loop)
        for name in ("fastpath.plan_compiles", "fastpath.plan_hits"):
            assert with_pass[name] == scalar[name]
        # A stand-down after the routes were read binds nothing either.
        def ring():
            topo = ring_of_switches(5)
            return Network(topo, ECMPRouter(topo))

        _, cyclic = armed_run(ring, two_ahead)
        _, scalar = armed_run(ring, two_ahead, run=event_loop)
        assert decline(cyclic) == "cyclic_ports"
        for name in ("fastpath.plan_compiles", "fastpath.plan_hits"):
            assert cyclic[name] == scalar[name]

    def test_every_decline_is_named(self):
        def closed_loop(net):
            sources = four_tasks(net)
            sources[0].on_delivered = lambda packet, when: None
            return sources

        def ending(net):
            """Streams that stop by themselves: a run with no horizon ends."""
            sources = four_tasks(net)
            for source in sources:
                source.stop_at = 2e-4
            return sources

        def run_from_a_callback(net):
            """``Network.run`` called by an event of ``engine.run``: it
            is part of the window it would solve."""
            net.engine.call_at(1e-4, net.run, 5e-4)
            return four_tasks(net)

        class Misrouted(ECMPRouter):
            """A route that stops one node short of the destination."""

            def route(self, src, dst, flow_id=0):
                return super().route(src, dst, flow_id)[:-1]

        def misrouted():
            topo = TOPOLOGIES["tree"]()
            return Network(topo, Misrouted(topo))

        def run_misrouted(net):
            with pytest.raises(NetworkSimError, match="does not join"):
                net.run(until=1e-3)

        reasons = {
            "telemetry": armed_run(armed_tree(telemetry=True), four_tasks),
            "not_open_loop": armed_run(armed_tree(), ending, until=None),
            "closed_loop_source": armed_run(armed_tree(), closed_loop),
            "budget": armed_run(armed_tree(), four_tasks, until=1.0e-5),
            "bad_route": armed_run(misrouted, four_tasks, run=run_misrouted),
        }
        for expected, (_, counters) in reasons.items():
            assert decline(counters) == expected
        _, nested = armed_run(
            armed_tree(), run_from_a_callback, run=lambda net: net.engine.run(until=1e-3)
        )
        assert decline(nested) == "not_open_loop"

    def test_a_disarmed_run_names_its_declines(self, monkeypatch):
        """Fig. 17's jellyfish, scatter, 8 tasks, seed 0: two routes cross
        two ports in opposite orders.  With ``obs`` disarmed the network
        still says why the pass stood down; armed, the registry mirrors
        the count."""
        from repro.experiments import section7

        built = []

        class Recorded(Network):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(section7, "Network", Recorded)
        cell = ("jellyfish", "scatter", 8)
        section7.run_task_experiment(*cell, seed=0)
        (net,) = built
        assert net.obs is None and net.standdowns.get("cyclic_ports", 0) >= 1
        obs.arm()
        try:
            section7.run_task_experiment(*cell, seed=0)
            counters = dict(obs.registry().counters)
        finally:
            obs.disarm()
        assert built[1].standdowns == built[0].standdowns == {
            name.rsplit(".", 1)[1]: count
            for name, count in counters.items() if name.startswith("batch.standdown.")
        }

    def test_unroutable_fires_count_as_the_event_loop_counts_them(self):
        def partitioned():
            topo = TOPOLOGIES["mesh"]()
            return Network(topo, Partitioned(topo))

        def start(net):
            return start_tasks(net, [("scatter", 0, 9, 21)])

        solved, with_pass = armed_run(partitioned, start)
        scalar, without = armed_run(partitioned, start, run=event_loop)
        assert solved == scalar
        assert with_pass["batch.cohorts"] >= 1
        assert with_pass["drops.unroutable"] == without["drops.unroutable"] > 0
        # The pass counts the packets the event loop created: drops take no id.
        assert with_pass["batch.packets"] == scalar["next_packet_id"] > 0
        assert not any(name.startswith("batch.standdown") for name in with_pass)

    def test_a_wall_of_timers_is_one_decline(self):
        def walled(net):
            wall_of_timers(net)
            return four_tasks(net)

        _, counters = armed_run(armed_tree(), walled, until=4e-4)
        assert decline(counters) == "budget" and counters["batch.standdown.budget"] == 1
        assert counters["engine.runs"] == 1 and "batch.cohorts" not in counters

    def test_fault_tracking_and_dead_links_do_not_stand_the_pass_down(self):
        def tracked(net):
            net.enable_fault_tracking()
            return four_tasks(net)

        def cut(net):
            net.fail_link("tor0.0", "agg0.0")  # tor0.0 keeps agg0.1
            return four_tasks(net)

        for start in (tracked, cut):
            _, counters = armed_run(armed_tree(), start)
            assert counters["batch.cohorts"] == 1
            assert not any(name.startswith("batch.standdown") for name in counters)
