"""Every engine leg against the reference run and the model, over
generated scenarios.

One differential stands where four CI legs used to re-run the whole
suite on a reference path: a drawn scenario — fabric × router × Poisson
streams (single and multi destination, ``stop_at``,
``vary_flow_per_packet``) × burst source × cut/repair × horizon shape —
runs once as the **reference**: the forwarding kernel under
``engine.run``, Poisson draws packet by packet, telemetry armed.  It
must be matched, snapshot for snapshot, by the kernel run by
``engine.run`` and by ``Network.run`` (the port-major pass allowed),
both disarmed, and ``Network.run`` must match itself with
:mod:`repro.obs` armed.  These legs are what holds arming passive: no
test suite re-runs under an armed environment.  The fingerprint is
``tests/sim/test_fastpath.py``'s, plus the sources' counters.  Every
leg's final state must also pass the end-to-end benchmark's invariant
checks (``benchmarks/e2e/verify.py``), and an armed leg must charge
every drop to a port or to the unroutable count.

The legs share the kernel, so the kernel is held to the independent
model of ``tests/sim/model.py`` too: fed the fires the ``engine.run``
leg made and the same fault timeline, the model must reach the same
latency samples, in delivery order, the same counters and the same port
state, bit for bit.

Seeds and rates come from small sets on purpose: streams that share a
seed and a rate share their whole gap sequence, so same-timestamp
events — the order the port-major pass must rebuild — are common.  The
lockstep family goes further and places ties by construction.
"""

import importlib.util
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings, strategies as st

import repro.topology as T
from repro import obs
from repro.routing import ECMPRouter, KShortestPathsRouter, VLBRouter
from repro.sim import Network, portmajor
from repro.sim.network import DEFAULT_PROPAGATION_DELAY, DEFAULT_SERVER_FORWARD_LATENCY
from repro.sim.sources import BurstSource, PoissonSource
from repro.sim.switch import SwitchModel, register_model
from repro.topology.base import LinkKind, NodeKind, Topology
from repro.units import GBPS
from tests.sim.model import FabricModel, outcome, record_fires
from tests.sim.test_fastpath import network_fingerprint, per_packet_draws

#: The lockstep fabric's time unit: every time on it is a dyadic
#: rational of few bits, so every float addition is exact and ties are
#: placed by construction.  One unit serializes 1024 bytes at 2**33 b/s.
UNIT = 2.0 ** -20
LOCKSTEP = SwitchModel("LOCKSTEP", latency=UNIT, cut_through=False, ports_10g=64, ports_40g=16)
register_model(LOCKSTEP)


def lockstep_line():
    """Four store-and-forward switches in a row, two servers on each.
    With two units of propagation a 1024-byte packet takes four units
    per hop up to the last switch — two of serialization on a 2**32 b/s
    host link; one of latency and one of serialization on a 2**33 b/s
    switch link — and five into its server."""
    topo = Topology("lockstep-line")
    for s in range(4):
        topo.add_switch(f"s{s}", NodeKind.TOR, rack=s, switch_model="LOCKSTEP")
        for k in range(2):
            topo.add_server(f"h{s}.{k}", rack=s)
            topo.add_link(f"h{s}.{k}", f"s{s}", 2.0 ** 32, LinkKind.HOST)
    for s in range(3):
        topo.add_link(f"s{s}", f"s{s + 1}", 2.0 ** 33, LinkKind.MESH)
    return topo


FABRICS = {
    "ring": lambda: T.quartz_ring(num_switches=4, servers_per_switch=2),
    # 10 G hosts under 40 G uplinks: cut-through credit min(ser_in, ser_out).
    "tree": lambda: T.three_tier_tree(num_pods=2, tors_per_pod=2, servers_per_tor=2),
    "jellyfish": lambda: T.jellyfish(
        num_switches=8, network_degree=3, servers_per_switch=1, seed=7
    ),
    "line": lockstep_line,
}
ROUTERS = {"ecmp": ECMPRouter, "vlb": VLBRouter, "kshortest": KShortestPathsRouter}
#: VLB spreads over mesh links, which only the Quartz ring has.
FABRIC_ROUTERS = [
    (fabric, router) for fabric in sorted(FABRICS) for router in sorted(ROUTERS)
    if fabric != "line" and (router != "vlb" or fabric == "ring")
]
HORIZON = 4e-4
#: A lockstep source fires every four units, what a hop costs.
LOCKSTEP_GAP = 4 * UNIT


def delays(fabric):
    """The network's three delay constants, which the model is given too."""
    return {
        "propagation_delay": 2 * UNIT if fabric == "line" else DEFAULT_PROPAGATION_DELAY,
        "server_forward_latency": DEFAULT_SERVER_FORWARD_LATENCY,
        "host_receive_latency": 0.0,
    }


_VERIFY = importlib.util.spec_from_file_location(
    "e2e_verify", Path(__file__).parents[2] / "benchmarks" / "e2e" / "verify.py"
)
verify = importlib.util.module_from_spec(_VERIFY)
_VERIFY.loader.exec_module(verify)

# Every fabric has eight servers; a destination is an offset from its source.
fractions = st.sampled_from([0.25, 0.5, 0.75])
cuts = st.none() | st.tuples(fractions, st.none() | fractions, st.integers(0, 3), st.booleans())
#: After a repair, cut the same link again this share of the horizon later.
recuts = st.none() | st.sampled_from([1 / 128, 1 / 16])


def shapes(owned):
    """Scenario shapes.  The port-major pass owns plain
    single-destination streams and solves the windows between whatever
    else is queued — a cut, a repair, a ``stop_at``, a burst — but one
    multi-destination or per-packet-flow stream leaves the whole run to
    the event loop, and free draws almost always hold one; so half the
    draws are held to streams the pass owns, among everything that
    bounds its windows; the other half roam."""
    def unless_owned(strategy, plain):
        return st.just(plain) if owned else st.just(plain) | strategy

    stream = st.fixed_dictionaries({
        "src": st.integers(0, 7),
        "dsts": st.lists(
            st.integers(1, 7), min_size=1, max_size=1 if owned else 3, unique=True
        ),
        "rate": st.sampled_from([100_000.0, 400_000.0, 2_000_000.0]),
        "seed": st.integers(0, 2),
        "stop_at": st.none() | fractions,
        "vary_flow": unless_owned(st.just(True), plain=False),
    })
    return st.fixed_dictionaries({
        "fabric_router": st.sampled_from(FABRIC_ROUTERS),
        "streams": st.lists(stream, min_size=1, max_size=6),
        "burst": st.none() | st.tuples(st.integers(0, 7), st.integers(1, 7)),
        # (cut at, repair after or never, which link of stream 0's route —
        #  its server's only uplink included: every packet to or from an
        #  isolated server is counted unroutable, on every router —
        #  whether in-flight tracking is armed before the first packet)
        "cut": cuts,
        "recut": recuts,
        "horizon": st.sampled_from(["run", "split"]),
    })


def lockstep_shapes():
    """The tie family.  On :func:`lockstep_line` every source fires every
    four units, which is what a hop costs: fire ``n + k`` of a source
    ties the ``k``-th arrival of its packet ``n``, for every ``k`` up to
    the last switch — two descendants of fire ``n`` at equal depth, tied
    at every generation between — and every source's fires tie every
    other source's, or trail them by a whole number of units
    (``offset``), so packets meet at different depths.  Streams the pass owns, so the
    windows rebuild those ties."""
    stream = st.fixed_dictionaries({
        "src": st.integers(0, 7),
        "dsts": st.lists(st.integers(1, 7), min_size=1, max_size=1),
        "rate": st.just(1 / LOCKSTEP_GAP),
        "seed": st.just(0),
        "stop_at": st.none() | fractions,
        "vary_flow": st.just(False),
        "offset": st.integers(0, 3),
    })
    return st.fixed_dictionaries({
        "fabric_router": st.just(("line", "ecmp")),
        "streams": st.lists(stream, min_size=1, max_size=4),
        "burst": st.none(),
        "cut": cuts,
        "recut": recuts,
        "horizon": st.sampled_from(["run", "split"]),
    })


def build_leg(shape, telemetry=False, record=False):
    """The shape's network with its sources started and its faults
    scheduled: ``(net, sources, cut, fires)``, ``cut`` the scheduled
    ``(at, repair at or None, re-cut at or None, u, v, armed)`` or
    ``None``, and ``fires`` each source's fire record when ``record``,
    else ``None``."""
    fabric, router = shape["fabric_router"]
    topo = FABRICS[fabric]()
    net = Network(topo, ROUTERS[router](topo), telemetry=telemetry, **delays(fabric))
    servers = topo.servers()
    lockstep = fabric == "line"
    sources = []
    for flow, spec in enumerate(shape["streams"]):
        dsts = [servers[(spec["src"] + d) % 8] for d in spec["dsts"]]
        source = PoissonSource(
            net, servers[spec["src"]], dsts if len(dsts) > 1 else dsts[0],
            rate_pps=spec["rate"], size_bytes=1024 if lockstep else 400,
            group=f"g{flow % 2}", flow_id=flow * 1000, seed=spec["seed"],
            stop_at=spec["stop_at"] and spec["stop_at"] * HORIZON,
            vary_flow_per_packet=spec["vary_flow"],
        )
        if lockstep:  # white box: the pre-drawn gaps, made exact
            source._gaps = [LOCKSTEP_GAP] * (int(HORIZON / LOCKSTEP_GAP) + 8)
        sources.append(source)
    cut = None
    if shape["cut"] is not None:
        at, repair_after, pick, armed = shape["cut"]
        first = sources[0]
        route = net.router.route(first.src, first._dsts[0], first.flow_id)
        # The source's uplink, then the switch-to-switch links.
        links = list(zip(route[:-2], route[1:-1]))
        u, v = links[pick % len(links)]
        if armed:
            net.enable_fault_tracking()
        net.engine.schedule(at * HORIZON, net.fail_link, u, v)
        repair_at = recut_at = None
        if repair_after is not None:
            repair_at = (at + repair_after / 4) * HORIZON
            net.engine.schedule(repair_at, net.repair_link, u, v)
            if shape.get("recut") is not None:
                recut_at = repair_at + shape["recut"] * HORIZON
                net.engine.schedule(recut_at, net.fail_link, u, v)
        cut = (at * HORIZON, repair_at, recut_at, u, v, armed)
    if shape["burst"] is not None:
        src, offset = shape["burst"]
        sources.append(BurstSource(
            net, servers[src], servers[(src + offset) % 8], 4 * GBPS,
            burst_packets=8, group="burst", flow_id=7, seed=1,
        ))
    fires = record_fires(net, sources) if record else None
    for spec, source in zip(shape["streams"], sources):
        source.start(spec.get("offset", 0) * UNIT)
    for source in sources[len(shape["streams"]):]:
        source.start()
    return net, sources, cut, fires


def run_leg(shape, reference=False, batch=False, record=False, observed=False):
    """``(snapshots, net, cut, fires)``: snapshots after every ``run``
    call of the shape's horizon, through ``Network.run`` with ``batch``,
    else through ``engine.run``.  The ``reference`` leg draws packet by
    packet and arms telemetry; the ``observed`` leg runs with
    :mod:`repro.obs` armed, which is disarmed again after it."""
    if observed:
        obs.arm()
    try:
        return _run_leg(shape, reference, batch, record)
    finally:
        if observed:
            obs.disarm()


def _run_leg(shape, reference, batch, record):
    with per_packet_draws(reference):
        net, sources, cut, fires = build_leg(shape, reference, record)
        run = net.run if batch else net.engine.run

        def snapshot():
            return network_fingerprint(net) + (
                net._next_packet_id, tuple(s.packets_sent for s in sources),
                net.packets_unroutable, pending(net, sources),
            )

        snapshots = []
        if shape["horizon"] == "split":
            run(until=HORIZON * 0.4)
            snapshots.append(snapshot())
        run(until=HORIZON)
        snapshots.append(snapshot())
    assert verify.network_errors(net) == []
    if reference:
        tele = net.telemetry
        assert tele.total_drops() + tele.unroutable == net.packets_dropped
    return snapshots, net, cut, fires


def pending(net, sources):
    """The queue in the order it will run, ``(time, seq)``: each entry a
    timer, a source's fire or a packet's next arrival.  The pass hands
    back what is pending with fresh seqs; they must rank it as the event
    loop would have."""
    def identity(entry):
        if entry[3] is not None:
            return (entry[0], "timer")
        arg = entry[4]
        if isinstance(arg, int):  # a fire chain carries its source's generation
            return (entry[0], "fire", sources.index(entry[2].__self__), arg)
        return (entry[0], "packet", arg.packet_id, arg.hop, arg.path)

    return tuple(identity(entry) for entry in sorted(net.engine._heap, key=lambda e: e[:2]))


def model_run(shape, cut, fires):
    """The model, given the fires and the fault timeline in the order
    :func:`build_leg` scheduled them."""
    fabric, router = shape["fabric_router"]
    topo = FABRICS[fabric]()
    model = FabricModel(
        topo, ROUTERS[router](topo), tracked=cut is not None and cut[5], **delays(fabric)
    )
    if cut is not None:
        at, repair_at, recut_at, u, v, _ = cut
        model.cut(at, u, v)
        if repair_at is not None:
            model.repair(repair_at, u, v)
        if recut_at is not None:
            model.cut(recut_at, u, v)
    for record in fires:
        model.source(record)
    model.run(HORIZON)
    return model.outcome()


def disarmed(snapshots):
    """What a run shows with telemetry off: no window dump, no stamps."""
    return [fp[:8] + fp[10:] for fp in snapshots]


def check_legs(shape):
    reference, *_ = run_leg(shape, reference=True)
    kernel, net, cut, fires = run_leg(shape, record=True)
    assert disarmed(kernel) == disarmed(reference)
    assert model_run(shape, cut, fires) == outcome(net)
    batched, *_ = run_leg(shape, batch=True)
    assert disarmed(batched) == disarmed(reference)
    observed, net, *_ = run_leg(shape, batch=True, observed=True)
    assert net.obs is not None and not obs.armed()
    assert observed == batched


def bounded_windows(router):
    """Plain streams among everything that bounds a window without
    taking the run from the pass: a stream that stops, a burst source,
    armed tracking, a cut on stream 0's route and its repair."""
    stream = {"rate": 2_000_000.0, "stop_at": None, "vary_flow": False}
    return {
        "fabric_router": ("ring", router),
        "streams": [
            {"src": 0, "dsts": [5], "seed": 0, **stream},
            {"src": 3, "dsts": [6], "seed": 0, **stream},
            {"src": 6, "dsts": [1], "seed": 1, **stream, "stop_at": 0.5},
        ],
        "burst": (2, 3),
        "cut": (0.25, 0.75, 1, True),
        "horizon": "split",
    }


def isolated_server(fabric, router):
    """Server 0 loses its only uplink for an eighth of the horizon while
    it streams and bursts, and while server 3 streams to it."""
    stream = {"rate": 2_000_000.0, "seed": 0, "stop_at": None, "vary_flow": False}
    return {
        "fabric_router": (fabric, router),
        "streams": [{"src": 0, "dsts": [5], **stream}, {"src": 3, "dsts": [5], **stream}],
        "burst": (0, 3),
        "cut": (0.25, 0.5, 0, True),
        "horizon": "split",
    }


def shared_outage(fabric, router):
    """``isolated_server`` plus a third stream, clear of server 0, in
    stream 0's group (``g0``): through the outage each of its deliveries
    closes the group's outage and stream 0's next fire, unroutable,
    opens it again."""
    shape = isolated_server(fabric, router)
    shape["streams"] = shape["streams"] + [dict(shape["streams"][0], src=2, dsts=[3], seed=1)]
    return shape


def rapid_recut():
    """``bounded_windows`` with the link cut again 3 us after its
    repair, while the packets injected after the splice still cross it."""
    return dict(bounded_windows("ecmp"), recut=1 / 128)


def converging_lockstep():
    """Three lockstep sources whose packets meet on the s1→s2 and s2→s3
    ports, split horizon."""
    stream = {"rate": 1 / LOCKSTEP_GAP, "seed": 0, "stop_at": None, "vary_flow": False}
    return {
        "fabric_router": ("line", "ecmp"),
        "streams": [
            {"src": 0, "dsts": [5], **stream, "offset": 0},
            {"src": 2, "dsts": [3], **stream, "offset": 0},
            {"src": 1, "dsts": [6], **stream, "offset": 1, "stop_at": 0.75},
        ],
        "burst": None,
        "cut": None,
        "horizon": "split",
    }


@settings(max_examples=25, deadline=None, derandomize=True, print_blob=True)
@given(shape=st.booleans().flatmap(shapes))
@example(shape=isolated_server("ring", "ecmp"))
@example(shape=isolated_server("ring", "kshortest"))
@example(shape=isolated_server("ring", "vlb"))
@example(shape=isolated_server("tree", "ecmp"))
@example(shape=shared_outage("ring", "ecmp"))
@example(shape=shared_outage("ring", "vlb"))
@example(shape=shared_outage("tree", "ecmp"))
@example(shape=bounded_windows("ecmp"))
@example(shape=bounded_windows("vlb"))
@example(shape=rapid_recut())
def test_every_leg_matches_the_oracle(shape):
    check_legs(shape)


@settings(max_examples=10, deadline=None, derandomize=True, print_blob=True)
@given(shape=lockstep_shapes())
@example(shape=converging_lockstep())
def test_lockstep_ties_match_the_oracle(shape):
    check_legs(shape)


def test_lockstep_ties_are_placed(monkeypatch):
    """The construction holds: the pass solves the lockstep windows, and
    it orders events that tie a descendant of the same fire at equal
    depth — arrival ``(n, h)`` against ``(n + 1, h − 1)``.  And the
    first window, fire chains only, ranks its lockstep fires right at
    once: the first guess (queue order) is confirmed by one sort."""
    sorts = []
    rank = portmajor._Lineage._rank

    def counting_rank(*args):
        lexsort = np.lexsort
        calls = []
        monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(keys) or lexsort(keys))
        try:
            return rank(*args)
        finally:
            monkeypatch.setattr(np, "lexsort", lexsort)
            sorts.append(len(calls))

    monkeypatch.setattr(portmajor._Lineage, "_rank", staticmethod(counting_rank))
    tied = []
    order = portmajor._Lineage.order

    def watching(self, n, hop, t, child=None):
        events = set(zip(t.tolist(), n.tolist(), hop.tolist()))
        tied.extend(
            (time, col + 1, depth - 1) in events for time, col, depth in events if depth
        )
        return order(self, n, hop, t, child)

    monkeypatch.setattr(portmajor._Lineage, "order", watching)
    solved = []
    solve = portmajor._solve
    monkeypatch.setattr(
        portmajor, "_solve",
        lambda net, until, roots: (solve(net, until, roots), solved.append(until)),
    )
    run_leg(converging_lockstep(), batch=True)
    assert solved and any(tied)
    assert sorts[0] == 2  # the guess, and the sort that confirms it


def test_what_bounds_a_window_does_not_stand_the_pass_down(monkeypatch):
    solved = []
    solve = portmajor._solve
    monkeypatch.setattr(
        portmajor, "_solve",
        lambda net, until, roots: (solve(net, until, roots), solved.append(until)),
    )
    run_leg(bounded_windows("ecmp"), batch=True)
    # A burst every 24 us of the 400: a window between each two, through
    # the cut at 100 us, the repair at 175 us and the ``stop_at`` at 200.
    assert len(solved) >= 12 and max(solved) > 0.9 * HORIZON


def test_a_partitioned_window_is_solved(monkeypatch):
    """Between the cut of server 0's uplink and its repair every packet
    to or from server 0 is unroutable: the pass solves that stretch
    (server 0's fires as drops) instead of leaving it to the event
    loop."""
    windows = []
    solve = portmajor._solve
    monkeypatch.setattr(
        portmajor, "_solve",
        lambda net, until, roots: (solve(net, until, roots), windows.append((roots[0][0], until))),
    )
    shape = isolated_server("ring", "ecmp")
    run_leg(shape, batch=True)
    at, repair_after, _, _ = shape["cut"]
    cut, repair = at * HORIZON, (at + repair_after / 4) * HORIZON
    assert any(cut <= first and until < repair for first, until in windows)
