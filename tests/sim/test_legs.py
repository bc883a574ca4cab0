"""Every engine leg against the oracle, over generated scenarios.

One differential stands where four CI legs used to re-run the whole
suite on a reference path: a drawn scenario — fabric × router × Poisson
streams (single and multi destination, ``stop_at``,
``vary_flow_per_packet``) × burst source × cut/repair × horizon shape —
runs once on the ``fastpath=False`` oracle (per-packet draws, telemetry
armed) and must be matched, snapshot for snapshot, by the scalar
kernel run by ``engine.run``, the kernel run by ``Network.run`` (the
port-major pass allowed), and the kernel with telemetry armed.  The fingerprint is
``tests/sim/test_fastpath.py``'s, plus the sources' counters.  Every
leg's final state must also pass the end-to-end benchmark's invariant
checks (``benchmarks/e2e/verify.py``), and an armed leg must charge
every drop to a port or to the unroutable count.

Seeds and rates come from small sets on purpose: streams that share a
seed and a rate share their whole gap sequence, so same-timestamp
events — the order the port-major pass must rebuild — are common.
"""

import importlib.util
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

import repro.topology as T
from repro.routing import ECMPRouter, KShortestPathsRouter, VLBRouter
from repro.sim import Network, portmajor
from repro.sim.sources import BurstSource, PoissonSource
from repro.units import GBPS
from tests.sim.test_fastpath import network_fingerprint, per_packet_draws

FABRICS = {
    "ring": lambda: T.quartz_ring(num_switches=4, servers_per_switch=2),
    # 10 G hosts under 40 G uplinks: cut-through credit min(ser_in, ser_out).
    "tree": lambda: T.three_tier_tree(num_pods=2, tors_per_pod=2, servers_per_tor=2),
    "jellyfish": lambda: T.jellyfish(
        num_switches=8, network_degree=3, servers_per_switch=1, seed=7
    ),
}
ROUTERS = {"ecmp": ECMPRouter, "vlb": VLBRouter, "kshortest": KShortestPathsRouter}
#: VLB spreads over mesh links, which only the Quartz ring has.
FABRIC_ROUTERS = [
    (fabric, router) for fabric in sorted(FABRICS) for router in sorted(ROUTERS)
    if router != "vlb" or fabric == "ring"
]
HORIZON = 4e-4

_VERIFY = importlib.util.spec_from_file_location(
    "e2e_verify", Path(__file__).parents[2] / "benchmarks" / "e2e" / "verify.py"
)
verify = importlib.util.module_from_spec(_VERIFY)
_VERIFY.loader.exec_module(verify)

# Every fabric has eight servers; a destination is an offset from its source.
fractions = st.sampled_from([0.25, 0.5, 0.75])


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
        "cut": st.none() | st.tuples(
            fractions, st.none() | fractions, st.integers(0, 3), st.booleans()
        ),
        "horizon": st.sampled_from(["run", "split"]),
    })


def run_leg(shape, fastpath, batch=False, telemetry=False):
    """Snapshots after every ``run`` call of the shape's horizon: through
    ``Network.run`` with ``batch``, else through ``engine.run``."""
    with per_packet_draws(not fastpath):  # the oracle draws packet by packet
        return _run_leg(shape, fastpath, batch, telemetry)


def _run_leg(shape, fastpath, batch, telemetry):
    fabric, router = shape["fabric_router"]
    topo = FABRICS[fabric]()
    net = Network(topo, ROUTERS[router](topo), fastpath=fastpath, telemetry=telemetry)
    run = net.run if batch else net.engine.run
    servers = topo.servers()
    sources = []
    for flow, spec in enumerate(shape["streams"]):
        dsts = [servers[(spec["src"] + d) % 8] for d in spec["dsts"]]
        sources.append(PoissonSource(
            net, servers[spec["src"]], dsts if len(dsts) > 1 else dsts[0],
            rate_pps=spec["rate"],
            group=f"g{flow % 2}", flow_id=flow * 1000, seed=spec["seed"],
            stop_at=spec["stop_at"] and spec["stop_at"] * HORIZON,
            vary_flow_per_packet=spec["vary_flow"],
        ))
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
        if repair_after is not None:
            net.engine.schedule(
                (at + repair_after / 4) * HORIZON, net.repair_link, u, v
            )
    if shape["burst"] is not None:
        src, offset = shape["burst"]
        sources.append(BurstSource(
            net, servers[src], servers[(src + offset) % 8], 4 * GBPS,
            burst_packets=8, group="burst", flow_id=7, seed=1,
        ))
    for source in sources:
        source.start()

    def snapshot():
        return network_fingerprint(net) + (
            net._next_packet_id, tuple(s.packets_sent for s in sources),
            net.packets_unroutable,
        )

    snapshots = []
    if shape["horizon"] == "split":
        run(until=HORIZON * 0.4)
        snapshots.append(snapshot())
    run(until=HORIZON)
    snapshots.append(snapshot())
    assert verify.network_errors(net) == []
    if telemetry:
        tele = net.telemetry
        assert tele.total_drops() + tele.unroutable == net.packets_dropped
    return snapshots


def disarmed(snapshots):
    """What a run shows with telemetry off: no window dump, no stamps."""
    return [fp[:8] + fp[10:] for fp in snapshots]


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
def test_every_leg_matches_the_oracle(shape):
    oracle = run_leg(shape, fastpath=False, telemetry=True)
    assert run_leg(shape, fastpath=True, telemetry=True) == oracle
    for batch in (False, True):
        kernel = run_leg(shape, fastpath=True, batch=batch)
        assert disarmed(kernel) == disarmed(oracle)


def test_what_bounds_a_window_does_not_stand_the_pass_down(monkeypatch):
    solved = []
    solve = portmajor._solve
    monkeypatch.setattr(
        portmajor, "_solve",
        lambda net, until, roots: (solve(net, until, roots), solved.append(until)),
    )
    run_leg(bounded_windows("ecmp"), fastpath=True, batch=True)
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
    run_leg(shape, fastpath=True, batch=True)
    at, repair_after, _, _ = shape["cut"]
    cut, repair = at * HORIZON, (at + repair_after / 4) * HORIZON
    assert any(cut <= first and until < repair for first, until in windows)
