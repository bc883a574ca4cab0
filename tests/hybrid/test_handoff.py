"""The delta residual hand-off against a full-scan oracle.

``HybridNetwork._apply_residuals`` rewrites only the links whose
effective capacity moved, found by comparing vectors.  The oracle below
is the hand-off it replaced — a scan of every ``_link_rec`` entry
against the solution's residual *dict* — kept here as the reference the
vector form must match exactly: same records, same timeline contents
and key order, same epoch counters, under random background schedules
interleaved with cuts and repairs.  A second reference, the Python scan
over every active flow × path × hop, pins which background flows a cut
re-paths.  A third, a subclass that drops every compiled plan at every
epoch that moved a link, pins that keeping the plans no moved link lies
on changes nothing a foreground packet can see.
"""

import pytest
from hypothesis import given, settings, strategies as st

import repro.topology as T
from repro.hybrid import BackgroundFlow, HybridNetwork
from repro.hybrid import engine as hybrid_engine
from repro.routing import ECMPRouter, VLBRouter
from repro.sim import Network
from repro.sim.sources import PoissonSource
from repro.topology.base import LinkKind, NodeKind, Topology
from repro.units import BITS_PER_BYTE, GBPS
from tests.sim.model import outcome
from tests.sim.test_fastpath import model_of

HORIZON = 1e-3
RING = (4, 2)  # switches, servers per switch


class FullScanNetwork(HybridNetwork):
    """``HybridNetwork`` with the pre-vector, every-link hand-off."""

    def __init__(self, *args, **kwargs):
        # The floor as ``HybridNetwork`` reads it: once, when built.
        self.min_residual_fraction = hybrid_engine.DEFAULT_MIN_RESIDUAL_FRACTION
        super().__init__(*args, **kwargs)

    def _apply_residuals(self) -> None:
        residual = self._solver.solve().residual
        changed = {}
        for key, rec in self._link_rec.items():
            base = self._capacity[key]
            eff = residual.get(key, base)
            floor = self.min_residual_fraction * base
            if eff < floor:
                eff = floor
            if eff != rec[2]:
                self._link_rec[key] = (BITS_PER_BYTE / eff, rec[1], eff)
                changed[key] = eff
        self.epochs += 1
        if changed:
            self._invalidate_plans()
            self.residual_epoch += 1
            if self.record_timeline:
                self.residual_timeline.append((self.engine.now, changed))


def crossing_by_scan(net, u, v):
    """Active background flows with a hop on ``u — v``, by walking paths."""
    dead = {(u, v), (v, u)}
    return {
        fid
        for fid, (_, fluid) in net._active_bg.items()
        if any(
            (wp.path[i], wp.path[i + 1]) in dead
            for wp in fluid.paths
            for i in range(len(wp.path) - 1)
        )
    }


def build(cls, flow_specs, fault_specs, vlb, floor):
    topo = T.quartz_ring(*RING)
    servers = topo.servers()
    links = [(link.u, link.v) for link in topo.links()]
    flows = [
        BackgroundFlow(
            1_000_000 + i,
            servers[src % len(servers)],
            servers[(src + 1 + off % (len(servers) - 1)) % len(servers)],
            demand * GBPS,
            start,
            start + duration,
        )
        for i, (src, off, demand, start, duration) in enumerate(flow_specs)
    ]
    router = VLBRouter(topo, direct_fraction=0.7) if vlb else ECMPRouter(topo)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hybrid_engine, "DEFAULT_MIN_RESIDUAL_FRACTION", floor)
        net = cls(topo, router, flows)
    for when, repair, index in fault_specs:
        action = net.repair_link if repair else net.fail_link
        net.engine.call_at(when, action, *links[index % len(links)])
    return net


def handoff_state(net):
    return {
        "records": [(key, rec[0], rec[2]) for key, rec in net._link_rec.items()],
        "timeline": [(t, list(changed.items())) for t, changed in net.residual_timeline],
        "effective": [net.effective_capacity(*key) for key in net._link_rec],
        "counters": (net.epochs, net.residual_epoch, net.background_unroutable),
        "rates": net.background_rates(),
    }


times = st.floats(0.0, HORIZON, allow_nan=False)
flow_specs = st.lists(
    st.tuples(
        st.integers(0, 7),
        st.integers(0, 6),
        st.sampled_from([0.5, 3.0, 6.0, 20.0]),
        times,
        st.floats(1e-6, HORIZON, allow_nan=False),
    ),
    min_size=1,
    max_size=10,
)
fault_specs = st.lists(
    st.tuples(times, st.booleans(), st.integers(0, 40)), max_size=6
)


class TestDeltaHandoffMatchesFullScan:
    @given(flow_specs, fault_specs, st.booleans(), st.sampled_from([0.01, 0.3]))
    @settings(max_examples=60, deadline=None)
    def test_records_timeline_and_capacities_identical(
        self, flows, faults, vlb, floor
    ):
        delta = build(HybridNetwork, flows, faults, vlb, floor)
        oracle = build(FullScanNetwork, flows, faults, vlb, floor)
        for until in (HORIZON / 2, 3 * HORIZON):  # mid-run and drained
            delta.run(until=until)
            oracle.run(until=until)
            assert handoff_state(delta) == handoff_state(oracle)

    def test_hand_computed_timeline(self):
        """A floor that binds, a cut link on its floor, links restored —
        the cases the property above must be reaching to mean anything."""
        flows = [(0, 0, 20.0, 0.0, 4e-4), (1, 2, 6.0, 1e-4, 2e-4)]
        faults = [(2e-4, False, 0), (3e-4, True, 0)]
        net = build(HybridNetwork, flows, faults, False, 0.3)
        net.run(until=3 * HORIZON)
        floor, full = 0.3 * (10 * GBPS), 10 * GBPS
        assert [changed for _, changed in net.residual_timeline] == [
            {("h0.0", "tor0"): floor, ("tor0", "h0.1"): floor},  # 20G into 10G
            {("tor0", "tor2"): 4 * GBPS, ("h0.1", "tor0"): 4 * GBPS,
             ("tor2", "h2.0"): 4 * GBPS},
            {("tor0", "tor1"): floor, ("tor1", "tor0"): floor},  # the cut
            {("tor0", "tor1"): full, ("tor1", "tor0"): full},  # the repair
            {("tor0", "tor2"): full, ("h0.1", "tor0"): full, ("tor2", "h2.0"): full},
            {("h0.0", "tor0"): full, ("tor0", "h0.1"): full},
        ]
        rank = {key: i for i, key in enumerate(net._link_rec)}
        for _, changed in net.residual_timeline:
            assert list(changed) == sorted(changed, key=rank.__getitem__)


class TestCutRepathsTheCrossingFlows:
    def test_repathed_set_matches_path_scan_on_a_multi_cut_schedule(self):
        topo = T.quartz_ring(5, 2)
        servers = topo.servers()
        flows = [
            BackgroundFlow(
                1_000_000 + i, servers[i], servers[(i + 3) % len(servers)],
                2 * GBPS, 0.0, 1.0,
            )
            for i in range(len(servers))
        ]
        net = HybridNetwork(topo, ECMPRouter(topo), flows)
        net.run(until=1e-4)
        mesh = [
            (link.u, link.v) for link in topo.links()
            if not link.u.startswith("h") and not link.v.startswith("h")
        ]
        uplink = next(
            (link.u, link.v) for link in topo.links()
            if link.u.startswith("h") or link.v.startswith("h")
        )
        moved_any = False
        for step, cut in enumerate([mesh[0], mesh[3], uplink, mesh[5]]):
            if step == 2:
                net.repair_link(*mesh[0])  # repairs re-path nobody
            expected = crossing_by_scan(net, *cut)
            assert set(net._solver.flows_crossing(*cut)) == expected
            before = {fid: fluid for fid, (_, fluid) in net._active_bg.items()}
            net.fail_link(*cut)
            after = {fid: fluid for fid, (_, fluid) in net._active_bg.items()}
            repathed = {fid for fid in before if after.get(fid) is not before[fid]}
            assert repathed == expected
            assert not crossing_by_scan(net, *cut)  # nobody left on the cut
            moved_any = moved_any or bool(expected)
        assert moved_any
        assert net._parked_bg  # the uplink cut stranded its server's flows


class AlwaysInvalidateNetwork(HybridNetwork):
    """``HybridNetwork`` dropping every plan whenever any link moved."""

    def _apply_residuals(self) -> None:
        before = self.residual_epoch
        super()._apply_residuals()
        if self.residual_epoch != before:
            self._invalidate_plans()


class NeverInvalidateNetwork(HybridNetwork):
    """The mutant: residual epochs leave every compiled plan alone."""

    def _apply_residuals(self) -> None:
        plans, flows = dict(self._plans), dict(self._flows)
        super()._apply_residuals()
        self._plans.update(plans)
        self._flows.update(flows)


def start_foreground(net, fg_specs):
    """Poisson foreground streams, ``(src, offset, rate)`` per stream."""
    servers = net.topo.servers()
    sources = [
        PoissonSource(
            net,
            servers[src % len(servers)],
            servers[(src + 1 + off % (len(servers) - 1)) % len(servers)],
            rate_pps=rate,
            seed=i,
            flow_id=i,
            group="fg",
            stop_at=HORIZON,
        )
        for i, (src, off, rate) in enumerate(fg_specs)
    ]
    for source in sources:
        source.start()
    return sources


def packet_state(net, sources):
    return {
        "handoff": handoff_state(net),
        "samples": tuple(net.stats.samples),
        "ports": sorted(
            (key, p.packets_sent, p.bytes_sent, p.busy_until)
            for key, p in net._ports.items()
        ),
        "counters": (
            [s.packets_sent for s in sources],
            net.packets_delivered,
            net.packets_dropped,
            net.packets_rerouted,
            net.packets_unroutable,
            net.engine.events_processed,
        ),
    }


fg_specs = st.lists(
    st.tuples(
        st.integers(0, 7), st.integers(0, 6), st.sampled_from([1e5, 4e5, 1e6])
    ),
    min_size=1,
    max_size=3,
)


def run_with_foreground(cls, fg, flows, faults, vlb):
    net = build(cls, flows, [], vlb, 0.01)
    # Mesh links only, two at most: the ring's switches stay connected,
    # so every foreground stream keeps a route.
    mesh = [
        (link.u, link.v) for link in net.topo.links()
        if link.u.startswith("tor") and link.v.startswith("tor")
    ]
    for when, repair, index in faults[:2]:
        action = net.repair_link if repair else net.fail_link
        net.engine.call_at(when, action, *mesh[index % len(mesh)])
    net.enable_fault_tracking()
    sources = start_foreground(net, fg)
    states = []
    for until in (HORIZON / 2, 3 * HORIZON):
        # No leg may die here: this property found the detour that kept
        # the dead link's cut-through credit and arrived in the past
        # (pinned below in TestDetourCredit).
        net.run(until=until)
        states.append(packet_state(net, sources))
    return states


class TestPlansSurviveOffPathEpochs:
    @given(fg_specs, flow_specs, fault_specs, st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_identical_to_always_invalidating(self, fg, flows, faults, vlb):
        kept = run_with_foreground(HybridNetwork, fg, flows, faults, vlb)
        dropped = run_with_foreground(AlwaysInvalidateNetwork, fg, flows, faults, vlb)
        assert kept == dropped

    def test_never_invalidating_is_caught(self):
        """The comparison above has teeth: a network that keeps every
        plan through every epoch reads different foreground latencies."""
        fg = [(0, 1, 1e6)]
        flows = [(0, 1, 6.0, 2e-4, 4e-4)]  # the same server pair, mid-run
        kept = run_with_foreground(HybridNetwork, fg, flows, [], False)
        mutant = run_with_foreground(NeverInvalidateNetwork, fg, flows, [], False)
        assert kept[-1]["handoff"] == mutant[-1]["handoff"]
        assert kept[-1]["samples"] != mutant[-1]["samples"]

    def test_off_path_epoch_compiles_nothing_on_path_epoch_recompiles(self):
        topo = T.quartz_ring(*RING)
        h = topo.servers()
        # tor0's servers are h[0], h[1]; tor2's h[4], h[5]; tor1's h[2], h[3].
        background = [
            BackgroundFlow(1_000_000, h[4], h[5], 5 * GBPS, 1e-4, 2e-4),  # off-path
            BackgroundFlow(1_000_001, h[0], h[2], 5 * GBPS, 3e-4, 4e-4),  # on a's path
        ]
        net = HybridNetwork(topo, ECMPRouter(topo), background, hybrid=True)
        compiled = []
        compile_plan = net._compile_plan
        net._compile_plan = lambda route: compiled.append(route) or compile_plan(route)

        def send_both():
            net.send(h[0], h[2], 400.0, flow_id=1)  # a: tor0 → tor1
            net.send(h[1], h[3], 400.0, flow_id=2)  # b: tor0 → tor1, other servers
            net.run(until=net.engine.now + 2e-5)

        send_both()
        first = list(compiled)
        assert len(first) == 2
        plans = dict(net._plans)

        net.run(until=1.5e-4)  # background between tor2's servers starts
        assert net.residual_epoch == 1
        moved = set(net.residual_timeline[-1][1])
        assert all(moved.isdisjoint(plan.keys) for plan in plans.values())
        send_both()
        assert compiled == first and net._plans == plans  # the very same objects

        net.run(until=3.5e-4)  # off-path flow gone, on-path flow started
        assert net.residual_epoch == 3
        moved = set(net.residual_timeline[-1][1])
        assert not moved.isdisjoint(plans[first[0]].keys)
        assert not net._plans and not net._flows
        send_both()
        # Each flow recompiles once, on its next packet, and sees the
        # new serialization where its path crosses a moved link.
        assert compiled == first + first
        def sers(plan):
            return [ser for *_, ser in plan.hops]

        assert sers(net._plans[first[0]]) != sers(plans[first[0]])
        send_both()
        assert compiled == first + first


class TestDetourCredit:
    """A packet detoured at a cut-through switch is credited
    ``min(ser_in, ser_out)`` against the detour's first link, not the
    dead one: 10 G in, a 40 G detour, 1500-byte packets used to schedule
    the next arrival 0.4 µs *before* the packet had arrived.  The model
    of ``tests/sim/model.py`` prices the detour from the switch spec."""

    @staticmethod
    def topology():
        topo = Topology("slow-in-fast-detour")
        for name in ("s0", "s1", "s2"):
            topo.add_switch(name, NodeKind.TOR)  # ULL: cut-through
        topo.add_server("h0")
        topo.add_server("h1")
        topo.add_link("h0", "s0", 10 * GBPS, LinkKind.HOST)
        topo.add_link("s0", "s1", 10 * GBPS, LinkKind.MESH)  # the one that dies
        topo.add_link("s0", "s2", 40 * GBPS, LinkKind.MESH)
        topo.add_link("s2", "s1", 40 * GBPS, LinkKind.MESH)
        topo.add_link("s1", "h1", 10 * GBPS, LinkKind.HOST)
        return topo

    def test_detour_over_a_faster_link_arrives_after_it_left(self):
        topo = self.topology()
        net = Network(topo, ECMPRouter(topo))
        net.enable_fault_tracking()
        kernel = net.send("h0", "h1", 1500.0)  # on the wire to s0 when the link dies
        net.engine.call_at(1e-7, net.fail_link, "s0", "s1")
        net.run(until=1e-4)
        assert kernel.rerouted and kernel.delivered_at is not None
        assert kernel.path == ("s0", "s2", "s1", "h1")
        assert net.packets_delivered == 1 and net.packets_rerouted == 1
        topo = self.topology()
        model = model_of(topo, tracked=True)
        model.source([(0.0, [("h0", "h1", 1500.0, 0, None)])])
        model.cut(1e-7, "s0", "s1")
        model.run(1e-4)
        assert model.outcome() == outcome(net)
        # h0→s0 takes 1.2 µs + 0.1 µs; the credit at s0 is the detour
        # link's 0.3 µs, so the tail leaves s0 0.38 µs after it arrived.
        ser10, ser40, prop, ull = 1500 * 8 / 10e9, 1500 * 8 / 40e9, 100e-9, 380e-9
        at_s2 = (ser10 + prop) + (-ser40 + ull + ser40 + prop)
        at_s1 = at_s2 + (-ser40 + ull + ser40 + prop)
        at_h1 = at_s1 + (-ser40 + ull + ser10 + prop)
        assert abs(kernel.delivered_at - at_h1) < 1e-12
