"""The delta residual hand-off against a full-scan oracle.

``HybridNetwork._apply_residuals`` rewrites only the links whose
effective capacity moved, found by comparing vectors.  The oracle below
is the hand-off it replaced — a scan of every ``_link_rec`` entry
against the solution's residual *dict* — kept here as the reference the
vector form must match exactly: same records, same timeline contents
and key order, same epoch counters, under random background schedules
interleaved with cuts and repairs.  A second reference, the Python scan
over every active flow × path × hop, pins which background flows a cut
re-paths.
"""

from hypothesis import given, settings, strategies as st

import repro.topology as T
from repro.hybrid import BackgroundFlow, HybridNetwork
from repro.routing import ECMPRouter, VLBRouter
from repro.units import BITS_PER_BYTE, GBPS

HORIZON = 1e-3
RING = (4, 2)  # switches, servers per switch


class FullScanNetwork(HybridNetwork):
    """``HybridNetwork`` with the pre-vector, every-link hand-off."""

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
    net = cls(topo, router, flows, min_residual_fraction=floor)
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
