"""HybridNetwork co-simulation engine tests.

Small fabrics, hand-placed background flows: the assertions pin the
residual handoff (serialization scaling, epoch invalidation), the mode
switch (hybrid vs pure-packet oracle), fault interplay (re-path, park,
re-admit), and bit-identity of the foreground packet schedule across
the event loop (Poisson gaps drawn in chunks, or packet by packet: the
reference) and the port-major pass under hybrid residuals.
"""

import pytest

import repro.topology as T
from repro.hybrid import (
    BackgroundFlow,
    HybridError,
    HybridNetwork,
)
from repro.hybrid import engine as hybrid_engine
from repro.routing import ECMPRouter
from repro.sim import PoissonSource
from repro.units import GBPS
from tests.sim.test_fastpath import per_packet_draws


def build(flows, topo=None, **kwargs):
    topo = topo if topo is not None else T.quartz_ring(3, 1)
    return HybridNetwork(topo, ECMPRouter(topo), flows, **kwargs)


def one_bg(net_or_topo_servers, demand, start=0.0, stop=1e-3, fid=1_000_000):
    s = net_or_topo_servers
    return BackgroundFlow(fid, s[0], s[1], demand, start, stop)


class TestResidualHandoff:
    def test_residual_scales_serialization(self):
        topo = T.quartz_ring(3, 1)
        servers = topo.servers()
        net = build([one_bg(servers, 5 * GBPS, stop=1e-3)], topo)
        path = net.router.route(servers[0], servers[1])
        net.run(until=5e-4)  # mid-epoch
        for i in range(len(path) - 1):
            assert net.effective_capacity(path[i], path[i + 1]) == pytest.approx(
                5 * GBPS
            )
        net.run(until=2e-3)  # past the flow's stop
        for i in range(len(path) - 1):
            assert net.effective_capacity(path[i], path[i + 1]) == 10 * GBPS

    def test_background_slows_foreground(self):
        topo_a, topo_b = T.quartz_ring(3, 1), T.quartz_ring(3, 1)
        servers = topo_a.servers()
        loaded = build([one_bg(servers, 8 * GBPS)], topo_a)
        idle = build([], topo_b)
        loaded.run(until=1e-4)
        idle.run(until=1e-4)
        pa = loaded.send(servers[0], servers[1], 1500.0, group="fg")
        pb = idle.send(servers[0], servers[1], 1500.0, group="fg")
        loaded.run(until=2e-4)
        idle.run(until=2e-4)
        assert pa.latency > pb.latency

    def test_epoch_boundary_clears_plan_caches(self):
        topo = T.quartz_ring(3, 1)
        servers = topo.servers()
        net = build([one_bg(servers, 5 * GBPS, start=1e-4, stop=2e-4)], topo)
        net.send(servers[0], servers[1], 1500.0)
        assert net._plans  # compiled by the send
        net.run(until=1.5e-4)  # cross the start boundary
        assert not net._plans
        assert net.residual_epoch >= 1

    def test_unchanged_epoch_keeps_caches_hot(self):
        # A flow that starts and stops touches links both times; but a
        # second solve with nothing changed must not bump residual_epoch.
        topo = T.quartz_ring(3, 1)
        servers = topo.servers()
        net = build([one_bg(servers, 5 * GBPS, stop=1e-4)], topo)
        net.run(until=2e-4)
        assert net.epochs == 2  # start + stop boundaries
        assert net.residual_epoch == 2  # both changed link state

    def test_min_residual_floor_keeps_foreground_moving(self, monkeypatch):
        monkeypatch.setattr(hybrid_engine, "DEFAULT_MIN_RESIDUAL_FRACTION", 0.05)
        topo = T.quartz_ring(3, 1)
        servers = topo.servers()
        net = build([one_bg(servers, 50 * GBPS)], topo)
        net.run(until=1e-5)
        path = net.router.route(servers[0], servers[1])
        key = (path[0], path[1])
        assert net.effective_capacity(*key) == pytest.approx(0.05 * 10 * GBPS)
        p = net.send(servers[0], servers[1], 1500.0, group="fg")
        net.run(until=1e-3)
        assert p.delivered_at is not None

    def test_timeline_records_changed_links(self):
        topo = T.quartz_ring(3, 1)
        servers = topo.servers()
        net = build([one_bg(servers, 5 * GBPS, stop=1e-4)], topo)
        net.run(until=2e-4)
        assert len(net.residual_timeline) == 2
        t0, changed0 = net.residual_timeline[0]
        t1, changed1 = net.residual_timeline[1]
        assert (t0, t1) == (0.0, 1e-4)
        assert set(changed0) == set(changed1)  # same links restored
        for key, eff in changed0.items():
            assert eff == pytest.approx(5 * GBPS)
        for key, eff in changed1.items():
            assert eff == net._capacity[key]

    def test_timeline_opt_out(self):
        topo = T.quartz_ring(3, 1)
        servers = topo.servers()
        net = build([one_bg(servers, 5 * GBPS)], topo, record_timeline=False)
        net.run(until=1e-4)
        assert net.residual_timeline == []

    def test_background_rates_share_bottleneck(self):
        topo = T.quartz_ring(3, 1)
        servers = topo.servers()
        flows = [
            BackgroundFlow(1_000_000, servers[0], servers[1], 9 * GBPS, 0.0, 1e-3),
            BackgroundFlow(1_000_001, servers[0], servers[1], 9 * GBPS, 0.0, 1e-3),
        ]
        net = build(flows, topo)
        net.run(until=1e-4)
        rates = net.background_rates()
        # Both want 9G through the same 10G server uplink → 5G each.
        assert rates[1_000_000] == pytest.approx(5 * GBPS)
        assert rates[1_000_001] == pytest.approx(5 * GBPS)


class TestModes:
    def test_oracle_mode_materializes_sources(self):
        topo = T.quartz_ring(3, 1)
        servers = topo.servers()
        net = build([one_bg(servers, 1 * GBPS, stop=2e-4)], topo, hybrid=False)
        assert not net.hybrid_enabled
        assert len(net.background_sources) == 1
        net.run(until=5e-4)
        # Background packets really flow (group-separable from foreground).
        assert net.stats.summary("background").count > 0
        with pytest.raises(HybridError):
            net.background_rates()

    def test_plain_sequence_accepted(self):
        topo = T.quartz_ring(3, 1)
        net = build([one_bg(topo.servers(), 1 * GBPS)], topo)
        assert len(net.background) == 1

    def test_empty_background_is_plain_network(self):
        topo = T.quartz_ring(3, 1)
        servers = topo.servers()
        net = build([], topo)
        p = net.send(servers[0], servers[1], 1500.0)
        net.run()
        assert p.delivered_at is not None
        assert net.epochs == 0


class TestFaultInterplay:
    def test_fail_crossing_link_repaths_background(self):
        topo = T.quartz_ring(4, 1)
        servers = topo.servers()
        net = build([one_bg(servers, 5 * GBPS, stop=1e-2)], topo)
        net.run(until=1e-4)
        (flow, fluid) = net._active_bg[1_000_000]
        # Cut the first inter-switch link on the background's path.
        path = fluid.paths[0].path
        mid = [
            (path[i], path[i + 1])
            for i in range(len(path) - 1)
            if not path[i].startswith("h") and not path[i + 1].startswith("h")
        ]
        u, v = mid[0]
        net.fail_link(u, v)
        assert 1_000_000 in net._active_bg  # re-pathed, not parked
        _, fluid2 = net._active_bg[1_000_000]
        dead = {(u, v), (v, u)}
        for wp in fluid2.paths:
            for i in range(len(wp.path) - 1):
                assert (wp.path[i], wp.path[i + 1]) not in dead

    def test_fail_server_link_parks_then_repair_readmits(self):
        topo = T.quartz_ring(3, 1)
        servers = topo.servers()
        net = build([one_bg(servers, 5 * GBPS, stop=1e-2)], topo)
        net.run(until=1e-4)
        path = net.router.route(servers[0], servers[1])
        u, v = path[0], path[1]  # the only uplink of server 0
        net.fail_link(u, v)
        assert 1_000_000 not in net._active_bg
        assert net.background_unroutable == 1
        assert net.effective_capacity(*(path[1], path[2])) == 10 * GBPS
        net.repair_link(u, v)
        assert 1_000_000 in net._active_bg
        assert net.effective_capacity(u, v) == pytest.approx(5 * GBPS)

    def test_fault_not_crossing_background_is_incremental(self):
        topo = T.quartz_ring(4, 1)
        servers = topo.servers()
        net = build([one_bg(servers, 5 * GBPS, stop=1e-2)], topo)
        net.run(until=1e-4)
        _, fluid = net._active_bg[1_000_000]
        used = {
            (wp.path[i], wp.path[i + 1])
            for wp in fluid.paths
            for i in range(len(wp.path) - 1)
        }
        switches = topo.switches()
        spare = None
        for i in range(len(switches)):
            for j in range(i + 1, len(switches)):
                pair = (switches[i], switches[j])
                if (
                    topo.graph.has_edge(*pair)
                    and pair not in used
                    and (pair[1], pair[0]) not in used
                ):
                    spare = pair
                    break
            if spare:
                break
        assert spare is not None
        builds_before = net._solver.incidence_builds
        net.fail_link(*spare)
        assert net.epochs == 2  # the cut re-solved ...
        assert net._solver.incidence_builds == builds_before  # ... capacities only
        assert net._active_bg[1_000_000][1] is fluid  # and nothing re-pathed
        assert net.background_rates()[1_000_000] == pytest.approx(5 * GBPS)


class TestBitIdentityAcrossLoops:
    def _foreground_summary(self, batch=True, draws=False):
        """The foreground's summary, run through ``Network.run`` with
        ``batch``, else through ``engine.run``; ``draws`` draws the
        Poisson gaps packet by packet."""
        with per_packet_draws(draws):
            return self._run_foreground(batch)

    @staticmethod
    def _run_foreground(batch):
        topo = T.quartz_ring(3, 1)
        servers = topo.servers()
        flows = [
            BackgroundFlow(1_000_000, servers[0], servers[2], 4 * GBPS, 0.0, 4e-4),
            BackgroundFlow(1_000_001, servers[1], servers[0], 6 * GBPS, 1e-4, 3e-4),
        ]
        net = build(flows, topo)
        src = PoissonSource.at_bandwidth(
            net, servers[0], servers[1], 2 * GBPS, group="fg", seed=11,
            stop_at=4e-4,
        )
        src.start()
        (net.run if batch else net.engine.run)(until=6e-4)
        s = net.stats.summary("fg")
        return (s.count, s.mean, s.p99, s.maximum)

    def test_reference_fastpath_batched_identical(self):
        batched = self._foreground_summary()
        fastpath = self._foreground_summary(batch=False)
        reference = self._foreground_summary(batch=False, draws=True)
        assert batched == fastpath == reference
        assert batched[0] > 0

    def test_windows_between_epoch_boundaries(self, monkeypatch):
        """A boundary is a timer: it bounds the pass's windows.  The
        packets in flight across it keep the serialization they started
        with, so the window after it clocks one port at two rates."""
        from repro.sim import portmajor
        from tests.sim.test_fastpath import network_fingerprint

        solved = []
        solve = portmajor._solve
        monkeypatch.setattr(
            portmajor, "_solve",
            lambda net, until, roots: (solve(net, until, roots), solved.append(until)),
        )

        def run(batch):
            topo = T.quartz_ring(3, 1)
            servers = topo.servers()
            flows = [
                BackgroundFlow(1_000_000, servers[0], servers[1], 6 * GBPS, 2e-4, 6e-4),
                BackgroundFlow(1_000_001, servers[2], servers[1], 3 * GBPS, 4e-4, 9e-4),
            ]
            net = build(flows, topo)
            run = net.run if batch else net.engine.run
            sources = [
                PoissonSource.at_bandwidth(
                    net, servers[0], servers[1], 3 * GBPS, group="fg", seed=11, flow_id=1
                ),
                PoissonSource.at_bandwidth(
                    net, servers[2], servers[1], 2 * GBPS, group="fg2", seed=12, flow_id=2
                ),
            ]
            for source in sources:
                source.start()
            prints = []
            for until in (5e-4, 1e-3):
                run(until=until)
                prints.append(
                    network_fingerprint(net) + tuple(s.packets_sent for s in sources)
                )
            return prints

        assert run(batch=True) == run(batch=False)
        assert len(solved) >= 5  # a window per epoch, and one per leg
