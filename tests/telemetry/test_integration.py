"""Telemetry in the forwarding loops: observational purity and the hop log.

The contract telemetry rests on: arming it changes *nothing* about the
simulation — every latency sample, port counter, and event count is
bit-identical armed or disarmed, whether the Poisson gaps are drawn in
chunks or packet by packet — while the log sees every enqueue and drop,
and the hop profile folds each delivered packet's hops.
Nothing arms telemetry but ``Network(telemetry=True)``, so these tests
arm it themselves, next to ``tests/sim/test_legs.py``'s armed legs.
"""

import repro.topology as T
from repro import obs
from repro.experiments.hybrid_scale import DEFAULT_BG_DEMAND_BPS, DEFAULT_FG_BANDWIDTH_BPS
from repro.hybrid import HybridNetwork, random_background_schedule
from repro.routing import ECMPRouter
from repro.sim import Network
from repro.sim.sources import PoissonSource
from repro.telemetry import DEFAULT_WINDOW, TelemetryHub
from repro.workloads.tasks import ScatterGatherTask, StreamingTask, random_task
from tests.sim.test_fastpath import network_fingerprint, per_packet_draws


def run_workload(telemetry, draws=False, nsrc=4):
    """``draws`` draws the Poisson gaps packet by packet (the reference)."""
    with per_packet_draws(draws):
        return _run_workload(telemetry, nsrc)


def _run_workload(telemetry, nsrc):
    topo = T.three_tier_tree()
    net = Network(topo, ECMPRouter(topo), telemetry=telemetry)
    servers = topo.servers()
    sources = [
        PoissonSource(
            net, servers[i], servers[-1], rate_pps=600_000.0, seed=i,
            flow_id=i, group=f"flow-{i}",
        )
        for i in range(nsrc)
    ]
    for source in sources:
        source.start()
    net.engine.run(until=0.004)
    return net


def observable_state(net):
    return (
        net.packets_delivered,
        net.packets_dropped,
        net.packets_rerouted,
        tuple(net.stats.samples),
        tuple(
            (key, port.packets_sent, port.bytes_sent, port.busy_until)
            for key, port in sorted(net._ports.items())
        ),
    )


class TestObservationalPurity:
    def test_telemetry_changes_no_simulation_state(self):
        off = run_workload(telemetry=False)
        on = run_workload(telemetry=True)
        assert observable_state(off) == observable_state(on)

    def test_reference_and_fastpath_agree_on_telemetry(self):
        fast = run_workload(telemetry=True)
        ref = run_workload(telemetry=True, draws=True)
        assert observable_state(fast) == observable_state(ref)
        assert fast.telemetry.window_dump() == ref.telemetry.window_dump()


def hybrid_cut_run(telemetry):
    """The smoke hybrid cell's shape (five-switch ring, 20 background
    flows, a four-worker incast, 2 ms), with a mesh link cut at 1 ms: a
    ``fail_link`` epoch re-solves the background mid-run."""
    topo = T.quartz_ring(5, 2)
    schedule = random_background_schedule(
        topo.servers(), 20, horizon=0.002, mean_duration=0.0005,
        demand_bps=DEFAULT_BG_DEMAND_BPS, seed=0,
    )
    net = HybridNetwork(topo, ECMPRouter(topo), schedule, telemetry=telemetry)
    spec = random_task(topo, "gather", fan=4, seed=0)
    StreamingTask(net, spec, DEFAULT_FG_BANDWIDTH_BPS, group="fg", seed=0).start()
    net.engine.call_at(0.001, net.fail_link, "tor0", "tor1")
    net.run(until=0.002)
    return net


def scatter_gather_round(armed):
    """One closed-loop scatter/gather round: every packet after the
    first fan-out is sent from an ``on_delivered`` callback.  ``armed``
    arms telemetry and :mod:`repro.obs` both."""
    if armed:
        obs.arm()
    try:
        topo = T.quartz_in_edge_and_core()
        net = Network(topo, ECMPRouter(topo), telemetry=armed)
        spec = random_task(topo, "scatter_gather", fan=4, seed=7)
        task = ScatterGatherTask(net, spec, rounds=1, group="sg")
        task.start()
        net.run()
    finally:
        obs.disarm()
    assert task.completed_rounds == 1
    return net


class TestArmedEqualsDisarmed:
    """What the generated legs of ``tests/sim/test_legs.py`` do not
    draw, armed against disarmed."""

    def test_hybrid_with_a_cut_epoch(self):
        off, on = hybrid_cut_run(False), hybrid_cut_run(True)
        assert on.telemetry is not None and on.telemetry.total_enqueues() > 0
        assert on.stats.summary("fg") == off.stats.summary("fg")
        assert tuple(on.stats.samples) == tuple(off.stats.samples)
        assert (on.epochs, on.residual_epoch) == (off.epochs, off.residual_epoch)
        assert off.residual_epoch > 0

    def test_scatter_gather_round(self):
        off = network_fingerprint(scatter_gather_round(False))
        on = network_fingerprint(scatter_gather_round(True))
        assert on[9]  # the hop profile holds the delivered packets
        # Positions 8 and 9 are the window dump and the hop profile.
        assert on[:8] + on[10:] == off[:8] + off[10:]
        assert off[0] == 8  # four requests, four replies


class TestArming:
    def test_disabled_by_default(self):
        topo = T.full_mesh(2, 1)
        assert Network(topo, ECMPRouter(topo)).telemetry is None

    def test_explicit_flag_and_config(self):
        """``telemetry=True`` is the only way to arm, and an armed hub
        tiles time in the one module-constant window."""
        topo = T.full_mesh(2, 1)
        hub = Network(topo, ECMPRouter(topo), telemetry=True).telemetry
        assert isinstance(hub, TelemetryHub)
        assert hub.window == DEFAULT_WINDOW


class TestMonitors:
    def test_every_enqueue_observed(self):
        net = run_workload(telemetry=True)
        hub = net.telemetry
        # One enqueue per transmit hop; every port the sim forwarded
        # through is monitored and the totals tie out to port counters.
        expected = sum(p.packets_sent for p in net._ports.values())
        assert hub.total_enqueues() == expected
        for key in hub.ports():
            assert hub.monitors[key].enqueues == net._ports[key].packets_sent

    def test_fault_severed_packets_observed_as_drops(self):
        topo = T.three_tier_tree()
        net = Network(topo, ECMPRouter(topo), telemetry=True)
        servers = topo.servers()
        source = PoissonSource(
            net, servers[0], servers[-1], rate_pps=2_000_000.0, seed=1,
            group="load",
        )
        source.start()
        probe = net.router.route(servers[0], servers[-1], 0)
        net.enable_fault_tracking()
        net.engine.schedule(0.002, lambda: net.fail_link(probe[1], probe[2]))
        net.engine.run(until=0.004)
        assert net.packets_dropped_fault > 0
        assert net.telemetry.total_drops() >= net.packets_dropped_fault


class TestStamping:
    def test_stamps_fold_into_flow_records(self):
        net = run_workload(telemetry=True, nsrc=1)
        per_node = net.telemetry.hop_profile()["flow-0"]
        route = net.router.route(
            net.topo.servers()[0], net.topo.servers()[-1], 0
        )
        # One stamp per transmit hop: every node on the path except the
        # destination, each having seen every delivered packet.
        assert set(per_node) == set(route[:-1])
        for rec in per_node.values():
            assert rec.packets == net.packets_delivered
            assert rec.depth_max >= 0
            assert rec.wait_sum >= 0.0
            assert rec.mean_depth <= rec.depth_max
            assert rec.mean_wait <= rec.wait_max or rec.packets == 0

    def test_waits_positive_under_contention(self):
        net = run_workload(telemetry=True, nsrc=4)
        assert any(
            rec.wait_max > 0.0
            for per_node in net.telemetry.hop_profile().values()
            for rec in per_node.values()
        ), "a contended port should make some packet wait"

    def test_stamps_consistent_with_window_waits(self):
        net = run_workload(telemetry=True, nsrc=2)
        hub = net.telemetry
        total_window_wait = sum(
            w.wait_sum for _, w in hub.iter_windows()
        )
        total_stamp_wait = sum(
            rec.wait_sum
            for per_node in net.telemetry.hop_profile().values()
            for rec in per_node.values()
        )
        # The profile folds only *delivered* packets, so its total is a
        # subset of what the windows saw (packets still in flight at
        # the horizon were logged but never folded).
        assert total_stamp_wait <= total_window_wait + 1e-12


class TestBatchStandDown:
    def test_monitors_see_cohort_workload(self):
        # Telemetry only records: the port-major pass of ``Network.run``
        # keeps running, and its log reads as ``engine.run``'s does.
        topo = T.three_tier_tree()
        nets = []
        for pass_allowed in (True, False):
            net = Network(topo, ECMPRouter(topo), telemetry=True)
            servers = topo.servers()
            PoissonSource(
                net, servers[0], servers[-1], rate_pps=600_000.0, seed=0,
                group="load",
            ).start()
            (net.run if pass_allowed else net.engine.run)(until=0.004)
            nets.append(net)
        default, scalar = nets
        assert observable_state(default) == observable_state(scalar)
        assert default.telemetry.window_dump() == scalar.telemetry.window_dump()
        assert default.telemetry.hop_profile() == scalar.telemetry.hop_profile()
        assert default.standdowns == {}


class TestUnroutable:
    def test_unroutable_counted(self):
        # Sources report unroutable offered load via note_unroutable
        # (no port to charge); the log keeps a run-level counter.
        topo = T.full_mesh(2, 1)
        net = Network(topo, ECMPRouter(topo), telemetry=True)
        net.note_unroutable("load")
        net.note_unroutable(None)
        assert net.telemetry.unroutable == 2
        assert net.packets_unroutable == 2
