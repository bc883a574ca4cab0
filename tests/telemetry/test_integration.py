"""Telemetry in the forwarding loops: observational purity and stamping.

The contract the tentpole rests on: arming telemetry changes *nothing*
about the simulation — every latency sample, port counter, and event
count is bit-identical with monitors on or off, across the reference
loop and the compiled fast path — while the monitors see every enqueue
and drop, and INT stamps fold into the flow records on delivery.
"""

import pytest

import repro.topology as T
from repro.routing import ECMPRouter
from repro.sim import Network
from repro.sim.sources import PoissonSource
from repro.telemetry import TELEMETRY_ENV, TelemetryConfig, TelemetryHub
from tests.sim.test_fastpath import per_packet_draws


def run_workload(telemetry, fastpath=True, nsrc=4):
    with per_packet_draws(not fastpath):
        return _run_workload(telemetry, fastpath, nsrc)


def _run_workload(telemetry, fastpath, nsrc):
    topo = T.three_tier_tree()
    net = Network(topo, ECMPRouter(topo), fastpath=fastpath, telemetry=telemetry)
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
        fast = run_workload(telemetry=True, fastpath=True)
        ref = run_workload(telemetry=True, fastpath=False)
        assert observable_state(fast) == observable_state(ref)
        assert fast.telemetry.window_dump() == ref.telemetry.window_dump()


class TestArming:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(TELEMETRY_ENV, raising=False)
        topo = T.full_mesh(2, 1)
        assert Network(topo, ECMPRouter(topo)).telemetry is None

    def test_explicit_flag_and_config(self):
        topo = T.full_mesh(2, 1)
        assert isinstance(
            Network(topo, ECMPRouter(topo), telemetry=True).telemetry, TelemetryHub
        )
        config = TelemetryConfig(window=1e-3)
        net = Network(topo, ECMPRouter(topo), telemetry=config)
        assert net.telemetry.config is config

    def test_env_arms_default_networks(self, monkeypatch):
        monkeypatch.setenv(TELEMETRY_ENV, "1")
        topo = T.full_mesh(2, 1)
        assert Network(topo, ECMPRouter(topo)).telemetry is not None
        # ... but an explicit False still wins over the environment.
        assert Network(topo, ECMPRouter(topo), telemetry=False).telemetry is None


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
        per_node = net.stats.hop_stamps["flow-0"]
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
            for per_node in net.stats.hop_stamps.values()
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
            for per_node in net.stats.hop_stamps.values()
            for rec in per_node.values()
        )
        # Stamps only fold on *delivery*, so the stamped total is a
        # subset of what the monitors saw (packets still in flight at
        # the horizon were monitored but never folded).
        assert total_stamp_wait <= total_window_wait + 1e-12


class TestBatchStandDown:
    def test_monitors_see_cohort_workload(self):
        # Telemetry must stand the port-major pass of ``Network.run``
        # down: the run must match ``engine.run`` exactly.
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


class TestUnroutable:
    def test_unroutable_counted(self):
        # Sources report unroutable offered load via note_unroutable
        # (no port to charge); the hub keeps a run-level counter.
        topo = T.full_mesh(2, 1)
        net = Network(topo, ECMPRouter(topo), telemetry=True)
        net.note_unroutable("load")
        net.note_unroutable(None)
        assert net.telemetry.unroutable == 2
        assert net.packets_unroutable == 2
