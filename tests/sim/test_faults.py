"""Runtime fault injection: cuts, repairs, drops, and live rerouting."""

import functools

import pytest

from repro.core.multiring import plan_rings
from repro.routing import ECMPRouter, RoutingError, VLBRouter
from repro.sim import Network, parallel as parallel_module
from repro.sim.faults import (
    FaultInjectionError,
    FaultInjector,
    SegmentCut,
    random_fault_schedule,
)
from repro.sim.parallel import (
    ParallelScenario,
    ShardNetwork,
    SourceSpec,
    partition_racks,
    run_parallel,
    run_serial,
)
from repro.topology import quartz_ring, two_tier_tree


@pytest.fixture
def mesh():
    """A 5-switch Quartz mesh with one server per rack, ECMP routed."""
    topo = quartz_ring(5, servers_per_switch=1)
    return Network(topo, ECMPRouter(topo))


@pytest.fixture
def plan():
    return plan_rings(5, num_rings=1)


class TestSegmentCut:
    def test_valid_cut_passes(self, plan):
        SegmentCut(start=0.001, ring=0, segment=2, repair_at=0.002).validate(plan)

    def test_negative_start_rejected(self, plan):
        with pytest.raises(FaultInjectionError, match="non-negative"):
            SegmentCut(start=-1.0, ring=0, segment=0).validate(plan)

    def test_ring_out_of_range_rejected(self, plan):
        with pytest.raises(FaultInjectionError, match="ring"):
            SegmentCut(start=0.0, ring=1, segment=0).validate(plan)

    def test_segment_out_of_range_rejected(self, plan):
        with pytest.raises(FaultInjectionError, match="segment"):
            SegmentCut(start=0.0, ring=0, segment=5).validate(plan)

    def test_repair_must_follow_cut(self, plan):
        with pytest.raises(FaultInjectionError, match="repair"):
            SegmentCut(start=0.002, ring=0, segment=0, repair_at=0.002).validate(plan)


class TestRandomSchedule:
    def test_deterministic_for_seed(self, plan):
        a = random_fault_schedule(plan, 3, cut_at=0.001, repair_after=0.002, seed=7)
        b = random_fault_schedule(plan, 3, cut_at=0.001, repair_after=0.002, seed=7)
        assert a == b

    def test_segments_distinct(self, plan):
        cuts = random_fault_schedule(plan, 5, cut_at=0.001, seed=1)
        assert len({(c.ring, c.segment) for c in cuts}) == 5

    def test_repair_timing(self, plan):
        (cut,) = random_fault_schedule(plan, 1, cut_at=0.003, repair_after=0.001)
        assert cut.repair_at == pytest.approx(0.004)
        (never,) = random_fault_schedule(plan, 1, cut_at=0.003)
        assert never.repair_at is None

    def test_too_many_cuts_rejected(self, plan):
        with pytest.raises(FaultInjectionError, match="cannot cut"):
            random_fault_schedule(plan, 6, cut_at=0.001)

    def test_negative_count_rejected(self, plan):
        with pytest.raises(FaultInjectionError, match="non-negative"):
            random_fault_schedule(plan, -1, cut_at=0.001)


class TestFaultInjector:
    def test_rejects_mismatched_network(self, plan):
        topo = two_tier_tree(4, 2)
        net = Network(topo, ECMPRouter(topo))
        with pytest.raises(FaultInjectionError, match="lacks switches"):
            FaultInjector(net, plan)

    def test_cut_severs_exactly_crossing_channels(self, mesh, plan):
        injector = FaultInjector(mesh, plan)
        injector.apply_cut(0, 2)
        expected = sorted(plan.channels_crossing(0, 2))
        assert injector.down_channels() == expected
        for s, t in expected:
            assert mesh.link_is_down(f"tor{s}", f"tor{t}")

    def test_cut_is_idempotent(self, mesh, plan):
        injector = FaultInjector(mesh, plan)
        injector.apply_cut(0, 2)
        down = injector.down_channels()
        assert injector.apply_cut(0, 2) == 0
        assert injector.down_channels() == down
        assert injector.cuts_applied == 1

    def test_repair_restores_everything(self, mesh, plan):
        injector = FaultInjector(mesh, plan)
        injector.apply_cut(0, 2)
        restored = injector.apply_repair(0, 2)
        assert restored == len(plan.channels_crossing(0, 2))
        assert injector.down_channels() == []
        assert not any(
            mesh.link_is_down(f"tor{s}", f"tor{t}")
            for s, t in plan.channels_crossing(0, 2)
        )

    def test_repair_of_intact_segment_is_noop(self, mesh, plan):
        injector = FaultInjector(mesh, plan)
        assert injector.apply_repair(0, 1) == 0
        assert injector.repairs_applied == 0

    def test_channel_crossing_two_cuts_needs_both_repairs(self, mesh, plan):
        # Find a channel whose wavelength path crosses >= 2 segments.
        routes = plan.pair_routes()
        pair, (ring, segments) = next(
            (p, r) for p, r in routes.items() if len(r[1]) >= 2
        )
        first, second = segments[0], segments[1]
        injector = FaultInjector(mesh, plan)
        injector.apply_cut(ring, first)
        injector.apply_cut(ring, second)
        assert pair in injector.down_channels()
        injector.apply_repair(ring, first)
        # Still severed: the other segment on its path is broken.
        assert pair in injector.down_channels()
        injector.apply_repair(ring, second)
        assert pair not in injector.down_channels()

    def test_schedule_applies_cut_and_repair_as_events(self, mesh, plan):
        injector = FaultInjector(mesh, plan)
        injector.schedule(
            [SegmentCut(start=0.001, ring=0, segment=2, repair_at=0.002)]
        )
        mesh.run(until=0.0015)
        assert injector.down_channels() != []
        mesh.run(until=0.003)
        assert injector.down_channels() == []
        kinds = [e.kind for e in mesh.fault_stats.events]
        assert "cut" in kinds and "repair" in kinds
        assert "link_down" in kinds and "link_up" in kinds


class TestNetworkLinkFaults:
    def test_fail_link_drops_queued_packets(self, mesh):
        mesh.enable_fault_tracking()
        # Saturate tor0->tor1 so arrivals stretch out, then cut mid-queue.
        for _ in range(50):
            mesh.send("h0.0", "h1.0", 400, group="burst")
        mesh.engine.call_at(5e-6, mesh.fail_link, "tor0", "tor1")
        mesh.run(until=0.001)
        assert mesh.packets_dropped_fault > 0
        assert mesh.fault_stats.total_drops == mesh.packets_dropped_fault
        assert mesh.packets_delivered + mesh.packets_dropped_fault == 50

    def test_in_flight_packets_reroute_around_cut(self, mesh):
        mesh.enable_fault_tracking()
        # Stagger sends so some packets reach tor0 only after the cut and
        # must detour over a surviving two-hop path.
        for k in range(30):
            mesh.engine.call_at(
                k * 1e-6, mesh.send, "h0.0", "h1.0", 400, 0, "stream"
            )
        mesh.engine.call_at(4e-6, mesh.fail_link, "tor0", "tor1")
        mesh.run(until=0.001)
        assert mesh.packets_rerouted > 0
        assert mesh.fault_stats.total_reroutes == mesh.packets_rerouted
        # Nothing is lost except packets queued on the dead link itself.
        assert (
            mesh.packets_delivered + mesh.packets_dropped_fault == 30
        )

    def test_recovery_time_recorded_per_flow(self, mesh):
        mesh.enable_fault_tracking()
        for k in range(30):
            mesh.engine.call_at(
                k * 1e-6, mesh.send, "h0.0", "h1.0", 400, 0, "stream"
            )
        mesh.engine.call_at(4e-6, mesh.fail_link, "tor0", "tor1")
        mesh.run(until=0.001)
        times = mesh.fault_stats.recovery_times_by_flow.get("stream")
        assert times and all(t >= 0 for t in times)
        assert mesh.fault_stats.max_recovery_time() >= max(times)

    def test_fail_link_is_idempotent(self, mesh):
        mesh.fail_link("tor0", "tor1")
        assert mesh.fail_link("tor0", "tor1") == 0
        assert mesh.link_is_down("tor0", "tor1")
        assert mesh.link_is_down("tor1", "tor0")

    def test_repair_unknown_link_is_noop(self, mesh):
        assert mesh.repair_link("tor0", "tor1") is False

    def test_repair_accepts_either_orientation(self, mesh):
        mesh.fail_link("tor0", "tor1")
        assert mesh.repair_link("tor1", "tor0") is True
        assert not mesh.link_is_down("tor0", "tor1")

    def test_new_traffic_avoids_dead_link(self, mesh):
        mesh.fail_link("tor0", "tor1")
        packet = mesh.send("h0.0", "h1.0", 400)
        assert ("tor0", "tor1") not in [
            (packet.path[i], packet.path[i + 1])
            for i in range(len(packet.path) - 1)
        ]
        assert len(packet.path) == 5  # two mesh hops via a detour switch

    def test_direct_path_returns_after_repair(self, mesh):
        mesh.fail_link("tor0", "tor1")
        mesh.repair_link("tor0", "tor1")
        packet = mesh.send("h0.0", "h1.0", 400)
        assert packet.path == ("h0.0", "tor0", "tor1", "h1.0")


class TestVLBUnderFaults:
    def test_vlb_falls_back_to_detours(self):
        topo = quartz_ring(5, servers_per_switch=1)
        net = Network(topo, VLBRouter(topo))
        net.fail_link("tor0", "tor1")
        for flow in range(8):
            path = net.send("h0.0", "h1.0", 400, flow_id=flow).path
            assert ("tor0", "tor1") not in [
                (path[i], path[i + 1]) for i in range(len(path) - 1)
            ]

    def test_vlb_isolated_pair_raises(self):
        topo = quartz_ring(3, servers_per_switch=1)
        net = Network(topo, VLBRouter(topo))
        # Kill every mesh link touching tor0: no direct, no detour.
        net.fail_link("tor0", "tor1")
        net.fail_link("tor0", "tor2")
        with pytest.raises(RoutingError):
            net.send("h0.0", "h1.0", 400)


class TestPartitionedMesh:
    def test_source_survives_partition_and_counts_losses(self):
        from repro.sim import PoissonSource

        topo = quartz_ring(3, servers_per_switch=1)
        net = Network(topo, ECMPRouter(topo))
        net.enable_fault_tracking()
        PoissonSource.at_bandwidth(net, "h0.0", "h1.0", 1e9, group="s").start()
        # Isolate tor0 entirely: h0.0 can reach nobody.
        net.engine.call_at(1e-4, net.fail_link, "tor0", "tor1")
        net.engine.call_at(1e-4, net.fail_link, "tor0", "tor2")
        net.run(until=5e-4)
        assert net.packets_unroutable > 0
        assert net.packets_dropped_fault >= net.packets_unroutable
        assert net.fault_stats.drops_by_flow["s"] > 0

    def test_repair_reconnects_and_traffic_resumes(self):
        from repro.sim import PoissonSource

        topo = quartz_ring(3, servers_per_switch=1)
        net = Network(topo, ECMPRouter(topo))
        net.enable_fault_tracking()
        PoissonSource.at_bandwidth(net, "h0.0", "h1.0", 1e9, group="s").start()
        net.engine.call_at(1e-4, net.fail_link, "tor0", "tor1")
        net.engine.call_at(1e-4, net.fail_link, "tor0", "tor2")
        net.engine.call_at(2e-4, net.repair_link, "tor0", "tor1")
        net.run(until=6e-4)
        delivered_at_repair = net.packets_unroutable
        assert delivered_at_repair > 0
        # Deliveries resumed after the splice, closing the outage window.
        assert net.fault_stats.recovery_times_by_flow.get("s")
        assert net.packets_delivered > 0


class TestDeterminism:
    def _run(self):
        topo = quartz_ring(5, servers_per_switch=1)
        net = Network(topo, ECMPRouter(topo))
        plan = plan_rings(5, num_rings=1)
        injector = FaultInjector(net, plan)
        injector.schedule(
            random_fault_schedule(plan, 1, cut_at=3e-5, repair_after=5e-5, seed=3)
        )
        for k in range(200):
            net.engine.call_at(
                k * 1e-6, net.send, f"h{k % 5}.0", f"h{(k + 2) % 5}.0", 400, k, "s"
            )
        net.run(until=0.001)
        return (
            net.packets_delivered,
            net.packets_dropped_fault,
            net.packets_rerouted,
            tuple(net.fault_stats.events),
            injector.down_channels(),
        )

    def test_identical_runs_bit_identical(self):
        assert self._run() == self._run()


class TestInFlightSetIdentity:
    """Compiled plans bind each link's in-flight set, and a packet in
    flight outlives its plan's cache entry: a link's set must stay the
    same object through every cut and repair, or a packet clocked onto
    the link under an old plan is invisible to the cut that severs it."""

    K = ("tor0", "tor3")  # a shard boundary when racks 0-2 | 3-4 are split
    UNRELATED = ("tor1", "tor2")
    BURST = 40

    def burst_through_churn(self, fastpath, first, sharded):
        """A burst queued behind h0.0's NIC, all on one plan compiled at
        t=0; ``first`` is cut and repaired at 1 us (clearing the plan
        cache under the burst), then K is cut at 6 us with the burst's
        middle on it (the tail detours)."""
        topo = quartz_ring(5, servers_per_switch=1)
        if sharded:
            owned = partition_racks(topo, 2)[0]
            net = ShardNetwork(topo, ECMPRouter(topo), owned=owned, fastpath=fastpath)
        else:
            net = Network(topo, ECMPRouter(topo), fastpath=fastpath)
        net.enable_fault_tracking()
        packets = [net.send("h0.0", "h3.0", 400) for _ in range(self.BURST)]
        severed = {}

        def churn():
            severed["first"] = net.fail_link(*first)
            net.repair_link(*first)
            severed["flight"] = net._in_flight[self.K]

        def cut():
            severed["second"] = net.fail_link(*self.K)

        net.engine.call_at(1e-6, churn)
        net.engine.call_at(6e-6, cut)
        net.run(until=1e-3)
        shipped = len(net.drain_outbox(cutoff=1.0)) if sharded else 0
        assert net._in_flight[self.K] is severed.pop("flight")
        assert not net._in_flight[self.K]
        if fastpath:
            # Every severed packet was riding the t=0 plan, which left
            # the cache at 1 us and still holds the registry's own set.
            plan = packets[0].plan
            assert all(p.plan is plan for p in packets if p.dropped)
            assert net._plans.get(plan.path) is not plan
            assert plan.flights[1] is net._in_flight[self.K]
        return (
            severed, shipped, net.packets_delivered, net.packets_dropped_fault,
            net.packets_rerouted, getattr(net, "suppressed_events", 0),
            tuple(p.dropped for p in packets),
        )

    @pytest.mark.parametrize("sharded", [False, True])
    @pytest.mark.parametrize("first", [UNRELATED, K])
    def test_packet_on_an_old_plan_is_severed_by_a_later_cut(self, first, sharded):
        kernel = self.burst_through_churn(True, first, sharded)
        oracle = self.burst_through_churn(False, first, sharded)
        assert kernel == oracle
        severed, shipped, delivered, dropped, _, _, _ = kernel
        assert severed["second"] > 0  # the burst's middle was on K at 6 us
        assert (severed["first"] > 0) == (first == self.K)
        assert dropped == severed["first"] + severed["second"]
        # Nothing vanished: delivered here, shipped to the peer shard,
        # or severed and counted.
        assert delivered + shipped + dropped == self.BURST

    def test_received_boundary_packet_is_severed_through_the_same_set(self):
        """The receiving shard registers an inbound packet through the
        dict before any plan over K exists; the plan compiled for it
        binds that same set, and a cut before arrival finds the packet."""
        topo = quartz_ring(5, servers_per_switch=1)
        parts = partition_racks(topo, 2)
        sender = ShardNetwork(topo, ECMPRouter(topo), owned=parts[0], fastpath=True)
        sender.send("h0.0", "h3.0", 400)
        sender.run(until=1e-3)
        (message,) = sender.drain_outbox(cutoff=1.0)
        topo = quartz_ring(5, servers_per_switch=1)
        receiver = ShardNetwork(
            topo, ECMPRouter(topo), owned=parts[1], shard_index=1, fastpath=True
        )
        receiver.enable_fault_tracking()
        receiver.receive_boundary([message])
        plan = receiver._plans[message.path]
        assert plan.flights[message.hop] is receiver._in_flight[self.K]
        assert receiver.fail_link(*self.K) == 1
        receiver.run(until=1e-3)
        assert receiver.packets_delivered == 0
        assert receiver.packets_dropped_fault == 1

    def test_rapid_recut_matches_serial_and_oracle(self, monkeypatch):
        """Whole runs: a segment cut, spliced 1 us later and cut again
        2 us after that, under load heavy enough that packets injected
        before the splice are still crossing when the second cut lands.
        Serial == inline-sharded, kernel == oracle."""
        specs = tuple(
            SourceSpec(
                src=f"h{rack}.{server}", dst=f"h{(rack + 2) % 5}.{server}",
                rate_pps=2_000_000.0, group=f"g{rack % 2}",
                flow_id=rack * 10 + server, seed=rack * 10 + server,
            )
            for rack in range(5) for server in range(2)
        )

        def scenario(recut):
            cuts = (SegmentCut(start=1e-4, ring=0, segment=1, repair_at=1.01e-4),)
            if recut:
                cuts += (SegmentCut(start=1.03e-4, ring=0, segment=1),)
            return ParallelScenario(
                fabric="quartz-ring", fabric_args=(5, 2), sources=specs,
                duration=3e-4, fault_cuts=cuts, fault_plan=(5, None),
            )

        once = run_serial(scenario(False))
        kernel = run_serial(scenario(True))
        sharded = run_parallel(
            scenario(True), num_shards=2, mode="inline"
        )
        assert kernel.packets_dropped_fault > once.packets_dropped_fault > 0
        assert sharded.fingerprint() == kernel.fingerprint()
        for cls in ("Network", "ShardNetwork"):  # serial, then each shard
            monkeypatch.setattr(
                parallel_module, cls,
                functools.partial(getattr(parallel_module, cls), fastpath=False),
            )
        assert run_serial(scenario(True)).fingerprint() == kernel.fingerprint()
        oracle_sharded = run_parallel(
            scenario(True), num_shards=2, mode="inline"
        )
        assert oracle_sharded.fingerprint() == kernel.fingerprint()
