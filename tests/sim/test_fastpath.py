"""The compiled forwarding kernel, held to the independent model.

The kernel (``Network._hop`` walking :mod:`repro.sim.fastpath` plans on
engine-chained events) must compute DESIGN.md §5's switch spec: fed the
same fires and fault timeline, the model of ``tests/sim/model.py``
reaches the same per-packet latencies in delivery order, the same
drop/reroute counters and the same per-port state, bit for bit —
including under mid-run fault injection (which invalidates compiled
plans and detours packets mid-chain).  Armed telemetry must change none
of it, and per-packet draws must not either.
"""

from contextlib import contextmanager

import pytest

import repro.topology as T
from repro import obs
from repro.hybrid import BackgroundFlow, HybridNetwork
from repro.routing import ECMPRouter, RoutingError, VLBRouter
from repro.sim import Network, NetworkSimError, ULL, sources
from repro.sim.fastpath import compile_plan
from repro.sim.network import DEFAULT_PROPAGATION_DELAY, DEFAULT_SERVER_FORWARD_LATENCY
from repro.sim.sources import PoissonSource
from repro.units import GBPS, serialization_delay
from tests.sim.model import FabricModel, outcome, record_fires


def network_fingerprint(net):
    """Every externally visible number of a finished (or paused) run.

    Fault bookkeeping included: the per-flow counters and open outages
    (a cut severs a link's in-flight *set*, whose iteration order is by
    address, so the dicts it fills are compared as sorted items; the
    closed outages are filled in delivery order and compared as they
    are), and which packets each link holds.  ``disarmed`` in
    ``test_legs.py`` slices around positions 8 and 9; new fields go at
    the end."""
    engine = net.engine
    faults = net.fault_stats
    return (
        net.packets_delivered,
        net.packets_dropped,
        net.packets_dropped_fault,
        net.packets_rerouted,
        engine.events_processed,
        tuple(net.stats.samples),
        sorted(
            (key, p.packets_sent, p.bytes_sent, p.busy_until)
            for key, p in net._ports.items()
        ),
        engine.pending(),
        net.telemetry.window_dump() if net.telemetry is not None else None,
        {
            flow: {node: vars(agg) for node, agg in per_node.items()}
            for flow, per_node in net.stats.hop_stamps.items()
        },
        sorted(faults.drops_by_flow.items()),
        tuple(faults.reroutes_by_flow.items()),
        tuple((flow, tuple(times)) for flow, times in faults.recovery_times_by_flow.items()),
        sorted(faults.awaiting_recovery.items()),
        {
            link: sorted(packet.packet_id for packet in flight)
            for link, flight in net._in_flight.items() if flight
        },
    )


@contextmanager
def per_packet_draws(enabled=True):
    """While active (and ``enabled``), Poisson sources draw one packet at
    a time: the per-packet draw reference."""
    with pytest.MonkeyPatch.context() as patch:
        if enabled:
            patch.setattr(sources, "DEFAULT_CHUNK", 1)
        yield


def model_of(topo, tracked=False):
    """The model over ``topo``, ECMP-routed, with the network's default
    delays."""
    return FabricModel(
        topo, ECMPRouter(topo), propagation_delay=DEFAULT_PROPAGATION_DELAY,
        server_forward_latency=DEFAULT_SERVER_FORWARD_LATENCY,
        host_receive_latency=0.0, tracked=tracked,
    )


def run_fixed(fault=False, telemetry=False, draws=False):
    """Run a fixed workload: ``(net, outcome of the model fed its fires)``.
    ``draws`` draws the Poisson gaps packet by packet."""
    with per_packet_draws(draws):
        topo = T.three_tier_tree()
        net = Network(topo, ECMPRouter(topo), telemetry=telemetry)
        engine = net.engine
        servers = topo.servers()
        # Six senders converge on one receiver: the shared downlink
        # oversubscribes (~11.5 Gbps offered into 10 Gbps).
        sources = [
            PoissonSource(
                net, servers[i], servers[-1], rate_pps=600_000.0,
                seed=i, flow_id=i, group="load",
            )
            for i in range(6)
        ]
        fires = record_fires(net, sources)
        for source in sources:
            source.start()
        if fault:
            # Cut a link on the first pair's route mid-run, repair later:
            # this severs in-flight packets, forces detours, and must clear
            # the compiled-plan cache both times.
            probe = net.router.route(servers[0], servers[-1], 0)
            u, v = probe[1], probe[2]
            net.enable_fault_tracking()
            engine.schedule(0.004, lambda: net.fail_link(u, v))
            engine.schedule(0.008, lambda: net.repair_link(u, v))
        engine.run(until=0.012)
    # The same schedule, in the same order: the sources, then the faults.
    model = model_of(T.three_tier_tree(), tracked=fault)
    for record in fires:
        model.source(record)
    if fault:
        model.cut(0.004, u, v)
        model.repair(0.008, u, v)
    model.run(0.012)
    return net, model.outcome()


class TestEquivalence:
    def test_plain_traffic_bit_identical(self):
        net, model = run_fixed()
        assert outcome(net) == model
        assert net.packets_delivered > 30_000

    def test_fault_injection_bit_identical(self):
        net, model = run_fixed(fault=True)
        assert outcome(net) == model
        # severed packets and detours
        assert net.packets_dropped_fault > 0 and net.packets_rerouted > 0

    @pytest.mark.parametrize("fault", [False, True])
    def test_telemetry_stamping_bit_identical(self, fault):
        """Monitors and INT stamps see the same queue, hop for hop —
        through a cut, the detours it forces, and the repair — whether
        the gaps are drawn in chunks or packet by packet."""
        armed, model = run_fixed(fault, telemetry=True)
        reference, _ = run_fixed(fault, telemetry=True, draws=True)
        fast = network_fingerprint(armed)
        assert fast == network_fingerprint(reference)
        assert fast[9]  # stamps were folded in
        assert outcome(armed) == model
        # Strictly observational: the armed run equals the disarmed one.
        assert fast[:8] == network_fingerprint(run_fixed(fault)[0])[:8]


def detoured_packet():
    """One packet whose route dies two hops ahead of it, mid-flight:
    ``(net, packet, original path, the model's outcome)``."""
    topo = T.three_tier_tree()
    net = Network(topo, ECMPRouter(topo))
    packet = net.send("h0.0", "h15.0", 400)
    original = packet.path
    # The packet is still on its first link when a link further down
    # its path is cut: it reaches that hop, finds it dead, and detours.
    net.engine.schedule(1e-9, net.fail_link, original[2], original[3])
    net.run()
    model = model_of(T.three_tier_tree())
    model.source([(0.0, [("h0.0", "h15.0", 400, 0, None)])])
    model.cut(1e-9, original[2], original[3])
    model.run(1.0)
    return net, packet, original, model.outcome()


class TestMidPathDetour:
    def test_chain_continues_to_delivery(self):
        net, packet, original, _ = detoured_packet()
        assert packet.rerouted and packet.path != original
        # The detour re-entered the kernel from inside a chained step;
        # the chain must carry on along the new plan, not end silently.
        assert packet.delivered_at is not None
        assert net.packets_delivered == 1 and net.packets_dropped == 0
        assert net.engine.pending() == 0

    def test_matches_oracle(self):
        """The oracle is the model."""
        net, _, _, model = detoured_packet()
        assert outcome(net) == model
        assert model["counters"][3] == 1  # rerouted


class TestPlanCache:
    @pytest.fixture
    def net(self):
        topo = T.three_tier_tree()
        return Network(topo, ECMPRouter(topo))

    def test_plan_shared_across_packets(self, net):
        first = net.send("h0.0", "h15.0", 400)
        second = net.send("h0.0", "h15.0", 400)
        assert first.plan is second.plan
        assert len(net._plans) == 1

    def test_distinct_paths_get_distinct_plans(self, net):
        a = net.send("h0.0", "h15.0", 400, flow_id=0)
        b = net.send("h1.0", "h14.0", 400, flow_id=1)
        assert a.plan is not b.plan

    def test_fail_link_clears_cache(self, net):
        packet = net.send("h0.0", "h15.0", 400)
        net.run()
        assert net._plans
        u, v = packet.path[1], packet.path[2]
        net.fail_link(u, v)
        assert not net._plans

    def test_repair_link_clears_cache(self, net):
        packet = net.send("h0.0", "h15.0", 400)
        net.run()
        u, v = packet.path[1], packet.path[2]
        net.fail_link(u, v)
        net.send("h0.0", "h15.0", 400)
        assert net._plans
        net.repair_link(u, v)
        assert not net._plans

    def test_missing_link_raises_same_error(self, net):
        with pytest.raises(NetworkSimError, match="no link"):
            compile_plan(net._link_rec, net._hop_rec, {}, ("h0.0", "h15.0"))


class TestBoundFlows:
    """``send`` binds ``(src, dst, flow_id)`` to ``(route, plan)`` and asks
    the router again only when the binding is gone: the binding must never
    outlive the links it was made against."""

    DIRECT = ("h0.0", "tor0", "tor1", "h1.0")

    @pytest.fixture
    def mesh(self):
        topo = T.quartz_ring(5, servers_per_switch=1)
        return Network(topo, ECMPRouter(topo))

    @staticmethod
    def count_route_calls(net, monkeypatch):
        calls = []
        route = net.router.route

        def counting(src, dst, flow_id=0):
            calls.append((src, dst, flow_id))
            return route(src, dst, flow_id)

        monkeypatch.setattr(net.router, "route", counting)
        return calls

    def test_router_asked_once_per_flow(self, mesh, monkeypatch):
        calls = self.count_route_calls(mesh, monkeypatch)
        packets = [mesh.send("h0.0", "h1.0", 400, flow_id=7) for _ in range(5)]
        mesh.send("h0.0", "h1.0", 400, flow_id=8)
        assert calls == [("h0.0", "h1.0", 7), ("h0.0", "h1.0", 8)]
        assert len({id(p.plan) for p in packets}) == 1
        mesh.run()
        assert mesh.packets_delivered == 6

    def test_cut_rebinds_to_the_surviving_route_and_repair_restores(self, mesh):
        assert mesh.send("h0.0", "h1.0", 400).path == self.DIRECT
        mesh.fail_link("tor0", "tor1")
        assert not mesh._flows
        detour = mesh.send("h0.0", "h1.0", 400)
        assert detour.path != self.DIRECT and len(detour.path) == 5
        assert mesh.send("h0.0", "h1.0", 400).plan is detour.plan  # bound again
        mesh.repair_link("tor0", "tor1")
        assert mesh.send("h0.0", "h1.0", 400).path == self.DIRECT
        mesh.run()
        assert mesh.packets_delivered == 4 and not mesh.packets_rerouted

    def test_partition_raises_every_time_then_traffic_resumes(self):
        topo = T.quartz_ring(3, servers_per_switch=1)
        net = Network(topo, VLBRouter(topo))
        net.send("h0.0", "h1.0", 400)  # bound while the mesh was whole
        net.fail_link("tor0", "tor1")
        net.fail_link("tor0", "tor2")
        for _ in range(3):  # the error is not cached, and neither is a route
            with pytest.raises(RoutingError):
                net.send("h0.0", "h1.0", 400)
        assert not net._flows
        net.repair_link("tor0", "tor1")
        net.send("h0.0", "h1.0", 400)
        net.run()
        assert net.packets_delivered == 2

    def test_explicit_path_bypasses_the_table(self, mesh, monkeypatch):
        via = ("h0.0", "tor0", "tor2", "tor1", "h1.0")
        assert mesh.send("h0.0", "h1.0", 400).path == self.DIRECT
        calls = self.count_route_calls(mesh, monkeypatch)
        assert mesh.send("h0.0", "h1.0", 400, path=via).path == via
        assert mesh.send("h0.0", "h1.0", 400, path=list(via)).path == via
        assert mesh._flows[("h0.0", "h1.0", 0)][0] == self.DIRECT  # not rebound
        assert mesh.send("h0.0", "h1.0", 400).path == self.DIRECT
        assert calls == []  # neither the bound flow nor ``path=`` asked
        with pytest.raises(NetworkSimError, match="does not join"):
            mesh.send("h0.0", "h2.0", 400, path=via)

    def test_hybrid_residual_epoch_rebinds(self):
        """A bound plan carries its links' serialization: a residual
        change must drop it, or the flow keeps the old link speed."""

        topo = T.quartz_ring(3, 1)
        src, dst = topo.servers()[:2]
        background = [BackgroundFlow(1_000_000, src, dst, 5 * GBPS, 1e-4, 2e-4)]
        net = HybridNetwork(topo, ECMPRouter(topo), background, hybrid=True)
        latencies = []
        for when in (0.0, 1.5e-4, 2.5e-4):  # before, inside, after the epoch
            net.run(until=when)
            packet = net.send(src, dst, 1500.0)
            net.run(until=when + 5e-5)
            latencies.append(packet.latency)
        assert net.residual_epoch == 2
        # A stale binding would keep the first packet's link speed.
        assert latencies[1] > 1.5 * latencies[0]  # half the capacity on every link
        assert latencies[2] == pytest.approx(latencies[0])

    def test_table_is_bounded_and_full_table_changes_nothing(self, monkeypatch):
        """Ten bounds' worth of one-shot flow ids: the table stops at its
        bound, later flows fall through to the router, same results."""

        def run(limit, armed=False):
            topo = T.quartz_ring(5, servers_per_switch=1)
            if armed:
                obs.arm()
            net = Network(topo, VLBRouter(topo))
            if limit is not None:
                monkeypatch.setattr(net, "FLOW_TABLE_LIMIT", limit, raising=False)
            source = PoissonSource(
                net, "h0.0", ["h1.0", "h2.0", "h3.0"], rate_pps=2e6, seed=5,
                vary_flow_per_packet=True, stop_at=1.6e-4,
            )
            source.start()
            net.run()
            return net, (
                source.packets_sent, net.engine.events_processed,
                tuple(net.stats.samples),
                sorted((k, p.packets_sent, p.busy_until) for k, p in net._ports.items()),
            )

        bounded, result = run(32)
        unbounded, reference = run(None)
        assert result == reference
        assert result[0] >= 320  # ten times the bound, every flow id new
        assert len(bounded._flows) == 32
        assert len(unbounded._flows) == result[0]

        # The fall-through has a name, and counting it changes nothing.
        try:
            _, observed = run(32, armed=True)
            counters = dict(obs.registry().counters)
        finally:
            obs.disarm()
        assert observed == result
        assert counters["fastpath.flow_table_full"] == result[0] - 32

    @pytest.mark.parametrize("router", [ECMPRouter, VLBRouter])
    def test_full_tables_are_counted_disarmed(self, monkeypatch, router):
        """With observation disarmed, the network still counts the flows
        its full table turned away, and the router the picks its full
        memo did not keep; an armed registry mirrors both, equal."""
        monkeypatch.setattr(Network, "FLOW_TABLE_LIMIT", 32)
        monkeypatch.setattr(router, "ROUTE_CACHE_LIMIT", 16)

        def run():
            topo = T.quartz_ring(5, servers_per_switch=1)
            net = Network(topo, router(topo))
            source = PoissonSource(
                net, "h0.0", ["h1.0", "h2.0", "h3.0"], rate_pps=2e6, seed=5,
                vary_flow_per_packet=True, stop_at=1.6e-4,
            )
            source.start()
            net.run()
            return source.packets_sent, net.flow_table_full, net.router.route_cache_full

        sent, flow_table_full, route_cache_full = run()
        obs.arm()
        try:
            assert run() == (sent, flow_table_full, route_cache_full)
            counters = dict(obs.registry().counters)
        finally:
            obs.disarm()
        assert sent >= 320  # ten times the flow table, every flow id new
        assert flow_table_full == sent - 32
        assert route_cache_full == sent - 16
        assert counters["fastpath.flow_table_full"] == flow_table_full
        assert counters["routing.route_cache_full"] == route_cache_full


def mixed_rate_topology(rate_in, rate_out):
    """server a — ULL switch — server b with different link rates."""
    topo = T.Topology(name="mixed")
    topo.add_server("a", rack=0)
    topo.add_server("b", rack=1)
    topo.add_switch("s", rack=0, switch_model="ULL")
    topo.add_link("a", "s", rate_in)
    topo.add_link("s", "b", rate_out)
    return topo


def one_by_one(topo, sizes, leg):
    """Latencies of packets ``a`` sends to ``b`` back to back at t = 0,
    in delivery order, through the kernel or the model."""
    if leg == "model":
        model = model_of(topo)
        model.source([(0.0, [("a", "b", size, 0, None) for size in sizes])])
        model.run(1.0)
        return model.outcome()["samples"]
    net = Network(topo, ECMPRouter(topo))
    for size in sizes:
        net.send("a", "b", size)
    net.run()
    return net.stats.samples


class TestCutThroughMixedRates:
    """Cut-through timing when ``ser_in != ser_out``.

    The switch starts clocking the packet out before the tail arrives:
    ``earliest_start`` is *before* the arrival event's ``now`` by
    ``min(ser_in, ser_out)``.  Expected latencies are hand-computed.
    """

    @pytest.mark.parametrize(
        "rate_in,rate_out",
        [(40 * GBPS, 10 * GBPS), (10 * GBPS, 40 * GBPS)],
        ids=["slow-out", "slow-in"],
    )
    @pytest.mark.parametrize("leg", ["kernel", "model"], ids=["fast", "ref"])
    def test_single_packet_latency(self, rate_in, rate_out, leg):
        latency = one_by_one(mixed_rate_topology(rate_in, rate_out), [400], leg)[0]
        ser_in = serialization_delay(400, rate_in)
        ser_out = serialization_delay(400, rate_out)
        # Host clocks the packet in (ser_in); the switch overlaps its
        # output with reception, so only the *excess* of ser_out over
        # the overlap min(ser_in, ser_out) is paid on the second hop.
        expected = (
            ser_in
            + DEFAULT_PROPAGATION_DELAY
            - min(ser_in, ser_out)
            + ULL.latency
            + ser_out
            + DEFAULT_PROPAGATION_DELAY
        )
        assert latency == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("leg", ["kernel", "model"], ids=["fast", "ref"])
    def test_queueing_defeats_cut_through_credit(self, leg):
        # A busy output port pushes the start past the cut-through
        # earliest_start: start = busy_until, not the credited time.
        first, second = one_by_one(mixed_rate_topology(40 * GBPS, 10 * GBPS), [1500, 1500], leg)
        # Second packet leaves the switch one full output serialization
        # after the first (they share the 10G switch→b port).
        ser_out = serialization_delay(1500, 10 * GBPS)
        assert second - first == pytest.approx(ser_out, rel=1e-12)

    def test_fast_and_reference_latencies_bitwise_equal(self):
        """The kernel and the model, bit for bit (exact floats)."""
        for rate_in, rate_out in [(40 * GBPS, 10 * GBPS), (10 * GBPS, 40 * GBPS)]:
            sizes = [400, 1500, 64]
            kernel = one_by_one(mixed_rate_topology(rate_in, rate_out), sizes, "kernel")
            assert kernel == one_by_one(mixed_rate_topology(rate_in, rate_out), sizes, "model")
