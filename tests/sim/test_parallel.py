"""Conservative-window parallel DES: fingerprint equivalence vs serial.

The contract under test (mirroring ``tests/sim/test_batch.py``'s
three-mode equivalence style): :func:`repro.sim.parallel.run_parallel`
produces a :meth:`~repro.sim.parallel.RunResult.fingerprint` — packet
counters, packet-id allocation, logical event count, every latency
sample, per-port transmission state, per-source send counts, per-flow
fault stats — **bit-identical** to :func:`~repro.sim.parallel.run_serial`
for any shard count, in both coordinator modes, with and without fault
churn crossing shard boundaries.
"""

from __future__ import annotations

import math

import pytest

import repro.topology as T
from repro.sim import Network
from repro.sim.faults import SegmentCut
from repro.topology.graph import shortest_path
from repro.sim.parallel import (
    BoundaryMessage,
    FABRICS,
    ParallelScenario,
    ParallelSimError,
    ShardNetwork,
    SourceSpec,
    boundary_links,
    lookahead,
    partition_racks,
    run_parallel,
    run_serial,
)
from repro.routing import ECMPRouter
from repro.sim.switch import ULL


RING = 5
SERVERS = 2


def make_scenario(fault: bool = False, duration: float = 2e-3) -> ParallelScenario:
    """Cross-rack Poisson mesh on a 5-switch ring, optionally with a
    cut + repair and an unrepaired cut whose severed channels include
    boundary links of every partition tested here."""
    specs = []
    for rack in range(RING):
        for server in range(SERVERS):
            specs.append(
                SourceSpec(
                    src=f"h{rack}.{server}",
                    dst=f"h{(rack + 2) % RING}.{server}",
                    rate_pps=300_000.0,
                    group=f"g{rack % 2}",
                    flow_id=rack * 10 + server,
                    seed=rack * 10 + server,
                )
            )
    cuts = ()
    plan = None
    if fault:
        cuts = (
            SegmentCut(start=0.4e-3, ring=0, segment=1, repair_at=1.2e-3),
            SegmentCut(start=0.7e-3, ring=0, segment=3),
        )
        plan = (RING, None)
    return ParallelScenario(
        fabric="quartz-ring",
        fabric_args=(RING, SERVERS),
        sources=tuple(specs),
        duration=duration,
        fault_cuts=cuts,
        fault_plan=plan,
    )


# -- partitioning ------------------------------------------------------------------


class TestPartitioning:
    def test_partition_covers_all_nodes_disjointly(self):
        topo = T.quartz_ring(RING, SERVERS)
        parts = partition_racks(topo, 3)
        assert len(parts) == 3
        union = set().union(*parts)
        assert union == set(topo.graph)
        assert sum(len(p) for p in parts) == len(topo.graph)

    def test_partition_is_contiguous_and_balanced(self):
        topo = T.quartz_ring(RING, SERVERS)
        parts = partition_racks(topo, 2)
        racks = [sorted({topo.rack(n) for n in part}) for part in parts]
        assert racks == [[0, 1, 2], [3, 4]]
        # Servers ride with their rack's ToR.
        for part in parts:
            for node in part:
                if topo.is_server(node):
                    assert topo.tor_of(node) in part

    def test_unracked_nodes_ride_with_shard_zero(self):
        topo = T.quartz_in_edge(num_rings=2, ring_size=3, num_cores=2)
        parts = partition_racks(topo, 2)
        cores = [n for n in topo.graph if topo.rack(n) is None]
        assert cores  # the composite has rack-less core switches
        assert all(core in parts[0] for core in cores)

    def test_too_many_shards_raises(self):
        topo = T.quartz_ring(3, 1)
        with pytest.raises(ParallelSimError, match="racks"):
            partition_racks(topo, 4)
        with pytest.raises(ParallelSimError, match="shard"):
            partition_racks(topo, 0)

    def test_boundary_links_cross_shards_only(self):
        topo = T.quartz_ring(RING, SERVERS)
        parts = partition_racks(topo, 2)
        owner = {n: i for i, p in enumerate(parts) for n in p}
        crossing = boundary_links(topo, parts)
        assert crossing
        for u, v in crossing:
            assert owner[u] != owner[v]
        # Directed both ways, host links never cross (servers stay racked).
        assert all((v, u) in crossing for u, v in crossing)
        assert all(not topo.is_server(u) and not topo.is_server(v)
                   for u, v in crossing)


class TestLookahead:
    def test_lookahead_is_switch_latency_plus_propagation(self):
        topo = T.quartz_ring(RING, SERVERS)
        parts = partition_racks(topo, 2)
        window = lookahead(topo, parts, propagation_delay=100e-9)
        # All boundary links are ToR-to-ToR on ULL cut-through switches;
        # the bound is latency + propagation (modulo the safety shave).
        expected = (ULL.latency + 100e-9)
        assert window == pytest.approx(expected, rel=1e-6)
        assert window < expected  # strictly shaved, never optimistic

    def test_single_shard_has_no_boundary(self):
        topo = T.quartz_ring(RING, SERVERS)
        parts = partition_racks(topo, 1)
        assert math.isinf(lookahead(topo, parts))

    def test_nonpositive_propagation_rejected(self):
        topo = T.quartz_ring(RING, SERVERS)
        parts = partition_racks(topo, 2)
        with pytest.raises(ParallelSimError, match="propagation"):
            lookahead(topo, parts, propagation_delay=0.0)


# -- scenario validation -----------------------------------------------------------


class TestScenario:
    def test_unknown_fabric_rejected(self):
        with pytest.raises(ParallelSimError, match="fabric"):
            ParallelScenario(fabric="nope")

    def test_cuts_require_plan(self):
        with pytest.raises(ParallelSimError, match="fault_plan"):
            ParallelScenario(
                fabric="quartz-ring",
                fault_cuts=(SegmentCut(start=1e-3, ring=0, segment=0),),
            )

    def test_registry_covers_quartz_builders(self):
        assert "quartz-ring" in FABRICS
        topo = ParallelScenario(
            fabric="quartz-ring", fabric_args=(3, 1)
        ).build_topology()
        assert len(topo.graph) == 3 + 3


# -- shard network unit behaviour --------------------------------------------------


def _shard_pair():
    topo = T.quartz_ring(RING, SERVERS)
    parts = partition_racks(topo, 2)
    net = ShardNetwork(topo, ECMPRouter(topo), owned=parts[0], shard_index=0)
    return topo, parts, net

class TestShardNetwork:
    def test_boundary_transmit_goes_to_outbox(self):
        topo, parts, net = _shard_pair()
        # h0.0 -> h3.0 must cross into shard 1 (racks 3-4).
        packet = net.send("h0.0", "h3.0", 400)
        net.engine.run(until=1e-3)
        messages = net.drain_outbox(cutoff=1.0)
        assert len(messages) == 1
        message = messages[0]
        assert message.packet_id == packet.packet_id
        assert message.path[message.hop] in parts[0]
        assert message.path[message.hop + 1] in parts[1]
        assert net.packets_delivered == 0  # lives on in the peer shard

    def test_local_traffic_never_crosses(self):
        _, _, net = _shard_pair()
        net.send("h0.0", "h2.0", 400)
        net.engine.run(until=1e-3)
        assert net.drain_outbox(cutoff=1.0) == []
        assert net.packets_delivered == 1

    def test_receive_boundary_rejects_late_arrivals(self):
        _, _, net = _shard_pair()
        net.engine.run(until=1e-3)
        stale = BoundaryMessage(
            arrival=0.5e-3, origin=1, seq=0, packet_id=7, src="h3.0",
            dst="h0.0", size_bytes=400.0, path=("h3.0", "tor3", "tor0", "h0.0"),
            created_at=0.4e-3, group=None, hop=2, rerouted=False,
        )
        with pytest.raises(ParallelSimError, match="lookahead violation"):
            net.receive_boundary([stale])

    def test_overrides_only_the_tail_out_extension_point(self):
        # One forwarding kernel: a shard adds the tail-out decision,
        # nothing else.
        overridden = {
            name for name in vars(ShardNetwork)
            if callable(getattr(ShardNetwork, name)) and hasattr(Network, name)
        }
        assert overridden == {"__init__", "_tail_out"}

    @pytest.mark.parametrize("tracked", [True, False])
    def test_detour_landing_on_a_boundary_goes_to_outbox(self, tracked):
        """A packet finds its next link dead and the detour's *first* hop
        leaves the shard: the kernel hands the rerouted packet,
        re-pointed at hop 0 of its detour, to the outbox — from the
        in-flight sets too when tracking was armed before the send."""
        topo = T.quartz_ring(RING, SERVERS)
        # h0.0 -> tor0 -> tor2 -> h2.0, with the tor0-tor2 channel cut
        # before the packet reaches tor0.  Own only what the detour's
        # first hop leaves, whichever neighbour the detour picks.
        survivors = topo.graph.copy()
        survivors.remove_edge("tor0", "tor2")
        detour = tuple(shortest_path(survivors, "tor0", "h2.0"))
        owned = frozenset(topo.graph) - set(detour[1:])
        net = ShardNetwork(topo, ECMPRouter(topo), owned=owned)
        if tracked:
            net.enable_fault_tracking()
        packet = net.send("h0.0", "h2.0", 400, path=("h0.0", "tor0", "tor2", "h2.0"))
        net.engine.schedule(1e-9, net.fail_link, "tor0", "tor2")
        net.engine.run(until=1e-3)
        assert packet.rerouted and packet.path == detour
        (message,) = net.drain_outbox(cutoff=1.0)
        assert (message.path, message.hop, message.rerouted) == (detour, 0, True)
        assert net._ports[detour[0], detour[1]].packets_sent == 1
        assert net.engine.pending() == 0 and net.packets_delivered == 0
        assert not any(net._in_flight.values())


# -- end-to-end equivalence --------------------------------------------------------


class TestFingerprintEquivalence:
    @pytest.mark.parametrize("num_shards", [2, 3, 5])
    def test_inline_matches_serial(self, num_shards):
        scenario = make_scenario()
        serial = run_serial(scenario)
        parallel = run_parallel(
            scenario, num_shards=num_shards, mode="inline"
        )
        assert parallel.mode == "parallel-inline"
        assert parallel.fingerprint() == serial.fingerprint()
        assert parallel.windows > 0
        assert parallel.boundary_messages > 0

    @pytest.mark.parametrize("num_shards", [2, 3])
    def test_fault_churn_matches_serial(self, num_shards):
        """Cut + repair crossing shard boundaries: severed boundary
        packets, reroutes, and per-flow drop attribution all merge to
        the serial reference exactly."""
        scenario = make_scenario(fault=True)
        serial = run_serial(scenario)
        assert serial.packets_dropped_fault > 0  # the churn actually bites
        assert serial.packets_rerouted > 0
        parallel = run_parallel(
            scenario, num_shards=num_shards, mode="inline"
        )
        assert parallel.fingerprint() == serial.fingerprint()

    def test_detour_crossings_match_serial(self, monkeypatch):
        """Sharded kernel == serial kernel through cuts whose detours
        cross shard boundaries at their first hop."""
        scenario = make_scenario(fault=True)
        crossings = []
        tail_out = ShardNetwork._tail_out

        def spy(self, packet, arrival):
            result = tail_out(self, packet, arrival)
            if result is None and packet.rerouted:
                crossings.append(packet.hop)
            return result

        monkeypatch.setattr(ShardNetwork, "_tail_out", spy)
        serial = run_serial(scenario)
        kernel = run_parallel(scenario, num_shards=2, mode="inline")
        assert 0 in crossings  # a detour's first hop left its shard
        assert kernel.fingerprint() == serial.fingerprint()

    def test_process_mode_matches_serial(self):
        scenario = make_scenario(fault=True, duration=1e-3)
        serial = run_serial(scenario)
        parallel = run_parallel(
            scenario, num_shards=2, mode="process"
        )
        assert parallel.fingerprint() == serial.fingerprint()
        assert parallel.mode == "parallel-process"
        assert parallel.spinup_seconds > 0.0
        assert parallel.compute_seconds > 0.0

    def test_single_shard_falls_back_to_serial(self):
        scenario = make_scenario(duration=0.5e-3)
        result = run_parallel(scenario, num_shards=1, mode="inline")
        assert result.mode == "serial"
        assert result.windows == 0

    def test_bad_mode_rejected(self):
        with pytest.raises(ParallelSimError, match="mode"):
            run_parallel(make_scenario(), num_shards=2, mode="threads")
        with pytest.raises(ParallelSimError, match="run_serial"):
            run_parallel(make_scenario(), num_shards=2, parallel=False)
