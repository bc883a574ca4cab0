"""Tests for demand-aware VLB and per-packet path variation."""

import pytest

import repro.topology as T
from repro.routing import DemandAwareVLBRouter, ECMPRouter
from repro.sim import Network, PoissonSource
from repro.units import GBPS


@pytest.fixture()
def mesh():
    return T.full_mesh(5, 2)


class TestDemandAwareVLB:
    def test_light_pairs_stay_direct(self, mesh):
        matrix = [("h0.0", "h1.0", 1 * GBPS)]
        router = DemandAwareVLBRouter(mesh, matrix)
        weighted = router.weighted_paths("h0.0", "h1.0")
        assert len(weighted) == 1
        assert weighted[0].weight == 1.0

    def test_heavy_pairs_spill(self, mesh):
        matrix = [
            ("h0.0", "h1.0", 10 * GBPS),
            ("h0.1", "h1.1", 10 * GBPS),
        ]
        router = DemandAwareVLBRouter(mesh, matrix)
        weighted = router.weighted_paths("h0.0", "h1.0")
        # 20 G demand over a 10 G channel: k = 0.9 × 10 / 20 = 0.45.
        assert weighted[0].weight == pytest.approx(0.45)
        assert sum(w.weight for w in weighted) == pytest.approx(1.0)

    def test_demand_is_per_direction(self, mesh):
        # Channels are full duplex: 10 G each way fits without spilling.
        matrix = [
            ("h0.0", "h1.0", 9 * GBPS),
            ("h1.1", "h0.1", 9 * GBPS),
        ]
        router = DemandAwareVLBRouter(mesh, matrix)
        assert len(router.weighted_paths("h0.0", "h1.0")) == 1
        assert len(router.weighted_paths("h1.1", "h0.1")) == 1

    def test_pairs_absent_from_matrix_stay_direct(self, mesh):
        router = DemandAwareVLBRouter(mesh, [("h0.0", "h1.0", 50 * GBPS)])
        assert len(router.weighted_paths("h2.0", "h3.0")) == 1

    def test_same_rack_traffic_ignored(self, mesh):
        router = DemandAwareVLBRouter(mesh, [("h0.0", "h0.1", 50 * GBPS)])
        assert router.weighted_paths("h0.0", "h0.1")[0].weight == 1.0

    def test_invalid_target(self, mesh):
        with pytest.raises(ValueError):
            DemandAwareVLBRouter(mesh, [], utilization_target=0.0)


class TestPerPacketPathVariation:
    def test_flow_ids_vary(self, mesh):
        net = Network(mesh, ECMPRouter(mesh))
        seen = set()
        original_send = net.send

        def spy(src, dst, size, flow_id=0, *args, **kwargs):
            seen.add(flow_id)
            return original_send(src, dst, size, flow_id, *args, **kwargs)

        net.send = spy
        source = PoissonSource(
            net, "h0.0", "h1.0", rate_pps=100_000, vary_flow_per_packet=True, seed=1
        )
        source.start()
        net.run(until=0.001)
        assert len(seen) == source.packets_sent

    def test_default_is_single_flow(self, mesh):
        net = Network(mesh, ECMPRouter(mesh))
        source = PoissonSource(net, "h0.0", "h1.0", rate_pps=100_000, seed=1)
        source.start()
        net.run(until=0.001)
        # All packets took the same (only) mesh path: one port used.
        assert net.port_utilization("tor0", "tor1", 0.001) > 0
