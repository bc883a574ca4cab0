"""Tests for the multi-ring fault model (paper Section 3.5 / Figure 6)."""

import pytest

from repro.core import fault
from repro.core.channels import greedy_assignment


@pytest.fixture(scope="module")
def plan33():
    return greedy_assignment(33)


class TestSingleScenario:
    def test_no_failures_no_loss(self, plan33):
        model = fault.RingFaultModel(33, 1, plan33)
        assert model.bandwidth_loss(set()) == 0.0
        assert not model.is_partitioned(set())

    def test_one_failure_loses_roughly_quarter(self, plan33):
        # Mean segment load on a 33-ring is 136/528 ≈ 26 % of channels
        # (the paper quotes ~20 %); this cell measures 0.25758, which is
        # 136/528.
        model = fault.RingFaultModel(33, 1, plan33)
        stats = model.simulate(num_failures=1, trials=200, seed=1)
        assert stats.bandwidth_loss == pytest.approx(136 / 528, abs=0.005)

    def test_one_failure_never_partitions(self, plan33):
        # A single cut leaves multi-hop paths around the other side.
        model = fault.RingFaultModel(33, 1, plan33)
        stats = model.simulate(num_failures=1, trials=100, seed=2)
        assert stats.partition_probability == 0.0

    def test_two_failures_on_one_ring_partition(self, plan33):
        # Paper: "two link failures in a ring partition the network"
        # (probability > 90 % in Figure 6; exactly 1 in our model since
        # two distinct segment cuts always split the ring).
        model = fault.RingFaultModel(33, 1, plan33)
        stats = model.simulate(num_failures=2, trials=100, seed=3)
        assert stats.partition_probability >= 0.9


class TestMultiRing:
    def test_two_rings_rarely_partition_on_four_failures(self, plan33):
        # Figure 6's headline: with two rings, four simultaneous fibre
        # failures partition with probability ≈ 0.0024.
        model = fault.RingFaultModel(33, 2, plan33)
        stats = model.simulate(num_failures=4, trials=1500, seed=4)
        assert stats.partition_probability < 0.03

    def test_four_rings_cut_loss_to_six_percent(self, plan33):
        # Figure 6: one failure on a 4-ring deployment loses ~6 %; this
        # cell measures 0.06439, which is 34/528.
        model = fault.RingFaultModel(33, 4, plan33)
        stats = model.simulate(num_failures=1, trials=300, seed=5)
        assert stats.bandwidth_loss == pytest.approx(34 / 528, abs=0.005)

    def test_loss_decreases_with_more_rings(self, plan33):
        losses = []
        for rings in (1, 2, 4):
            model = fault.RingFaultModel(33, rings, plan33)
            losses.append(model.simulate(1, trials=200, seed=6).bandwidth_loss)
        assert losses[0] > losses[1] > losses[2]

    def test_channels_spread_over_all_rings(self, plan33):
        model = fault.RingFaultModel(33, 2, plan33)
        rings_used = {ring for ring, _segments in model.pair_routes.values()}
        assert rings_used == {0, 1}


class TestValidation:
    def test_plan_size_mismatch(self, plan33):
        with pytest.raises(fault.FaultModelError):
            fault.RingFaultModel(10, 1, plan33)

    def test_zero_rings_rejected(self):
        with pytest.raises(fault.FaultModelError):
            fault.RingFaultModel(8, 0)

    def test_too_many_failures_rejected(self):
        model = fault.RingFaultModel(5, 1)
        with pytest.raises(fault.FaultModelError):
            model.simulate(num_failures=6, trials=10)

    def test_deterministic_for_seed(self):
        model = fault.RingFaultModel(9, 2)
        a = model.simulate(2, trials=50, seed=42)
        b = model.simulate(2, trials=50, seed=42)
        assert a == b


class TestExactEnumeration:
    def test_monte_carlo_matches_exact_small_ring(self):
        model = fault.RingFaultModel(6, 1)
        exact = model.exact_partition_probability(2)
        sampled = model.simulate(2, trials=2000, seed=7).partition_probability
        assert abs(exact - sampled) < 0.05

    def test_exact_single_failure_is_zero(self):
        model = fault.RingFaultModel(6, 1)
        assert model.exact_partition_probability(1) == 0.0


class TestSweep:
    def test_figure6_grid_shape(self):
        results = fault.figure6_sweep(ring_size=9, max_rings=2, max_failures=2, trials=50)
        assert len(results) == 4
        combos = {(r.num_rings, r.num_failures) for r in results}
        assert combos == {(1, 1), (1, 2), (2, 1), (2, 2)}


class TestDegenerateRings:
    def test_single_switch_ring_has_no_channels(self):
        model = fault.RingFaultModel(1, 1)
        assert model.pair_routes == {}
        assert model.bandwidth_loss({(0, 0)}) == 0.0
        # One node is trivially connected, cut or no cut.
        assert not model.is_partitioned({(0, 0)})

    def test_single_switch_monte_carlo_is_all_zero(self):
        stats = fault.RingFaultModel(1, 1).simulate(1, trials=10)
        assert stats.bandwidth_loss == 0.0
        assert stats.partition_probability == 0.0

    def test_two_switch_ring_single_cut(self):
        # One pair, one channel; its path crosses one of the two
        # segments, so a single cut either severs everything or nothing.
        model = fault.RingFaultModel(2, 1)
        (segments,) = [segs for _, segs in model.pair_routes.values()]
        used = {(0, segments[0])}
        unused = {(0, 1 - segments[0])}
        assert model.bandwidth_loss(used) == 1.0
        assert model.is_partitioned(used)
        assert model.bandwidth_loss(unused) == 0.0
