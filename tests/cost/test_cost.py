"""Tests for the cost model (price list, BOMs, Table 8 configurator)."""

import pytest

from repro.cost import (
    BillOfMaterials,
    BOMError,
    DEFAULT_PRICES,
    PriceList,
    quartz_core_bom,
    quartz_edge_and_core_bom,
    quartz_edge_bom,
    quartz_ring_bom,
    table8,
    three_tier_tree_bom,
    two_tier_tree_bom,
)
from repro.cost.configurator import format_table8


class TestBillOfMaterials:
    def test_add_and_count(self):
        bom = BillOfMaterials()
        bom.add("fiber_cable", 3)
        bom.add("fiber_cable", 2)
        assert bom.count("fiber_cable") == 5
        assert bom.count("amplifier") == 0

    def test_merge(self):
        a = BillOfMaterials({"fiber_cable": 1})
        b = BillOfMaterials({"fiber_cable": 2, "amplifier": 1})
        merged = a + b
        assert merged.count("fiber_cable") == 3
        assert merged.count("amplifier") == 1
        assert a.count("fiber_cable") == 1  # originals untouched

    def test_total_cost(self):
        bom = BillOfMaterials({"amplifier": 2, "attenuator": 10})
        expected = 2 * DEFAULT_PRICES.amplifier + 10 * DEFAULT_PRICES.attenuator
        assert bom.total_cost() == pytest.approx(expected)

    def test_unknown_part_rejected(self):
        bom = BillOfMaterials({"unobtainium": 1})
        with pytest.raises(BOMError):
            bom.total_cost()

    def test_negative_count_rejected(self):
        with pytest.raises(BOMError):
            BillOfMaterials().add("fiber_cable", -1)

    def test_cost_per_server(self):
        bom = BillOfMaterials({"dac_cable": 100})
        assert bom.cost_per_server(100) == pytest.approx(DEFAULT_PRICES.dac_cable)

    def test_zero_servers_rejected(self):
        with pytest.raises(BOMError):
            BillOfMaterials().cost_per_server(0)


class TestTreeBOMs:
    def test_two_tier_500_servers(self):
        bom = two_tier_tree_bom(500)
        # 11 ToRs (48 servers each) + 3 aggs for 176 uplinks.
        assert bom.count("cut_through_switch") == 14
        assert bom.count("sr_transceiver") == 2 * 176
        assert bom.count("dac_cable") == 500

    def test_three_tier_has_core_switches(self):
        bom = three_tier_tree_bom(10_000)
        assert bom.count("core_switch") >= 1
        assert bom.count("cut_through_switch") > 200

    def test_invalid_server_count(self):
        with pytest.raises(BOMError):
            two_tier_tree_bom(0)


class TestQuartzBOMs:
    def test_ring_optics_counts(self):
        bom = quartz_ring_bom(16, servers=500)
        assert bom.count("cut_through_switch") == 16
        assert bom.count("dwdm_transceiver") == 16 * 15
        assert bom.count("attenuator") == 16 * 15
        assert bom.count("dwdm_mux") == 16  # one ring: 35 λ < 80
        assert bom.count("amplifier") == 8
        assert bom.count("dac_cable") == 500

    def test_33_ring_needs_two_wdms_per_switch(self):
        bom = quartz_ring_bom(33, servers=0, include_server_cables=False)
        assert bom.count("dwdm_mux") == 66

    def test_tiny_ring_rejected(self):
        with pytest.raises(BOMError):
            quartz_ring_bom(1, servers=1)

    def test_edge_bom_includes_cores(self):
        bom = quartz_edge_bom(10_000)
        assert bom.count("core_switch") >= 1
        assert bom.count("qsfp_transceiver") > 0

    def test_core_bom_replaces_ccs_with_rings(self):
        tree = three_tier_tree_bom(100_000)
        quartz = quartz_core_bom(100_000)
        assert quartz.count("core_switch") == 0
        assert quartz.count("cut_through_switch") > tree.count("cut_through_switch")

    def test_edge_and_core_all_optical(self):
        bom = quartz_edge_and_core_bom(100_000)
        assert bom.count("core_switch") == 0
        assert bom.count("dwdm_mux") > 0


class TestTable8:
    @pytest.fixture(scope="class")
    def rows(self):
        return table8()

    def test_six_scenarios(self, rows):
        assert len(rows) == 6
        assert [r.datacenter for r in rows] == [
            "small", "small", "medium", "medium", "large", "large",
        ]

    def test_quartz_premium_is_modest(self, rows):
        """The premiums as measured, ±0.01: +10.13 % (small), +20.14 %
        (medium), −1.94 % / +23.90 % (large).  The paper gives 7 %, 13 %
        and 0 % / 17 %; ours run higher on the small, medium and large
        high-utilization rows (EXPERIMENTS.md, Table 8)."""
        measured = [0.1013, 0.1013, 0.2014, 0.2014, -0.0194, 0.2390]
        assert [row.cost_premium for row in rows] == [
            pytest.approx(m, abs=0.01) for m in measured
        ]

    def test_core_replacement_is_roughly_cost_neutral(self, rows):
        large_low = next(r for r in rows if r.datacenter == "large" and r.utilization == "low")
        assert abs(large_low.cost_premium) <= 0.10

    def test_latency_reductions_default_to_paper(self, rows):
        small_low = rows[0]
        assert small_low.latency_reduction == pytest.approx(0.33)

    def test_measured_reductions_override(self):
        rows = table8(latency_reductions={("small", "low"): 0.41})
        assert rows[0].latency_reduction == pytest.approx(0.41)

    def test_custom_prices_shift_costs(self):
        pricey = PriceList(dwdm_transceiver=5_000.0)
        default_rows = table8()
        pricey_rows = table8(prices=pricey)
        assert (
            pricey_rows[0].quartz_cost_per_server
            > default_rows[0].quartz_cost_per_server
        )
        assert pricey_rows[0].baseline_cost_per_server == pytest.approx(
            default_rows[0].baseline_cost_per_server
        )

    def test_format_contains_all_rows(self, rows):
        text = format_table8(rows)
        assert "two-tier tree" in text
        assert "Quartz in edge and core" in text
        assert "$/server" in text
