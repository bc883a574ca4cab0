"""Integration tests for the fault-recovery experiment (small instances)."""

import pytest

from repro import obs
from repro.experiments import (
    fault_recovery_sweep,
    format_fault_recovery,
    run_fault_recovery_cell,
)

#: Small, fast cell used throughout — ~0.3 s of wall clock.
FAST = dict(
    ring_size=5,
    servers_per_switch=1,
    per_pair_bandwidth_bps=2e9,
    duration=0.002,
    cut_at=0.0008,
    repair_after=0.0006,
    warmup=0.0003,
    bin_width=0.0001,
)


class TestCell:
    def test_cut_disrupts_live_traffic(self):
        result = run_fault_recovery_cell(num_rings=1, num_cuts=1, **FAST)
        assert result.channels_severed > 0
        # The acceptance bar: an in-use channel cut shows up in traffic.
        assert result.packets_dropped + result.packets_rerouted > 0
        assert result.packets_delivered > 100

    def test_goodput_recovers_after_repair(self):
        result = run_fault_recovery_cell(num_rings=1, num_cuts=1, **FAST)
        assert result.baseline_goodput_bps > 0
        assert result.recovered_goodput_bps >= 0.9 * result.baseline_goodput_bps
        assert result.recovery_latency is not None

    def test_more_rings_sever_fewer_channels(self):
        one = run_fault_recovery_cell(num_rings=1, num_cuts=1, **FAST)
        three = run_fault_recovery_cell(num_rings=3, num_cuts=1, **FAST)
        assert three.channels_severed <= one.channels_severed

    def test_deterministic_for_seed(self):
        a = run_fault_recovery_cell(num_rings=2, num_cuts=1, seed=4, **FAST)
        b = run_fault_recovery_cell(num_rings=2, num_cuts=1, seed=4, **FAST)
        assert a == b

    def test_unknown_router_rejected(self):
        with pytest.raises(ValueError, match="router"):
            run_fault_recovery_cell(router="hot-potato", **FAST)

    def test_bad_windows_rejected(self):
        bad = dict(FAST)
        bad["warmup"] = bad["cut_at"]
        with pytest.raises(ValueError, match="warmup"):
            run_fault_recovery_cell(**bad)
        bad = dict(FAST)
        bad["repair_after"] = 1.0
        with pytest.raises(ValueError, match="duration"):
            run_fault_recovery_cell(**bad)

    def test_never_repaired_stays_degraded(self):
        no_repair = dict(FAST, repair_after=None)
        result = run_fault_recovery_cell(num_rings=1, num_cuts=1, **no_repair)
        assert result.recovery_latency is None

    def test_vlb_router_runs(self):
        result = run_fault_recovery_cell(num_rings=1, num_cuts=1, router="vlb", **FAST)
        assert result.packets_delivered > 100


class TestPortMajor:
    def test_most_packets_are_solved_port_major(self):
        """A silent fall back to the event loop — a timer, the armed
        tracking or the goodput bins standing the pass down again —
        fails here, without a stopwatch."""
        obs.arm()
        try:
            result = run_fault_recovery_cell(num_rings=2, num_cuts=1, **FAST)
            counters = dict(obs.registry().counters)
        finally:
            obs.disarm()
        sent = result.packets_delivered + result.packets_dropped
        assert counters["batch.packets"] >= 0.5 * sent
        assert "batch.standdown.faults" not in counters


class TestSweep:
    def test_parallel_matches_serial(self):
        serial = fault_recovery_sweep(
            ring_counts=[1, 2], cut_counts=[1], workers=1, **FAST
        )
        parallel = fault_recovery_sweep(
            ring_counts=[1, 2], cut_counts=[1], workers=2, **FAST
        )
        assert serial == parallel

    def test_format_renders_every_cell(self):
        results = fault_recovery_sweep(ring_counts=[1], cut_counts=[1], **FAST)
        text = format_fault_recovery(results)
        assert "rings" in text and "rerouted" in text
        assert len(text.splitlines()) == 3 + len(results)
