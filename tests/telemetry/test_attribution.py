"""Microburst detection and flow attribution over synthetic hop logs."""

from repro.telemetry import (
    Diagnosis,
    TelemetryHub,
    detect_microbursts,
    diagnose,
    rank_flows,
)
from tests.telemetry.test_windows import enqueue

HOT = ("tor0", "h0.0")
COLD = ("tor1", "h1.0")


def hub_with_incast():
    """One hot port (flow "heavy" dominating window 1) and one cold port."""
    hub = TelemetryHub(window=1.0)
    # Background trickle on both ports, every window.
    for key in (HOT, COLD):
        for k in range(4):
            enqueue(hub, "bg", 10, k + 0.1, k + 0.1, k + 0.2, key=key)
    # The burst: ten deep back-to-back arrivals on the hot port in
    # window 1, flow "heavy" carrying most of the bytes.
    busy = 1.0
    for i in range(10):
        arrival = 1.0 + 0.01 * i
        start = max(arrival, busy)
        busy = start + 0.05
        flow = "heavy" if i < 8 else "light"
        enqueue(hub, flow, 400, arrival, start, busy, key=HOT)
    return hub


class TestRanking:
    def test_rank_flows_by_occupancy(self):
        hub = hub_with_incast()
        peak = hub.monitors[HOT].peak_window
        ranked = rank_flows(peak)
        assert ranked[0][0] == "heavy"
        assert ranked == sorted(ranked, key=lambda kv: (-kv[1], kv[0]))

    def test_rank_ties_break_on_label(self):
        hub = TelemetryHub(window=1.0)
        enqueue(hub, "b", 100, 0.1, 0.1, 0.2, key=HOT)
        enqueue(hub, "a", 100, 0.3, 0.3, 0.4, key=HOT)
        (win,) = hub.monitors[HOT].windows()
        assert [f for f, _ in rank_flows(win)] == ["a", "b"]

    def test_drop_only_window_ranks_no_flow(self):
        hub = TelemetryHub(window=1.0)
        hub.drops.append((HOT, "a", 0.5))  # drop-only window: no occupancy
        (win,) = hub.monitors[HOT].windows()
        assert rank_flows(win) == []


class TestMicrobursts:
    def test_deep_window_detected(self):
        hub = hub_with_incast()
        bursts = detect_microbursts(hub, min_depth=8)
        assert any(b.port == HOT and b.window.index == 1 for b in bursts)

    def test_quiet_port_stays_quiet(self):
        hub = hub_with_incast()
        bursts = detect_microbursts(hub, min_depth=8, occupancy_factor=1e9)
        assert all(b.port != COLD for b in bursts)

    def test_occupancy_factor_triggers_without_depth(self):
        hub = hub_with_incast()
        # Depth gate unreachable: only the occupancy spike can fire.
        bursts = detect_microbursts(hub, min_depth=10**6, occupancy_factor=3.0)
        assert any(b.port == HOT and b.window.index == 1 for b in bursts)

    def test_ordered_by_port_then_window(self):
        bursts = detect_microbursts(hub_with_incast(), min_depth=1)
        order = [(b.port, b.window.index) for b in bursts]
        assert order == sorted(order)

    def test_burst_span_properties(self):
        hub = hub_with_incast()
        burst = next(
            b for b in detect_microbursts(hub, min_depth=8) if b.window.index == 1
        )
        assert burst.start == 1.0
        assert burst.end == 2.0
        assert burst.peak_depth >= 8
        assert burst.occupancy > 0.0


class TestDiagnosis:
    def test_localizes_port_and_flow(self):
        report = diagnose(hub_with_incast())
        assert report.culprit_port == HOT
        assert report.culprit_flow == "heavy"

    def test_ports_ranked_by_total_occupancy(self):
        report = diagnose(hub_with_incast())
        occupancies = [occ for _, occ in report.ports]
        assert occupancies == sorted(occupancies, reverse=True)
        assert report.ports[0][0] == HOT

    def test_empty_hub_diagnoses_nothing(self):
        report = diagnose(TelemetryHub())
        assert report == Diagnosis(ports=(), flows=(), bursts=())
        assert report.culprit_port is None
        assert report.culprit_flow is None

    def test_deterministic(self):
        assert diagnose(hub_with_incast()) == diagnose(hub_with_incast())
