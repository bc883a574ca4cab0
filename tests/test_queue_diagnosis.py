"""The queue-diagnosis experiment: localization against injected truth.

The PR 7 acceptance story: inject an incast whose culprit port and flow
the simulator knows exactly, then require the telemetry layer to find
both — including with a fibre-segment cut landing mid-burst, where
attribution must survive reroutes, drops, and route churn.  Telemetry
integrity (non-negative per-flow occupancy integrals, windows that tile
time with no overlaps or skips) is asserted on the same runs.
"""

import pytest

from repro.experiments.queue_diagnosis import (
    HEAVY_FLOW,
    DiagnosisScore,
    QueueDiagnosisResult,
    format_queue_diagnosis,
    queue_diagnosis_sweep,
    run_queue_diagnosis_cell,
    score_diagnosis,
)


@pytest.fixture(scope="module")
def calm_cell():
    return run_queue_diagnosis_cell(seed=0, cut=False)


@pytest.fixture(scope="module")
def churn_cell():
    # Seed 3's sampled SegmentCut lands on links the incast actually
    # crosses: the cut severs channels mid-burst and live packets are
    # dropped and rerouted while the queue is building.
    return run_queue_diagnosis_cell(seed=3, cut=True)


class TestLocalization:
    def test_culprit_port_and_flow_found(self, calm_cell):
        assert calm_cell.port_correct
        assert calm_cell.flow_correct
        assert calm_cell.detected_flow == HEAVY_FLOW

    def test_burst_registers_as_microbursts(self, calm_cell):
        assert calm_cell.bursts_at_culprit > 0
        assert calm_cell.peak_depth >= 8

    def test_victim_rotates_with_seed(self):
        cell = run_queue_diagnosis_cell(seed=2, cut=False)
        assert cell.true_port == ("tor2", "h2.0")
        assert cell.port_correct

    def test_deterministic(self, calm_cell):
        assert run_queue_diagnosis_cell(seed=0, cut=False) == calm_cell


class TestAttributionUnderFaultChurn:
    """The satellite: a SegmentCut mid-burst must not confuse attribution."""

    def test_cut_actually_disrupted_traffic(self, churn_cell):
        assert churn_cell.channels_severed > 0
        assert churn_cell.packets_dropped + churn_cell.packets_rerouted > 0

    def test_dominant_flow_still_attributed(self, churn_cell):
        assert churn_cell.port_correct
        assert churn_cell.flow_correct

    def test_no_negative_occupancy_integrals(self, churn_cell, calm_cell):
        assert churn_cell.min_flow_occupancy >= 0.0
        assert calm_cell.min_flow_occupancy >= 0.0

    def test_windows_never_overlap_or_skip_time(self, churn_cell, calm_cell):
        assert churn_cell.windows_contiguous
        assert calm_cell.windows_contiguous
        assert churn_cell.windows_observed > 0


class TestScoring:
    def test_perfect_sweep_scores_one(self):
        results = queue_diagnosis_sweep(seeds=(0, 1), cuts=(False,))
        score = score_diagnosis(results)
        assert score.cells == 2
        assert score.port_precision == score.port_recall == 1.0
        assert score.flow_precision == score.flow_recall == 1.0

    def test_miss_and_abstain_arithmetic(self, calm_cell):
        miss = QueueDiagnosisResult(
            **{
                **calm_cell.__dict__,
                "detected_port": ("tor9", "h9.0"),
                "detected_flow": "bg-0-1",
            }
        )
        abstain = QueueDiagnosisResult(
            **{**calm_cell.__dict__, "detected_port": None, "detected_flow": None}
        )
        score = score_diagnosis([calm_cell, miss, abstain])
        assert score == DiagnosisScore(
            cells=3, port_tp=1, port_predictions=2, flow_tp=1, flow_predictions=2
        )
        assert score.port_precision == 0.5
        assert score.port_recall == pytest.approx(1 / 3)

    def test_empty_sweep_scores_zero(self):
        score = score_diagnosis([])
        assert score.port_precision == 0.0
        assert score.port_recall == 0.0

    def test_format_renders_scorecard(self, calm_cell):
        text = format_queue_diagnosis([calm_cell])
        assert "tor0->h0.0" in text
        assert "port  precision 1.00  recall 1.00" in text
        assert "flow  precision 1.00  recall 1.00" in text


class TestValidation:
    def test_unknown_router_rejected(self):
        with pytest.raises(ValueError, match="unknown router"):
            run_queue_diagnosis_cell(router="spain")

    def test_bad_burst_span_rejected(self):
        with pytest.raises(ValueError, match="burst"):
            run_queue_diagnosis_cell(burst_at=0.004, burst_until=0.002)

    def test_sender_count_bounds(self):
        with pytest.raises(ValueError, match="incast_senders"):
            run_queue_diagnosis_cell(incast_senders=1)
        with pytest.raises(ValueError, match="incast_senders"):
            run_queue_diagnosis_cell(ring_size=5, incast_senders=5)


class TestParallelSweep:
    def test_workers_bit_identical(self):
        serial = queue_diagnosis_sweep(seeds=(0, 1), cuts=(True,), workers=1)
        fanned = queue_diagnosis_sweep(seeds=(0, 1), cuts=(True,), workers=2)
        assert serial == fanned


class TestWindowDump:
    def test_dump_written_and_contiguous(self, tmp_path):
        import json

        out = tmp_path / "windows.json"
        run_queue_diagnosis_cell(seed=0, cut=False, dump_windows_to=out)
        dump = json.loads(out.read_text())
        assert set(dump) == {"window_width", "unroutable", "ports"}
        assert dump["ports"], "monitored ports expected"
        for port in dump["ports"].values():
            indices = [w["index"] for w in port["windows"]]
            assert indices == list(range(indices[0], indices[-1] + 1))
