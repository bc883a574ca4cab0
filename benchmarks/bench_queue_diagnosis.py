"""Queue diagnosis: telemetry localization scored against ground truth.

Runs the (seed × cut) queue-diagnosis sweep — seeded incast bursts with
and without a mid-burst fibre cut — and scores the telemetry layer's
top-1 port and flow picks against the injected truth.  The PR 7
acceptance gate is precision and recall ≥ 0.9 on both dimensions; the
telemetry-integrity invariants (non-negative occupancy integrals,
gap-free window tiling) are asserted on every cell.
"""

from repro.experiments import (
    format_queue_diagnosis,
    queue_diagnosis_sweep,
    score_diagnosis,
)

GATE = 0.9


def bench_queue_diagnosis(benchmark, report):
    def run():
        return queue_diagnosis_sweep(
            seeds=(0, 1, 2, 3, 4),
            cuts=(False, True),
            workers=None,  # all CPUs; bit-identical to serial
        )

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    report("queue_diagnosis", format_queue_diagnosis(results))

    score = score_diagnosis(results)

    # Telemetry integrity on every cell, fault churn or not.
    for cell in results:
        assert cell.windows_observed > 0
        assert cell.windows_contiguous, f"window gap/overlap in seed {cell.seed}"
        assert cell.min_flow_occupancy >= 0.0
        # The injected burst must register as microbursts at the
        # culprit port, not just win the occupancy ranking.
        assert cell.bursts_at_culprit > 0
    # The cut cells actually exercised fault churn.
    assert any(c.cut and c.channels_severed > 0 for c in results)

    # Acceptance gate: localization precision/recall ≥ 0.9 for both the
    # culprit port and the culprit flow, micro-averaged over the sweep.
    assert score.port_precision >= GATE, f"port precision {score.port_precision:.2f}"
    assert score.port_recall >= GATE, f"port recall {score.port_recall:.2f}"
    assert score.flow_precision >= GATE, f"flow precision {score.flow_precision:.2f}"
    assert score.flow_recall >= GATE, f"flow recall {score.flow_recall:.2f}"
