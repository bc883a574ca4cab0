"""Experiment runners that regenerate the paper's evaluation figures.

Each module wraps one evaluation section end-to-end (topology + workload
+ measurement), so benchmarks, examples, and downstream users reproduce
a figure with one call:

* :mod:`~repro.experiments.section7` — Figures 17 and 18 (task latency
  under global and localized traffic).
* :mod:`~repro.experiments.pathological` — Figure 20 (Section 7.2).
* :mod:`~repro.experiments.bisection` — Figure 10 (Section 5.1).
* :mod:`~repro.experiments.fault_recovery` — live fibre-cut recovery
  (the dynamic companion to Figure 6, Section 3.5).
* :mod:`~repro.experiments.queue_diagnosis` — telemetry localization of
  injected incast bursts (ROADMAP item 3 validation).
"""

from repro import _lazy_exports

__all__ = [
    "BisectionResult",
    "FABRIC_BUILDERS",
    "DiagnosisScore",
    "FaultRecoveryResult",
    "HEAVY_FLOW",
    "HYBRID_FABRIC_BUILDERS",
    "HybridScaleResult",
    "format_hybrid_scale",
    "hybrid_scale_experiment",
    "run_hybrid_scale_cell",
    "PathologicalResult",
    "QueueDiagnosisResult",
    "format_queue_diagnosis",
    "queue_diagnosis_sweep",
    "run_queue_diagnosis_cell",
    "score_diagnosis",
    "ROUTER_BUILDERS",
    "fault_recovery_sweep",
    "format_fault_recovery",
    "run_fault_recovery_cell",
    "TOPOLOGY_BUILDERS",
    "run_bisection_cell",
    "SweepPoint",
    "TaskExperimentResult",
    "breakdown_table",
    "figure10_sweep",
    "format_breakdown_table",
    "latency_breakdown",
    "figure17_sweep",
    "figure18_sweep",
    "figure20_sweep",
    "format_figure10",
    "format_figure20",
    "format_sweep",
    "nonblocking_testbed",
    "quartz_core_testbed",
    "run_pathological",
    "run_task_experiment",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    "breakdown_table": "repro.experiments.breakdown",
    "format_breakdown_table": "repro.experiments.breakdown",
    "latency_breakdown": "repro.experiments.breakdown",
    "FABRIC_BUILDERS": "repro.experiments.bisection",
    "BisectionResult": "repro.experiments.bisection",
    "figure10_sweep": "repro.experiments.bisection",
    "format_figure10": "repro.experiments.bisection",
    "run_bisection_cell": "repro.experiments.bisection",
    "ROUTER_BUILDERS": "repro.experiments.fault_recovery",
    "FaultRecoveryResult": "repro.experiments.fault_recovery",
    "fault_recovery_sweep": "repro.experiments.fault_recovery",
    "format_fault_recovery": "repro.experiments.fault_recovery",
    "run_fault_recovery_cell": "repro.experiments.fault_recovery",
    "HYBRID_FABRIC_BUILDERS": "repro.experiments.hybrid_scale:FABRIC_BUILDERS",
    "HybridScaleResult": "repro.experiments.hybrid_scale",
    "format_hybrid_scale": "repro.experiments.hybrid_scale",
    "hybrid_scale_experiment": "repro.experiments.hybrid_scale",
    "run_hybrid_scale_cell": "repro.experiments.hybrid_scale",
    "PathologicalResult": "repro.experiments.pathological",
    "figure20_sweep": "repro.experiments.pathological",
    "format_figure20": "repro.experiments.pathological",
    "nonblocking_testbed": "repro.experiments.pathological",
    "quartz_core_testbed": "repro.experiments.pathological",
    "run_pathological": "repro.experiments.pathological",
    "HEAVY_FLOW": "repro.experiments.queue_diagnosis",
    "DiagnosisScore": "repro.experiments.queue_diagnosis",
    "QueueDiagnosisResult": "repro.experiments.queue_diagnosis",
    "format_queue_diagnosis": "repro.experiments.queue_diagnosis",
    "queue_diagnosis_sweep": "repro.experiments.queue_diagnosis",
    "run_queue_diagnosis_cell": "repro.experiments.queue_diagnosis",
    "score_diagnosis": "repro.experiments.queue_diagnosis",
    "TOPOLOGY_BUILDERS": "repro.experiments.section7",
    "SweepPoint": "repro.experiments.section7",
    "TaskExperimentResult": "repro.experiments.section7",
    "figure17_sweep": "repro.experiments.section7",
    "figure18_sweep": "repro.experiments.section7",
    "format_sweep": "repro.experiments.section7",
    "run_task_experiment": "repro.experiments.section7",
})
