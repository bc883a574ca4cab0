"""Analytical models: component latencies (Table 2/9) and queueing theory."""

from repro import _lazy_exports

__all__ = [
    "ComponentLatencies",
    "ElementScale",
    "ScalingError",
    "element_scale",
    "format_scaling_table",
    "scaling_table",
    "QueueingError",
    "SERVER_RELAY_LATENCY",
    "STANDARD",
    "STATE_OF_THE_ART",
    "end_to_end_latency",
    "md1_mean_wait",
    "path_latency",
    "table9_latency",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    "ComponentLatencies": "repro.analysis.latency",
    "SERVER_RELAY_LATENCY": "repro.analysis.latency",
    "STANDARD": "repro.analysis.latency",
    "STATE_OF_THE_ART": "repro.analysis.latency",
    "end_to_end_latency": "repro.analysis.latency",
    "path_latency": "repro.analysis.latency",
    "table9_latency": "repro.analysis.latency",
    "ElementScale": "repro.analysis.scaling",
    "ScalingError": "repro.analysis.scaling",
    "element_scale": "repro.analysis.scaling",
    "format_scaling_table": "repro.analysis.scaling",
    "scaling_table": "repro.analysis.scaling",
    "QueueingError": "repro.analysis.queueing",
    "md1_mean_wait": "repro.analysis.queueing",
})
