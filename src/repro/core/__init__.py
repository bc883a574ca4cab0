"""The paper's primary contribution: the Quartz WDM-ring mesh element.

Public surface:

* :class:`~repro.core.ring.QuartzRing` — the design element itself.
* :mod:`~repro.core.channels` — wavelength assignment (greedy + ILP).
* :mod:`~repro.core.optical` — insertion-loss / amplifier budget.
* :mod:`~repro.core.fault` — multi-ring failure analysis.
"""

from repro import _lazy_exports

__all__ = [
    "Amplifier",
    "ChannelAssignmentError",
    "ChannelPlan",
    "ExpansionError",
    "ExpansionResult",
    "FIBER_CHANNEL_LIMIT",
    "FaultStats",
    "MultiRingPlan",
    "MultiRingPlanError",
    "RingAssignment",
    "SerializationError",
    "OpticalBudgetError",
    "PathAssignment",
    "QuartzConfigError",
    "QuartzRing",
    "RingFaultModel",
    "SignalTrace",
    "Transceiver",
    "WDM_CHANNEL_LIMIT",
    "WDMMux",
    "amplifier_spacing_switches",
    "amplifiers_required",
    "expand_plan",
    "figure6_sweep",
    "greedy_assignment",
    "ilp_assignment",
    "lower_bound",
    "max_ring_size",
    "max_unamplified_wdm_hops",
    "plan_from_json",
    "plan_rings",
    "plan_to_json",
    "rings_needed",
    "trace_channel",
    "validate_ring_budget",
    "wavelengths_required",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    "ChannelAssignmentError": "repro.core.channels",
    "ChannelPlan": "repro.core.channels",
    "PathAssignment": "repro.core.channels",
    "FIBER_CHANNEL_LIMIT": "repro.core.channels",
    "WDM_CHANNEL_LIMIT": "repro.core.channels",
    "greedy_assignment": "repro.core.channels",
    "ilp_assignment": "repro.core.channels",
    "lower_bound": "repro.core.channels",
    "max_ring_size": "repro.core.channels",
    "rings_needed": "repro.core.channels",
    "wavelengths_required": "repro.core.channels",
    "ExpansionError": "repro.core.expansion",
    "ExpansionResult": "repro.core.expansion",
    "expand_plan": "repro.core.expansion",
    "FaultStats": "repro.core.fault",
    "RingFaultModel": "repro.core.fault",
    "figure6_sweep": "repro.core.fault",
    "MultiRingPlan": "repro.core.multiring",
    "MultiRingPlanError": "repro.core.multiring",
    "RingAssignment": "repro.core.multiring",
    "plan_rings": "repro.core.multiring",
    "SerializationError": "repro.core.serialization",
    "plan_from_json": "repro.core.serialization",
    "plan_to_json": "repro.core.serialization",
    "Amplifier": "repro.core.optical",
    "OpticalBudgetError": "repro.core.optical",
    "SignalTrace": "repro.core.optical",
    "Transceiver": "repro.core.optical",
    "WDMMux": "repro.core.optical",
    "amplifiers_required": "repro.core.optical",
    "amplifier_spacing_switches": "repro.core.optical",
    "max_unamplified_wdm_hops": "repro.core.optical",
    "trace_channel": "repro.core.optical",
    "validate_ring_budget": "repro.core.optical",
    "QuartzConfigError": "repro.core.ring",
    "QuartzRing": "repro.core.ring",
})
