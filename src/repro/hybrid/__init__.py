"""Hybrid packet/flow co-simulation: packet fidelity where it matters.

Foreground traffic (the incast, the partition-aggregate query, the
latency distribution under study) runs on the packet simulator;
background traffic runs at flow level and reaches the packet side only
as time-varying residual capacity per link.  See
:class:`~repro.hybrid.engine.HybridNetwork` for the contract and
``hybrid=False`` for the pure-packet oracle.
"""

from repro import _lazy_exports

__all__ = [
    "BACKGROUND_GROUP",
    "BackgroundFlow",
    "BackgroundSchedule",
    "DEFAULT_MIN_RESIDUAL_FRACTION",
    "HybridError",
    "HybridNetwork",
    "random_background_schedule",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    "BackgroundFlow": "repro.hybrid.background",
    "BackgroundSchedule": "repro.hybrid.background",
    "HybridError": "repro.hybrid.background",
    "random_background_schedule": "repro.hybrid.background",
    "BACKGROUND_GROUP": "repro.hybrid.engine",
    "DEFAULT_MIN_RESIDUAL_FRACTION": "repro.hybrid.engine",
    "HybridNetwork": "repro.hybrid.engine",
})
