"""Hybrid packet/flow co-simulation: packet fidelity where it matters.

Foreground traffic (the incast, the partition-aggregate query, the
latency distribution under study) runs on the packet simulator;
background traffic runs at flow level and reaches the packet side only
as time-varying residual capacity per link.  See
:class:`~repro.hybrid.engine.HybridNetwork` for the contract and
``hybrid=False`` for the pure-packet oracle.
"""

from repro.hybrid.background import (
    BackgroundFlow,
    BackgroundSchedule,
    HybridError,
    random_background_schedule,
)
from repro.hybrid.engine import (
    BACKGROUND_GROUP,
    DEFAULT_MIN_RESIDUAL_FRACTION,
    HybridNetwork,
)

__all__ = [
    "BACKGROUND_GROUP",
    "BackgroundFlow",
    "BackgroundSchedule",
    "DEFAULT_MIN_RESIDUAL_FRACTION",
    "HybridError",
    "HybridNetwork",
    "random_background_schedule",
]
