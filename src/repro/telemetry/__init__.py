"""In-fabric telemetry: one hop log, and the queries over it.

The simulator can see what real data planes struggle to measure, and
this package makes that a feature, split as PrintQueue splits it: the
data plane only fills registers, and every query is answered offline.

* Both executors of ``Network.run`` — the forwarding kernel and the
  port-major pass — only *record* each transmit, delivery and drop in
  one :class:`~repro.telemetry.windows.HopLog`.
* :class:`~repro.telemetry.windows.TelemetryHub` answers from it: the
  per-port time windows (depth, wait, enqueues, drops, per-flow
  occupancy), each flow's per-hop profile, each packet's hops
  (:func:`repro.sim.trace.packet_breakdown`).
* :mod:`~repro.telemetry.attribution` finds microbursts and "which flow
  built this queue" in the windows.

Arm it per network, ``Network(topo, router, telemetry=True)``; nothing
else arms it, and windows are :data:`DEFAULT_WINDOW` wide.  Recording
cannot move a time: an armed run is bit-identical in packet timing to a
disarmed one, and neither executor stands down for it.
"""

from repro import _lazy_exports

__all__ = [
    "DEFAULT_MIN_DEPTH",
    "DEFAULT_OCCUPANCY_FACTOR",
    "DEFAULT_WINDOW",
    "Diagnosis",
    "HopLog",
    "HopStats",
    "Microburst",
    "PortMonitor",
    "TelemetryError",
    "TelemetryHub",
    "Window",
    "detect_microbursts",
    "diagnose",
    "rank_flows",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    "DEFAULT_MIN_DEPTH": "repro.telemetry.attribution",
    "DEFAULT_OCCUPANCY_FACTOR": "repro.telemetry.attribution",
    "Diagnosis": "repro.telemetry.attribution",
    "Microburst": "repro.telemetry.attribution",
    "detect_microbursts": "repro.telemetry.attribution",
    "diagnose": "repro.telemetry.attribution",
    "rank_flows": "repro.telemetry.attribution",
    "DEFAULT_WINDOW": "repro.telemetry.windows",
    "HopLog": "repro.telemetry.windows",
    "HopStats": "repro.telemetry.windows",
    "PortMonitor": "repro.telemetry.windows",
    "TelemetryError": "repro.telemetry.windows",
    "TelemetryHub": "repro.telemetry.windows",
    "Window": "repro.telemetry.windows",
})
