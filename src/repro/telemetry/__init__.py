"""In-fabric telemetry: windowed queue monitors, INT stamping, diagnosis.

The simulator can see what real data planes struggle to measure — this
package makes that a feature (ROADMAP item 3, PrintQueue-style).  It has
three layers, all strictly observational (a telemetry-on run is
bit-identical in packet timing to a telemetry-off run):

* :mod:`~repro.telemetry.windows` — per-port time-windowed queue
  monitors: depth samples, wait times, drop/enqueue counters, and
  per-flow occupancy integrals per fixed-width window;
* INT-style per-packet stamping — queue depth and wait time at each
  hop, carried on the packet and folded into
  :class:`repro.sim.stats.LatencyRecorder` flow records on delivery;
* :mod:`~repro.telemetry.attribution` — microburst detection and
  "which flow built this queue" attribution over the monitor windows.

Arm it per network (``Network(topo, router, telemetry=True)`` or a
:class:`TelemetryConfig`) or globally via ``REPRO_TELEMETRY=1``.  While
monitors are armed the port-major pass of ``Network.run`` stands down
(monitors observe per-packet state the pass never materializes); the compiled
fast path keeps running, with hooks in both forwarding loops.
"""

from repro import _lazy_exports

__all__ = [
    "DEFAULT_MIN_DEPTH",
    "DEFAULT_OCCUPANCY_FACTOR",
    "DEFAULT_WINDOW",
    "Diagnosis",
    "Microburst",
    "PortMonitor",
    "TELEMETRY_ENV",
    "TelemetryConfig",
    "TelemetryError",
    "TelemetryHub",
    "Window",
    "detect_microbursts",
    "diagnose",
    "rank_flows",
    "resolve_config",
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
    "TELEMETRY_ENV": "repro.telemetry.windows",
    "PortMonitor": "repro.telemetry.windows",
    "TelemetryConfig": "repro.telemetry.windows",
    "TelemetryError": "repro.telemetry.windows",
    "TelemetryHub": "repro.telemetry.windows",
    "Window": "repro.telemetry.windows",
    "resolve_config": "repro.telemetry.windows",
})
