"""Runtime observability for the simulator itself.

The simulated fabric already has PrintQueue-style telemetry
(:mod:`repro.telemetry`); this package watches the *simulator* — where
the engine's time and events go across the fastpath, port-major windows,
hybrid epochs, and sharded windows.  Three parts:

:mod:`repro.obs.metrics`
    Process-local counters/gauges/timers the instrumented layers report
    into, mergeable across pool workers and parallel shards.
:mod:`repro.obs.tracing`
    Wall-clock spans (engine runs, hybrid epochs, parallel
    windows/barriers, sweep cells) exported as Chrome ``trace_event``
    JSON for Perfetto via ``repro trace``.
:mod:`repro.obs.report`
    Run manifests — knobs, seeds, cache stats, fault digest,
    metrics snapshot, package/git version — rendered by ``repro
    report``.

Arming
------
:func:`arm`/:func:`disarm` are the only switches, both idempotent;
nothing in the environment arms the process.  ``--manifest`` on ``repro
experiment`` and ``repro smoke`` arms it for that run, because there the
manifest reads the registry, and ``repro trace`` arms it for its
profile.  A network reports into the registry armed when it is built,
if any.

The armed state is a pair of module-level singletons (the active
:class:`~repro.obs.metrics.MetricsRegistry` and
:class:`~repro.obs.tracing.Tracer`).  Disarmed, :func:`registry` and
:func:`tracer` return ``None`` and every instrumented hot path pays a
single ``None`` test.  Armed, observation only *records* — an armed run
is required (and bench-gated) to stay fingerprint-identical to a
disarmed one.
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Span, Tracer, export_chrome

__all__ = [
    "MetricsRegistry",
    "Span",
    "Tracer",
    "arm",
    "armed",
    "disarm",
    "export_chrome",
    "registry",
    "tracer",
]

_registry: "MetricsRegistry | None" = None
_tracer: "Tracer | None" = None


def arm(
    registry: "MetricsRegistry | None" = None,
    tracer: "Tracer | None" = None,
) -> None:
    """Arm process-wide observation (idempotent).

    Already-armed calls keep the existing singletons — and their
    recorded data — unless a replacement ``registry``/``tracer`` is
    passed explicitly.
    """
    global _registry, _tracer
    if registry is not None or _registry is None:
        _registry = registry if registry is not None else MetricsRegistry()
    if tracer is not None or _tracer is None:
        _tracer = tracer if tracer is not None else Tracer()


def disarm() -> None:
    """Disarm observation and drop the recorded data."""
    global _registry, _tracer
    _registry = None
    _tracer = None


def armed() -> bool:
    """Whether observation is currently armed in this process."""
    return _registry is not None


def registry() -> "MetricsRegistry | None":
    """The active metrics registry, or ``None`` when disarmed."""
    return _registry


def tracer() -> "Tracer | None":
    """The active span tracer, or ``None`` when disarmed."""
    return _tracer
