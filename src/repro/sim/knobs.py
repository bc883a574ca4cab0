"""Resolution of the simulator's opt-in environment switches.

Two observation layers can be armed from the environment —
``REPRO_TELEMETRY`` (:mod:`repro.telemetry`) and ``REPRO_OBS``
(:mod:`repro.obs`).  ``REPRO_TELEMETRY`` backs a constructor argument
that defaults to ``None``: the variable turns the layer *on* for
networks built with ``None``, and an **explicit argument always wins**
(``Network(telemetry=False)`` stays off under ``REPRO_TELEMETRY=1``).
``REPRO_OBS`` arms the process at import; ``obs.arm()``/``disarm()``
are its only other switches.  A truthy environment value is anything
but unset, empty, or ``"0"``.

The engine's reference paths have no environment switch: call
``engine.run`` instead of ``Network.run`` for the run without the
port-major pass, pass ``hybrid=False`` to
:class:`~repro.hybrid.HybridNetwork`, or call
:func:`repro.sim.parallel.run_serial`.  The forwarding kernel itself has
no reference loop in the package: the tests hold it to an independent
model of the switch spec (DESIGN.md §5).

This module holds no simulator state and imports nothing from the rest
of the package, so any layer can use it without import cycles.
"""

from __future__ import annotations

import os
from typing import Mapping

#: Environment values that read as "flag not set" (feature untouched).
_FALSY = ("", "0")


def env_truthy(env: str, environ: "Mapping[str, str] | None" = None) -> bool:
    """Whether environment variable ``env`` is set to a truthy value.

    Unset, empty, and ``"0"`` are falsy; everything else is truthy —
    the convention every ``REPRO_*`` switch shares.
    """
    source = os.environ if environ is None else environ
    return source.get(env, "0") not in _FALSY


def resolve_flag(
    value: "bool | None",
    env: str,
    *,
    environ: "Mapping[str, str] | None" = None,
) -> bool:
    """Resolve one opt-in switch: explicit argument beats environment.

    ``value`` is the constructor argument: ``True``/``False`` are taken
    as given (explicit ``False`` wins over any environment state), and
    ``None`` defers to the environment variable ``env``, which arms the
    layer when truthy.

    ``environ`` substitutes for ``os.environ`` in tests.
    """
    if value is not None:
        return bool(value)
    return env_truthy(env, environ)
