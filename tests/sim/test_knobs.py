"""Table-driven tests for the opt-in switch helper.

One helper (:func:`repro.sim.knobs.resolve_flag`) backs the two
environment-armed layers, telemetry and obs.  The table pins its truth
table, and the integration cases prove the consumers route through it
(explicit ``False`` wins over the environment), that the engine's
reference paths are plain constructor arguments, and pin the parameter
sets of the run and constructor surface.
"""

from __future__ import annotations

import inspect

import pytest

import repro.topology as T
from repro.hybrid import HybridNetwork
from repro.routing import ECMPRouter
from repro.sim import Engine, Network, PoissonSource
from repro.sim.knobs import env_truthy, resolve_flag
from repro.telemetry import TELEMETRY_ENV, TelemetryConfig
from repro.telemetry.windows import resolve_config

#: (value, env setting, expected); ``env`` of None means unset.
RESOLVE_TABLE = [
    (None, None, False),
    (None, "", False),
    (None, "0", False),
    (None, "1", True),
    (None, "on", True),
    (True, None, True),
    (False, "1", False),  # explicit False beats an enabling env
]


@pytest.mark.parametrize("value,env,expected", RESOLVE_TABLE)
def test_resolve_flag_truth_table(value, env, expected):
    environ = {} if env is None else {"KNOB": env}
    assert resolve_flag(value, "KNOB", environ=environ) is expected


def test_env_truthy_convention():
    assert not env_truthy("KNOB", {})
    assert not env_truthy("KNOB", {"KNOB": ""})
    assert not env_truthy("KNOB", {"KNOB": "0"})
    assert env_truthy("KNOB", {"KNOB": "1"})
    assert env_truthy("KNOB", {"KNOB": "false"})  # any non-falsy string


def _net(monkeypatch, env_name=None, env_value=None, **kwargs):
    # Hermetic environment: the REPRO_TELEMETRY=1 CI leg must not leak
    # into the assertions — each case sets the variable itself.
    monkeypatch.delenv(TELEMETRY_ENV, raising=False)
    if env_name is not None:
        monkeypatch.setenv(env_name, env_value)
    topo = T.quartz_ring(3, 1)
    return Network(topo, ECMPRouter(topo), **kwargs)


def _parameters(function):
    return set(inspect.signature(function).parameters) - {"self"}


def test_network_reference_paths_are_arguments(monkeypatch):
    net = _net(monkeypatch)
    # One forwarding loop: no reference-loop argument, no flag for it.
    assert not hasattr(net, "fastpath_enabled")
    # The hybrid and parallel switches live on the classes that read them.
    assert not hasattr(net, "hybrid_enabled")
    assert not hasattr(net, "parallel_enabled")
    # The whole run and constructor surface, pinned: the run without the
    # port-major pass is ``engine.run``, obs follows ``obs.arm()``, and
    # the chunk and the residual floor are module constants.
    assert _parameters(Network.__init__) == {
        "topo", "router", "propagation_delay", "server_forward_latency",
        "host_receive_latency", "telemetry",
    }
    assert len(_parameters(Network.__init__)) == 6
    assert _parameters(Network.run) == {"until"}
    assert _parameters(Engine.run) == {"until"}
    assert _parameters(PoissonSource.__init__) == {
        "network", "src", "dst", "rate_pps", "size_bytes", "group",
        "flow_id", "seed", "stop_at", "vary_flow_per_packet", "on_delivered",
    }
    assert _parameters(HybridNetwork.__init__) == {
        "topo", "router", "background", "hybrid", "record_timeline", "kwargs",
    }


def test_telemetry_knob_env_enables(monkeypatch):
    monkeypatch.delenv(TELEMETRY_ENV, raising=False)
    assert _net(monkeypatch).telemetry is None
    assert _net(monkeypatch, TELEMETRY_ENV, "1").telemetry is not None
    # Explicit False wins over an enabling environment.
    assert _net(monkeypatch, TELEMETRY_ENV, "1", telemetry=False).telemetry is None


def test_telemetry_config_passthrough():
    config = TelemetryConfig(window=1e-3)
    assert resolve_config(config) is config
