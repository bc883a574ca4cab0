"""Run provenance manifests: what ran, with which knobs, on what tree.

A *run manifest* is a small JSON document answering the questions a
perf-regression hunt always starts with: which package version and git
commit produced these numbers, whether observability was armed, what
the artifact cache did, which seeds went in, and — when observability
was armed — the full metrics snapshot of the run.

``repro smoke --manifest out.json`` and ``repro experiment --manifest``
write one per run; ``repro report out.json`` validates and renders it;
CI uploads it next to the trace artifact so every benchmark-smoke run
is reconstructible.

Everything here is lazy about package imports (:mod:`repro.cache`,
:mod:`repro.telemetry`, the sim modules) so that importing
:mod:`repro.obs` stays cheap and cycle-free.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import os
from pathlib import Path
from typing import Any, Iterable, Mapping

__all__ = [
    "MANIFEST_SCHEMA",
    "build_manifest",
    "fault_digest",
    "render_manifest",
    "resolved_knobs",
    "validate_manifest",
    "write_manifest",
]

#: Schema tag stamped into (and required of) every manifest.
MANIFEST_SCHEMA = "repro.obs.manifest/v1"

#: The knobs every manifest must carry as booleans.  Manifests written
#: while the environment could still arm these two layers carry them
#: too, so the names stay.
_KNOB_NAMES = ("telemetry", "obs")

#: Top-level keys every manifest must carry.
_REQUIRED_KEYS = (
    "schema", "created_at", "package", "git_commit", "knobs", "seeds",
    "cache", "metrics", "faults", "extra",
)


def resolved_knobs() -> dict:
    """The run-wide switches, all constants: nothing in the environment
    selects a path or arms a layer.

    ``fastpath`` (compiled plans, the only forwarding loop) and
    ``batch`` (the port-major pass of ``Network.run``, which has no
    switch) are ``True``; ``telemetry`` (armed per network only) and
    ``obs`` (armed by ``obs.arm()`` only) are ``False``.  The keys stay
    because the frozen ``benchmarks/e2e`` harness reads them;
    :func:`build_manifest` reports the live ``obs`` state instead.
    """
    return {"fastpath": True, "batch": True, "telemetry": False, "obs": False}


def fault_digest(recorder: Any) -> "dict | None":
    """Digest of a :class:`~repro.sim.stats.FaultRecorder`'s event log.

    Returns event count, a per-kind tally, and a SHA-256 over the
    ordered entries — enough to assert two runs saw the same fault
    timeline without embedding the whole log.  ``None`` in, ``None``
    out, so callers can pass ``network.fault_stats`` unconditionally.
    """
    if recorder is None:
        return None
    entries = [
        (e.time, e.kind, e.ring, e.segment,
         list(e.link) if e.link else None, e.detail)
        for e in recorder.events
    ]
    kinds: dict[str, int] = {}
    for entry in entries:
        kinds[entry[1]] = kinds.get(entry[1], 0) + 1
    blob = json.dumps(entries, sort_keys=True).encode()
    return {
        "events": len(entries),
        "kinds": kinds,
        "sha256": hashlib.sha256(blob).hexdigest(),
    }


def _git_commit() -> "str | None":
    """Best-effort commit id: ``GITHUB_SHA`` in CI, else ``git rev-parse``."""
    sha = os.environ.get("GITHUB_SHA")
    if sha:
        return sha
    import subprocess

    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
            cwd=Path(__file__).parent,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return proc.stdout.strip() or None


def build_manifest(
    *,
    seeds: "Iterable[int] | None" = None,
    metrics: "dict | None" = None,
    faults: "Any | None" = None,
    extra: "Mapping[str, Any] | None" = None,
) -> dict:
    """Assemble a run manifest for the current process state.

    ``metrics`` defaults to the armed registry's snapshot (empty shape
    when disarmed); ``faults`` may be a ``FaultRecorder`` (digested) or
    an already-built digest dict; ``extra`` carries caller context such
    as the smoke golden path or experiment figure.
    """
    from repro import __version__, obs
    from repro.cache import MEMORY_ITEMS, artifact_cache

    if metrics is None:
        registry = obs.registry()
        metrics = (
            registry.snapshot() if registry is not None
            else {"counters": {}, "gauges": {}, "timers": {}}
        )
    if faults is not None and not isinstance(faults, dict):
        faults = fault_digest(faults)
    knobs = dict(resolved_knobs(), obs=obs.armed())
    return {
        "schema": MANIFEST_SCHEMA,
        "created_at": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
        "package": {"name": "repro", "version": __version__},
        "git_commit": _git_commit(),
        "knobs": knobs,
        "seeds": sorted(set(seeds)) if seeds else [],
        "cache": {"memory_items": MEMORY_ITEMS, **artifact_cache().stats.as_dict()},
        "metrics": metrics,
        "faults": faults,
        "extra": dict(extra or {}),
    }


def write_manifest(path: "str | Path", **kwargs: Any) -> dict:
    """:func:`build_manifest` and write it to ``path`` as JSON."""
    doc = build_manifest(**kwargs)
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return doc


def validate_manifest(doc: Any) -> list[str]:
    """Problems that make ``doc`` not a valid v1 manifest (empty = valid)."""
    problems: list[str] = []
    if not isinstance(doc, dict):
        return [f"manifest must be a JSON object, got {type(doc).__name__}"]
    if doc.get("schema") != MANIFEST_SCHEMA:
        problems.append(
            f"schema must be {MANIFEST_SCHEMA!r}, got {doc.get('schema')!r}"
        )
    for key in _REQUIRED_KEYS:
        if key not in doc:
            problems.append(f"missing key {key!r}")
    package = doc.get("package")
    if not (isinstance(package, dict)
            and isinstance(package.get("name"), str)
            and isinstance(package.get("version"), str)):
        problems.append("package must carry string name and version")
    knobs = doc.get("knobs")
    if isinstance(knobs, dict):
        for name in _KNOB_NAMES:
            if not isinstance(knobs.get(name), bool):
                problems.append(f"knobs.{name} must be a boolean")
    elif "knobs" in doc:
        problems.append("knobs must be an object")
    metrics = doc.get("metrics")
    if isinstance(metrics, dict):
        for section in ("counters", "gauges", "timers"):
            if not isinstance(metrics.get(section), dict):
                problems.append(f"metrics.{section} must be an object")
        timers = metrics.get("timers")
        for name, timer in (timers.items() if isinstance(timers, dict) else ()):
            if not (isinstance(timer, dict)
                    and all(_is_number(timer.get(k)) for k in ("count", "total", "max"))):
                problems.append(
                    f"metrics.timers.{name} must carry numeric count, total and max"
                )
    elif "metrics" in doc:
        problems.append("metrics must be an object")
    cache = doc.get("cache")
    if "cache" in doc and not isinstance(cache, dict):
        problems.append("cache must be an object")
    elif isinstance(cache, dict) and "hit_rate" in cache and not _is_number(cache["hit_rate"]):
        problems.append("cache.hit_rate must be a number")
    if "seeds" in doc and not isinstance(doc.get("seeds"), list):
        problems.append("seeds must be a list")
    faults = doc.get("faults")
    if faults is not None and not (
        isinstance(faults, dict)
        and type(faults.get("events")) is int
        and isinstance(faults.get("kinds"), dict)
        and isinstance(faults.get("sha256"), str)
    ):
        problems.append(
            "faults must be null or an object with integer events, "
            "object kinds and string sha256"
        )
    return problems


def _is_number(value: Any) -> bool:
    """A JSON number: ``True``/``False`` are not counts or rates."""
    return type(value) in (int, float)


def render_manifest(doc: dict) -> str:
    """Human-readable rendering of a manifest (``repro report``)."""
    package = doc.get("package", {})
    knobs = doc.get("knobs", {})
    cache = doc.get("cache", {})
    metrics = doc.get("metrics", {})
    lines = [
        f"run manifest ({doc.get('schema', '?')})",
        f"  created   {doc.get('created_at', '?')}",
        f"  package   {package.get('name', '?')} {package.get('version', '?')}"
        f" @ {(doc.get('git_commit') or 'unknown')[:12]}",
        "  knobs     "
        + ", ".join(
            f"{name}={'on' if knobs.get(name) else 'off'}"
            for name in _KNOB_NAMES
        ),
        f"  seeds     {doc.get('seeds') or '-'}",
        f"  cache     hit_rate={cache.get('hit_rate', 0.0):.1%}",
    ]
    faults = doc.get("faults")
    if faults:
        kinds = ", ".join(
            f"{kind}={count}" for kind, count in sorted(faults["kinds"].items())
        )
        lines.append(
            f"  faults    {faults['events']} events ({kinds})"
            f" digest {faults['sha256'][:12]}"
        )
    counters = metrics.get("counters", {})
    timers = metrics.get("timers", {})
    lines.append(
        f"  metrics   {len(counters)} counters,"
        f" {len(metrics.get('gauges', {}))} gauges, {len(timers)} timers"
    )
    for name in sorted(counters):
        lines.append(f"    {name} = {counters[name]}")
    for name in sorted(timers):
        timer = timers[name]
        lines.append(
            f"    {name}: count={timer['count']}"
            f" total={timer['total']:.6g} max={timer['max']:.6g}"
        )
    extra = doc.get("extra") or {}
    for key in sorted(extra):
        lines.append(f"  extra     {key} = {extra[key]!r}")
    return "\n".join(lines)
