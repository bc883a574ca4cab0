"""Benchmark smoke harness: tiny deterministic cells vs golden metrics.

CI needs an early warning when a change shifts simulation results —
tier-1 tests check invariants, but a silent change to packet timing,
routing picks, or fault handling can pass every invariant while
producing different numbers.  This module runs three small, seeded
cells (one Figure 17 latency cell, one fault-recovery cell, one hybrid
packet/flow cell), extracts their key metrics, and diffs them against
a golden JSON checked into
``tests/golden/``.  Any drift fails ``python -m repro smoke --check``
— and with it the CI benchmark-smoke job.

When a change *intentionally* shifts results (a new router default, a
bug fix in the engine), regenerate the golden with ``python -m repro
smoke --update`` and commit the diff alongside the change.

Every metric derives from seeded cells, so the file is identical across
machines and Python versions; floats are still compared with a relative
tolerance to stay robust to harmless serialization quirks.

Wall-clock and artifact-cache hit rate are measured too
(:func:`timed_run`'s ``runtime.*`` keys), printed by the CLI and kept
in a ``--manifest`` — never in the golden, which holds nothing
machine-dependent; ``benchmarks/e2e`` is the perf record.
"""

from __future__ import annotations

import json
import math
import shlex
from pathlib import Path
from typing import Any

from repro import obs as _obs
from repro.obs.metrics import MetricsRegistry

#: Default golden location, relative to the repository root.
GOLDEN_PATH = Path(__file__).resolve().parents[2] / "tests" / "golden" / "benchmark_smoke.json"

#: Golden for the telemetry smoke variant (``--telemetry``): the
#: ``telemetry.*`` diagnosis metrics of one armed queue-diagnosis cell.
GOLDEN_TELEMETRY_PATH = GOLDEN_PATH.with_name("benchmark_smoke_telemetry.json")

#: Relative tolerance for float comparisons (exact for ints/strings).
REL_TOL = 1e-9


def compute_smoke_metrics() -> dict[str, Any]:
    """Run the three smoke cells and flatten their key metrics.

    Deliberately small: one Figure 17 scatter cell, one fault-recovery
    cell, and one hybrid packet/flow cell, a few seconds end to end.
    """
    from repro.experiments import (
        run_fault_recovery_cell,
        run_hybrid_scale_cell,
        run_task_experiment,
    )

    fig17 = run_task_experiment(
        "quartz in edge and core", "scatter", 1, fan=4, duration=0.002, seed=0
    )
    fault = run_fault_recovery_cell(
        ring_size=5,
        num_rings=1,
        num_cuts=1,
        seed=0,
        servers_per_switch=1,
        per_pair_bandwidth_bps=2e9,
        duration=0.002,
        cut_at=0.0008,
        repair_after=0.0006,
        warmup=0.0003,
        bin_width=0.0001,
    )
    hybrid = run_hybrid_scale_cell(
        fabric="quartz-ring-small",
        mode="hybrid",
        n_background=20,
        fg_fan=4,
        duration=0.002,
        seed=0,
    )
    return {
        "fig17.mean_latency_us": fig17.mean_latency * 1e6,
        "fig17.packets": fig17.summary.count,
        "hybrid.fg_mean_latency_us": hybrid.fg_mean * 1e6,
        "hybrid.fg_packets": hybrid.foreground.count,
        "hybrid.epochs": hybrid.epochs,
        "hybrid.residual_epochs": hybrid.residual_epochs,
        "hybrid.packets_delivered": hybrid.packets_delivered,
        "hybrid.background_peak": hybrid.background_peak,
        "fault.channels_severed": fault.channels_severed,
        "fault.packets_delivered": fault.packets_delivered,
        "fault.packets_dropped": fault.packets_dropped,
        "fault.packets_rerouted": fault.packets_rerouted,
        "fault.baseline_goodput_bps": fault.baseline_goodput_bps,
        "fault.goodput_loss": fault.goodput_loss,
        "fault.recovery_latency_ms": (
            None if fault.recovery_latency is None else fault.recovery_latency * 1e3
        ),
    }


def compute_telemetry_smoke_metrics(
    dump_windows_to: Path | str | None = None,
) -> dict[str, Any]:
    """The telemetry smoke variant: one seeded queue-diagnosis cell
    (incast + mid-burst fibre cut) with telemetry armed, contributing
    ``telemetry.*`` metrics — localization picks, window counts and
    microburst evidence.  That arming changes no base metric is held by
    tier-1 tests that arm explicitly, not by a re-run here.

    ``dump_windows_to`` additionally writes that cell's full per-window
    telemetry JSON — CI uploads it as a workflow artifact.
    """
    from repro.experiments import run_queue_diagnosis_cell

    cell = run_queue_diagnosis_cell(seed=0, cut=True, dump_windows_to=dump_windows_to)
    return {
        "telemetry.port_correct": cell.port_correct,
        "telemetry.flow_correct": cell.flow_correct,
        "telemetry.detected_port": (
            None if cell.detected_port is None else "->".join(cell.detected_port)
        ),
        "telemetry.detected_flow": cell.detected_flow,
        "telemetry.bursts_at_culprit": cell.bursts_at_culprit,
        "telemetry.peak_depth": cell.peak_depth,
        "telemetry.windows_observed": cell.windows_observed,
        "telemetry.windows_contiguous": cell.windows_contiguous,
        "telemetry.packets_delivered": cell.packets_delivered,
        "telemetry.packets_dropped": cell.packets_dropped,
        "telemetry.packets_rerouted": cell.packets_rerouted,
        "telemetry.channels_severed": cell.channels_severed,
        "telemetry.dump_sha256": cell.dump_sha256,
    }


def timed_run(
    telemetry: bool = False,
    dump_windows_to: Path | str | None = None,
) -> tuple[dict[str, Any], dict[str, Any]]:
    """Run the smoke cells under the metrics registry's clock.

    Returns ``(metrics, runtime)``: the compared smoke metrics plus the
    machine-dependent ``runtime.*`` keys (wall-clock from the registry's
    ``smoke.run`` timer, cache hit rate/lookups from the artifact
    cache).  This is the single timing source for both ``--check`` and
    ``--update`` — there is no bespoke wall-clock plumbing elsewhere.

    With :mod:`repro.obs` armed, the run's summary also folds into the
    process-wide registry (and so into any run manifest written after).
    """
    from repro.cache import artifact_cache

    local = MetricsRegistry()
    with local.timed("smoke.run"):
        if telemetry:
            metrics = compute_telemetry_smoke_metrics(
                dump_windows_to=dump_windows_to
            )
        else:
            metrics = compute_smoke_metrics()
    stats = artifact_cache().stats
    local.gauge("smoke.cache_hit_rate", stats.hit_rate)
    local.gauge("smoke.cache_lookups", stats.lookups)
    snapshot = local.snapshot()
    active = _obs.registry()
    if active is not None:
        active.merge(snapshot)
    runtime = {
        "runtime.wall_clock_s": snapshot["timers"]["smoke.run"]["total"],
        "runtime.cache_hit_rate": snapshot["gauges"]["smoke.cache_hit_rate"],
        "runtime.cache_lookups": snapshot["gauges"]["smoke.cache_lookups"],
    }
    return metrics, runtime


def compare_metrics(
    golden: dict[str, Any], current: dict[str, Any], rel_tol: float = REL_TOL
) -> list[str]:
    """Human-readable drift list; empty means the metrics match."""
    problems = []
    for key in sorted(set(golden) | set(current)):
        if key not in golden:
            problems.append(f"{key}: new metric (got {current[key]!r}); regenerate the golden")
            continue
        if key not in current:
            problems.append(f"{key}: missing (golden has {golden[key]!r})")
            continue
        want, got = golden[key], current[key]
        if isinstance(want, float) and isinstance(got, float):
            if not math.isclose(want, got, rel_tol=rel_tol, abs_tol=0.0):
                problems.append(f"{key}: golden {want!r} != current {got!r}")
        elif want != got:
            problems.append(f"{key}: golden {want!r} != current {got!r}")
    return problems


def check(
    path: Path = GOLDEN_PATH,
    telemetry: bool = False,
    dump_windows_to: Path | str | None = None,
) -> list[str]:
    """Compare a fresh run against the golden; returns the drift list."""
    problems, _ = check_with_runtime(
        path, telemetry=telemetry, dump_windows_to=dump_windows_to
    )
    return problems


def update_command(path: Path, telemetry: bool) -> str:
    """The command that rewrites the golden a check of ``path`` read:
    the check's ``--telemetry`` and, off the default path, its
    ``--golden``."""
    command = "python -m repro smoke --update"
    if telemetry:
        command += " --telemetry"
    if Path(path) != (GOLDEN_TELEMETRY_PATH if telemetry else GOLDEN_PATH):
        command += f" --golden {shlex.quote(str(path))}"
    return command


def check_with_runtime(
    path: Path = GOLDEN_PATH,
    telemetry: bool = False,
    dump_windows_to: Path | str | None = None,
) -> tuple[list[str], dict[str, Any]]:
    """:func:`check` plus the run's ``runtime.*`` keys for reporting."""
    if not path.exists():
        return [f"golden file {path} missing; run `{update_command(path, telemetry)}`"], {}
    golden = json.loads(path.read_text())
    current, runtime = timed_run(
        telemetry=telemetry, dump_windows_to=dump_windows_to
    )
    return compare_metrics(golden, current), runtime


def update(
    path: Path = GOLDEN_PATH,
    telemetry: bool = False,
    dump_windows_to: Path | str | None = None,
) -> tuple[dict[str, Any], dict[str, Any]]:
    """Regenerate the golden file from a fresh run.

    The written file is exactly :func:`compute_smoke_metrics` (or its
    telemetry variant); returns it with the run's ``runtime.*`` keys,
    as :func:`check_with_runtime` does.
    """
    metrics, runtime = timed_run(
        telemetry=telemetry, dump_windows_to=dump_windows_to
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(metrics, indent=2, sort_keys=True) + "\n")
    return metrics, runtime
