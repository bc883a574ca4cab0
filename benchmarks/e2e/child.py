"""One fresh-process measurement of one workload (spawned by ``run.py``).

Order of events, which is also what the numbers mean:

1. *set-up*: import numpy/networkx/``repro`` and build every fabric,
   router, network, ring plan and traffic object the first cell needs,
   against the empty ``REPRO_CACHE_DIR`` the parent provided — process
   spawn to here is ``setup_s``;
2. the workload's untimed reference run (serial twin, oracle, zero-load
   packet);
3. one pass, the first this process runs, as a user regenerating a
   figure would: each step is timed and metered against the calibration
   kernel (calib.py), then checked with the timer stopped.

With ``--trace`` the process arms ``repro.obs``, profiles the steps
with ``cProfile`` and reports the per-layer breakdown.
The result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
from pathlib import Path

import calib

REPO = Path(__file__).resolve().parents[2]


def _cpu_now() -> float:
    """User + system CPU seconds of this process and its reaped children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def run_pass(workload, log, spans, profiler=None) -> dict:
    """Every step once.  Returns times, work, digests and failures."""
    import verify
    import workloads

    raw_wall = raw_cpu = wall = cpu = 0.0
    cells, sent, crashed = [], 0, False
    with spans.span("pass"):
        for step in workload.steps():
            log.drain()
            meter = calib.Meter(_cpu_now, timer=profiler is None)
            with spans.span("step:" + step.name), meter:
                if profiler is not None:
                    profiler.enable()
                try:
                    output, crash = step.run(), None
                except Exception as exc:  # a crashed cell is a failed operation
                    output, crash = None, f"{type(exc).__name__}: {exc}"
                finally:
                    if profiler is not None:
                        profiler.disable()
            raw_wall += meter.raw_wall
            raw_cpu += meter.cpu
            wall += meter.wall * meter.scale
            cpu += meter.cpu * meter.scale
            nets = log.drain()
            sent += sum(net._next_packet_id for net in nets)
            with spans.span("check:" + step.name):
                if crash is None:
                    cells += step.check(output, nets)
                else:
                    crashed = True
                    cells.append(workloads.Cell(step.name, "", 0, [crash]))
            # A finished network is a reference cycle (sources <-> engine):
            # free it now, so that peak memory is one cell's, every time.
            del output, nets
            gc.collect()
    finish_errors = ["a step crashed"] if crashed else workload.finish()
    errors = [f"{c.label}: {e}" for c in cells for e in c.errors]
    errors += [f"{workload.name}: {e}" for e in finish_errors]
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "raw_wall_s": raw_wall,
        "raw_cpu_s": raw_cpu,
        "work": sum(c.work for c in cells),
        "digest": verify.digest([c.digest for c in cells]),
        "cell_digests": {c.label: c.digest for c in cells},
        # One operation per cell, plus the workload-level check.
        "attempted": len(cells) + 1,
        "failed_cells": [c.label for c in cells if c.errors],
        "finish_failed": bool(finish_errors),
        "errors": errors[:20],
        "model_rel_err": workload.model_rel_err,
        "sent": sent,
    }


#: Metrics only one workload fills (``Workload.facts``); 0 on the others.
WORKLOAD_SPECIFIC = (
    "sim.faults.rerouted", "sim.faults.dropped", "hybrid.fg_p99_rel_err",
    "sim.parallel.process_wall_s", "sim.parallel.spinup_s", "sim.parallel.compute_s",
    "sim.parallel.barrier_s", "sim.parallel.barrier_share", "sim.parallel.windows",
    "sim.parallel.boundary_messages", "sim.parallel.speedup_vs_serial",
)


def layer_metrics(workload, traced: dict, profiler, spans) -> dict:
    """The per-layer metrics of one traced pass (see README.md)."""
    import pstats

    import layers
    import repro.cache
    from repro import obs

    stats = pstats.Stats(profiler).stats
    folded = layers.fold_profile(stats)
    snapshot = obs.registry().snapshot()
    counters, timers = snapshot["counters"], snapshot["timers"]
    tracer_spans = obs.tracer().spans
    cache = repro.cache.describe()
    sent = traced["sent"]

    def count(name: str) -> float:
        return counters.get(name, 0)

    metrics: dict[str, float] = dict.fromkeys(WORKLOAD_SPECIFIC, 0)
    for layer, entry in folded.items():
        metrics[f"{layer}.self_s"] = entry["self_s"]
        if layer not in ("obs", "numpy", "networkx", "other"):
            metrics[f"{layer}.calls"] = entry["calls"]
    batched = count("batch.packets")
    plan_lookups = count("fastpath.plan_hits") + count("fastpath.plan_compiles")
    cell_seconds = [s.duration for s in tracer_spans if s.name == "sweep.cell"]
    step_seconds = sum(
        s["end"] - s["start"] for s in spans.spans if s["name"].startswith("step:")
    )
    metrics.update({
        "sim.engine.events": count("engine.events.heap") + count("engine.events.bucket"),
        "sim.network.batched_share": batched / sent if sent else 0.0,
        "sim.network.cohorts": count("batch.cohorts"),
        "sim.network.cohort_mean": (
            batched / count("batch.cohorts") if count("batch.cohorts") else 0.0
        ),
        "sim.fastpath.plan_compiles": count("fastpath.plan_compiles"),
        "sim.fastpath.plan_hit_ratio": (
            count("fastpath.plan_hits") / plan_lookups if plan_lookups else 0.0
        ),
        "routing.invalidate_s": layers.cumulative_seconds(
            stats, "repro/sim/network.py", ("fail_link", "repair_link")
        ),
        "sim.faults.cuts": count("faults.cuts"),
        "hybrid.epochs": count("hybrid.residual_epochs"),
        "hybrid.resolves": count("hybrid.resolves"),
        "hybrid.links_changed": count("hybrid.links_changed"),
        "hybrid.epoch_s": timers.get("hybrid.epoch_seconds", {}).get("total", 0.0),
        "runner.cells": count("sweep.cells"),
        "runner.cell_p50_s": layers.percentile(cell_seconds, 0.5),
        "runner.cell_p70_s": layers.percentile(cell_seconds, 0.7),
        "runner.overhead_s": (
            step_seconds - sum(cell_seconds) if cell_seconds else 0.0
        ),
        "import_s": spans.total("import"),
        "topology.build_s": spans.total("topology.build"),
        "routing.build_s": spans.total("routing.build"),
        "core.plan_rings_s": spans.total("core.plan_rings"),
        "sim.build_s": spans.total("sim.build"),
        "workloads.build_s": spans.total("workloads.build"),
        "cache.hits": cache["memory_hits"] + cache["disk_hits"],
        "cache.misses": cache["misses"],
        "cache.hit_ratio": cache["hit_rate"],
        "cache.disk_bytes_written": cache["disk_bytes_written"],
        "trace.wall_s": traced["raw_wall_s"],
        "trace.spans": len(spans.spans) + len(tracer_spans),
        "model.rel_err": (
            workload.model_rel_err if workload.model_rel_err is not None else 0.0
        ),
    })
    metrics.update(workload.facts())
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.time() in the parent just before the spawn")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--trace", help="profile one pass; write a Chrome trace here")
    args = parser.parse_args(argv)

    boot = time.time() - args.spawned_at
    sys.path.insert(0, str(REPO / "src"))
    import layers

    spans = layers.SpanLog()
    meter = calib.Meter()
    with spans.span("setup"), meter:
        with spans.span("import"):
            import numpy

            import verify
            import workloads
            from repro import obs
            from repro.obs.report import resolved_knobs
        if args.trace:
            obs.arm()
        workload = workloads.WORKLOADS[args.workload](args.seed, args.quick)
        workload.setup(spans.span)
    setup_raw = boot + meter.raw_wall
    setup = boot + meter.wall

    profiler = None
    if args.trace:
        import cProfile

        profiler = cProfile.Profile()
    with verify.NetworkLog() as log:
        with spans.span("reference"):
            reference_errors = workload.reference(log, profiler is not None)
        reference_spans = []
        if profiler is not None:
            # Counters and spans from here on belong to the traced pass alone.
            obs.registry().clear()
            reference_spans = obs.tracer().drain()
        record = run_pass(workload, log, spans, profiler)

    result = {
        "workload": workload.name,
        "seed": args.seed,
        "quick": args.quick,
        "sizes": workload.sizes(),
        "work_unit": workload.work_unit,
        "setup_s": setup * meter.scale,
        "raw_setup_s": setup_raw,
        "host_speed": meter.scale,
        "peak_rss_mb": _peak_rss_mb(),
        "reference_errors": reference_errors,
        "env": {
            "nproc": os.cpu_count(),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "knobs": resolved_knobs(),
        },
    }
    if profiler is not None:
        result["layers"] = layer_metrics(workload, record, profiler, spans)
        trace = layers.chrome_trace(
            spans.spans, reference_spans + obs.tracer().spans, os.getpid()
        )
        Path(args.trace).write_text(json.dumps(trace))
        result["spans"] = spans.spans
    del record["sent"]
    result["pass"] = record
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
