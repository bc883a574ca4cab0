"""Command-line interface: ``python -m repro <command>``.

The main entry points:

* ``plan`` — wavelength assignment for a ring (greedy or exact ILP),
  optionally as a factory-shippable JSON document;
* ``design`` — the Table 8 cost configurator;
* ``topology`` — build a named topology and print its Table 9 metrics;
* ``experiment`` — regenerate an evaluation figure (10, 17, 18 or 20);
* ``trace`` / ``report`` / ``trajectory`` — the observability trio:
  a Chrome-trace profile of a representative workload, the run
  manifest renderer, and the benchmark perf-trajectory sparkline.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Sequence

from repro.core import channels as _channels
from repro.core import optical as _optical
from repro.core.serialization import plan_to_json
from repro.cost import format_table8, table8
from repro.units import usec


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Quartz (SIGCOMM 2014) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    plan = sub.add_parser("plan", help="wavelength assignment for a Quartz ring")
    plan.add_argument("--ring-size", type=int, required=True, metavar="N")
    plan.add_argument(
        "--method", choices=("greedy", "ilp"), default="greedy",
        help="greedy heuristic (default) or exact ILP (small rings)",
    )
    plan.add_argument(
        "--json", action="store_true", help="emit the plan as JSON instead of a summary"
    )

    sub.add_parser("design", help="Table 8 cost/latency configurator")

    topo = sub.add_parser("topology", help="build a topology and print its metrics")
    topo.add_argument(
        "--name",
        choices=sorted(_TOPOLOGY_CHOICES),
        required=True,
    )

    exp = sub.add_parser("experiment", help="regenerate an evaluation figure")
    exp.add_argument(
        "--figure",
        choices=(
            "10", "17", "18", "20", "fault-recovery", "queue-diagnosis",
            "hybrid-scale",
        ),
        required=True,
        help="paper figure number, the live fault-recovery experiment, "
        "the telemetry queue-diagnosis sweep, or the hybrid packet/flow "
        "engine scale scenario",
    )
    exp.add_argument(
        "--kind", choices=("scatter", "gather", "scatter_gather"),
        default="scatter", help="task kind for figures 17/18",
    )
    exp.add_argument(
        "--router", choices=("ecmp", "vlb"), default="ecmp",
        help="routing engine for the fault-recovery and queue-diagnosis "
        "experiments",
    )
    exp.add_argument(
        "--seed", type=int, default=0,
        help="seed for the fault-recovery and queue-diagnosis experiments",
    )
    exp.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="processes to fan the sweep over (0 = all CPUs / REPRO_WORKERS); "
        "results are identical for any worker count",
    )
    exp.add_argument(
        "--background-flows", type=int, default=2000, metavar="N",
        help="background flow count for the hybrid-scale scenario",
    )
    exp.add_argument(
        "--manifest", type=str, default=None, metavar="PATH",
        help="arm repro.obs for the run and write its run-provenance "
        "manifest (repro.obs.report) to PATH after the experiment completes",
    )

    scale = sub.add_parser(
        "scaling", help="largest element per switch port count (Section 8)"
    )
    scale.add_argument(
        "--ports", type=int, nargs="*", default=[16, 32, 64, 128, 256],
        help="switch port counts to sweep",
    )
    scale.add_argument(
        "--method", choices=("estimate", "greedy"), default="estimate",
        help="wavelength count: link-load estimate (default) or the exact "
        "greedy assignment (slow at large sizes, memoized via the cache)",
    )

    expand = sub.add_parser(
        "expand", help="incremental ring expansion plan (Section 8)"
    )
    expand.add_argument("--from-size", type=int, required=True, metavar="M")
    expand.add_argument("--to-size", type=int, required=True, metavar="N")

    smoke = sub.add_parser(
        "smoke", help="benchmark smoke: seeded cells vs golden metrics"
    )
    mode = smoke.add_mutually_exclusive_group()
    mode.add_argument(
        "--check", action="store_true",
        help="fail if metrics drifted from the golden (default)",
    )
    mode.add_argument(
        "--update", action="store_true",
        help="regenerate the golden file from a fresh run",
    )
    smoke.add_argument(
        "--golden", type=str, default=None, metavar="PATH",
        help="golden JSON location (default: tests/golden/benchmark_smoke.json, "
        "or the _telemetry variant with --telemetry)",
    )
    smoke.add_argument(
        "--telemetry", action="store_true",
        help="run the telemetry-enabled smoke variant (windowed monitors + "
        "INT stamping armed) against its own golden file",
    )
    smoke.add_argument(
        "--dump-windows", type=str, default=None, metavar="PATH",
        help="with --telemetry: also write the per-window telemetry JSON "
        "dump to PATH (CI uploads it as a workflow artifact)",
    )
    smoke.add_argument(
        "--manifest", type=str, default=None, metavar="PATH",
        help="arm repro.obs for the run and write its run-provenance "
        "manifest (repro.obs.report) to PATH after the smoke run",
    )

    trace = sub.add_parser(
        "trace", help="profile a representative workload into Chrome trace JSON"
    )
    trace.add_argument(
        "--out", type=str, default="repro-trace.json", metavar="PATH",
        help="trace output path (open in Perfetto / chrome://tracing)",
    )
    trace.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="sweep worker processes for the per-worker span lanes",
    )

    report = sub.add_parser(
        "report", help="render (or freshly build) a run-provenance manifest"
    )
    report.add_argument(
        "path", nargs="?", default=None,
        help="manifest JSON to validate and render; omitted = build one "
        "from the current process state",
    )
    report.add_argument(
        "--json", action="store_true", help="emit the manifest as JSON"
    )

    traj = sub.add_parser(
        "trajectory", help="sparkline of the benchmark perf trajectory"
    )
    traj.add_argument(
        "--file", type=str, default=None, metavar="PATH",
        help="trajectory JSONL (default: benchmarks/results/BENCH_trajectory.jsonl)",
    )
    traj.add_argument(
        "--metric", type=str, default="fig17_sweep/wall_s",
        help="WORKLOAD/METRIC to plot: a workload and an end-to-end metric "
        "of BENCHMARK.json",
    )
    return parser


_TOPOLOGY_CHOICES = {
    "two-tier-tree": lambda: _topology_module().two_tier_tree(16, 2),
    "three-tier-tree": lambda: _topology_module().three_tier_tree(),
    "fat-tree": lambda: _topology_module().fat_tree(4),
    "folded-clos": lambda: _topology_module().folded_clos(32, 16, 2, 1),
    "bcube": lambda: _topology_module().bcube(8, 1),
    "jellyfish": lambda: _topology_module().jellyfish(),
    "mesh": lambda: _topology_module().full_mesh(33, 1),
    "quartz-ring": lambda: _topology_module().quartz_ring(33, 2),
    "quartz-in-core": lambda: _topology_module().quartz_in_core(),
    "quartz-in-edge": lambda: _topology_module().quartz_in_edge(),
    "quartz-in-edge-and-core": lambda: _topology_module().quartz_in_edge_and_core(),
    "quartz-in-jellyfish": lambda: _topology_module().quartz_in_jellyfish(),
}


def _topology_module():
    import repro.topology as T

    return T


def _cmd_plan(args: argparse.Namespace) -> int:
    if args.ring_size < 2:
        print("ring size must be at least 2", file=sys.stderr)
        return 2
    if args.method == "ilp" and args.ring_size > 12:
        print(
            "the exact ILP is practical only for small rings (≤ 12); "
            "use --method greedy",
            file=sys.stderr,
        )
        return 2
    if args.method == "greedy":
        plan = _channels.greedy_assignment(args.ring_size)
    else:
        plan = _channels.ilp_assignment(args.ring_size)
    if args.json:
        print(plan_to_json(plan, indent=2))
        return 0
    rings = _channels.rings_needed(args.ring_size)
    amps = _optical.amplifiers_required(args.ring_size) * rings
    print(f"ring size:            {args.ring_size}")
    print(f"wavelengths ({args.method}):  {plan.num_channels}")
    print(f"lower bound:          {_channels.lower_bound(args.ring_size)}")
    print(f"physical fibre rings: {rings}")
    print(f"amplifiers:           {amps}")
    feasible = plan.num_channels <= _channels.FIBER_CHANNEL_LIMIT
    print(f"fits one fibre (160 ch): {'yes' if feasible else 'NO'}")
    return 0


def _cmd_design(_args: argparse.Namespace) -> int:
    print(format_table8(table8()))
    return 0


def _cmd_topology(args: argparse.Namespace) -> int:
    import repro.topology as T

    topo = _TOPOLOGY_CHOICES[args.name]()
    summary = T.summarize(topo, hop_sample=32)
    from repro.analysis.latency import table9_latency
    from repro.topology.metrics import worst_case_hop_profile

    profile = worst_case_hop_profile(topo, sample=32)
    print(topo.summary())
    print(f"worst-case switch hops:  {summary.switch_hops}")
    print(f"server relay hops:       {summary.server_relay_hops}")
    print(f"no-congestion latency:   {usec(table9_latency(profile)):.1f} us")
    print(f"wiring complexity:       {summary.wiring_complexity} cross-rack links")
    print(f"path diversity:          {summary.path_diversity}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    import repro.experiments as E
    from repro.runner import RunnerError

    if args.workers < 0:
        print("--workers must be non-negative", file=sys.stderr)
        return 2
    workers = args.workers if args.workers > 0 else None  # None = auto
    with _armed(bool(args.manifest)):
        try:
            status = _run_experiment(args, E, workers)
        except RunnerError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        if status == 0 and args.manifest:
            _write_manifest(
                args.manifest,
                seeds=[args.seed],
                extra={"command": "experiment", "figure": args.figure},
            )
    return status


def _run_experiment(args: argparse.Namespace, E, workers: int | None) -> int:
    if args.figure == "fault-recovery":
        results = E.fault_recovery_sweep(
            seeds=(args.seed,), workers=workers, router=args.router
        )
        print(E.format_fault_recovery(results))
    elif args.figure == "queue-diagnosis":
        results = E.queue_diagnosis_sweep(
            seeds=(args.seed,), workers=workers, router=args.router
        )
        print(E.format_queue_diagnosis(results))
    elif args.figure == "hybrid-scale":
        results = E.hybrid_scale_experiment(
            n_background=args.background_flows, seed=args.seed, workers=workers
        )
        print(E.format_hybrid_scale(results))
    elif args.figure == "10":
        print(E.format_figure10(E.figure10_sweep(workers=workers)))
    elif args.figure == "20":
        print(E.format_figure20(E.figure20_sweep(workers=workers)))
    elif args.figure == "17":
        series = E.figure17_sweep(
            kind=args.kind, task_counts=[1, 2, 4], workers=workers
        )
        print(E.format_sweep(series, f"Figure 17 ({args.kind}), us per packet"))
    else:
        series = E.figure18_sweep(
            kind=args.kind, task_counts=[1, 2, 4], workers=workers
        )
        print(E.format_sweep(series, f"Figure 18 ({args.kind}), us per packet"))
    return 0


def _cmd_scaling(args: argparse.Namespace) -> int:
    from repro.analysis.scaling import format_scaling_table, scaling_table

    try:
        rows = scaling_table(tuple(args.ports), method=args.method)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(format_scaling_table(rows))
    return 0


def _cmd_expand(args: argparse.Namespace) -> int:
    from repro.core.expansion import ExpansionError, expand_plan

    if args.from_size < 2:
        print("initial ring needs at least 2 switches", file=sys.stderr)
        return 2
    try:
        result = expand_plan(
            _channels.greedy_assignment(args.from_size), args.to_size
        )
    except ExpansionError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(f"expansion:     {args.from_size} → {args.to_size} switches")
    print(f"wavelengths:   {result.plan.num_channels}")
    print(f"preserved:     {len(result.preserved)} channels")
    print(f"re-tuned:      {len(result.retuned)} channels "
          f"({result.retune_fraction:.0%} of deployed)")
    print(f"new channels:  {len(result.added)}")
    feasible = result.plan.num_channels <= _channels.FIBER_CHANNEL_LIMIT
    print(f"fits one fibre (160 ch): {'yes' if feasible else 'NO — re-plan required'}")
    return 0


def _cmd_smoke(args: argparse.Namespace) -> int:
    from repro import smoke as S

    if args.dump_windows and not args.telemetry:
        print("--dump-windows requires --telemetry", file=sys.stderr)
        return 2
    default = S.GOLDEN_TELEMETRY_PATH if args.telemetry else S.GOLDEN_PATH
    path = Path(args.golden) if args.golden else default
    with _armed(bool(args.manifest)):
        if args.update:
            metrics, runtime = S.update(
                path, telemetry=args.telemetry, dump_windows_to=args.dump_windows
            )
        else:
            problems, runtime = S.check_with_runtime(
                path, telemetry=args.telemetry, dump_windows_to=args.dump_windows
            )
        _smoke_manifest(args, runtime)
    if args.update:
        print(f"golden updated: {path}")
        for key in sorted(metrics):
            print(f"  {key} = {metrics[key]!r}")
        _print_smoke_runtime(runtime["runtime.wall_clock_s"])
        return 0
    _print_smoke_runtime(runtime.get("runtime.wall_clock_s", 0.0))
    if problems:
        print("benchmark smoke drift detected:", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        print(
            f"intentional change?  re-run `{S.update_command(path, args.telemetry)}` "
            "and commit the new golden",
            file=sys.stderr,
        )
        return 1
    print(f"benchmark smoke OK ({path.name})")
    return 0


@contextmanager
def _armed(wanted: bool = True):
    """Arm :mod:`repro.obs` for the block when ``wanted``; a process that
    was disarmed before is disarmed again after.  ``--manifest`` arms the
    run it describes: the manifest is what reads the registry."""
    from repro import obs

    was_armed = obs.armed()
    if wanted:
        obs.arm()
    try:
        yield
    finally:
        if wanted and not was_armed:
            obs.disarm()


def _smoke_manifest(args: argparse.Namespace, runtime: dict) -> None:
    if not args.manifest:
        return
    extra = {
        "command": "smoke",
        "telemetry": bool(args.telemetry),
        **runtime,
    }
    _write_manifest(args.manifest, seeds=[0], extra=extra)


def _write_manifest(path: str, seeds=None, extra=None) -> None:
    from repro.obs import report as _report

    doc = _report.write_manifest(path, seeds=seeds, extra=extra)
    print(f"run manifest written: {path} ({doc['schema']})")


def _print_smoke_runtime(elapsed_s: float) -> None:
    """Perf-trajectory line: wall-clock plus artifact-cache hit rate.

    Informational only — never part of the golden comparison.
    """
    from repro.cache import artifact_cache

    stats = artifact_cache().stats
    print(
        f"wall-clock {elapsed_s:.2f}s, cache hit-rate {stats.hit_rate:.1%} "
        f"({stats.hits}/{stats.lookups} lookups)"
    )


def _cmd_trace(args: argparse.Namespace) -> int:
    import json
    import os

    from repro import obs
    from repro.obs.tracing import export_chrome

    if args.workers < 1:
        print("--workers must be at least 1", file=sys.stderr)
        return 2
    with _armed():
        # The export should contain exactly the profile below — discard
        # whatever an already-armed process accumulated beforehand (a long
        # session can fill the bounded buffer, which would drop the
        # profile's own spans).
        obs.tracer().drain()
        _trace_profile(args.workers)
        spans = obs.tracer().drain()
    doc = export_chrome(spans, process_labels={os.getpid(): "coordinator"})
    with open(args.out, "w") as fh:
        json.dump(doc, fh)
    names = sorted({span.name for span in spans})
    print(f"trace written: {args.out} ({len(spans)} spans)")
    print(f"span kinds: {', '.join(names)}")
    print("open it at https://ui.perfetto.dev or chrome://tracing")
    return 0


def _trace_profile(workers: int) -> None:
    """A representative workload touching every traced layer.

    Three phases: a small sweep fanned over ``workers`` processes
    (per-worker ``sweep.cell`` lanes), one hybrid packet/flow cell
    (``hybrid.epoch`` spans), and one inline conservative-window
    parallel run (``parallel.window`` / ``parallel.barrier`` spans).
    Engine runs inside all three contribute ``engine.run`` spans.
    """
    from repro.experiments import run_hybrid_scale_cell, run_task_experiment
    from repro.runner import ExperimentSpec, run_cells
    from repro.sim.parallel import ParallelScenario, SourceSpec, run_parallel

    cells = [
        ExperimentSpec(
            run_task_experiment,
            ("quartz in edge and core", "scatter", 1),
            {"fan": 4, "duration": 0.001, "seed": seed},
            label=f"fig17-seed{seed}",
        )
        for seed in range(max(2, workers))
    ]
    run_cells(cells, workers=workers)

    run_hybrid_scale_cell(
        fabric="quartz-ring-small", mode="hybrid", n_background=10,
        fg_fan=2, duration=0.001, seed=0,
    )

    scenario = ParallelScenario(
        fabric="quartz-ring",
        fabric_args=(6, 1),
        sources=tuple(
            SourceSpec(
                src=f"h{rack}.0", dst=f"h{(rack + 2) % 6}.0",
                rate_pps=50_000.0, flow_id=rack, seed=rack,
            )
            for rack in range(6)
        ),
        duration=5e-4,
    )
    run_parallel(scenario, num_shards=2, mode="inline")


def _cmd_report(args: argparse.Namespace) -> int:
    import json

    from repro.obs import report as R

    if args.path is not None:
        try:
            doc = json.loads(Path(args.path).read_text())
        except (OSError, ValueError) as exc:
            print(f"cannot read manifest {args.path}: {exc}", file=sys.stderr)
            return 2
        problems = R.validate_manifest(doc)
        if problems:
            print(f"invalid manifest {args.path}:", file=sys.stderr)
            for problem in problems:
                print(f"  {problem}", file=sys.stderr)
            return 1
    else:
        doc = R.build_manifest()
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(R.render_manifest(doc))
    return 0


def _cmd_trajectory(args: argparse.Namespace) -> int:
    import json

    from repro.textplot import ChartError, sparkline

    default = (
        Path(__file__).resolve().parents[2]
        / "benchmarks" / "results" / "BENCH_trajectory.jsonl"
    )
    path = Path(args.file) if args.file else default
    if not path.exists():
        print(
            f"no trajectory file at {path}; run `make bench-trajectory`",
            file=sys.stderr,
        )
        return 2
    rows = [
        json.loads(line)
        for line in path.read_text().splitlines()
        if line.strip()
    ]
    workload, _, metric = args.metric.partition("/")
    points = [
        (row.get("commit", "?")[:7], row["workloads"][workload][metric])
        for row in rows
        if metric in row.get("workloads", {}).get(workload, {})
    ]
    if not points:
        known = sorted({
            f"{name}/{key}"
            for row in rows
            for name, metrics in row.get("workloads", {}).items()
            for key in metrics
        })
        print(
            f"metric {args.metric!r} not found in {path.name}; "
            f"known keys: {', '.join(known) or '(none)'}",
            file=sys.stderr,
        )
        return 2
    medians = [median for _, (_, median, _) in points]
    try:
        chart = sparkline(medians)
    except ChartError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    def band(point) -> str:
        commit, (q1, median, q3) = point
        return f"{_sig4(median)} [{_sig4(q1)} .. {_sig4(q3)}] ({commit})"

    first, last = medians[0], medians[-1]
    change = (last / first - 1.0) if first else 0.0
    print(f"{args.metric}, median [q1 .. q3] over {len(medians)} runs")
    print(f"  {chart}")
    print(f"  first {band(points[0])}  last {band(points[-1])}  change {change:+.1%}")
    return 0


def _sig4(value: float) -> str:
    """Four significant digits, no exponent: 1.530, 85.24, 164,362."""
    if not value:
        return "0"
    decimals = max(0, 3 - math.floor(math.log10(abs(value))))
    return f"{value:,.{decimals}f}"


_COMMANDS = {
    "plan": _cmd_plan,
    "design": _cmd_design,
    "topology": _cmd_topology,
    "experiment": _cmd_experiment,
    "scaling": _cmd_scaling,
    "expand": _cmd_expand,
    "smoke": _cmd_smoke,
    "trace": _cmd_trace,
    "report": _cmd_report,
    "trajectory": _cmd_trajectory,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
