"""End-to-end benchmark of the Quartz simulator: five whole experiments.

Driver protocol (one workload, one JSON object on the last line):

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Report for people (every workload, tables, result files under out/):

    python3 benchmarks/e2e/run.py [--seed 0] [--repeats 5] [--workload NAME] [--quick]

``--selfcheck`` runs the report twice and compares the two;
``--update-golden`` rewrites golden.json (only a ``benchmark`` issue may).

Every measurement runs in a fresh child process (child.py) with every
``REPRO_*`` variable scrubbed, an empty ``REPRO_CACHE_DIR`` and
``PYTHONHASHSEED=0``.  Host times are reported in seconds on the nominal
host (calib.py); every latency, digest and error figure is simulated.
README.md defines each metric.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calib

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"
#: The seed whose digests golden.json holds.
GOLDEN_SEED = 0
#: Fresh processes per driver run: at least, at most.
DRIVER_CHILDREN = (3, 4)
CHILD_TIMEOUT_S = 170


@functools.cache
def manifest() -> dict:
    """BENCHMARK.json: the one place metric names, units and bounds live."""
    return json.loads((REPO / "BENCHMARK.json").read_text())


def workload_names() -> list[str]:
    return [w["name"] for w in manifest()["workloads"]]


# -- children ------------------------------------------------------------------------


def child_env(cache_dir: Path) -> dict[str, str]:
    """The parent's environment minus every REPRO_* knob, plus the pins."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(workload: str, seed: int, quick: bool,
          trace_path: Path | None = None) -> dict:
    """Run one child to completion and return its result object."""
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=OUT / "tmp"))
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed),
    ]
    if quick:
        command.append("--quick")
    if trace_path is not None:
        command += ["--trace", str(trace_path)]
    command += ["--spawned-at", repr(time.time())]
    process = subprocess.Popen(
        command, env=child_env(cache_dir), cwd=HERE, stdout=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, _ = process.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        # The child's session also holds its shard workers: none may outlive it.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
        shutil.rmtree(cache_dir, ignore_errors=True)
    if process.returncode != 0:
        raise RuntimeError(f"child for {workload} exited with {process.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def measure(names: list[str], seed: int, quick: bool, repeats: int,
            at_most: int | None = None, seconds: float = 0.0) -> dict[str, list[dict]]:
    """Untraced children, one pass each, round-robin over the workloads so
    that host drift is shared between them.

    Each workload gets ``repeats`` children, and then more, up to
    ``at_most``, while its passes add up to less than ``seconds`` of raw
    wall-clock (the driver protocol's ``--seconds``).
    """
    children: dict[str, list[dict]] = {name: [] for name in names}
    wanted = list(names)
    while wanted:
        for name in list(wanted):
            children[name].append(spawn(name, seed, quick))
            n = len(children[name])
            measured = sum(c["pass"]["raw_wall_s"] for c in children[name])
            if n >= repeats and (n >= (at_most or repeats) or measured >= seconds):
                wanted.remove(name)
    return children


# -- aggregation ---------------------------------------------------------------------


def spread(values: list[float]) -> dict:
    """n, quartiles and minimum of a sample (no tail percentile: n is small)."""
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"n": len(values), "q1": q1, "median": median, "q3": q3, "min": min(values)}


def load_golden(quick: bool) -> dict:
    return json.loads(GOLDEN.read_text())["quick" if quick else "full"]


def summarize(name: str, children: list[dict], golden: dict) -> dict:
    """End-to-end metrics and the operation count of one workload.

    A cell fails on its own errors (exception, conservation, port clock,
    workload check) or when its digest differs from the reference: the
    golden file at the default seed, else the first pass of this seed.
    """
    passes = [child["pass"] for child in children]
    seed, quick = children[0]["seed"], children[0]["quick"]
    reference = None
    if seed == GOLDEN_SEED and name in golden:
        reference = golden[name]["cells"]
    attempted = failed = 0
    errors: list[str] = []
    for child in children:
        attempted += 1  # the untimed reference run
        if child["reference_errors"]:
            failed += 1
            errors += child["reference_errors"]
    for record in passes:
        expected = reference if reference is not None else passes[0]["cell_digests"]
        bad = set(record["failed_cells"])
        for label, value in record["cell_digests"].items():
            if expected.get(label) != value:
                bad.add(label)
                errors.append(f"{label}: digest differs from the reference")
        bad |= set(expected) - set(record["cell_digests"])
        attempted += record["attempted"]
        failed += min(record["attempted"], len(bad) + record["finish_failed"])
        errors += record["errors"]
    stats = {
        "wall_s": spread([p["wall_s"] for p in passes]),
        "cpu_s": spread([p["cpu_s"] for p in passes]),
        "setup_s": spread([c["setup_s"] for c in children]),
        "peak_rss_mb": spread([c["peak_rss_mb"] for c in children]),
    }
    work = passes[0]["work"]
    wall = stats["wall_s"]
    stats["work_per_s"] = {
        "n": wall["n"], "median": work / wall["median"], "q1": work / wall["q3"],
        "q3": work / wall["q1"], "min": work / max(p["wall_s"] for p in passes),
    }
    return {
        "workload": name,
        "seed": seed,
        "quick": quick,
        "sizes": children[0]["sizes"],
        "work": work,
        "work_unit": children[0]["work_unit"],
        "stats": stats,
        "raw_wall_s": spread([p["raw_wall_s"] for p in passes]),
        "host_speed": spread([c["host_speed"] for c in children]),
        "model_rel_err": passes[0]["model_rel_err"],
        "attempted": attempted,
        "failed": failed,
        "failed_ops_share": failed / attempted,
        "errors": errors[:20],
        "digest": passes[0]["digest"],
        "cell_digests": passes[0]["cell_digests"],
    }


def trace(name: str, seed: int, quick: bool, untraced_wall: float) -> dict:
    """One traced child: per-layer metrics, its pass record, its spans."""
    OUT.mkdir(exist_ok=True)
    result = spawn(name, seed, quick, trace_path=OUT / f"trace-{name}.json")
    layers = result.pop("layers")
    layers["trace.overhead_ratio"] = result["pass"]["wall_s"] / untraced_wall
    layers["host.speed_ratio"] = result["host_speed"]
    return {"layers": layers, "child": result}


# -- output --------------------------------------------------------------------------


def metric_line(name: str, unit: str, stat: dict) -> str:
    return (f"  {name:<14}{stat['median']:>14.4f} {unit:<6} n={stat['n']:<3}"
            f" q1={stat['q1']:.4f} q3={stat['q3']:.4f} min={stat['min']:.4f}")


def print_report(summaries: dict[str, dict], traces: dict[str, dict]) -> None:
    units = {m["name"]: m["unit"] for m in manifest()["end_to_end"]}
    print("Closed loop, one client: cells run back to back in one process.")
    print("Host time is in seconds on the nominal host (calib.py); "
          "every latency, digest and error figure is simulated.")
    for name, summary in summaries.items():
        print(f"\n{name}  seed={summary['seed']}  work={summary['work']} "
              f"{summary['work_unit']} per pass")
        for metric, unit in units.items():
            print(metric_line(metric, unit, summary["stats"][metric]))
        print(f"  raw wall {summary['raw_wall_s']['median']:.4f} s on this host, which ran at "
              f"x{summary['host_speed']['median']:.2f} of the nominal host's speed")
        err = summary["model_rel_err"]
        print("  model_rel_err " + ("unvalidated (the repo holds no reference)"
                                    if err is None else f"{err:.6f} ratio, simulated"))
        print(f"  failed_ops_share {summary['failed_ops_share']:.4f} "
              f"({summary['failed']} of {summary['attempted']} operations)")
        for error in summary["errors"]:
            print(f"    FAILED {error}")
        layers = traces.get(name, {}).get("layers")
        if layers:
            wall = layers["trace.wall_s"]
            print(f"  traced pass {wall:.3f} s raw, overhead x"
                  f"{layers['trace.overhead_ratio']:.2f}; self time by layer:")
            shares = sorted(((v, k) for k, v in layers.items() if k.endswith(".self_s")),
                            reverse=True)
            for value, key in shares:
                if value > 0.005 * wall:
                    calls = layers.get(key[:-7] + ".calls")
                    print(f"    {key[:-7]:<14}{value:>8.3f} s {100 * value / wall:>5.1f} %"
                          + (f"  {calls} calls" if calls is not None else ""))


def write_result(seed: int, summaries: dict, traces: dict, children: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO, text=True,
                            capture_output=True).stdout.strip() or None
    first = next(iter(children.values()))[0]
    document = {
        "seed": seed,
        "commit": commit,
        "env": first["env"],
        "nominal_kernel_s": calib.NOMINAL_S,
        "workloads": summaries,
        "per_layer": {name: t["layers"] for name, t in traces.items()},
        "spans": {name: t["child"].get("spans", []) for name, t in traces.items()},
        "children": children,
    }
    path = OUT / f"result-seed{seed}-{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps(document, indent=1))
    return path


def driver_line(attempted: int, failed: int, metrics: dict[str, float],
                declared: list[dict]) -> str:
    """The contract's last line: exactly the declared metrics, with units."""
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    })


# -- modes ---------------------------------------------------------------------------


def run_driver(args) -> int:
    golden = load_golden(args.quick)
    if args.trace == 0:
        children = measure([args.workload], args.seed, args.quick, *DRIVER_CHILDREN,
                           seconds=args.seconds)[args.workload]
        summary = summarize(args.workload, children, golden)
        for error in summary["errors"]:
            print(f"FAILED {error}", file=sys.stderr)
        metrics = {k: v["median"] for k, v in summary["stats"].items()}
        print(driver_line(summary["attempted"], summary["failed"], metrics,
                          manifest()["end_to_end"]))
        return 0
    plain = spawn(args.workload, args.seed, args.quick)
    traced = trace(args.workload, args.seed, args.quick, plain["pass"]["wall_s"])
    summary = summarize(args.workload, [plain, traced["child"]], golden)
    for error in summary["errors"]:
        print(f"FAILED {error}", file=sys.stderr)
    print(driver_line(summary["attempted"], summary["failed"], traced["layers"],
                      manifest()["per_layer"]))
    return 0


def run_report(args) -> tuple[dict, dict]:
    names = [args.workload] if args.workload else workload_names()
    golden = load_golden(args.quick)
    children = measure(names, args.seed, args.quick, args.repeats)
    summaries = {name: summarize(name, children[name], golden) for name in names}
    traces = {
        name: trace(name, args.seed, args.quick, summaries[name]["stats"]["wall_s"]["median"])
        for name in names
    }
    for name in names:  # the traced pass is checked like any other
        extra = summarize(name, [traces[name]["child"]], golden)
        for key in ("attempted", "failed"):
            summaries[name][key] += extra[key]
        summaries[name]["errors"] += extra["errors"]
        summaries[name]["failed_ops_share"] = (
            summaries[name]["failed"] / summaries[name]["attempted"]
        )
    print_report(summaries, traces)
    path = write_result(args.seed, summaries, traces, children)
    print(f"\nresult: {path}\ntraces: {OUT}/trace-<workload>.json "
          "(open in https://ui.perfetto.dev)")
    return summaries, traces


def exact_layer_metric(name: str, unit: str) -> bool:
    """Per-layer metrics that must repeat exactly between runs of one tree."""
    return unit == "count" or name in ("sim.network.batched_share",
                                       "sim.network.cohort_mean",
                                       "sim.fastpath.plan_hit_ratio", "model.rel_err",
                                       "hybrid.fg_p99_rel_err", "cache.hit_ratio")


def run_selfcheck(args) -> int:
    """Two full sets of the same tree must agree within the bounds."""
    first, first_traces = run_report(args)
    second, second_traces = run_report(args)
    declared = manifest()
    bad = 0
    print("\nselfcheck: second set against the first")
    for name in first:
        for metric in declared["end_to_end"]:
            a = first[name]["stats"][metric["name"]]["median"]
            b = second[name]["stats"][metric["name"]]["median"]
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            verdict = "ok" if abs(worse) <= metric["bound"] else "OUTSIDE BOUND"
            bad += verdict != "ok"
            print(f"  {name:<22}{metric['name']:<12}{a:>16.4f}{b:>16.4f}"
                  f"{worse:>+8.1%} worse (bound {metric['bound']:.0%})  {verdict}")
        for key in ("work", "digest", "model_rel_err", "failed"):
            if first[name][key] != second[name][key]:
                bad += 1
                print(f"  {name}: {key} differs: {first[name][key]} vs {second[name][key]}")
        for metric in declared["per_layer"]:
            if exact_layer_metric(metric["name"], metric["unit"]):
                a = first_traces[name]["layers"][metric["name"]]
                b = second_traces[name]["layers"][metric["name"]]
                if a != b:
                    bad += 1
                    print(f"  {name}: {metric['name']} differs: {a} vs {b}")
    failed = sum(s["failed"] for s in list(first.values()) + list(second.values()))
    print(f"selfcheck: {bad} disagreement(s), {failed} failed operation(s)")
    return 1 if bad or failed else 0


def run_update_golden(args) -> int:
    golden = {"seed": GOLDEN_SEED}
    for mode, quick in (("full", False), ("quick", True)):
        golden[mode] = {}
        for name in workload_names():
            child = spawn(name, GOLDEN_SEED, quick)
            summary = summarize(name, [child], {})
            if summary["failed"]:
                print(f"{name}: {summary['errors']}", file=sys.stderr)
                return 1
            golden[mode][name] = {"work": summary["work"],
                                  "cells": summary["cell_digests"]}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float,
                        help="driver protocol: wall-clock seconds of passes to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver protocol: 0 end-to-end metrics, 1 per-layer metrics")
    parser.add_argument("--repeats", type=int, default=5,
                        help="fresh processes per workload in the report")
    parser.add_argument("--quick", action="store_true", help="tiny sizes, for tests")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--update-golden", action="store_true")
    args = parser.parse_args(argv)

    if not (REPO / "src" / "repro").is_dir() or not (REPO / "BENCHMARK.json").is_file():
        print(f"no simulator to measure: {REPO}/src/repro is missing", file=sys.stderr)
        return 2
    if args.workload and args.workload not in workload_names():
        parser.error(f"unknown workload {args.workload!r}; known: {workload_names()}")
    if args.update_golden:
        return run_update_golden(args)
    if args.trace is not None:
        if not args.workload or args.seconds is None:
            parser.error("--trace needs --workload and --seconds")
        return run_driver(args)
    if args.selfcheck:
        return run_selfcheck(args)
    summaries, _ = run_report(args)
    return 1 if any(s["failed"] for s in summaries.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
