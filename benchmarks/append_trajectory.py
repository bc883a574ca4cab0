"""Append an end-to-end benchmark report to the perf trajectory.

``benchmarks/e2e/run.py`` (the report mode: no ``--trace``) writes one
``benchmarks/e2e/out/result-*.json`` per run: every workload's
end-to-end metrics with their quartiles over the run's fresh processes,
and the traced child's exact per-layer call counts.  This script turns
the newest one — or the one named on the command line — into one JSON
line of the committed ``benchmarks/results/BENCH_trajectory.jsonl``::

    {"commit": ..., "recorded_at": ..., "seed": ...,
     "workloads": {name: {metric: [q1, median, q3]}},
     "calls": {name: {"<layer>.calls": n}}}

The commit is the one ``run.py`` measured, with ``+dirty`` appended
when ``src/`` holds uncommitted changes.  Re-running on the same commit
*replaces* that commit's last row instead of stacking duplicates.  The
CI benchmark-perf job and ``make bench-trajectory`` run both steps;
``python -m repro trajectory`` plots the result.

Usage::

    python3 benchmarks/e2e/run.py --repeats 3
    python3 benchmarks/append_trajectory.py [RESULT.json]
"""

from __future__ import annotations

import datetime
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).parent
DECLARED = HERE.parent / "BENCHMARK.json"
E2E_OUT = HERE / "e2e" / "out"
TRAJECTORY = HERE / "results" / "BENCH_trajectory.jsonl"


def src_is_dirty() -> bool:
    status = subprocess.run(
        ["git", "status", "--porcelain", "--", "src"],
        capture_output=True, text=True, cwd=HERE.parent,
    )
    return bool(status.stdout.strip())


def trajectory_row(result: dict) -> dict:
    """One trajectory row from one ``run.py`` result document."""
    commit = result.get("commit") or "unknown"
    return {
        "commit": commit + "+dirty" if src_is_dirty() else commit,
        "recorded_at": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
        "seed": result["seed"],
        "workloads": {
            name: {
                metric: [round(stat[q], 4) for q in ("q1", "median", "q3")]
                for metric, stat in summary["stats"].items()
            }
            for name, summary in result["workloads"].items()
        },
        "calls": {
            name: {k: v for k, v in layers.items() if k.endswith(".calls")}
            for name, layers in result["per_layer"].items()
        },
    }


def main(argv: list[str]) -> int:
    if argv:
        source = Path(argv[0])
    else:
        reports = list(E2E_OUT.glob("result-*.json"))
        if not reports:
            print(f"no result-*.json under {E2E_OUT}; run "
                  "`python3 benchmarks/e2e/run.py --repeats 3` first",
                  file=sys.stderr)
            return 1
        source = max(reports, key=lambda p: p.stat().st_mtime)
    result = json.loads(source.read_text())
    declared = {w["name"] for w in json.loads(DECLARED.read_text())["workloads"]}
    measured = result["workloads"]
    if set(measured) != declared or any(w["quick"] for w in measured.values()):
        print(f"{source} is not a full-size report of all {len(declared)} "
              "workloads (--workload or --quick run?); not recorded",
              file=sys.stderr)
        return 1
    row = trajectory_row(result)
    lines = []
    if TRAJECTORY.exists():
        lines = [
            line for line in TRAJECTORY.read_text().splitlines() if line.strip()
        ]
    if lines and json.loads(lines[-1]).get("commit") == row["commit"]:
        lines.pop()
    lines.append(json.dumps(row, sort_keys=True))
    TRAJECTORY.write_text("\n".join(lines) + "\n")
    print(f"trajectory: {len(lines)} rows, latest {row['commit']} from "
          f"{source.name} ({len(row['workloads'])} workloads)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
