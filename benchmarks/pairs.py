"""Alternating parent/change pairs of one end-to-end workload, and whether
a claimed gain holds.

Runs each tree's own ``benchmarks/e2e/run.py --workload W --seed S
--seconds 8 --trace 0`` in turn, ``--pairs`` times, seed ``S`` rising
from ``--seed-base``; which tree goes first alternates from pair to pair,
so a drift of the host's speed charges both sides alike.  For each
end-to-end metric ``BENCHMARK.json`` declares it then prints each side's
median and quartiles, how many pairs the change won, and the verdict of
the claim rule: the change is better in at least nine pairs of ten, and
its median is better than the parent's by more than the parent's
interquartile range.  A run that is not correct or fails an operation is
reported, and no claim holds over it.

Only ``benchmarks/e2e/`` is read: nothing under it changes.

Usage::

    python3 benchmarks/pairs.py PARENT_DIR CHANGE_DIR --workload fig17_sweep \\
        [--pairs 10] [--seed-base 0]
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

#: The claim rule: the share of pairs the change must win.
WIN_SHARE = 0.9


def quartiles(values: "list[float]") -> "tuple[float, float, float]":
    """``(q1, median, q3)``, linearly interpolated between order statistics."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(parent: "list[float]", change: "list[float]", better: str) -> dict:
    """The claim rule on one metric's paired values (``parent[i]`` and
    ``change[i]`` ran as pair ``i``); ``better`` is ``"lower"`` or
    ``"higher"``."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of parent and change runs")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p_q1, p_median, p_q3 = quartiles(parent)
    c_q1, c_median, c_q3 = quartiles(change)
    gain = sign * (c_median - p_median)  # > 0: the change is better
    return {
        "parent": (p_q1, p_median, p_q3),
        "change": (c_q1, c_median, c_q3),
        "wins": wins,
        "pairs": len(parent),
        "relative": (c_median - p_median) / p_median if p_median else math.nan,
        "holds": wins >= WIN_SHARE * len(parent) and gain > p_q3 - p_q1,
    }


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One driver-protocol run of ``tree``'s benchmark: its last line."""
    out = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "8", "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode or not lines:
        raise RuntimeError(f"{tree}: run.py exited {out.returncode}\n{out.stderr}")
    return json.loads(lines[-1])


def declared_metrics(tree: Path) -> "list[tuple[str, str]]":
    """``(name, better)`` of every end-to-end metric ``tree`` declares."""
    declared = json.loads((tree / "BENCHMARK.json").read_text())
    return [(m["name"], m["better"]) for m in declared["end_to_end"]]


def report(metrics: "list[tuple[str, str]]", runs: "list[tuple[dict, dict]]") -> str:
    """The per-pair values and each metric's verdict, as text."""
    bad = [
        f"pair {i}: {side} correct={run['correct']} failed={run['failed']}"
        for i, pair in enumerate(runs)
        for side, run in zip(("parent", "change"), pair)
        if not run["correct"] or run["failed"]
    ]
    lines = []
    for name, better in metrics:
        parent = [p["metrics"][name]["value"] for p, _ in runs]
        change = [c["metrics"][name]["value"] for _, c in runs]
        v = verdict(parent, change, better)
        lines.append(
            f"{name} ({better} is better): parent {_q(v['parent'])}, "
            f"change {_q(v['change'])}, median {v['relative']:+.1%}, "
            f"change won {v['wins']}/{v['pairs']}, claim "
            + ("holds" if v["holds"] and not bad else "does not hold")
        )
        lines.append(
            "  pairs: " + ", ".join(f"{p:.4g}/{c:.4g}" for p, c in zip(parent, change))
        )
    lines.extend(bad or ["every run correct, no failed operation"])
    return "\n".join(lines)


def _q(stats: "tuple[float, float, float]") -> str:
    q1, median, q3 = stats
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    runs = []
    for i in range(args.pairs):
        seed = args.seed_base + i
        trees = (args.parent, args.change) if i % 2 == 0 else (args.change, args.parent)
        first, second = (run_once(tree, args.workload, seed) for tree in trees)
        runs.append((first, second) if i % 2 == 0 else (second, first))
        print(f"pair {i} (seed {seed}) done", file=sys.stderr, flush=True)
    print(report(declared_metrics(args.change), runs))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
