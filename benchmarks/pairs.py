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

Each side runs from a fresh export of its tracked files: a git checkout's
``git ls-files`` as they stand in its working tree, or a whole tree that is
not a checkout (a ``git archive`` of the parent) less its bytecode caches.
A working tree holds the ``__pycache__`` a test run wrote and a ``git
archive`` holds none, and that alone read ``setup_s`` 3–6 % slower on
every workload; two exports compare like with like.

Only ``benchmarks/e2e/`` is read: nothing under it changes.

Usage::

    python3 benchmarks/pairs.py PARENT_DIR CHANGE_DIR --workload fig17_sweep \\
        [--pairs 10] [--seed-base 0]
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
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


def export(tree: Path, into: Path) -> Path:
    """A fresh copy of ``tree``'s tracked files at ``into``: ``git
    ls-files`` as they stand in the working tree when ``tree`` is the top
    of a git checkout, else the whole tree less ``__pycache__`` and
    ``*.pyc``.  Returns ``into``."""
    tree = tree.resolve()
    top = subprocess.run(
        ["git", "-C", str(tree), "rev-parse", "--show-toplevel"],
        capture_output=True, text=True,
    )
    if top.returncode or Path(top.stdout.strip()).resolve() != tree:
        shutil.copytree(tree, into, ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
        return into
    listed = subprocess.run(
        ["git", "-C", str(tree), "ls-files", "-z"], capture_output=True, check=True,
    ).stdout.decode().split("\0")
    into.mkdir(parents=True)
    for name in filter(None, listed):
        source = tree / name
        if source.is_file():  # a tracked file deleted in the working tree is not
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, into / name)
    return into


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
    with tempfile.TemporaryDirectory(prefix="pairs-") as scratch:
        parent = export(args.parent, Path(scratch) / "parent")
        change = export(args.change, Path(scratch) / "change")
        for i in range(args.pairs):
            seed = args.seed_base + i
            trees = (parent, change) if i % 2 == 0 else (change, parent)
            first, second = (run_once(tree, args.workload, seed) for tree in trees)
            runs.append((first, second) if i % 2 == 0 else (second, first))
            print(f"pair {i} (seed {seed}) done", file=sys.stderr, flush=True)
        metrics = declared_metrics(change)
    print(report(metrics, runs))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
