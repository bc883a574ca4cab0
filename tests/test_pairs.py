"""The paired-claim tool's verdict (``benchmarks/pairs.py``), on fixed numbers."""

import importlib.util
import shutil
import subprocess
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).parents[1] / "benchmarks" / "pairs.py"
)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

#: Ten parent runs: median 1.55, quartiles 1.5325 and 1.575 (IQR 0.0425).
PARENT = [1.50, 1.52, 1.53, 1.54, 1.55, 1.55, 1.56, 1.58, 1.60, 1.62]


def test_quartiles_interpolate_between_order_statistics():
    assert pairs.quartiles(PARENT) == pytest.approx((1.5325, 1.55, 1.575))
    assert pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)


def test_a_gain_past_the_parent_iqr_in_every_pair_holds():
    change = [p - 0.08 for p in PARENT]
    v = pairs.verdict(PARENT, change, "lower")
    assert v["wins"] == 10 and v["holds"]
    assert v["relative"] == pytest.approx(-0.08 / 1.55)


def test_nine_wins_of_ten_are_enough_eight_are_not():
    nine = [p - 0.08 for p in PARENT[:9]] + [PARENT[9] + 0.01]
    assert pairs.verdict(PARENT, nine, "lower")["holds"]
    eight = [p - 0.08 for p in PARENT[:8]] + [p + 0.01 for p in PARENT[8:]]
    v = pairs.verdict(PARENT, eight, "lower")
    assert v["wins"] == 8 and not v["holds"]


def test_a_gain_inside_the_parent_iqr_does_not_hold():
    change = [p - 0.04 for p in PARENT]  # wins every pair, by less than 0.0425
    v = pairs.verdict(PARENT, change, "lower")
    assert v["wins"] == 10 and not v["holds"]


def test_a_tie_is_not_a_win():
    assert pairs.verdict(PARENT, PARENT, "lower")["wins"] == 0


def test_higher_is_better_turns_the_rule_around():
    change = [p + 0.08 for p in PARENT]
    assert pairs.verdict(PARENT, change, "higher")["holds"]
    assert not pairs.verdict(PARENT, change, "lower")["holds"]
    assert pairs.verdict(PARENT, change, "lower")["wins"] == 0


def test_bad_input_is_rejected():
    with pytest.raises(ValueError):
        pairs.verdict(PARENT, PARENT[:9], "lower")
    with pytest.raises(ValueError):
        pairs.verdict([], [], "lower")
    with pytest.raises(ValueError):
        pairs.verdict(PARENT, PARENT, "faster")


def run(wall, correct=True, failed=0):
    return {"correct": correct, "failed": failed, "metrics": {"wall_s": {"value": wall}}}


def test_report_prints_each_pair_and_flags_failed_runs():
    runs = [(run(p), run(p - 0.08)) for p in PARENT]
    text = pairs.report([("wall_s", "lower")], runs)
    assert "change won 10/10, claim holds" in text
    assert "1.5/1.42" in text
    assert "every run correct, no failed operation" in text
    runs[3] = (run(PARENT[3]), run(PARENT[3] - 0.08, failed=2))
    text = pairs.report([("wall_s", "lower")], runs)
    assert "pair 3: change correct=True failed=2" in text
    assert "change won 10/10, claim does not hold" in text


def git(*args, cwd):
    subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True)


def test_each_side_runs_from_an_export_without_bytecode_caches(tmp_path, monkeypatch):
    """The change side is a git checkout whose working tree holds a test
    run's ``__pycache__``; the parent a ``git archive`` export that a run
    left one in.  Each runs from a fresh copy of its tracked files: the
    edited file as it stands, no cache, nothing untracked."""
    change = tmp_path / "change"
    (change / "pkg" / "__pycache__").mkdir(parents=True)
    (change / "pkg" / "mod.py").write_text("VALUE = 1\n")
    (change / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "wall_s", "better": "lower"}]}'
    )
    git("init", "-q", cwd=change)
    git("add", "pkg/mod.py", "BENCHMARK.json", cwd=change)
    (change / "pkg" / "mod.py").write_text("VALUE = 2\n")  # edited, not staged
    (change / "pkg" / "__pycache__" / "mod.cpython-311.pyc").write_bytes(b"stale")
    (change / "scratch.txt").write_text("untracked\n")
    parent = tmp_path / "parent"
    shutil.copytree(change, parent, ignore=shutil.ignore_patterns(".git", "scratch.txt"))

    seen = []

    def fake_run(tree, workload, seed):
        seen.append((tree, sorted(str(p.relative_to(tree)) for p in tree.rglob("*"))))
        assert (tree / "pkg" / "mod.py").read_text() == "VALUE = 2\n"
        return {"correct": True, "failed": 0, "metrics": {"wall_s": {"value": 1.0}}}

    monkeypatch.setattr(pairs, "run_once", fake_run)
    assert pairs.main([str(parent), str(change), "--workload", "w", "--pairs", "2"]) == 0
    assert len(seen) == 4
    for tree, files in seen:
        assert tree not in (parent, change) and not tree.exists()  # removed after
        assert files == ["BENCHMARK.json", "pkg", "pkg/mod.py"]
