"""Tests of the benchmark harness itself, at ``--quick`` sizes.

Run explicitly: ``pytest benchmarks/e2e`` (about 20 s).  Tier-1 does not
collect this directory, and nothing here uses the ``benchmark`` fixture,
so ``make bench`` skips it.
"""

from __future__ import annotations

import copy
import json
import math
import re
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def drive(workload: str, trace: int, cwd: Path = run.REPO) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True,
    )


@pytest.fixture(scope="module")
def measured():
    """One end-to-end driver run, and two traced children of one workload."""
    with ThreadPoolExecutor(2) as pool:
        end_to_end = pool.submit(drive, "md1_validation", 0)
        per_layer = pool.submit(drive, "fault_recovery", 1)
        plain = run.spawn("fault_recovery", 0, True)
        wall = plain["pass"]["wall_s"]
        traces = [run.trace("fault_recovery", 0, True, wall) for _ in range(2)]
        return {"end_to_end": end_to_end.result(), "per_layer": per_layer.result(),
                "plain": plain, "traces": traces}


def last_line(process: subprocess.CompletedProcess) -> dict:
    assert process.returncode == 0, process.stderr
    return json.loads(process.stdout.strip().splitlines()[-1])


def test_manifest_is_within_the_contract():
    doc = run.manifest()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in doc[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(UNIT.fullmatch(m["unit"]) for m in doc["end_to_end"] + doc["per_layer"])
    assert 2 <= len(doc["workloads"]) <= 8 and len(doc["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in doc["end_to_end"] if m["name"] == "setup_s").items()
    assert doc["paths"] == ["benchmarks/e2e"]


@pytest.mark.parametrize("kind", ["end_to_end", "per_layer"])
def test_driver_line_has_exactly_the_declared_metrics(measured, kind):
    result = last_line(measured[kind])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in run.manifest()[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if kind == "end_to_end":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_layer_self_times_sum_to_the_traced_wall(measured):
    layers = measured["traces"][0]["layers"]
    total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    assert total == pytest.approx(layers["trace.wall_s"], rel=0.05)


def test_counts_repeat_exactly_between_traced_runs(measured):
    first, second = (t["layers"] for t in measured["traces"])
    exact = [m["name"] for m in run.manifest()["per_layer"]
             if run.exact_layer_metric(m["name"], m["unit"]) and m["name"] != "trace.spans"]
    assert len(exact) > 20
    assert {k: first[k] for k in exact} == {k: second[k] for k in exact}
    assert first["sim.network.calls"] > 0 and first["sim.faults.cuts"] == 3


def test_spans_nest_and_the_chrome_trace_loads(measured):
    spans = measured["traces"][0]["child"]["spans"]
    assert {"setup", "import", "pass", "reference"} <= {s["name"] for s in spans}
    for span in spans:
        assert span["end"] >= span["start"]
        if span["parent"] is not None:
            parents = [p for p in spans if p["name"] == span["parent"]]
            assert any(p["start"] <= span["start"] and span["end"] <= p["end"]
                       for p in parents), span
    events = json.loads((run.OUT / "trace-fault_recovery.json").read_text())["traceEvents"]
    assert any(e["name"] == "engine.run" for e in events)
    assert any(e["name"].startswith("step:") for e in events)


def test_a_corrupted_digest_is_a_failed_operation(measured):
    golden = run.load_golden(quick=True)
    children = [measured["plain"]]
    clean = run.summarize("fault_recovery", children, golden)
    assert clean["failed"] == 0 and clean["failed_ops_share"] == 0.0
    forged = copy.deepcopy(golden)
    label = next(iter(forged["fault_recovery"]["cells"]))
    forged["fault_recovery"]["cells"][label] = "0" * 64
    assert run.summarize("fault_recovery", children, forged)["failed"] == 1
    # Off the golden seed the first child is the reference for the rest.
    first, second = copy.deepcopy(children[0]), copy.deepcopy(children[0])
    first["seed"] = second["seed"] = 7
    second["pass"]["cell_digests"][label] = "f" * 64
    summary = run.summarize("fault_recovery", [first, second], golden)
    assert summary["failed"] == 1 and summary["failed_ops_share"] > 0


def test_children_are_hermetic(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_BATCH_DISABLE", "1")
    monkeypatch.setenv("REPRO_CACHE_DIR", "/somewhere/else")
    env = run.child_env(tmp_path)
    assert [k for k in env if k.startswith("REPRO_")] == ["REPRO_CACHE_DIR"]
    assert env["REPRO_CACHE_DIR"] == str(tmp_path) and env["PYTHONHASHSEED"] == "0"
    assert measured_knobs_are_defaults(run.spawn("md1_validation", 0, True))


def measured_knobs_are_defaults(child: dict) -> bool:
    knobs = child["env"]["knobs"]
    return knobs["batch"] and knobs["fastpath"] and not knobs["obs"] and not knobs["telemetry"]


def test_without_the_simulator_it_exits_non_zero(tmp_path):
    shutil.copy(run.REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    process = drive("md1_validation", 0, cwd=tmp_path)
    assert process.returncode != 0 and process.stdout.strip() == ""
