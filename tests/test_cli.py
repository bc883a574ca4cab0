"""Tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro import obs
from repro.cli import main

REPO = Path(__file__).resolve().parents[1]


class TestPlanCommand:
    def test_summary_output(self, capsys):
        assert main(["plan", "--ring-size", "8"]) == 0
        out = capsys.readouterr().out
        assert "wavelengths (greedy):  9" in out
        assert "fits one fibre (160 ch): yes" in out

    def test_json_output_parses(self, capsys):
        assert main(["plan", "--ring-size", "6", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ring_size"] == 6

    def test_ilp_method(self, capsys):
        assert main(["plan", "--ring-size", "5", "--method", "ilp"]) == 0
        assert "wavelengths (ilp)" in capsys.readouterr().out

    def test_ilp_too_large_rejected(self, capsys):
        assert main(["plan", "--ring-size", "20", "--method", "ilp"]) == 2
        assert "small rings" in capsys.readouterr().err

    def test_too_small_ring_rejected(self, capsys):
        assert main(["plan", "--ring-size", "1"]) == 2

    def test_over_fibre_limit_flagged(self, capsys):
        assert main(["plan", "--ring-size", "36"]) == 0
        assert "fits one fibre (160 ch): NO" in capsys.readouterr().out


class TestDesignCommand:
    def test_prints_table8(self, capsys):
        assert main(["design"]) == 0
        out = capsys.readouterr().out
        assert "two-tier tree" in out
        assert "Quartz in edge and core" in out


class TestTopologyCommand:
    def test_mesh_metrics(self, capsys):
        assert main(["topology", "--name", "mesh"]) == 0
        out = capsys.readouterr().out
        assert "worst-case switch hops:  2" in out
        assert "path diversity:          32" in out

    def test_bcube_shows_server_relays(self, capsys):
        assert main(["topology", "--name", "bcube"]) == 0
        assert "server relay hops:       1" in capsys.readouterr().out

    def test_unknown_name_rejected(self):
        with pytest.raises(SystemExit):
            main(["topology", "--name", "torus"])


class TestExperimentCommand:
    def test_figure_10(self, capsys):
        assert main(["experiment", "--figure", "10"]) == 0
        assert "normalized throughput" in capsys.readouterr().out

    def test_figure_20(self, capsys):
        assert main(["experiment", "--figure", "20"]) == 0
        assert "quartz-vlb" in capsys.readouterr().out


class TestScalingCommand:
    def test_default_sweep(self, capsys):
        assert main(["scaling"]) == 0
        out = capsys.readouterr().out
        assert "1056" in out  # the 64-port element

    def test_custom_ports(self, capsys):
        assert main(["scaling", "--ports", "32", "64"]) == 0
        assert "1056" in capsys.readouterr().out

    def test_invalid_port_count(self, capsys):
        assert main(["scaling", "--ports", "7"]) == 2

    def test_greedy_method(self, capsys):
        assert main(["scaling", "--ports", "16", "--method", "greedy"]) == 0
        out = capsys.readouterr().out
        assert "racks" in out


class TestCacheCommand:
    def test_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cache", "stats"])
        assert exc.value.code == 2
        assert "invalid choice: 'cache'" in capsys.readouterr().err


class TestExpandCommand:
    def test_expansion_report(self, capsys):
        assert main(["expand", "--from-size", "8", "--to-size", "12"]) == 0
        out = capsys.readouterr().out
        assert "preserved:     28 channels" in out
        assert "fits one fibre (160 ch): yes" in out

    def test_shrink_rejected(self, capsys):
        assert main(["expand", "--from-size", "12", "--to-size", "8"]) == 2

    def test_tiny_start_rejected(self, capsys):
        assert main(["expand", "--from-size", "1", "--to-size", "8"]) == 2


class TestParser:
    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestSmokeCommand:
    def test_update_then_check_round_trips(self, tmp_path, capsys):
        golden = str(tmp_path / "golden.json")
        assert main(["smoke", "--update", "--golden", golden]) == 0
        assert "golden updated" in capsys.readouterr().out
        assert main(["smoke", "--check", "--golden", golden]) == 0
        assert "benchmark smoke OK" in capsys.readouterr().out

    def test_drifted_golden_fails(self, tmp_path, capsys):
        golden = tmp_path / "golden.json"
        assert main(["smoke", "--update", "--golden", str(golden)]) == 0
        capsys.readouterr()
        doc = json.loads(golden.read_text())
        doc["fault.packets_delivered"] += 1
        golden.write_text(json.dumps(doc))
        assert main(["smoke", "--check", "--golden", str(golden)]) == 1
        err = capsys.readouterr().err
        assert "drift" in err and "fault.packets_delivered" in err

    def test_missing_golden_fails_with_hint(self, tmp_path, capsys):
        assert main(["smoke", "--golden", str(tmp_path / "no.json")]) == 1
        assert "--update" in capsys.readouterr().err

    def test_runtime_line_printed(self, tmp_path, capsys):
        golden = str(tmp_path / "golden.json")
        assert main(["smoke", "--update", "--golden", golden]) == 0
        out = capsys.readouterr().out
        assert "wall-clock" in out and "cache hit-rate" in out
        assert main(["smoke", "--check", "--golden", golden]) == 0
        out = capsys.readouterr().out
        assert "wall-clock" in out and "cache hit-rate" in out


class TestManifestOption:
    def test_smoke_update_writes_valid_manifest(self, tmp_path, capsys):
        from repro.obs.report import validate_manifest

        golden = str(tmp_path / "golden.json")
        manifest = tmp_path / "manifest.json"
        assert main(
            ["smoke", "--update", "--golden", golden,
             "--manifest", str(manifest)]
        ) == 0
        assert "run manifest written" in capsys.readouterr().out
        doc = json.loads(manifest.read_text())
        assert validate_manifest(doc) == []
        assert doc["extra"]["command"] == "smoke"
        assert "runtime.wall_clock_s" in doc["extra"]

    def test_experiment_manifest_records_figure(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        assert main(
            ["experiment", "--figure", "10", "--manifest", str(manifest)]
        ) == 0
        doc = json.loads(manifest.read_text())
        assert doc["extra"] == {"command": "experiment", "figure": "10"}
        assert doc["seeds"] == [0]
        # --manifest arms the run it describes, and only that run.
        assert doc["knobs"]["obs"] is True
        assert doc["metrics"]["counters"]
        assert not obs.armed()

    def test_run_without_manifest_stays_disarmed(self, capsys):
        assert main(["smoke", "--check"]) == 0
        assert not obs.armed()


class TestTraceCommand:
    def test_writes_chrome_trace_spanning_all_subsystems(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(["trace", "--out", str(out), "--workers", "1"]) == 0
        stdout = capsys.readouterr().out
        assert "trace written" in stdout
        doc = json.loads(out.read_text())
        assert doc["displayTimeUnit"] == "ms"
        names = {ev["name"] for ev in doc["traceEvents"] if ev["ph"] == "X"}
        assert {"engine.run", "sweep.cell", "hybrid.epoch",
                "parallel.window", "parallel.barrier"} <= names
        labels = {
            ev["args"]["name"] for ev in doc["traceEvents"]
            if ev["ph"] == "M"
        }
        assert "coordinator" in labels

    def test_rejects_nonpositive_workers(self, tmp_path, capsys):
        assert main(
            ["trace", "--out", str(tmp_path / "t.json"), "--workers", "0"]
        ) == 2
        assert "workers" in capsys.readouterr().err


class TestReportCommand:
    def test_renders_fresh_manifest_without_path(self, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("run manifest (repro.obs.manifest/v1)")

    def test_renders_manifest_file_and_json_mode(self, tmp_path, capsys):
        from repro.obs.report import write_manifest

        path = tmp_path / "m.json"
        write_manifest(path, seeds=[7])
        assert main(["report", str(path)]) == 0
        assert "seeds     [7]" in capsys.readouterr().out
        assert main(["report", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["seeds"] == [7]

    def test_invalid_manifest_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "bogus/v9"}))
        assert main(["report", str(bad)]) == 1
        assert "schema" in capsys.readouterr().err

    @pytest.mark.parametrize("broken", [
        {"faults": {"events": 2}},
        {"metrics": {"counters": {}, "gauges": {},
                     "timers": {"t": {"count": 1, "max": 0.5}}}},
        {"cache": {"hit_rate": "abc"}},
    ], ids=["faults-without-kinds", "timer-without-total", "text-hit-rate"])
    def test_unrenderable_manifest_rejected(self, tmp_path, capsys, broken):
        """Documents the renderer cannot read fail validation, instead of
        a traceback out of ``render_manifest``."""
        from repro.obs.report import build_manifest

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**build_manifest(), **broken}))
        assert main(["report", str(bad)]) == 1
        assert "invalid manifest" in capsys.readouterr().err

    def test_missing_file_rejected(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "no.json")]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestTrajectoryCommand:
    def _write_rows(self, path):
        rows = [
            {"commit": "aaaaaaaa" * 5, "recorded_at": "2026-01-01T00:00:00",
             "seed": 0, "calls": {},
             "workloads": {"fig17_sweep": {"wall_s": [1.9, 2.0, 2.125],
                                           "peak_rss_mb": [70.0, 72.0, 73.0]}}},
            {"commit": "bbbbbbbb" * 5, "recorded_at": "2026-02-01T00:00:00",
             "seed": 0, "calls": {},
             "workloads": {"fig17_sweep": {"wall_s": [1.51, 1.53, 1.56],
                                           "peak_rss_mb": [70.0, 72.0, 73.0]}}},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))

    def test_sparkline_and_change_printed(self, tmp_path, capsys):
        log = tmp_path / "trajectory.jsonl"
        self._write_rows(log)
        assert main(["trajectory", "--file", str(log)]) == 0
        out = capsys.readouterr().out
        assert "fig17_sweep/wall_s" in out  # the default metric
        assert "-23.5%" in out
        # Medians with their quartile band, four significant digits.
        assert "first 2.000 [1.900 .. 2.125] (aaaaaaa)" in out
        assert "last 1.530 [1.510 .. 1.560] (bbbbbbb)" in out

    def test_unknown_metric_lists_known_keys(self, tmp_path, capsys):
        log = tmp_path / "trajectory.jsonl"
        self._write_rows(log)
        assert main(
            ["trajectory", "--file", str(log), "--metric", "nope"]
        ) == 2
        err = capsys.readouterr().err
        assert "fig17_sweep/peak_rss_mb, fig17_sweep/wall_s" in err

    def test_missing_file_hints_at_make_target(self, tmp_path, capsys):
        assert main(["trajectory", "--file", str(tmp_path / "no.jsonl")]) == 2
        assert "bench-trajectory" in capsys.readouterr().err

    def test_committed_trajectory_rows_are_whole(self, capsys):
        """Every committed row is one full e2e report: every workload x
        end-to-end metric BENCHMARK.json names, quartiles in order, and
        the traced child's call counts — and the default plot renders."""
        declared = json.loads((REPO / "BENCHMARK.json").read_text())
        log = REPO / "benchmarks" / "results" / "BENCH_trajectory.jsonl"
        rows = [json.loads(line) for line in log.read_text().splitlines()]
        assert rows
        for row in rows:
            assert row["commit"] and row["recorded_at"]
            for workload in declared["workloads"]:
                name = workload["name"]
                for metric in declared["end_to_end"]:
                    q1, median, q3 = row["workloads"][name][metric["name"]]
                    assert 0 < q1 <= median <= q3, (name, metric["name"])
                calls = row["calls"][name]
                assert calls and all(key.endswith(".calls") for key in calls)
        assert main(["trajectory"]) == 0
        assert f"over {len(rows)} runs" in capsys.readouterr().out


class TestFaultRecoveryParser:
    def test_figure_choice_and_options_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["experiment", "--figure", "fault-recovery",
             "--router", "vlb", "--seed", "3", "--workers", "2"]
        )
        assert args.figure == "fault-recovery"
        assert args.router == "vlb" and args.seed == 3 and args.workers == 2


class TestQueueDiagnosisCommand:
    def test_runs_and_prints_scorecard(self, capsys):
        assert main(["experiment", "--figure", "queue-diagnosis", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "Queue diagnosis" in out
        assert "tor1->h1.0" in out
        assert "port  precision" in out and "flow  precision" in out

    def test_parser_accepts_options(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["experiment", "--figure", "queue-diagnosis", "--router", "vlb"]
        )
        assert args.figure == "queue-diagnosis"
        assert args.router == "vlb"


class TestTelemetrySmokeCommand:
    def test_update_then_check_round_trips(self, tmp_path, capsys):
        golden = str(tmp_path / "golden.json")
        assert main(["smoke", "--update", "--telemetry", "--golden", golden]) == 0
        out = capsys.readouterr().out
        assert "golden updated" in out and "telemetry.port_correct = True" in out
        assert main(["smoke", "--check", "--telemetry", "--golden", golden]) == 0
        assert "benchmark smoke OK" in capsys.readouterr().out

    def test_dump_windows_writes_artifact(self, tmp_path, capsys):
        golden = str(tmp_path / "golden.json")
        dump = tmp_path / "windows.json"
        assert main(
            ["smoke", "--update", "--telemetry", "--golden", golden,
             "--dump-windows", str(dump)]
        ) == 0
        doc = json.loads(dump.read_text())
        assert doc["ports"]

    def test_dump_windows_requires_telemetry(self, tmp_path, capsys):
        assert main(
            ["smoke", "--check", "--dump-windows", str(tmp_path / "w.json")]
        ) == 2
        assert "--telemetry" in capsys.readouterr().err
