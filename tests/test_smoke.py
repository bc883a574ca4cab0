"""The benchmark-smoke harness: golden comparison and drift detection."""

import json

import pytest

from repro import smoke


@pytest.fixture(scope="module")
def metrics():
    return smoke.compute_smoke_metrics()


class TestMetrics:
    def test_deterministic(self, metrics):
        assert smoke.compute_smoke_metrics() == metrics

    def test_covers_both_cells(self, metrics):
        assert any(key.startswith("fig17.") for key in metrics)
        assert any(key.startswith("fault.") for key in metrics)

    def test_fault_cell_disrupts_traffic(self, metrics):
        assert metrics["fault.channels_severed"] > 0
        assert (
            metrics["fault.packets_dropped"] + metrics["fault.packets_rerouted"] > 0
        )

    def test_json_round_trip_is_lossless(self, metrics):
        assert json.loads(json.dumps(metrics)) == metrics


class TestComparison:
    def test_identical_metrics_match(self, metrics):
        assert smoke.compare_metrics(metrics, metrics) == []

    def test_float_drift_detected(self, metrics):
        drifted = dict(metrics)
        drifted["fig17.mean_latency_us"] *= 1.0 + 1e-6
        problems = smoke.compare_metrics(metrics, drifted)
        assert len(problems) == 1 and "fig17.mean_latency_us" in problems[0]

    def test_tiny_float_noise_tolerated(self, metrics):
        noisy = dict(metrics)
        noisy["fig17.mean_latency_us"] *= 1.0 + 1e-12
        assert smoke.compare_metrics(metrics, noisy) == []

    def test_int_drift_detected(self, metrics):
        drifted = dict(metrics)
        drifted["fault.packets_dropped"] += 1
        assert smoke.compare_metrics(metrics, drifted)

    def test_missing_and_extra_keys_reported(self, metrics):
        current = dict(metrics)
        current.pop("fault.goodput_loss")
        current["brand.new_metric"] = 1
        problems = "\n".join(smoke.compare_metrics(metrics, current))
        assert "missing" in problems and "new metric" in problems


class TestGoldenFile:
    def test_checked_in_golden_matches(self):
        """The repository's golden must match a fresh run — the exact
        check the CI benchmark-smoke job performs."""
        assert smoke.GOLDEN_PATH.exists()
        assert smoke.check() == []

    def test_update_then_check_round_trips(self, tmp_path, metrics):
        path = tmp_path / "golden.json"
        written, runtime = smoke.update(path)
        assert written == metrics
        assert runtime["runtime.wall_clock_s"] > 0.0
        assert smoke.check(path) == []

    def test_golden_holds_no_runtime_key(self, tmp_path):
        """Nothing machine-dependent is committed: not by ``update``,
        and not in either checked-in golden."""
        path = tmp_path / "golden.json"
        smoke.update(path)
        for golden in (path, smoke.GOLDEN_PATH, smoke.GOLDEN_TELEMETRY_PATH):
            keys = json.loads(golden.read_text())
            assert not [k for k in keys if k.startswith("runtime.")], golden

    def test_missing_golden_reported(self, tmp_path):
        problems = smoke.check(tmp_path / "nope.json")
        assert problems and "missing" in problems[0]

    def test_tampered_golden_fails_check(self, tmp_path, metrics):
        path = tmp_path / "golden.json"
        smoke.update(path)
        tampered = dict(metrics)
        tampered["fault.packets_delivered"] += 7
        path.write_text(json.dumps(tampered))
        assert smoke.check(path)


class TestTelemetryVariant:
    @pytest.fixture(scope="class")
    def tele_metrics(self):
        return smoke.compute_telemetry_smoke_metrics()

    def test_telemetry_golden_holds_only_the_diagnosis_cell(self, tele_metrics):
        """The base cells are not re-run armed: tier-1 tests that arm
        explicitly hold arming passive (``test_legs.py``'s reference
        leg, ``tests/obs/test_integration.py``, ``test_fastpath.py``)."""
        assert len(tele_metrics) == 12
        assert all(key.startswith("telemetry.") for key in tele_metrics)

    def test_telemetry_metrics_present_and_correct(self, tele_metrics):
        assert tele_metrics["telemetry.port_correct"] is True
        assert tele_metrics["telemetry.flow_correct"] is True
        assert tele_metrics["telemetry.windows_contiguous"] is True
        assert tele_metrics["telemetry.bursts_at_culprit"] > 0

    def test_checked_in_telemetry_golden_matches(self):
        """The exact check `make smoke-telemetry` (and its CI leg) runs."""
        assert smoke.GOLDEN_TELEMETRY_PATH.exists()
        assert smoke.check(smoke.GOLDEN_TELEMETRY_PATH, telemetry=True) == []

    def test_dump_windows_artifact(self, tmp_path):
        out = tmp_path / "windows.json"
        smoke.compute_telemetry_smoke_metrics(dump_windows_to=out)
        dump = json.loads(out.read_text())
        assert dump["ports"]
