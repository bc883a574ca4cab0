"""Run manifests: knob resolution, fault digests, build/validate/render."""

import json

import pytest

from repro import obs
from repro.obs import report
from repro.obs.metrics import MetricsRegistry
from repro.sim.stats import FaultRecorder


@pytest.fixture(autouse=True)
def _disarmed():
    """Each test starts and ends disarmed."""
    obs.disarm()
    yield
    obs.disarm()


class TestResolvedKnobs:
    def test_defaults_with_empty_environment(self):
        """Constants, whatever the process state: nothing in the
        environment selects a path or arms a layer."""
        defaults = {"fastpath": True, "batch": True, "telemetry": False, "obs": False}
        assert report.resolved_knobs() == defaults
        obs.arm()
        assert report.resolved_knobs() == defaults


class TestFaultDigest:
    def test_none_in_none_out(self):
        assert report.fault_digest(None) is None

    def test_digest_counts_kinds_and_hashes_deterministically(self):
        def recorder():
            rec = FaultRecorder()
            rec.log(0.001, "cut", ring=0, segment=2, detail="severed 3")
            rec.log(0.002, "repair", ring=0, segment=2, detail="restored 3")
            rec.log(0.003, "cut", ring=1, segment=0)
            return rec

        digest = report.fault_digest(recorder())
        assert digest["events"] == 3
        assert digest["kinds"] == {"cut": 2, "repair": 1}
        assert digest == report.fault_digest(recorder())  # deterministic

    def test_different_timelines_different_hashes(self):
        a, b = FaultRecorder(), FaultRecorder()
        a.log(0.001, "cut", ring=0, segment=1)
        b.log(0.001, "cut", ring=0, segment=2)
        assert (
            report.fault_digest(a)["sha256"]
            != report.fault_digest(b)["sha256"]
        )


class TestBuildManifest:
    def test_fresh_manifest_validates_and_serializes(self):
        doc = report.build_manifest()
        assert report.validate_manifest(doc) == []
        assert doc["knobs"]["obs"] is False
        json.dumps(doc)  # must not raise
        # A manifest from before the escape hatches retired carries
        # more knobs; extra keys are not an error.
        doc["knobs"].update(hybrid=True, parallel=False)
        assert report.validate_manifest(doc) == []

    def test_armed_registry_snapshot_lands_in_metrics(self):
        obs.arm()
        obs.registry().incr("engine.runs", 2)
        doc = report.build_manifest()
        assert doc["metrics"]["counters"] == {"engine.runs": 2}
        # The manifest reports the live armed state.
        assert doc["knobs"]["obs"] is True

    def test_explicit_metrics_and_seeds_and_extra(self):
        local = MetricsRegistry()
        local.incr("cells", 3)
        doc = report.build_manifest(
            seeds=[3, 1, 1, 2],
            metrics=local.snapshot(),
            extra={"figure": "17"},
                    )
        assert doc["seeds"] == [1, 2, 3]
        assert doc["metrics"]["counters"] == {"cells": 3}
        assert doc["extra"] == {"figure": "17"}

    def test_fault_recorder_is_digested(self):
        rec = FaultRecorder()
        rec.log(0.001, "cut", ring=0, segment=1)
        doc = report.build_manifest(faults=rec)
        assert doc["faults"]["events"] == 1

    def test_write_manifest_round_trips(self, tmp_path):
        path = tmp_path / "manifest.json"
        written = report.write_manifest(path, seeds=[0])
        loaded = json.loads(path.read_text())
        assert loaded == written
        assert report.validate_manifest(loaded) == []


class TestValidateManifest:
    def test_rejects_non_object(self):
        assert report.validate_manifest([1, 2]) != []

    def test_rejects_wrong_schema_and_missing_keys(self):
        problems = report.validate_manifest({"schema": "bogus/v9"})
        assert any("schema" in p for p in problems)
        assert any("missing key" in p for p in problems)

    def test_rejects_non_boolean_knob(self):
        doc = report.build_manifest()
        doc["knobs"]["telemetry"] = "yes"
        assert any("knobs.telemetry" in p for p in report.validate_manifest(doc))

    def test_rejects_malformed_metrics(self):
        doc = report.build_manifest()
        doc["metrics"] = {"counters": {}}
        problems = report.validate_manifest(doc)
        assert any("metrics.gauges" in p for p in problems)
        assert any("metrics.timers" in p for p in problems)


class TestRenderManifest:
    def test_render_mentions_the_essentials(self):
        obs.arm()
        obs.registry().incr("engine.runs")
        obs.registry().observe("engine.run_seconds", 0.5)
        rec = FaultRecorder()
        rec.log(0.001, "cut", ring=0, segment=1)
        doc = report.build_manifest(seeds=[0], faults=rec)
        text = report.render_manifest(doc)
        assert text.startswith("run manifest (repro.obs.manifest/v1)")
        assert "engine.runs = 1" in text
        assert "engine.run_seconds: count=1" in text
        assert "cut=1" in text
        assert "knobs     telemetry=off, obs=on" in text
