"""Tests for channel-plan JSON serialization."""

import json

import pytest

from repro.core.channels import greedy_assignment
from repro.core.serialization import SerializationError, plan_from_json, plan_to_json


class TestSingleRingRoundTrip:
    @pytest.mark.parametrize("size", [2, 5, 12, 33])
    def test_round_trip(self, size):
        plan = greedy_assignment(size)
        assert plan_from_json(plan_to_json(plan)) == plan

    def test_indented_output_is_valid_json(self):
        text = plan_to_json(greedy_assignment(6), indent=2)
        assert "\n" in text
        json.loads(text)

    def test_document_fields(self):
        doc = json.loads(plan_to_json(greedy_assignment(4)))
        assert doc["format"] == "quartz-channel-plan"
        assert doc["ring_size"] == 4
        assert len(doc["assignments"]) == 6


class TestRejection:
    def test_not_json(self):
        with pytest.raises(SerializationError):
            plan_from_json("not json {")

    def test_wrong_top_level_type(self):
        with pytest.raises(SerializationError):
            plan_from_json("[1, 2, 3]")

    def test_wrong_format_tag(self):
        doc = json.loads(plan_to_json(greedy_assignment(4)))
        doc["format"] = "quartz-multiring-plan"
        with pytest.raises(SerializationError, match="format"):
            plan_from_json(json.dumps(doc))

    def test_wrong_version(self):
        doc = json.loads(plan_to_json(greedy_assignment(4)))
        doc["version"] = 99
        with pytest.raises(SerializationError):
            plan_from_json(json.dumps(doc))

    def test_missing_keys(self):
        doc = json.loads(plan_to_json(greedy_assignment(4)))
        del doc["assignments"]
        with pytest.raises(SerializationError):
            plan_from_json(json.dumps(doc))

    def test_malformed_assignment(self):
        doc = json.loads(plan_to_json(greedy_assignment(4)))
        del doc["assignments"][0]["channel"]
        with pytest.raises(SerializationError):
            plan_from_json(json.dumps(doc))

    def test_invalid_plan_content_rejected(self):
        # A tampered document that parses but violates plan invariants
        # (duplicate pair) must fail validation on load.
        doc = json.loads(plan_to_json(greedy_assignment(4)))
        doc["assignments"][1] = dict(doc["assignments"][0])
        with pytest.raises(Exception):
            plan_from_json(json.dumps(doc))
