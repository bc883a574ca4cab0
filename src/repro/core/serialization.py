"""Channel-plan serialization.

The paper notes that "wavelength planning is a one-time event that is
done at design time … wavelength planning and switch to DWDM cabling can
be performed by the device manufacturer at the factory."  That implies
plans are artifacts that get written down, shipped, and loaded — so the
library supports a stable JSON representation of a single-ring
:class:`~repro.core.channels.ChannelPlan` (``repro plan --json`` writes
one).
"""

from __future__ import annotations

import json

from repro.core.channels import ChannelPlan, PathAssignment

_FORMAT = "quartz-channel-plan"
_VERSION = 1


class SerializationError(ValueError):
    """Raised for malformed plan documents."""


def plan_to_json(plan: ChannelPlan, indent: int | None = None) -> str:
    """Serialize a single-ring wavelength plan to JSON."""
    doc = {
        "format": _FORMAT,
        "version": _VERSION,
        "ring_size": plan.ring_size,
        "assignments": [
            {
                "src": a.src,
                "dst": a.dst,
                "channel": a.channel,
                "clockwise": a.clockwise,
            }
            for a in plan.assignments
        ],
    }
    return json.dumps(doc, indent=indent)


def plan_from_json(text: str) -> ChannelPlan:
    """Parse and validate a single-ring plan document."""
    doc = _load(text)
    ring_size = doc["ring_size"]
    try:
        assignments = tuple(
            PathAssignment(
                src=entry["src"],
                dst=entry["dst"],
                channel=entry["channel"],
                clockwise=entry["clockwise"],
                links=_arc(entry, ring_size),
            )
            for entry in doc["assignments"]
        )
    except (KeyError, TypeError) as exc:
        raise SerializationError(f"malformed assignment entry: {exc}") from exc
    plan = ChannelPlan(ring_size=ring_size, assignments=assignments)
    plan.validate()
    return plan


def _load(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SerializationError("plan document must be a JSON object")
    if doc.get("format") != _FORMAT:
        raise SerializationError(f"expected format {_FORMAT!r}, got {doc.get('format')!r}")
    if doc.get("version") != _VERSION:
        raise SerializationError(f"unsupported version {doc.get('version')!r}")
    for key in ("ring_size", "assignments"):
        if key not in doc:
            raise SerializationError(f"missing key {key!r}")
    return doc


def _arc(entry: dict, ring_size: int) -> tuple[int, ...]:
    from repro.core.channels import arc_links

    return arc_links(entry["src"], entry["dst"], ring_size, entry["clockwise"])
