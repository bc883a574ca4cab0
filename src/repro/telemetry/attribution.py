"""Microburst detection and "which flow built this queue" attribution.

PrintQueue's diagnosis question, answered from the port windows:
given a run's telemetry, find the windows where a queue actually built
(microbursts), name the port that hurt the most, and rank the flows
whose bytes were resident while it hurt.  Everything here is read-side
arithmetic over :class:`~repro.telemetry.windows.Window` records — no
simulator state, so it can run mid-simulation or post-hoc.

Attribution ranks flows by their **occupancy-integral contribution**
(byte·seconds of queue residency) within a window: the flow whose bytes
sat in the queue longest is the flow that built it.  The windows hold
exactly that quantity per flow, so attribution is a sort, not a
reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.telemetry.windows import TelemetryHub, Window

#: A window qualifies as a microburst when its max observed depth
#: reaches this many packets...
DEFAULT_MIN_DEPTH = 8

#: ...or its occupancy integral exceeds this multiple of the mean
#: occupancy across the port's non-empty windows.
DEFAULT_OCCUPANCY_FACTOR = 3.0


@dataclass(frozen=True)
class Microburst:
    """One detected burst: a (port, window) pair and why it qualified."""

    port: tuple[str, str]
    window: Window
    peak_depth: int
    occupancy: float

    @property
    def start(self) -> float:
        return self.window.start

    @property
    def end(self) -> float:
        return self.window.end


def rank_flows(window: Window) -> list[tuple[str, float]]:
    """Flows in ``window`` by occupancy contribution, heaviest first.

    Deterministic: ties break on the flow label, so equal contributions
    rank identically on every machine.
    """
    return sorted(
        window.occupancy_by_flow.items(), key=lambda item: (-item[1], item[0])
    )


def detect_microbursts(
    hub: TelemetryHub,
    min_depth: int = DEFAULT_MIN_DEPTH,
    occupancy_factor: float = DEFAULT_OCCUPANCY_FACTOR,
) -> list[Microburst]:
    """Windows where a queue genuinely built, across every monitor.

    A window qualifies when its max depth reaches ``min_depth`` packets,
    or its occupancy integral exceeds ``occupancy_factor`` times the
    mean over that port's non-empty windows (so a port with steady
    moderate queueing does not flag every window).  Results are ordered
    by (port, window index) — deterministic for scoring.
    """
    bursts: list[Microburst] = []
    for key, monitor in hub.monitors.items():
        windows = monitor.windows()
        busy = [w.occupancy for w in windows if w.occupancy > 0.0]
        mean_occ = sum(busy) / len(busy) if busy else 0.0
        for win in windows:
            if win.depth_max >= min_depth or (
                mean_occ > 0.0 and win.occupancy > occupancy_factor * mean_occ
            ):
                bursts.append(Microburst(key, win, win.depth_max, win.occupancy))
    return bursts


@dataclass(frozen=True)
class Diagnosis:
    """The telemetry layer's answer to "where did the queue build, and who
    built it?".

    ``ports`` ranks monitored ports by total occupancy integral;
    ``flows`` ranks flows by their contribution at the culprit port's
    peak window (the question a diagnosis asks is *who built this
    queue*, not who sent the most bytes overall).  ``bursts`` lists the
    detected microburst windows for context.
    """

    ports: tuple[tuple[tuple[str, str], float], ...]
    flows: tuple[tuple[str, float], ...]
    bursts: tuple[Microburst, ...]

    @property
    def culprit_port(self) -> "tuple[str, str] | None":
        return self.ports[0][0] if self.ports else None

    @property
    def culprit_flow(self) -> "str | None":
        return self.flows[0][0] if self.flows else None


def diagnose(
    hub: TelemetryHub,
    min_depth: int = DEFAULT_MIN_DEPTH,
    occupancy_factor: float = DEFAULT_OCCUPANCY_FACTOR,
) -> Diagnosis:
    """Localize the hottest port and attribute its peak window's flows."""
    ranked_ports = sorted(
        ((key, monitor.occupancy) for key, monitor in hub.monitors.items()),
        key=lambda item: (-item[1], item[0]),
    )
    flows: tuple[tuple[str, float], ...] = ()
    if ranked_ports and ranked_ports[0][1] > 0.0:
        peak = hub.monitors[ranked_ports[0][0]].peak_window
        if peak is not None:
            flows = tuple(rank_flows(peak))
    bursts = tuple(detect_microbursts(hub, min_depth, occupancy_factor))
    return Diagnosis(ports=tuple(ranked_ports), flows=flows, bursts=bursts)
