"""Queue-diagnosis experiment: can telemetry find the culprit?

The telemetry layer (:mod:`repro.telemetry`) claims it can localize
*where* a queue built and *which flow* built it.  This experiment puts
that claim against ground truth the simulator already knows, because it
injects the trouble itself:

* a single Quartz element carries light all-to-all background traffic;
* mid-run, an **incast burst** converges on one victim server — several
  racks each open a stream at the same instant, one of them (the
  "heavy" sender) at a multiple of the others' rate;
* optionally a **fibre-segment cut** lands mid-burst
  (:class:`~repro.sim.faults.FaultInjector`), so attribution must stay
  correct through reroutes, drops, and route-cache churn.

Ground truth: every incast byte funnels through the victim's last-hop
port (``tor<v> → h<v>.0``), so that port must own the largest occupancy
integral, and the heavy sender's flow must top the attribution at the
culprit port's peak window.  A sweep over seeds moves the victim rack
and the fault location; :func:`score_diagnosis` reduces the sweep to
precision/recall of the telemetry's top-1 port and flow picks against
the per-cell truths.

Every cell is a pure function of its arguments — safe to fan out over
:func:`repro.runner.run_cells` bit-identically at any worker count.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from repro.core.multiring import plan_rings
from repro.routing import ECMPRouter, VLBRouter
from repro.runner import ExperimentSpec, run_cells
from repro.sim import Network, PoissonSource
from repro.sim.faults import FaultInjector, random_fault_schedule
from repro.telemetry import diagnose
from repro.topology import quartz_ring
from repro.units import GBPS, MBPS

#: Routers the experiment can exercise, keyed by CLI-friendly name.
ROUTER_BUILDERS = {
    "ecmp": ECMPRouter,
    "vlb": VLBRouter,
}

#: Flow label of the ground-truth dominant incast sender.
HEAVY_FLOW = "incast-heavy"


@dataclass(frozen=True)
class QueueDiagnosisResult:
    """Outcome of one seeded incast(+cut) diagnosis cell."""

    ring_size: int
    seed: int
    router: str
    cut: bool
    #: Ground truth: the port every incast byte funnels through, and
    #: the flow label of the dominant sender.
    true_port: tuple[str, str]
    true_flow: str
    #: The telemetry layer's top-1 picks.
    detected_port: tuple[str, str] | None
    detected_flow: str | None
    #: Detected microburst windows at the culprit port that overlap the
    #: injected burst span (evidence, not part of the top-1 score).
    bursts_at_culprit: int
    peak_depth: int
    packets_delivered: int
    packets_dropped: int
    packets_rerouted: int
    channels_severed: int
    #: Telemetry-integrity fields the invariant tests assert on:
    #: smallest per-flow occupancy slice observed anywhere (must be
    #: ≥ 0), and whether every monitor's windows tile time contiguously.
    min_flow_occupancy: float
    windows_contiguous: bool
    windows_observed: int

    @property
    def port_correct(self) -> bool:
        return self.detected_port == self.true_port

    @property
    def flow_correct(self) -> bool:
        return self.detected_flow == self.true_flow


@dataclass(frozen=True)
class DiagnosisScore:
    """Precision/recall of top-1 port and flow picks over a sweep.

    Each cell contributes one truth and at most one prediction per
    dimension (a cell whose telemetry saw nothing predicts nothing), so
    precision divides by predictions made and recall by truths.
    """

    cells: int
    port_tp: int
    port_predictions: int
    flow_tp: int
    flow_predictions: int

    @property
    def port_precision(self) -> float:
        return self.port_tp / self.port_predictions if self.port_predictions else 0.0

    @property
    def port_recall(self) -> float:
        return self.port_tp / self.cells if self.cells else 0.0

    @property
    def flow_precision(self) -> float:
        return self.flow_tp / self.flow_predictions if self.flow_predictions else 0.0

    @property
    def flow_recall(self) -> float:
        return self.flow_tp / self.cells if self.cells else 0.0


def run_queue_diagnosis_cell(
    ring_size: int = 7,
    servers_per_switch: int = 2,
    seed: int = 0,
    router: str = "ecmp",
    background_bandwidth_bps: float = 40 * MBPS,
    incast_senders: int = 5,
    incast_bandwidth_bps: float = 1.2 * GBPS,
    heavy_multiplier: float = 4.0,
    duration: float = 0.006,
    burst_at: float = 0.002,
    burst_until: float = 0.004,
    cut: bool = False,
    num_rings: int = 2,
    repair_after: float | None = 0.0015,
    dump_windows_to: str | Path | None = None,
) -> QueueDiagnosisResult:
    """One seeded cell: background + incast (+ optional mid-burst cut).

    The victim rack rotates with the seed; ``incast_senders`` distinct
    racks each open a Poisson stream at ``incast_bandwidth_bps`` toward
    the victim's first server for ``[burst_at, burst_until)``, with the
    first sender boosted by ``heavy_multiplier`` (the ground-truth
    culprit flow).  With ``cut=True`` a fibre segment sampled from the
    seed is severed halfway into the burst and repaired
    ``repair_after`` seconds later (``None`` = never), exercising
    attribution under reroutes and drops.

    ``dump_windows_to`` writes the full per-window telemetry dump
    (:meth:`repro.telemetry.TelemetryHub.window_dump`) to a JSON file —
    the CI smoke job uploads it as a workflow artifact.
    """
    if router not in ROUTER_BUILDERS:
        raise ValueError(f"unknown router {router!r}; options: {sorted(ROUTER_BUILDERS)}")
    if not 0 <= burst_at < burst_until <= duration:
        raise ValueError("need 0 <= burst_at < burst_until <= duration")
    if incast_senders < 2 or incast_senders >= ring_size:
        raise ValueError("need 2 <= incast_senders < ring_size")

    topo = quartz_ring(ring_size, servers_per_switch=servers_per_switch)
    net = Network(
        topo,
        ROUTER_BUILDERS[router](topo),
        telemetry=True,
    )

    victim_rack = seed % ring_size
    victim = f"h{victim_rack}.0"
    true_port = (f"tor{victim_rack}", victim)

    if cut:
        plan = plan_rings(ring_size, num_rings=num_rings)
        injector = FaultInjector(net, plan)
        cut_at = (burst_at + burst_until) / 2
        injector.schedule(
            random_fault_schedule(
                plan, 1, cut_at=cut_at, repair_after=repair_after, seed=seed
            )
        )

    # Light all-to-all background so the diagnosis has to pick the
    # incast out of real competing traffic, not a silent fabric.
    stream = 0
    for i in range(ring_size):
        for j in range(ring_size):
            if i == j:
                continue
            PoissonSource.at_bandwidth(
                net,
                f"h{i}.{j % servers_per_switch}",
                f"h{j}.{i % servers_per_switch}",
                background_bandwidth_bps,
                group=f"bg-{i}-{j}",
                flow_id=stream,
                seed=seed * 10_000 + stream,
            ).start()
            stream += 1

    # The incast: ``incast_senders`` racks nearest the victim (skipping
    # it) converge on one server for the burst span; sender 0 is the
    # ground-truth heavy flow.
    for k in range(incast_senders):
        rack = (victim_rack + 1 + k) % ring_size
        rate = incast_bandwidth_bps * (heavy_multiplier if k == 0 else 1.0)
        PoissonSource.at_bandwidth(
            net,
            f"h{rack}.{(k + 1) % servers_per_switch}",
            victim,
            rate,
            group=HEAVY_FLOW if k == 0 else f"incast-{rack}",
            flow_id=1_000_000 + k,
            seed=seed * 10_000 + 5_000 + k,
            stop_at=burst_until,
        ).start(delay=burst_at)

    net.run(until=duration)

    hub = net.telemetry
    if dump_windows_to is not None:
        Path(dump_windows_to).write_text(
            json.dumps(hub.window_dump(), indent=2, sort_keys=True) + "\n"
        )
    report = diagnose(hub)
    bursts_at_culprit = sum(
        1
        for burst in report.bursts
        if burst.port == true_port
        and burst.window.end > burst_at
        and burst.window.start < burst_until
    )
    peak_depth = max((b.peak_depth for b in report.bursts), default=0)

    min_flow_occupancy = math.inf
    windows_contiguous = True
    windows_observed = 0
    for key in hub.ports():
        windows = hub.monitors[key].windows()
        windows_observed += len(windows)
        for prev, cur in zip(windows, windows[1:]):
            if cur.index != prev.index + 1 or cur.start != prev.end:
                windows_contiguous = False
        for win in windows:
            for occupancy in win.occupancy_by_flow.values():
                if occupancy < min_flow_occupancy:
                    min_flow_occupancy = occupancy
    if min_flow_occupancy is math.inf:
        min_flow_occupancy = 0.0

    severed = sum(1 for e in net.fault_stats.events if e.kind == "link_down")
    return QueueDiagnosisResult(
        ring_size=ring_size,
        seed=seed,
        router=router,
        cut=cut,
        true_port=true_port,
        true_flow=HEAVY_FLOW,
        detected_port=report.culprit_port,
        detected_flow=report.culprit_flow,
        bursts_at_culprit=bursts_at_culprit,
        peak_depth=peak_depth,
        packets_delivered=net.packets_delivered,
        packets_dropped=net.packets_dropped,
        packets_rerouted=net.packets_rerouted,
        channels_severed=severed,
        min_flow_occupancy=min_flow_occupancy,
        windows_contiguous=windows_contiguous,
        windows_observed=windows_observed,
    )


def queue_diagnosis_sweep(
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4),
    cuts: tuple[bool, ...] = (False, True),
    workers: int | None = 1,
    **kwargs: float,
) -> list[QueueDiagnosisResult]:
    """The (seed × cut) grid, optionally fanned over processes."""
    cells = [
        ExperimentSpec(
            run_queue_diagnosis_cell,
            kwargs={"seed": s, "cut": c, **kwargs},
            label=f"queue-diagnosis/seed={s}/cut={c}",
        )
        for c in cuts
        for s in seeds
    ]
    return run_cells(cells, workers=workers)


def score_diagnosis(results: list[QueueDiagnosisResult]) -> DiagnosisScore:
    """Micro-averaged precision/recall of the sweep's top-1 picks."""
    port_predictions = sum(1 for r in results if r.detected_port is not None)
    flow_predictions = sum(1 for r in results if r.detected_flow is not None)
    return DiagnosisScore(
        cells=len(results),
        port_tp=sum(1 for r in results if r.port_correct),
        port_predictions=port_predictions,
        flow_tp=sum(1 for r in results if r.flow_correct),
        flow_predictions=flow_predictions,
    )


def format_queue_diagnosis(results: list[QueueDiagnosisResult]) -> str:
    """Render the sweep and its scorecard as an aligned text table."""
    lines = [
        "Queue diagnosis: telemetry vs injected incast ground truth",
        f"{'seed':>4} {'cut':>4} {'true port':>16} {'port?':>6} {'flow?':>6} "
        f"{'bursts':>7} {'depth':>6} {'dropped':>8} {'rerouted':>9}",
    ]
    lines.append("-" * len(lines[1]))
    for r in results:
        lines.append(
            f"{r.seed:>4} {('yes' if r.cut else 'no'):>4} "
            f"{'->'.join(r.true_port):>16} "
            f"{('ok' if r.port_correct else 'MISS'):>6} "
            f"{('ok' if r.flow_correct else 'MISS'):>6} "
            f"{r.bursts_at_culprit:>7} {r.peak_depth:>6} "
            f"{r.packets_dropped:>8} {r.packets_rerouted:>9}"
        )
    score = score_diagnosis(results)
    lines.append("")
    lines.append(
        f"port  precision {score.port_precision:.2f}  recall {score.port_recall:.2f}"
        f"   ({score.port_tp}/{score.cells} cells)"
    )
    lines.append(
        f"flow  precision {score.flow_precision:.2f}  recall {score.flow_recall:.2f}"
        f"   ({score.flow_tp}/{score.cells} cells)"
    )
    return "\n".join(lines)
