"""Full-scale hybrid packet/flow experiment (ROADMAP item: hybrid engine).

The scenario the hybrid engine exists for: a full 1056-port Quartz
element (33 ULL switches in a ring full mesh, Section 3) and a
fat-tree-edge composite (Quartz rings at the edge under CCS cores,
Figure 15(c)) carrying *thousands* of flow-level background transfers
while a latency-sensitive foreground incast cohort — the
partition-aggregate pattern — runs at packet fidelity on top of the
residual capacity.

Every cell is runnable in two modes on the same inputs:

* ``hybrid`` — background rides the flow-level residual handoff
  (:class:`repro.hybrid.HybridNetwork` with the knob on);
* ``oracle`` — the same schedule materialized as per-flow Poisson
  packet sources: every packet simulated.  This is the accuracy and
  speed baseline; ``benchmarks/bench_hybrid_scale.py`` gates the
  hybrid engine's foreground-latency error and wall-clock speedup
  against it.

``python -m repro experiment --figure hybrid-scale`` prints the
scorecard committed in EXPERIMENTS.md.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import repro.topology as T
from repro.hybrid import HybridNetwork, random_background_schedule
from repro.routing import ECMPRouter
from repro.runner import ExperimentSpec, run_cells
from repro.sim.stats import LatencySummary
from repro.workloads.tasks import StreamingTask, random_task

#: Fabrics by scenario name.  The first two are the headline scale
#: scenarios; the small/mid rings are the accuracy and speedup gate
#: fabrics (small enough that the pure-packet oracle finishes quickly).
FABRIC_BUILDERS: dict[str, Callable[[], T.Topology]] = {
    # 33 switches × 32 ports = a full 1056-port Quartz element; four
    # servers per switch populated (132 hosts), as in Section 7 scale.
    "quartz-element-1056": lambda: T.quartz_ring(33, servers_per_switch=4),
    # Quartz rings replacing the edge/aggregation tiers of a tree.
    "quartz-in-edge": lambda: T.quartz_in_edge(
        num_rings=4, ring_size=4, num_cores=2, servers_per_switch=4
    ),
    "quartz-ring-small": lambda: T.quartz_ring(5, 2),
    "quartz-ring-mid": lambda: T.quartz_ring(9, 3),
}

#: Cell defaults, shared by the figure runner and the benchmark gates.
DEFAULT_BG_DEMAND_BPS = 500e6
DEFAULT_FG_BANDWIDTH_BPS = 200e6


@dataclass(frozen=True)
class HybridScaleResult:
    """One (fabric, mode) cell of the hybrid-scale scenario."""

    fabric: str
    mode: str  # "hybrid" | "oracle"
    n_background: int
    duration: float
    foreground: LatencySummary
    wall_clock_s: float
    epochs: int
    residual_epochs: int
    packets_delivered: int
    background_peak: int
    background_unroutable: int

    @property
    def fg_mean(self) -> float:
        return self.foreground.mean

    @property
    def fg_p99(self) -> float:
        return self.foreground.p99


def run_hybrid_scale_cell(
    fabric: str = "quartz-ring-small",
    mode: str = "hybrid",
    n_background: int = 200,
    duration: float = 5e-3,
    fg_fan: int = 8,
    bg_demand_bps: float = DEFAULT_BG_DEMAND_BPS,
    fg_bandwidth_bps: float = DEFAULT_FG_BANDWIDTH_BPS,
    bg_mean_duration: float | None = None,
    seed: int = 0,
) -> HybridScaleResult:
    """Run one cell: background schedule + foreground incast, either mode.

    The background schedule and the foreground task placement depend
    only on (fabric, ``n_background``, ``duration``, ``seed``) — both
    modes consume identical inputs, which is what makes the oracle a
    valid accuracy baseline.  The foreground is a gather (incast) task:
    ``fg_fan`` workers stream 400-byte responses to one aggregator, the
    partition-aggregate shape.

    ``bg_mean_duration`` sets the background flows' mean lifetime
    (default ``duration / 4``).  Longer-lived flows shift work toward
    the pure-packet oracle — more packets per epoch boundary — which is
    the regime the hybrid engine is built for; the benchmark gates use
    it to match the paper-scale ratio of transfers to control churn.
    """
    if fabric not in FABRIC_BUILDERS:
        raise ValueError(
            f"unknown fabric {fabric!r}; options: {sorted(FABRIC_BUILDERS)}"
        )
    if mode not in ("hybrid", "oracle"):
        raise ValueError(f"mode must be 'hybrid' or 'oracle', got {mode!r}")
    topo = FABRIC_BUILDERS[fabric]()
    router = ECMPRouter(topo)
    schedule = random_background_schedule(
        topo.servers(),
        n_background,
        horizon=duration,
        mean_duration=(
            duration / 4 if bg_mean_duration is None else bg_mean_duration
        ),
        demand_bps=bg_demand_bps,
        seed=seed,
    )
    net = HybridNetwork(
        topo,
        router,
        schedule,
        hybrid=(mode == "hybrid"),
        record_timeline=False,
    )
    spec = random_task(topo, "gather", fan=fg_fan, seed=seed)
    task = StreamingTask(
        net, spec, fg_bandwidth_bps, group="fg", seed=seed, flow_base=0
    )
    start = time.perf_counter()
    task.start()
    net.run(until=duration)
    wall_clock = time.perf_counter() - start
    return HybridScaleResult(
        fabric=fabric,
        mode=mode,
        n_background=n_background,
        duration=duration,
        foreground=net.stats.summary("fg"),
        wall_clock_s=wall_clock,
        epochs=net.epochs,
        residual_epochs=net.residual_epoch,
        packets_delivered=net.packets_delivered,
        background_peak=schedule.peak_concurrency(),
        background_unroutable=net.background_unroutable,
    )


def hybrid_scale_experiment(
    fabrics: tuple[str, ...] = ("quartz-element-1056", "quartz-in-edge"),
    n_background: int = 2000,
    duration: float = 5e-3,
    fg_fan: int = 16,
    seed: int = 0,
    workers: int | None = 1,
) -> list[HybridScaleResult]:
    """The headline scenario: thousands of background flows per fabric.

    Runs every fabric in hybrid mode (one cell per fabric, fanned over
    :func:`repro.runner.run_cells`).  Metrics are deterministic for a
    given seed; only ``wall_clock_s`` varies run to run.
    """
    cells = [
        ExperimentSpec(
            run_hybrid_scale_cell,
            kwargs={
                "fabric": fabric,
                "mode": "hybrid",
                "n_background": n_background,
                "duration": duration,
                "fg_fan": fg_fan,
                "seed": seed,
            },
            label=f"hybrid-scale/{fabric}/bg={n_background}/seed={seed}",
        )
        for fabric in fabrics
    ]
    return list(run_cells(cells, workers=workers))


def format_hybrid_scale(results: list[HybridScaleResult]) -> str:
    """Scorecard table (µs foreground latency, wall-clock seconds)."""
    lines = ["Hybrid packet/flow engine at scale (foreground incast latency)"]
    header = (
        f"{'fabric':<22}{'mode':>8}{'bg flows':>10}{'peak':>6}"
        f"{'epochs':>8}{'fg mean us':>12}{'fg p99 us':>12}"
        f"{'fg pkts':>9}{'wall s':>8}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for r in results:
        lines.append(
            f"{r.fabric:<22}{r.mode:>8}{r.n_background:>10}"
            f"{r.background_peak:>6}{r.epochs:>8}"
            f"{r.fg_mean * 1e6:>12.2f}{r.fg_p99 * 1e6:>12.2f}"
            f"{r.foreground.count:>9}{r.wall_clock_s:>8.2f}"
        )
    return "\n".join(lines)
