"""Fault-recovery experiment: goodput through a live fibre cut.

The paper argues Quartz's dense mesh makes it "robust to failures"
(Section 3.5): a fibre-segment cut kills only the channels routed across
it, the rest of the mesh keeps forwarding, and multi-hop detours absorb
the severed pairs' traffic.  Figure 6 quantifies that statically
(fraction of bandwidth lost vs number of cuts).  This experiment is the
dynamic companion: it runs all-to-all rack traffic through a single
Quartz element, cuts fibre segments *mid-run* with
:class:`~repro.sim.faults.FaultInjector`, repairs them later, and
reports what live traffic experienced — packets dropped on the severed
channels, packets rerouted around them, the goodput dip during the
outage, and how quickly goodput returns once the fibre is spliced.

The sweep axes mirror Figure 6: number of parallel physical rings
(more rings → each cut severs fewer channels) × number of simultaneous
cuts.  Every cell is a pure function of its arguments, so the sweep
fans out over :func:`repro.runner.run_cells` bit-identically for any
worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.multiring import plan_rings
from repro.routing import ECMPRouter, VLBRouter
from repro.runner import ExperimentSpec, run_cells
from repro.sim import DeliveryBins, Network, PoissonSource
from repro.sim.faults import FaultInjector, random_fault_schedule
from repro.topology import quartz_ring
from repro.units import GBPS

#: Routers the experiment can exercise, keyed by CLI-friendly name.
ROUTER_BUILDERS = {
    "ecmp": ECMPRouter,
    "vlb": VLBRouter,
}


@dataclass(frozen=True)
class FaultRecoveryResult:
    """Outcome of one (rings × cuts × seed) fault-recovery cell."""

    ring_size: int
    num_rings: int
    num_cuts: int
    seed: int
    router: str
    channels_severed: int
    packets_delivered: int
    packets_dropped: int
    packets_rerouted: int
    baseline_goodput_bps: float
    outage_goodput_bps: float
    recovered_goodput_bps: float
    recovery_latency: float | None
    max_flow_recovery: float | None
    goodput_bins_bps: tuple[float, ...]
    bin_width: float

    @property
    def goodput_loss(self) -> float:
        """Fractional goodput lost during the outage window."""
        if self.baseline_goodput_bps <= 0:
            return 0.0
        dip = 1.0 - self.outage_goodput_bps / self.baseline_goodput_bps
        return max(0.0, dip)


def _bins_between(
    bins: tuple[float, ...], bin_width: float, start: float, end: float
) -> list[float]:
    """Bins lying entirely within ``[start, end)``."""
    return [
        value
        for index, value in enumerate(bins)
        if index * bin_width >= start and (index + 1) * bin_width <= end
    ]


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def run_fault_recovery_cell(
    ring_size: int = 9,
    num_rings: int = 2,
    num_cuts: int = 1,
    seed: int = 0,
    servers_per_switch: int = 2,
    per_pair_bandwidth_bps: float = 1.5 * GBPS,
    duration: float = 0.012,
    cut_at: float = 0.004,
    repair_after: float | None = 0.004,
    bin_width: float = 0.0005,
    warmup: float = 0.001,
    router: str = "ecmp",
) -> FaultRecoveryResult:
    """One cell: all-to-all traffic through ``num_cuts`` simultaneous cuts.

    A ``ring_size``-switch Quartz element carries one Poisson stream per
    ordered rack pair at ``per_pair_bandwidth_bps``.  At ``cut_at``,
    ``num_cuts`` distinct fibre segments (sampled uniformly from the
    ``num_rings``-ring layout, Figure 6's failure model) are cut at
    once; each is spliced back ``repair_after`` seconds later (``None``
    = never).  Goodput is binned at ``bin_width``; the baseline window
    is ``[warmup, cut_at)``, the outage window ``[cut_at, repair)``, and
    recovery is the first post-repair bin back at ≥ 90 % of baseline.

    Pure function of its arguments — safe to fan out over
    :func:`repro.runner.run_cells` (bit-identical for any worker count).
    """
    if router not in ROUTER_BUILDERS:
        raise ValueError(f"unknown router {router!r}; options: {sorted(ROUTER_BUILDERS)}")
    if not 0 < warmup < cut_at:
        raise ValueError("need 0 < warmup < cut_at")
    repair_at = duration if repair_after is None else cut_at + repair_after
    if not cut_at < repair_at <= duration:
        raise ValueError("need cut_at < cut_at + repair_after <= duration")

    topo = quartz_ring(ring_size, servers_per_switch=servers_per_switch)
    net = Network(topo, ROUTER_BUILDERS[router](topo))
    plan = plan_rings(ring_size, num_rings=num_rings)
    injector = FaultInjector(net, plan)
    injector.schedule(
        random_fault_schedule(
            plan, num_cuts, cut_at=cut_at, repair_after=repair_after, seed=seed
        )
    )

    bins = DeliveryBins(bin_width, max(1, round(duration / bin_width)))

    # One stream per ordered rack pair; the server indices rotate so the
    # load spreads evenly over every rack's servers.
    stream = 0
    for i in range(ring_size):
        for j in range(ring_size):
            if i == j:
                continue
            src = f"h{i}.{j % servers_per_switch}"
            dst = f"h{j}.{i % servers_per_switch}"
            PoissonSource.at_bandwidth(
                net,
                src,
                dst,
                per_pair_bandwidth_bps,
                group=f"p{i}-{j}",
                flow_id=stream,
                seed=seed * 10_000 + stream,
                on_delivered=bins,
            ).start()
            stream += 1

    net.run(until=duration)

    goodput = tuple(value / bin_width for value in bins.bits)
    baseline = _mean(_bins_between(goodput, bin_width, warmup, cut_at))
    outage = _mean(_bins_between(goodput, bin_width, cut_at, repair_at))
    recovered = _mean(_bins_between(goodput, bin_width, repair_at, duration))

    recovery_latency = None
    if repair_after is not None and baseline > 0:
        for index, value in enumerate(goodput):
            if index * bin_width >= repair_at and value >= 0.9 * baseline:
                recovery_latency = (index + 1) * bin_width - repair_at
                break

    severed = sum(1 for e in net.fault_stats.events if e.kind == "link_down")
    return FaultRecoveryResult(
        ring_size=ring_size,
        num_rings=num_rings,
        num_cuts=num_cuts,
        seed=seed,
        router=router,
        channels_severed=severed,
        packets_delivered=net.packets_delivered,
        packets_dropped=net.packets_dropped_fault,
        packets_rerouted=net.packets_rerouted,
        baseline_goodput_bps=baseline,
        outage_goodput_bps=outage,
        recovered_goodput_bps=recovered,
        recovery_latency=recovery_latency,
        max_flow_recovery=net.fault_stats.max_recovery_time(),
        goodput_bins_bps=goodput,
        bin_width=bin_width,
    )


def fault_recovery_sweep(
    ring_counts: list[int] | None = None,
    cut_counts: list[int] | None = None,
    seeds: tuple[int, ...] = (0,),
    workers: int | None = 1,
    **kwargs: float,
) -> list[FaultRecoveryResult]:
    """The (rings × cuts × seed) grid, optionally fanned over processes.

    Results come back in grid order and are bit-identical for any
    ``workers`` (each cell is pure; see :mod:`repro.runner`).
    """
    if ring_counts is None:
        ring_counts = [1, 2, 3]
    if cut_counts is None:
        cut_counts = [1, 2]
    cells = [
        ExperimentSpec(
            run_fault_recovery_cell,
            kwargs={"num_rings": r, "num_cuts": c, "seed": s, **kwargs},
            label=f"fault-recovery/rings={r}/cuts={c}/seed={s}",
        )
        for r in ring_counts
        for c in cut_counts
        for s in seeds
    ]
    return run_cells(cells, workers=workers)


def format_fault_recovery(results: list[FaultRecoveryResult]) -> str:
    """Render the sweep as an aligned text table."""
    lines = [
        "Fault recovery: goodput through simultaneous fibre cuts",
        f"{'rings':>5} {'cuts':>5} {'severed':>8} {'dropped':>8} {'rerouted':>9} "
        f"{'loss':>7} {'recovery':>9}",
    ]
    lines.append("-" * len(lines[1]))
    for r in results:
        recovery = "-" if r.recovery_latency is None else f"{r.recovery_latency * 1e3:.2f}ms"
        lines.append(
            f"{r.num_rings:>5} {r.num_cuts:>5} {r.channels_severed:>8} "
            f"{r.packets_dropped:>8} {r.packets_rerouted:>9} "
            f"{r.goodput_loss:>6.1%} {recovery:>9}"
        )
    return "\n".join(lines)
