"""Section 7 simulation study: the Figure 17 and 18 experiments.

Topology roster
---------------
The paper's six simulated architectures (Section 7), built at a common
scale — 16 racks, 4 servers each (64 servers) — so latencies are
comparable across topologies:

1. three-tier multi-root tree (CCS core),
2. Quartz in core,
3. Quartz in edge,
4. Quartz in edge and core,
5. Jellyfish (16 ULL switches, four inter-switch links each),
6. Quartz in Jellyfish (four 4-switch rings).

Fabric links are 10 Gbps end to end; trees keep the paper's 2-uplink
redundancy.  The modest uplink count (2 per ToR/ring switch vs the
mesh's 15 rack-to-rack channels) is exactly the low-path-diversity
property Section 5 blames for tree congestion.

Workload
--------
Tasks per Section 7.1: scatter (hub streams to ``fan`` receivers),
gather (``fan`` senders stream to the hub), scatter/gather (closed-loop
request/reply rounds).  Servers send 400-byte packets via Poisson
processes; participants are drawn uniformly (global) or from a window of
nearby racks (localized, Figure 18).  The reported metric is the mean
per-packet latency, averaged over every task's packets (Figure 17) or
over the one local task's packets (Figure 18).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import repro.topology as T
from repro.routing import ECMPRouter
from repro.runner import ExperimentSpec, run_cells
from repro.sim import Network
from repro.sim.stats import LatencySummary
from repro.units import GBPS
from repro.workloads.tasks import build_task, random_task

#: Topology builders at the common Section 7 scale, keyed by paper name.
TOPOLOGY_BUILDERS: dict[str, Callable[[], T.Topology]] = {
    "three-tier tree": lambda: T.three_tier_tree(
        num_pods=4, tors_per_pod=4, aggs_per_pod=2, num_cores=2,
        servers_per_tor=4, uplink_rate=10 * GBPS,
    ),
    "quartz in core": lambda: T.quartz_in_core(
        num_pods=4, tors_per_pod=4, aggs_per_pod=2, core_ring_size=4,
        servers_per_tor=4, uplink_rate=10 * GBPS,
    ),
    "quartz in edge": lambda: T.quartz_in_edge(
        num_rings=4, ring_size=4, num_cores=2, servers_per_switch=4,
        uplink_rate=10 * GBPS,
    ),
    "quartz in edge and core": lambda: T.quartz_in_edge_and_core(
        num_rings=4, ring_size=4, core_ring_size=4, servers_per_switch=4,
        uplink_rate=10 * GBPS,
    ),
    "jellyfish": lambda: T.jellyfish(
        num_switches=16, network_degree=4, servers_per_switch=4, seed=7,
    ),
    "quartz in jellyfish": lambda: T.quartz_in_jellyfish(
        num_rings=4, ring_size=4, inter_ring_links=4, servers_per_switch=4,
        seed=7,
    ),
}


@dataclass(frozen=True)
class TaskExperimentResult:
    """Outcome of one (topology, task kind, #tasks) cell."""

    topology: str
    kind: str
    num_tasks: int
    summary: LatencySummary
    measured_group: str  # "all tasks" or "local task"
    #: The cell network's ``Network.standdowns``: the windows the
    #: port-major pass left to the event loop, by reason.
    standdowns: dict[str, int] = field(default_factory=dict, hash=False)
    #: Flows that found the cell network's flow table full
    #: (``Network.flow_table_full``) and picks its router could not
    #: memoize (``Router.route_cache_full``).
    flow_table_full: int = field(default=0, hash=False)
    route_cache_full: int = field(default=0, hash=False)

    @property
    def mean_latency(self) -> float:
        return self.summary.mean


def run_task_experiment(
    topology: str,
    kind: str,
    num_tasks: int,
    fan: int | None = None,
    per_stream_bandwidth_bps: float = 100e6,
    duration: float = 0.005,
    rounds: int = 100,
    localized: bool = False,
    rack_window: int = 2,
    seed: int = 0,
) -> TaskExperimentResult:
    """Run ``num_tasks`` concurrent tasks and measure packet latency.

    ``fan`` defaults to the paper's literal task shape: "one host is the
    sender and the others are receivers" — every other server in the
    network (or, for the localized task, every other server in its rack
    window).  Pass an explicit ``fan`` for smaller, faster instances.

    Global mode (Figure 17): all tasks are placed randomly (hubs
    distinct, so no host NIC carries two hub loads) and every task's
    packets count.  Localized mode (Figure 18): task 0 lives within
    ``rack_window`` nearby racks and so has "fewer targets" than the
    global cross-traffic tasks; only the local task's packets are
    measured.
    """
    if topology not in TOPOLOGY_BUILDERS:
        raise ValueError(
            f"unknown topology {topology!r}; options: {sorted(TOPOLOGY_BUILDERS)}"
        )
    if num_tasks < 1:
        raise ValueError("need at least one task")
    topo = TOPOLOGY_BUILDERS[topology]()
    net = Network(topo, ECMPRouter(topo))
    num_servers = len(topo.servers())
    servers_per_rack = len(topo.servers_in_rack(topo.racks()[0]))

    tasks = []
    hubs: set[str] = set()
    for index in range(num_tasks):
        local = localized and index == 0
        if fan is not None:
            task_fan = max(2, fan // 2) if local else fan
        elif local:
            task_fan = rack_window * servers_per_rack - 1
        else:
            task_fan = num_servers - 1 - len(hubs)
        spec = random_task(
            topo,
            kind,
            fan=task_fan,
            seed=seed * 1000 + index,
            rack_window=rack_window if local else None,
            exclude=hubs,
        )
        hubs.add(spec.hub)
        group = "local" if local else f"task{index}"
        tasks.append(
            build_task(
                net,
                spec,
                per_stream_bandwidth_bps,
                rounds=rounds,
                group=group,
                seed=seed * 1000 + index,
                flow_base=index * 100,
            )
        )
    for task in tasks:
        task.start()
    net.run(until=duration)

    if localized:
        summary = net.stats.summary("local")
        measured = "local task"
    else:
        summary = net.stats.summary()
        measured = "all tasks"
    return TaskExperimentResult(
        topology=topology,
        kind=kind,
        num_tasks=num_tasks,
        summary=summary,
        measured_group=measured,
        standdowns=dict(net.standdowns),
        flow_table_full=net.flow_table_full,
        route_cache_full=net.router.route_cache_full,
    )


@dataclass(frozen=True)
class SweepPoint:
    """One figure point: mean latency averaged over placement seeds."""

    topology: str
    kind: str
    num_tasks: int
    mean_latency: float
    per_seed: tuple[float, ...]
    #: Its cells' stand-downs by reason, summed over the seeds: which
    #: cells left the port-major pass, without rebuilding them.
    standdowns: dict[str, int] = field(default_factory=dict, hash=False)
    #: Its cells' table overflows, summed over the seeds.
    flow_table_full: int = field(default=0, hash=False)
    route_cache_full: int = field(default=0, hash=False)


def _sweep(
    topologies: list[str],
    kind: str,
    task_counts: list[int],
    seeds: tuple[int, ...],
    localized: bool,
    workers: int | None = 1,
    **kwargs: float,
) -> dict[str, list[SweepPoint]]:
    """Run the (topology × task count × seed) grid, optionally in parallel.

    Every cell is an independent :func:`run_task_experiment` call, so the
    grid fans out over :func:`repro.runner.run_cells`; results come back
    in grid order and are bit-identical to a serial sweep regardless of
    ``workers``.
    """
    cells = [
        ExperimentSpec(
            run_task_experiment,
            args=(topology, kind, n),
            kwargs={"localized": localized, "seed": s, **kwargs},
            label=f"{kind}/{topology}/tasks={n}/seed={s}",
        )
        for topology in topologies
        for n in task_counts
        for s in seeds
    ]
    results = iter(run_cells(cells, workers=workers))

    series: dict[str, list[SweepPoint]] = {}
    for topology in topologies:
        points = []
        for n in task_counts:
            cells = [next(results) for _ in seeds]
            means = [cell.mean_latency for cell in cells]
            points.append(
                SweepPoint(
                    topology=topology,
                    kind=kind,
                    num_tasks=n,
                    mean_latency=sum(means) / len(means),
                    per_seed=tuple(means),
                    standdowns=dict(sum((Counter(cell.standdowns) for cell in cells), Counter())),
                    flow_table_full=sum(cell.flow_table_full for cell in cells),
                    route_cache_full=sum(cell.route_cache_full for cell in cells),
                )
            )
        series[topology] = points
    return series


def figure17_sweep(
    topologies: list[str] | None = None,
    kind: str = "scatter",
    task_counts: list[int] | None = None,
    seeds: tuple[int, ...] = (0,),
    workers: int | None = 1,
    **kwargs: float,
) -> dict[str, list[SweepPoint]]:
    """One Figure 17 panel: latency vs #tasks per topology (global).

    Task placement is random; pass several ``seeds`` to average over
    placements (the paper averages many runs and shows 95 % CIs).
    ``workers`` fans the grid out over processes (``None`` = all CPUs);
    results are identical for any worker count.
    """
    if topologies is None:
        topologies = [
            "three-tier tree",
            "jellyfish",
            "quartz in core",
            "quartz in edge",
            "quartz in edge and core",
        ]
    if task_counts is None:
        task_counts = [1, 2, 4, 8] if kind != "scatter_gather" else [1, 2, 4]
    return _sweep(
        topologies, kind, task_counts, seeds, localized=False, workers=workers,
        **kwargs,
    )


def figure18_sweep(
    topologies: list[str] | None = None,
    kind: str = "scatter",
    task_counts: list[int] | None = None,
    seeds: tuple[int, ...] = (0, 1, 2),
    workers: int | None = 1,
    **kwargs: float,
) -> dict[str, list[SweepPoint]]:
    """One Figure 18 panel: localized-task latency vs #background tasks.

    Localized placement is highly seed-sensitive on random topologies
    (a "nearby racks" window lands at an arbitrary graph distance in
    Jellyfish — which is precisely the paper's point), so this sweep
    averages several seeds by default.
    """
    if topologies is None:
        topologies = [
            "three-tier tree",
            "jellyfish",
            "quartz in jellyfish",
            "quartz in edge and core",
        ]
    if task_counts is None:
        task_counts = [1, 2, 4, 6] if kind != "scatter_gather" else [1, 2, 4]
    return _sweep(
        topologies, kind, task_counts, seeds, localized=True, workers=workers,
        **kwargs,
    )


def format_sweep(series: dict[str, list[SweepPoint]], title: str) -> str:
    """Render a sweep as an aligned text table (µs per packet)."""
    lines = [title]
    counts = [r.num_tasks for r in next(iter(series.values()))]
    header = f"{'topology':<26}" + "".join(f"{n:>10}" for n in counts)
    lines.append(header + "   (tasks)")
    lines.append("-" * len(header))
    for topology, results in series.items():
        row = f"{topology:<26}" + "".join(
            f"{r.mean_latency * 1e6:>10.2f}" for r in results
        )
        lines.append(row)
    return "\n".join(lines)
