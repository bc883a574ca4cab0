"""The five whole-experiment workloads of the end-to-end benchmark.

Each workload is a closed loop with one client: its steps run back to
back in one process.  A *step* is one call into a public experiment
function; a *pass* is every step once.  Each step yields one or more
*cells* — the benchmark's operations — checked after the step's timer
has stopped.

Sizes are a fifth to a half of the paper-scale runs: the driver allows
about 30 s per run, and a run must hold three or four fresh processes,
one pass each, to report medians.  The layer mix of every workload is
that of its full-size experiment (README.md has the measured shares).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import repro.topology as T
from repro.analysis.queueing import md1_mean_wait
from repro.core.multiring import plan_rings
from repro.experiments.fault_recovery import run_fault_recovery_cell
from repro.experiments.hybrid_scale import FABRIC_BUILDERS, run_hybrid_scale_cell
from repro.experiments.section7 import TOPOLOGY_BUILDERS, figure17_sweep
from repro.hybrid import HybridNetwork, random_background_schedule
from repro.routing import ECMPRouter
from repro.sim import Network, PoissonSource
from repro.sim.faults import FaultInjector, random_fault_schedule
from repro.sim.parallel import ParallelScenario, SourceSpec, run_parallel, run_serial
from repro.units import GBPS, serialization_delay
from repro.workloads.tasks import StreamingTask, build_task, random_task

import verify


@dataclass
class Cell:
    """One operation: a finished simulation cell and its verdict."""

    label: str
    digest: str
    work: int
    errors: list[str] = field(default_factory=list)


@dataclass
class Step:
    """One timed public call and the untimed check of what it returned."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any, list[Network]], list[Cell]]


def _cell(label: str, fields: dict, work: int, nets: list[Network], errors=()) -> Cell:
    """A cell over the networks it built: digest their fields, check them."""
    errors = list(errors)
    for net in nets:
        errors += verify.network_errors(net)
    fields = dict(fields, networks=[verify.network_fields(net) for net in nets])
    return Cell(label, verify.digest(fields), work, errors)


class Workload:
    """Interface the child process drives; subclasses fill it in."""

    name = ""
    #: What ``work_per_s`` counts.
    work_unit = "packets delivered"
    #: ``model_rel_err`` of the last pass, or ``None``: the repo holds no
    #: reference for this workload and the model is unvalidated on it.
    model_rel_err: float | None = None

    def __init__(self, seed: int, quick: bool) -> None:
        self.seed = seed
        #: What this pass's checks kept for ``finish`` and ``facts``
        #: (summaries, never whole networks: samples must be freed).
        self.seen: list = []

    def sizes(self) -> dict:
        """The sizes that define this workload (recorded in results)."""
        raise NotImplementedError

    def setup(self, span) -> None:
        """Build what the first cell needs, inside ``span(name)`` blocks."""
        raise NotImplementedError

    def reference(self, log: verify.NetworkLog, traced: bool) -> list[str]:
        """Untimed reference run; returns its errors."""
        return []

    def steps(self) -> list[Step]:
        """The steps of one pass; calling it starts a new pass, so it also
        resets ``self.seen``, where checks note what ``finish`` needs."""
        raise NotImplementedError

    def finish(self) -> list[str]:
        """Workload-level check over the pass that just ended."""
        return []

    def facts(self) -> dict:
        """Per-layer metrics only this workload's own results hold."""
        return {}


# -- fig17_sweep ---------------------------------------------------------------------


class Fig17Sweep(Workload):
    name = "fig17_sweep"
    ARCHITECTURES = (
        "three-tier tree",
        "jellyfish",
        "quartz in core",
        "quartz in edge",
        "quartz in edge and core",
    )

    def __init__(self, seed: int, quick: bool) -> None:
        super().__init__(seed, quick)
        if quick:
            self.architectures = ("three-tier tree", "quartz in core")
            self.panels = (("scatter", [1, 2]), ("scatter_gather", [1]))
            self.duration = 2.5e-4
        else:
            self.architectures = self.ARCHITECTURES
            self.panels = (("scatter", [1, 2, 4, 8]), ("scatter_gather", [1, 2, 4]))
            self.duration = 1e-3

    def sizes(self) -> dict:
        return {
            "architectures": list(self.architectures),
            "panels": {kind: counts for kind, counts in self.panels},
            "cells": len(self.architectures) * sum(len(c) for _, c in self.panels),
            "duration_s": self.duration,
        }

    def setup(self, span) -> None:
        kind = self.panels[0][0]
        for arch in self.architectures:
            with span("topology.build"):
                topo = TOPOLOGY_BUILDERS[arch]()
            with span("routing.build"):
                router = ECMPRouter(topo)
                servers = topo.servers()
                router.route(servers[0], servers[-1], 0)
            with span("sim.build"):
                net = Network(topo, router)
            with span("workloads.build"):
                spec = random_task(topo, kind, fan=len(servers) - 1, seed=self.seed * 1000)
                build_task(net, spec, 100e6, seed=self.seed * 1000)

    def steps(self) -> list[Step]:
        self.seen = []
        steps = []
        for kind, counts in self.panels:
            for arch in self.architectures:
                steps.append(
                    Step(
                        f"{kind}/{arch}",
                        lambda kind=kind, arch=arch, counts=counts: figure17_sweep(
                            topologies=[arch],
                            kind=kind,
                            task_counts=counts,
                            seeds=(self.seed,),
                            workers=1,
                            duration=self.duration,
                        ),
                        lambda series, nets, kind=kind, arch=arch: self._check(
                            kind, arch, series, nets
                        ),
                    )
                )
        return steps

    def _check(self, kind: str, arch: str, series: dict, nets: list[Network]) -> list[Cell]:
        points = series[arch]
        self.seen.append((kind, arch, points))
        cells = []
        for point, net in zip(points, nets):
            cells.append(
                _cell(
                    f"{kind}/{arch}/tasks={point.num_tasks}",
                    {"mean_latency": point.mean_latency},
                    net.packets_delivered,
                    [net],
                )
            )
        if len(nets) != len(points):
            cells.append(Cell(f"{kind}/{arch}", "", 0, ["one network per cell expected"]))
        return cells

    def finish(self) -> list[str]:
        """Tree slowest at every point; Quartz in the core saves > 3 us."""
        errors = []
        for kind, _counts in self.panels:
            panel = {arch: points for k, arch, points in self.seen if k == kind}
            tree = panel["three-tier tree"]
            for arch, points in panel.items():
                for mine, theirs in zip(points, tree):
                    if mine.mean_latency > theirs.mean_latency:
                        errors.append(f"{kind}: {arch} slower than the tree")
            saved = [
                t.mean_latency - q.mean_latency
                for t, q in zip(tree, panel["quartz in core"])
            ]
            if sum(saved) / len(saved) <= 3e-6:
                errors.append(f"{kind}: quartz in core saves {saved} s over the tree")
        return errors


# -- hybrid_element1056 --------------------------------------------------------------


class HybridElement1056(Workload):
    name = "hybrid_element1056"
    work_unit = "residual epochs"

    def __init__(self, seed: int, quick: bool) -> None:
        super().__init__(seed, quick)
        self.fabric = "quartz-ring-mid" if quick else "quartz-element-1056"
        self.n_background = 60 if quick else 700
        self.cells = 1 if quick else 2
        self.duration = 5e-3
        self.fg_fan = 8 if quick else 16
        # The accuracy scenario benchmarks/bench_hybrid_scale.py gates on.
        self.accuracy = {
            "fabric": "quartz-ring-small",
            "n_background": 40,
            "fg_fan": 4,
            "bg_demand_bps": 5e8,
            "duration": 2e-2,
            "bg_mean_duration": 1e-2,
        }

    def sizes(self) -> dict:
        return {
            "fabric": self.fabric,
            "n_background": self.n_background,
            "cells": self.cells,
            "duration_s": self.duration,
            "fg_fan": self.fg_fan,
            "accuracy_cell": self.accuracy,
        }

    def setup(self, span) -> None:
        with span("topology.build"):
            topo = FABRIC_BUILDERS[self.fabric]()
        with span("routing.build"):
            router = ECMPRouter(topo)
            servers = topo.servers()
            router.route(servers[0], servers[-1], 0)
        with span("workloads.build"):
            schedule = random_background_schedule(
                servers,
                self.n_background,
                horizon=self.duration,
                mean_duration=self.duration / 4,
                demand_bps=500e6,
                seed=self.seed,
            )
            spec = random_task(topo, "gather", fan=self.fg_fan, seed=self.seed)
        with span("sim.build"):
            net = HybridNetwork(topo, router, schedule, record_timeline=False)
        with span("workloads.build"):
            StreamingTask(net, spec, 200e6, group="fg", seed=self.seed)

    def reference(self, log: verify.NetworkLog, traced: bool) -> list[str]:
        """Hybrid against the pure-packet oracle on the small ring."""
        hybrid = run_hybrid_scale_cell(mode="hybrid", seed=self.seed, **self.accuracy)
        oracle = run_hybrid_scale_cell(mode="oracle", seed=self.seed, **self.accuracy)
        errors = [e for net in log.drain() for e in verify.network_errors(net)]
        self.model_rel_err = abs(hybrid.fg_mean - oracle.fg_mean) / oracle.fg_mean
        if self.model_rel_err > 0.05:
            errors.append(f"fg mean off the oracle by {self.model_rel_err:.3f}")
        self.fg_p99_rel_err = abs(hybrid.fg_p99 - oracle.fg_p99) / oracle.fg_p99
        return errors

    def facts(self) -> dict:
        return {"hybrid.fg_p99_rel_err": self.fg_p99_rel_err}

    def steps(self) -> list[Step]:
        self.seen = []
        return [
            Step(
                f"cell{index}",
                lambda index=index: run_hybrid_scale_cell(
                    self.fabric,
                    "hybrid",
                    n_background=self.n_background,
                    duration=self.duration,
                    fg_fan=self.fg_fan,
                    seed=self.seed * self.cells + index,
                ),
                lambda result, nets, index=index: [
                    _cell(
                        f"cell{index}",
                        {
                            "epochs": result.epochs,
                            "residual_epochs": result.residual_epochs,
                            "background_unroutable": result.background_unroutable,
                        },
                        result.residual_epochs,
                        nets,
                        [] if result.residual_epochs > 0 else ["no residual epoch ran"],
                    )
                ],
            )
            for index in range(self.cells)
        ]


# -- fault_recovery ------------------------------------------------------------------


class FaultRecovery(Workload):
    name = "fault_recovery"
    GRID = ((2, 1), (1, 2))  # (physical rings, simultaneous cuts)

    def __init__(self, seed: int, quick: bool) -> None:
        super().__init__(seed, quick)
        scale = 0.25 if quick else 1.0
        self.ring_size = 5 if quick else 9
        self.timing = {
            "duration": 4e-3 * scale,
            "cut_at": 1.5e-3 * scale,
            "repair_after": 1e-3 * scale,
            "bin_width": 2.5e-4 * scale,
            "warmup": 5e-4 * scale,
        }

    def sizes(self) -> dict:
        return {"ring_size": self.ring_size, "grid": [list(g) for g in self.GRID],
                **self.timing}

    def setup(self, span) -> None:
        rings, cuts = self.GRID[0]
        with span("topology.build"):
            topo = T.quartz_ring(self.ring_size, servers_per_switch=2)
        with span("routing.build"):
            router = ECMPRouter(topo)
            router.route("h0.1", "h1.0", 0)
        with span("core.plan_rings"):
            plan = plan_rings(self.ring_size, num_rings=rings)
        with span("sim.build"):
            net = Network(topo, router)
            FaultInjector(net, plan).schedule(
                random_fault_schedule(
                    plan,
                    cuts,
                    cut_at=self.timing["cut_at"],
                    repair_after=self.timing["repair_after"],
                    seed=self.seed,
                )
            )
        with span("workloads.build"):
            PoissonSource.at_bandwidth(net, "h0.1", "h1.0", 1.5 * GBPS, seed=self.seed)

    def steps(self) -> list[Step]:
        self.seen = []
        return [
            Step(
                f"rings={rings}/cuts={cuts}",
                lambda rings=rings, cuts=cuts: run_fault_recovery_cell(
                    ring_size=self.ring_size,
                    num_rings=rings,
                    num_cuts=cuts,
                    seed=self.seed,
                    **self.timing,
                ),
                self._check,
            )
            for rings, cuts in self.GRID
        ]

    def _check(self, result, nets: list[Network]) -> list[Cell]:
        self.seen.append(result)
        errors = []
        if result.channels_severed <= 0:
            errors.append("no channel severed")
        if result.recovered_goodput_bps < 0.9 * result.baseline_goodput_bps:
            errors.append(
                f"goodput recovered to {result.recovered_goodput_bps:.3g} of "
                f"{result.baseline_goodput_bps:.3g} bps"
            )
        fields = {
            "channels_severed": result.channels_severed,
            "goodput_bins_bps": list(result.goodput_bins_bps),
            "recovery_latency": result.recovery_latency,
        }
        label = f"rings={result.num_rings}/cuts={result.num_cuts}"
        return [_cell(label, fields, result.packets_delivered, nets, errors)]

    def finish(self) -> list[str]:
        """Two cuts on one ring always partition it, so packets must be lost
        or detoured somewhere in the pass (one cut on two rings may hit nothing
        in flight)."""
        if sum(r.packets_dropped + r.packets_rerouted for r in self.seen) <= 0:
            return ["the cuts neither dropped nor rerouted a packet"]
        return []

    def facts(self) -> dict:
        return {
            "sim.faults.rerouted": sum(r.packets_rerouted for r in self.seen),
            "sim.faults.dropped": sum(r.packets_dropped for r in self.seen),
        }


# -- md1_validation ------------------------------------------------------------------


class MD1Validation(Workload):
    name = "md1_validation"
    PACKET_BYTES = 1250  # 1 us of service at 10 Gbps
    RATE_BPS = 10 * GBPS
    #: tier-1 tolerates 0.15 on a quarter of this sample.
    MAX_REL_ERR = 0.1

    def __init__(self, seed: int, quick: bool) -> None:
        super().__init__(seed, quick)
        self.utilizations = (0.5, 0.9) if quick else (0.5, 0.7, 0.9)
        self.streams = 2 if quick else 6
        self.sim_seconds = 0.02 if quick else 0.25
        self.service = serialization_delay(self.PACKET_BYTES, self.RATE_BPS)
        self.zero_load = 0.0

    def sizes(self) -> dict:
        return {
            "utilizations": list(self.utilizations),
            "streams_per_utilization": self.streams,
            "simulated_s_per_stream": self.sim_seconds,
            "cells": len(self.utilizations) * self.streams,
        }

    def _network(self) -> Network:
        topo = T.full_mesh(2, 1, link_rate=self.RATE_BPS)
        return Network(topo, ECMPRouter(topo))

    def setup(self, span) -> None:
        with span("topology.build"):
            topo = T.full_mesh(2, 1, link_rate=self.RATE_BPS)
        with span("routing.build"):
            router = ECMPRouter(topo)
            router.route("h0.0", "h1.0", 0)
        with span("sim.build"):
            net = Network(topo, router)
        with span("workloads.build"):
            PoissonSource(net, "h0.0", "h1.0", rate_pps=1.0, seed=self.seed)

    def reference(self, log: verify.NetworkLog, traced: bool) -> list[str]:
        """Zero-load latency: one packet through an idle link."""
        net = self._network()
        packet = net.send("h0.0", "h1.0", self.PACKET_BYTES)
        net.run()
        log.drain()
        self.zero_load = packet.latency
        return []

    def _run_cell(self, rho: float, stream: int) -> Network:
        net = self._network()
        PoissonSource(
            net,
            "h0.0",
            "h1.0",
            rate_pps=rho / self.service,
            size_bytes=self.PACKET_BYTES,
            seed=self.seed * 1000 + stream,
        ).start()
        net.run(until=self.sim_seconds)
        return net

    def steps(self) -> list[Step]:
        self.seen = []
        return [
            Step(
                f"rho={rho}/stream={stream}",
                lambda rho=rho, stream=stream: self._run_cell(rho, stream),
                lambda net, nets, rho=rho, stream=stream: self._check(rho, stream, net),
            )
            for rho in self.utilizations
            for stream in range(self.streams)
        ]

    def _check(self, rho: float, stream: int, net: Network) -> list[Cell]:
        fields = verify.network_fields(net)
        _count, mean, _p99 = fields["groups"]["all"]
        self.seen.append((rho, mean - self.zero_load))
        return [Cell(f"rho={rho}/stream={stream}", verify.digest(fields),
                     net.packets_delivered, verify.network_errors(net))]

    def finish(self) -> list[str]:
        """Stream-averaged wait against Pollaczek-Khinchine, per utilization."""
        worst = 0.0
        for rho in self.utilizations:
            waits = [wait for r, wait in self.seen if r == rho]
            predicted = md1_mean_wait(rho / self.service, self.service)
            worst = max(worst, abs(sum(waits) / len(waits) - predicted) / predicted)
        self.model_rel_err = worst
        if worst > self.MAX_REL_ERR:
            return [f"mean wait off Pollaczek-Khinchine by {worst:.3f}"]
        return []


# -- element1056_sharded -------------------------------------------------------------


class Element1056Sharded(Workload):
    name = "element1056_sharded"
    OFFSETS = (1, 2, 5, 16)  # rack distance each of a rack's four servers streams to
    SHARDS = 2

    def __init__(self, seed: int, quick: bool) -> None:
        super().__init__(seed, quick)
        self.racks = 9 if quick else 33
        self.duration = 5e-4 if quick else 5e-3
        specs = []
        for rack in range(self.racks):
            for server, offset in enumerate(self.OFFSETS):
                flow = rack * len(self.OFFSETS) + server
                specs.append(
                    SourceSpec(
                        src=f"h{rack}.{server}",
                        dst=f"h{(rack + offset) % self.racks}.{server}",
                        rate_pps=200_000.0,
                        group=f"g{rack % 2}",
                        flow_id=flow,
                        seed=seed * 1000 + flow,
                    )
                )
        self.scenario = ParallelScenario(
            fabric="quartz-ring",
            fabric_args=(self.racks, len(self.OFFSETS)),
            sources=tuple(specs),
            duration=self.duration,
            propagation_delay=2.5e-6,
        )
        self.serial = self.process = None
        self.capacity: dict = {}

    def sizes(self) -> dict:
        return {
            "racks": self.racks,
            "sources": len(self.scenario.sources),
            "rate_pps": 200_000.0,
            "duration_s": self.duration,
            "propagation_s": 2.5e-6,
            "shards": self.SHARDS,
        }

    def setup(self, span) -> None:
        with span("topology.build"):
            topo = self.scenario.build_topology()
        with span("routing.build"):
            router = self.scenario.build_router(topo)
            first = self.scenario.sources[0]
            router.route(first.src, first.dst, first.flow_id)
        with span("sim.build"):
            net = Network(topo, router, propagation_delay=self.scenario.propagation_delay)
        self.capacity = net._capacity

    def _sharded(self, mode: str):
        return run_parallel(self.scenario, num_shards=self.SHARDS, mode=mode, parallel=True)

    def reference(self, log: verify.NetworkLog, traced: bool) -> list[str]:
        """The single-process execution the sharded run must reproduce; in
        the traced run also the two-process one, for ``sim.parallel.*``."""
        self.serial = run_serial(self.scenario)
        errors = [e for net in log.drain() for e in verify.network_errors(net)]
        if traced:
            self.process = self._sharded("process")
            errors += self._result_errors(self.process, "parallel-process")
        return errors

    def facts(self) -> dict:
        result = self.process
        return {
            "sim.parallel.process_wall_s": result.wall_seconds,
            "sim.parallel.spinup_s": result.spinup_seconds,
            "sim.parallel.compute_s": result.compute_seconds,
            "sim.parallel.barrier_s": result.barrier_seconds,
            "sim.parallel.barrier_share": result.barrier_seconds / result.wall_seconds,
            "sim.parallel.windows": result.windows,
            "sim.parallel.boundary_messages": result.boundary_messages,
            "sim.parallel.speedup_vs_serial": (
                self.serial.wall_seconds / result.wall_seconds
            ),
        }

    def steps(self) -> list[Step]:
        self.seen = []
        return [Step("run_parallel", lambda: self._sharded("inline"), self._check)]

    def _result_errors(self, result, mode: str) -> list[str]:
        errors = []
        if result.mode != mode:
            errors.append(f"ran as {result.mode}, not {mode}")
        if result.fingerprint() != self.serial.fingerprint():
            errors.append(f"{mode} fingerprint differs from the serial run")
        # Conservation holds for the merged result, not per shard (packets
        # cross shards), and the shards' queued events are not merged, so
        # in-flight is only bounded below.
        errors += verify.conservation_errors(
            result.next_packet_id,
            result.packets_delivered,
            result.packets_dropped,
            result.packets_unroutable,
            float("inf"),
        )
        errors += verify.port_errors(
            ((key, sent_bytes, busy) for key, _, sent_bytes, busy in result.port_state),
            self.capacity,
        )
        return errors

    def _check(self, result, nets: list[Network]) -> list[Cell]:
        fields = {
            "delivered": result.packets_delivered,
            "dropped": result.packets_dropped,
            "rerouted": result.packets_rerouted,
            "events": result.events_processed,
            "windows": result.windows,
            "boundary_messages": result.boundary_messages,
            "groups": verify.group_stats(result.by_group),
        }
        return [Cell("run_parallel", verify.digest(fields), result.packets_delivered,
                     self._result_errors(result, "parallel-inline"))]


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (Fig17Sweep, HybridElement1056, FaultRecovery, MD1Validation,
                Element1056Sharded)
}
