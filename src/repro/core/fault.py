"""Fault tolerance of Quartz rings — paper Section 3.5 and Figure 6.

A single physical ring is fragile: two fibre cuts partition it.  Quartz
mitigates this by spreading the wavelength plan over multiple parallel
fibre rings (a 33-switch ring needs 137 channels anyway — more than one
80-channel WDM supports — so at least two rings are required).

This module Monte-Carlo simulates random fibre-segment failures and
reports the two quantities plotted in Figure 6:

* **bandwidth loss** — the fraction of direct switch-pair channels
  severed (each pair's channel rides exactly one ring; it survives iff
  every fibre segment its path crosses on that ring is intact);
* **partition probability** — whether the logical mesh formed by the
  surviving direct channels is disconnected (multi-hop paths over
  surviving channels keep the network whole).

Paper reference points (33-switch ring): one failure on one ring loses
~20 % of aggregate bandwidth (ours: the mean segment load, ~26 %); with
four rings the loss per failure drops to ~6 %; with two rings even four
simultaneous fibre cuts partition the network with probability only
~0.0024.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from repro.core.channels import ChannelPlan, greedy_assignment
from repro.topology.graph import Graph, is_connected


class FaultModelError(ValueError):
    """Raised for invalid failure-model configurations."""


#: A physical fibre segment: (ring index, segment index).
PhysicalLink = tuple[int, int]


@dataclass(frozen=True)
class FaultStats:
    """Aggregate outcome of a failure Monte-Carlo."""

    num_rings: int
    num_failures: int
    trials: int
    bandwidth_loss: float
    partition_probability: float


class RingFaultModel:
    """Failure simulator for a Quartz element with parallel fibre rings.

    Channel-to-ring placement defaults to striping by wavelength index
    (``channel % num_rings``); pass a
    :class:`repro.core.multiring.MultiRingPlan` as ``multi_plan`` to
    evaluate a load-balanced placement instead.
    """

    def __init__(
        self,
        ring_size: int,
        num_rings: int = 1,
        plan: ChannelPlan | None = None,
        multi_plan: "object | None" = None,
    ) -> None:
        if num_rings < 1:
            raise FaultModelError("need at least one physical ring")
        self.ring_size = ring_size
        #: pair -> (ring it rides on, fibre segments it crosses)
        self.pair_routes: dict[tuple[int, int], tuple[int, tuple[int, ...]]] = {}
        if multi_plan is not None:
            if multi_plan.ring_size != ring_size:
                raise FaultModelError(
                    f"plan is for ring size {multi_plan.ring_size}, not {ring_size}"
                )
            self.num_rings = multi_plan.num_rings
            self.plan = plan if plan is not None else greedy_assignment(ring_size)
            for assignment in multi_plan.assignments:
                self.pair_routes[assignment.pair] = (
                    assignment.ring,
                    assignment.links,
                )
            return
        self.num_rings = num_rings
        self.plan = plan if plan is not None else greedy_assignment(ring_size)
        if self.plan.ring_size != ring_size:
            raise FaultModelError(
                f"plan is for ring size {self.plan.ring_size}, not {ring_size}"
            )
        for assignment in self.plan.assignments:
            ring = assignment.channel % num_rings
            self.pair_routes[assignment.pair] = (ring, assignment.links)

    # -- single-scenario evaluation ------------------------------------------------

    def physical_links(self) -> list[PhysicalLink]:
        """All fibre segments across all rings."""
        return [
            (ring, segment)
            for ring in range(self.num_rings)
            for segment in range(self.ring_size)
        ]

    def surviving_pairs(
        self, failed: set[PhysicalLink]
    ) -> list[tuple[int, int]]:
        """Switch pairs whose direct channel survives the failures."""
        alive = []
        for pair, (ring, segments) in self.pair_routes.items():
            if all((ring, seg) not in failed for seg in segments):
                alive.append(pair)
        return alive

    def bandwidth_loss(self, failed: set[PhysicalLink]) -> float:
        """Fraction of direct channels lost under ``failed`` segments."""
        total = len(self.pair_routes)
        if total == 0:
            return 0.0
        return 1.0 - len(self.surviving_pairs(failed)) / total

    def is_partitioned(self, failed: set[PhysicalLink]) -> bool:
        """Whether the logical graph of surviving channels is disconnected."""
        graph = Graph()
        for node in range(self.ring_size):
            graph.add_node(node)
        for u, v in self.surviving_pairs(failed):
            graph.add_edge(u, v)
        return not is_connected(graph)

    # -- Monte-Carlo -----------------------------------------------------------------

    def simulate(
        self,
        num_failures: int,
        trials: int = 2000,
        seed: int = 0,
    ) -> FaultStats:
        """Sample ``trials`` uniform failure sets of ``num_failures`` segments."""
        links = self.physical_links()
        if num_failures > len(links):
            raise FaultModelError(
                f"cannot fail {num_failures} of {len(links)} fibre segments"
            )
        rng = random.Random(seed)
        loss_total = 0.0
        partitions = 0
        for _ in range(trials):
            failed = set(rng.sample(links, num_failures))
            loss_total += self.bandwidth_loss(failed)
            if self.is_partitioned(failed):
                partitions += 1
        return FaultStats(
            num_rings=self.num_rings,
            num_failures=num_failures,
            trials=trials,
            bandwidth_loss=loss_total / trials,
            partition_probability=partitions / trials,
        )

    def exact_partition_probability(self, num_failures: int) -> float:
        """Exhaustive partition probability (small cases only).

        Enumerates every failure combination; use for validating the
        Monte-Carlo on small rings.
        """
        links = self.physical_links()
        combos = list(itertools.combinations(links, num_failures))
        if not combos:
            return 0.0
        hits = sum(1 for combo in combos if self.is_partitioned(set(combo)))
        return hits / len(combos)


def degraded_mesh_topology(
    topo,
    model: RingFaultModel,
    failed: set[PhysicalLink],
    tor_prefix: str = "tor",
):
    """The logical mesh topology surviving a set of fibre failures.

    ``topo`` must be a single-ToR Quartz mesh whose switches are named
    ``{tor_prefix}{index}`` (as built by
    :meth:`repro.core.ring.QuartzRing.to_topology`).  Every rack pair
    whose channel died loses its mesh link; traffic re-routes over
    surviving channels via multi-hop paths (paper Section 3.5).
    """
    alive = set(model.surviving_pairs(failed))
    dead = [
        (f"{tor_prefix}{s}", f"{tor_prefix}{t}")
        for (s, t) in model.pair_routes
        if (s, t) not in alive
    ]
    return topo.degraded(dead)


def figure6_sweep(
    ring_size: int = 33,
    max_rings: int = 4,
    max_failures: int = 4,
    trials: int = 2000,
    seed: int = 0,
) -> list[FaultStats]:
    """The full Figure 6 grid: rings × failures → (bandwidth loss, partition)."""
    results = []
    plan = greedy_assignment(ring_size)
    for num_rings in range(1, max_rings + 1):
        model = RingFaultModel(ring_size, num_rings, plan)
        for failures in range(1, max_failures + 1):
            results.append(model.simulate(failures, trials=trials, seed=seed))
    return results
