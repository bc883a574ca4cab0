"""The hybrid packet/flow co-simulation engine.

:class:`HybridNetwork` runs the packet simulator for *foreground*
traffic only, and carries *background* traffic at flow level as
time-varying residual capacity:

* the engine tiles sim time into **epochs** — maximal intervals over
  which the active background-flow set and the fault state are both
  constant.  Epoch boundaries are the background schedule's start/stop
  times plus any ``fail_link`` / ``repair_link`` call;
* at each boundary the flow-level allocator
  (:class:`repro.flowsim.maxmin.ResidualSolver`) re-solves max-min fair
  rates for the active background flows — incrementally when only
  capacities changed — and hands back per-link **residuals**
  (capacity − background load);
* the packet side consumes residuals by rescaling each directed link's
  serialization factor (``ser = 8 / residual``): foreground packets
  serialize as if the link were narrower by exactly the bandwidth the
  background occupies.  Compiled :class:`~repro.sim.fastpath.HopPlan`
  caches and flow bindings are cleared whenever any link's residual
  changes, the same invalidation discipline ``fail_link`` uses, so the
  fast path stays hot *within* an epoch and recompiles lazily after
  one;
* the epoch-boundary callback sits in the event queue — a plain timer,
  not a source's fire chain — so it bounds the windows of the
  port-major pass of ``Network.run``: foreground traffic is solved
  port-major between two boundaries when the gap between them holds a
  budgeted window, and is the event loop's otherwise.  At the headline
  scale none does — thousands of boundaries about 2 µs apart against
  the 128 expected fires sixteen foreground streams need — which costs
  the run one queue scan (``batch.standdown.budget``), not one per
  epoch.

Approximations (see API.md for the full contract): background flows are
fluid (no background packets, no background queueing jitter), foreground
packets already in flight keep the serialization they started with
(epoch changes apply to packets injected afterwards), and background
flows do not re-path on repair (only on failure of a link they cross).

With ``hybrid=False`` the same class becomes the **pure-packet oracle**:
every background flow materializes as a Poisson packet source at its
demand bandwidth and the fabric simulates all packets.  The oracle is
the accuracy baseline ``bench_hybrid_scale`` gates against.
"""

from __future__ import annotations

import time as _time
from typing import Sequence

import numpy as np

from repro import obs as _obs
from repro.flowsim.maxmin import Flow, ResidualSolver, capacities_of
from repro.hybrid.background import BackgroundFlow, BackgroundSchedule, HybridError
from repro.routing.base import Router, RoutingError
from repro.sim.network import Network
from repro.sim.sources import PoissonSource
from repro.topology.base import Topology
from repro.units import BITS_PER_BYTE

#: Floor on a link's effective (residual) capacity, as a fraction of its
#: physical capacity.  Max-min can drive a residual to exactly zero,
#: which would stall foreground serialization forever; real transports
#: never let background traffic fully starve a link.
DEFAULT_MIN_RESIDUAL_FRACTION = 0.01

#: Flow-stats group under which oracle-mode background packets report.
BACKGROUND_GROUP = "background"

#: Packet size of oracle-mode background sources (an Ethernet MTU).
BACKGROUND_PACKET_BYTES = 1500.0


class HybridNetwork(Network):
    """A :class:`~repro.sim.network.Network` with flow-level background.

    ``background`` is the schedule of flow-level demands; foreground
    traffic is injected exactly as on a plain network (``send``,
    traffic sources).  ``hybrid`` selects the mode:

    * **hybrid** (``True``, the default): background rides the
      residual-capacity handoff described in the module docstring;
    * **oracle** (``False``): background materializes as per-flow
      Poisson packet sources — every packet simulated, group
      ``"background"`` so foreground stats stay separable.

    ``DEFAULT_MIN_RESIDUAL_FRACTION`` floors each link's effective
    capacity; ``record_timeline`` keeps the per-epoch residual timeline in
    :attr:`residual_timeline` (disable for the largest runs).
    """

    def __init__(
        self,
        topo: Topology,
        router: Router,
        background: "BackgroundSchedule | Sequence[BackgroundFlow] | None" = None,
        *,
        hybrid: bool = True,
        record_timeline: bool = True,
        **kwargs: object,
    ) -> None:
        super().__init__(topo, router, **kwargs)  # type: ignore[arg-type]
        if background is None:
            background = BackgroundSchedule(())
        elif not isinstance(background, BackgroundSchedule):
            background = BackgroundSchedule(background)
        self.background = background
        #: Whether background rides the flow-level handoff (read-only
        #: after init); ``False`` is the pure-packet oracle.
        self.hybrid_enabled = hybrid
        self.record_timeline = record_timeline
        #: Epoch boundaries processed so far (fault epochs included).
        self.epochs = 0
        #: Residual re-applications that actually changed a link.
        self.residual_epoch = 0
        #: Background flows skipped because no route existed when they
        #: started (or when a failure forced a re-path).
        self.background_unroutable = 0
        #: ``[(time, {directed link: new effective capacity})]`` — one
        #: entry per epoch that changed at least one link.
        self.residual_timeline: list[tuple[float, dict[tuple[str, str], float]]] = []
        #: Oracle-mode packet sources (empty in hybrid mode).
        self.background_sources: list[PoissonSource] = []

        self._solver: ResidualSolver | None = None
        # flow_id → (BackgroundFlow, fluid Flow with its current paths).
        self._active_bg: dict[int, tuple[BackgroundFlow, Flow]] = {}
        # Started flows that currently have no route (re-admitted on repair).
        self._parked_bg: dict[int, BackgroundFlow] = {}

        if self.hybrid_enabled:
            self._solver = ResidualSolver(capacities_of(topo))
            # The residual hand-off works on vectors in ``_link_rec``
            # order: each link's row in the solver, its floor, and the
            # effective capacity its record currently holds.
            self._rec_keys = list(self._link_rec)
            self._rec_rows = np.array(
                [self._solver.link_index[key] for key in self._rec_keys], dtype=np.intp
            )
            base = np.array([self._capacity[key] for key in self._rec_keys])
            self._floor_vec = DEFAULT_MIN_RESIDUAL_FRACTION * base
            self._eff_vec = base
            self._schedule_epoch_boundaries()
        else:
            if self.obs is not None:
                self.obs.incr("hybrid.fallback_oracle.arg")
            self._materialize_oracle_sources()

    # -- epoch machinery (hybrid mode) ---------------------------------------------

    def _schedule_epoch_boundaries(self) -> None:
        """Queue one boundary callback per distinct start/stop time."""
        events: dict[float, tuple[list, list]] = {}
        for flow in self.background:
            events.setdefault(flow.start, ([], []))[0].append(flow)
            events.setdefault(flow.stop, ([], []))[1].append(flow)
        self.engine.call_at_many(
            (time, self._epoch_boundary, (starts, stops))
            for time, (starts, stops) in sorted(events.items())
        )

    def _epoch_boundary(
        self, starts: list[BackgroundFlow], stops: list[BackgroundFlow]
    ) -> None:
        solver = self._solver
        for flow in stops:
            if flow.flow_id in self._active_bg:
                solver.remove_flow(flow.flow_id)
                del self._active_bg[flow.flow_id]
            self._parked_bg.pop(flow.flow_id, None)
        for flow in starts:
            self._admit(flow)
        self._apply_residuals()

    def _admit(self, flow: BackgroundFlow) -> None:
        """Add one background flow to the solver over its current routes."""
        try:
            paths = tuple(self.router.weighted_paths(flow.src, flow.dst))
        except RoutingError:  # partitioned, or its only uplink is cut
            paths = ()
        if not paths:
            self.background_unroutable += 1
            self._parked_bg[flow.flow_id] = flow
            return
        fluid = Flow(flow.flow_id, paths, flow.demand_bps)
        self._solver.add_flow(fluid)
        self._active_bg[flow.flow_id] = (flow, fluid)

    def _apply_residuals(self) -> None:
        """Re-solve and push residuals into the packet side's link records.

        A link's effective capacity is ``max(residual, floor)``,
        computed for the whole fabric in three vector operations; only
        links whose effective capacity moved are rewritten (the one
        per-link Python loop, in ``_link_rec`` order), and the
        compiled-plan caches are cleared only when a moved link lies on
        a compiled plan — an epoch that resolves to the same allocation,
        or that moves only links no foreground path crosses, costs
        nothing on the packet side.

        Armed observability records one ``hybrid.epoch`` span plus the
        re-solve count, duration, and links-changed tallies per call;
        an epoch that moved no link counts as ``hybrid.noop_epochs``.
        """
        o = self.obs
        start = _time.perf_counter() if o is not None else 0.0
        residual = self._solver.solve().residual_vec[self._rec_rows]
        eff_vec = np.where(residual < self._floor_vec, self._floor_vec, residual)
        moved = np.flatnonzero(eff_vec != self._eff_vec)
        self._eff_vec = eff_vec
        link_rec = self._link_rec
        rec_keys = self._rec_keys
        changed: dict[tuple[str, str], float] = {}
        for index, eff in zip(moved.tolist(), eff_vec[moved].tolist()):
            key = rec_keys[index]
            link_rec[key] = (BITS_PER_BYTE / eff, link_rec[key][1], eff)
            changed[key] = eff
        self.epochs += 1
        if changed:
            # Same invalidation fail_link performs, when a compiled plan
            # crosses a moved link: its per-hop ``ser`` (and per-size product
            # caches) must not survive a serialization change.
            # A plan that crosses none holds the numbers a recompile
            # would give it, and its bound flows the same routes.
            # Packets already in flight keep the plan they started with
            # — the documented approximation.
            moved_keys = changed.keys()
            if any(
                not moved_keys.isdisjoint(plan.keys)
                for plan in self._plans.values()
            ):
                self._invalidate_plans()
            self.residual_epoch += 1
            if self.record_timeline:
                self.residual_timeline.append((self.engine.now, changed))
        if o is not None:
            duration = _time.perf_counter() - start
            o.incr("hybrid.resolves")
            o.observe("hybrid.epoch_seconds", duration)
            if changed:
                o.incr("hybrid.residual_epochs")
                o.incr("hybrid.links_changed", len(changed))
            else:
                o.incr("hybrid.noop_epochs")
            tracer = _obs.tracer()
            if tracer is not None:
                tracer.add(
                    "hybrid.epoch", start, duration,
                    sim_time=self.engine.now, links_changed=len(changed),
                )

    # -- faults mutate the epoch too -----------------------------------------------

    def fail_link(self, u: str, v: str) -> int:
        already_dead = (u, v) in self._dead_links
        dropped = super().fail_link(u, v)
        if self._solver is not None and not already_dead:
            self._solver.fail_link(u, v)
            # Background flows crossing the cut re-path like foreground
            # packets detour; flows not crossing it keep their paths, so
            # the solver's incidence survives and the re-solve is the
            # cheap capacity-only incremental case.
            for fid in self._solver.flows_crossing(u, v):
                bg, _ = self._active_bg.pop(fid)
                self._solver.remove_flow(fid)
                self._admit(bg)
            self._apply_residuals()
        return dropped

    def repair_link(self, u: str, v: str) -> bool:
        repaired = super().repair_link(u, v)
        if self._solver is not None and repaired:
            self._solver.repair_link(u, v)
            # Parked flows (no route at start or after a cut) get another
            # chance; flows with routes keep them — no re-path on repair.
            now = self.engine.now
            for fid in sorted(self._parked_bg):
                flow = self._parked_bg[fid]
                if flow.stop > now:
                    try:
                        paths = tuple(
                            self.router.weighted_paths(flow.src, flow.dst)
                        )
                    except RoutingError:
                        continue
                    if paths:
                        del self._parked_bg[fid]
                        fluid = Flow(fid, paths, flow.demand_bps)
                        self._solver.add_flow(fluid)
                        self._active_bg[fid] = (flow, fluid)
            self._apply_residuals()
        return repaired

    # -- oracle mode -----------------------------------------------------------------

    def _materialize_oracle_sources(self) -> None:
        """Background flows as packet sources: the pure-packet baseline."""
        for flow in self.background:
            source = PoissonSource.at_bandwidth(
                self,
                flow.src,
                flow.dst,
                flow.demand_bps,
                size_bytes=BACKGROUND_PACKET_BYTES,
                group=BACKGROUND_GROUP,
                flow_id=flow.flow_id,
                seed=flow.flow_id,
                stop_at=flow.stop,
            )
            source.start(delay=flow.start)
            self.background_sources.append(source)

    # -- introspection ---------------------------------------------------------------

    @property
    def active_background(self) -> list[int]:
        """Ids of background flows currently in the solver, sorted."""
        return sorted(self._active_bg)

    def background_rates(self) -> dict[int, float]:
        """Current max-min rate of each active background flow (bps)."""
        if self._solver is None:
            raise HybridError("background rates exist only in hybrid mode")
        solution = self._solver.solve()
        return {fid: solution.rates[fid] for fid in self._active_bg}

    def effective_capacity(self, u: str, v: str) -> float:
        """The capacity foreground packets currently see on ``u → v``."""
        return self._link_rec[(u, v)][2]
