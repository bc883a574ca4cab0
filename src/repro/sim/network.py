"""Packet-level network simulation over a :class:`~repro.topology.base.Topology`.

The model, per forwarding hop:

* every directed link ``(u, v)`` has one **output port** at ``u`` with an
  unbounded FIFO queue, modelled as a ``busy_until`` timestamp — a packet
  occupies the port for its serialization time;
* a **store-and-forward** switch may begin transmitting a packet
  ``switch.latency`` after the packet's tail arrives;
* a **cut-through** switch may begin ``switch.latency`` after the header
  arrives — modelled as ``tail_arrival − min(ser_in, ser_out) +
  latency``, which both credits the cut-through savings and guarantees
  the output never outruns the input when link rates differ;
* servers relaying packets (BCube) behave like store-and-forward
  devices with the OS-stack forwarding latency (Table 2: ~15 µs);
* the destination server records the packet's end-to-end latency when
  the tail arrives (plus an optional receive-side host-stack latency).

Buffers are unbounded: congestion shows up as queueing delay, exactly
how the paper reports it (e.g. the "unbounded" latency growth past
saturation in Figure 20).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.routing.base import Path, Router
from repro.sim.engine import Engine
from repro.sim.fastpath import HopPlan, compile_plan
from repro import obs as _obs_layer
from repro.sim.stats import FaultRecorder, LatencyRecorder
from repro.sim.switch import SwitchModel, get_model
from repro.topology.base import Topology
from repro.topology.graph import shortest_path
from repro.units import BITS_PER_BYTE, MICROSECONDS, NANOSECONDS

if TYPE_CHECKING:
    from repro.telemetry.windows import TelemetryHub

#: OS network-stack forwarding latency charged to server relays
#: (paper Table 2, "OS Network Stack": 15 µs standard).
DEFAULT_SERVER_FORWARD_LATENCY = 15 * MICROSECONDS

#: Intra-datacenter propagation delay per hop (~20 m of fibre).
DEFAULT_PROPAGATION_DELAY = 100 * NANOSECONDS


class NetworkSimError(RuntimeError):
    """Raised for invalid send requests or malformed paths."""


@dataclass(slots=True, eq=False)
class Packet:
    """One simulated packet in flight (identity semantics: each injected
    packet is a distinct object, hashable for in-flight tracking)."""

    packet_id: int
    src: str
    dst: str
    size_bytes: float
    path: Path
    created_at: float
    group: str | None = None
    on_delivered: Callable[["Packet", float], None] | None = None
    hop: int = 0  # index into path of the node the packet currently sits at
    delivered_at: float | None = None
    dropped: bool = False  # severed mid-flight by a link failure
    rerouted: bool = False  # detoured around a dead link after injection
    plan: HopPlan | None = field(default=None, repr=False)  # compiled fast path
    #: INT-style per-hop stamps (node, queue depth seen, wait time) when
    #: telemetry is armed; ``None`` otherwise.
    stamps: list[tuple[str, int, float]] | None = field(default=None, repr=False)

    @property
    def latency(self) -> float:
        if self.delivered_at is None:
            raise NetworkSimError(f"packet {self.packet_id} not delivered yet")
        return self.delivered_at - self.created_at


@dataclass(slots=True)
class PortState:
    """Transmission state of one directed link's output port."""

    busy_until: float = 0.0
    packets_sent: int = 0
    bytes_sent: float = field(default=0.0)


class Network:
    """Executable network: topology + router + event engine."""

    #: Nodes whose arrival events this network processes; ``None`` means
    #: the whole fabric.  A subclass that narrows it (a shard) overrides
    #: :meth:`_tail_out` to take the packets that leave.
    owned: "frozenset[str] | None" = None

    #: Cap on bound flows (see :meth:`send`).  One entry serves every
    #: later packet of its flow, so the table is sized for the flows
    #: alive at once, not for a run's packet count: a stream of one-shot
    #: flow ids (``vary_flow_per_packet``) fills it and then falls
    #: through to the router, whose own memo has the larger
    #: ``Router.ROUTE_CACHE_LIMIT``.
    FLOW_TABLE_LIMIT = 65_536

    def __init__(
        self,
        topo: Topology,
        router: Router,
        propagation_delay: float = DEFAULT_PROPAGATION_DELAY,
        server_forward_latency: float = DEFAULT_SERVER_FORWARD_LATENCY,
        host_receive_latency: float = 0.0,
        telemetry: bool = False,
    ) -> None:
        """Packets walk compiled per-path
        :class:`~repro.sim.fastpath.HopPlan` chains through one
        forwarding kernel (:meth:`_hop`).  :meth:`run` also tries the
        port-major pass, which needs disarmed telemetry; ``engine.run``
        never does.  The two forms are bit-identical.

        ``telemetry=True`` arms the in-fabric telemetry layer
        (:mod:`repro.telemetry`): per-port windowed queue monitors and
        INT-style per-packet stamping.  The network reports into the
        :mod:`repro.obs` registry armed when it is built (``obs.arm()``),
        if any.  Nothing in the environment arms either layer, and both
        are strictly observational: armed runs stay
        fingerprint-identical to disarmed runs."""
        self.topo = topo
        self.router = router
        self.engine = Engine()
        self.propagation_delay = propagation_delay
        self.server_forward_latency = server_forward_latency
        self.host_receive_latency = host_receive_latency
        self.stats = LatencyRecorder()
        self.fault_stats = FaultRecorder()
        #: Armed telemetry hub (:class:`repro.telemetry.TelemetryHub`),
        #: or ``None`` — the disabled state costs one attribute check
        #: per transmit and changes no simulation result either way.
        #: The layer is imported only to arm a hub.
        self.telemetry: TelemetryHub | None = None
        if telemetry:
            from repro.telemetry.windows import TelemetryHub

            self.telemetry = TelemetryHub()
        self.packets_delivered = 0
        self.packets_dropped = 0
        self.packets_dropped_fault = 0
        self.packets_rerouted = 0
        self.packets_unroutable = 0
        #: Windows the port-major pass declined, by reason
        #: (:mod:`repro.sim.portmajor`): counted armed or not, so a run
        #: that fell back to the event loop says why; an armed
        #: :mod:`repro.obs` registry mirrors it as
        #: ``batch.standdown.<reason>``.
        self.standdowns: dict[str, int] = {}
        #: Flows that found the flow table full (``FLOW_TABLE_LIMIT``)
        #: and fell through to the router: counted armed or not; an
        #: armed registry mirrors it as ``fastpath.flow_table_full``.
        self.flow_table_full = 0
        # Fault-injection state.  Tracking in-flight packets costs one
        # set add/discard per hop, so it stays off until a FaultInjector
        # (or a direct fail_link caller) arms it.
        self._track_in_flight = False
        self._dead_links: set[tuple[str, str]] = set()
        self._removed_edges: dict[tuple[str, str], dict] = {}
        # Directed link -> packets on it.  Compiled plans bind these
        # sets (``HopPlan.flights``) and packets in flight outlive their
        # plan's cache entry, so a link's set is created once and only
        # ever emptied — never popped or replaced.
        self._in_flight: dict[tuple[str, str], set[Packet]] = {}
        self._detour_cache: dict[tuple[str, str], Path | None] = {}
        self._next_packet_id = 0
        self._ports: dict[tuple[str, str], PortState] = {}
        self._capacity: dict[tuple[str, str], float] = {}
        # Per-directed-link record on the forwarding hot path:
        # (serialization factor = 8 / capacity, output port, capacity).
        self._link_rec: dict[tuple[str, str], tuple[float, PortState, float]] = {}
        for link in topo.links():
            for key in ((link.u, link.v), (link.v, link.u)):
                self._capacity[key] = link.capacity
                port = self._ports[key] = PortState()
                self._link_rec[key] = (
                    BITS_PER_BYTE / link.capacity, port, link.capacity
                )
        self._switch_models: dict[str, SwitchModel] = {}
        # Per-node forwarding record: (cut_through, processing latency);
        # server relays behave like store-and-forward OS stacks.
        self._hop_rec: dict[str, tuple[bool, float]] = {}
        for switch in topo.switches():
            model = get_model(topo.switch_model(switch) or "ULL")
            self._switch_models[switch] = model
            self._hop_rec[switch] = (model.cut_through, model.latency)
        for server in topo.servers():
            self._hop_rec[server] = (False, server_forward_latency)
        # Compiled forwarding plans, one per unique path, and the flows
        # bound to them: (src, dst, flow_id) -> (route, plan).  Both are
        # dropped by _invalidate_plans, so fault churn cannot grow a
        # stale cache or strand a flow on a dead route.
        self._plans: dict[Path, HopPlan] = {}
        self._flows: dict[tuple[str, str, int], tuple[Path, HopPlan]] = {}
        #: The metrics registry this network reports into, or ``None``
        #: — same one-attribute-check dormant contract as telemetry.
        self.obs = _obs_layer.registry()

    # -- injection ------------------------------------------------------------------

    def send(
        self,
        src: str,
        dst: str,
        size_bytes: float,
        flow_id: int = 0,
        group: str | None = None,
        path: Path | None = None,
        on_delivered: Callable[[Packet, float], None] | None = None,
    ) -> Packet:
        """Inject one packet at ``src`` addressed to ``dst``, now.

        The path comes from the router (keyed by ``flow_id``) unless an
        explicit ``path`` is supplied.  The router is asked once per flow
        per fault epoch: its answer and the compiled plan stay bound to
        ``(src, dst, flow_id)`` until a cut, a repair or a hybrid residual
        change drops every binding (:meth:`_bind`), so a later packet of
        the flow costs one probe.
        An explicit ``path`` is resolved afresh every time and never
        bound.
        """
        if size_bytes <= 0:
            raise NetworkSimError(f"packet size must be positive, got {size_bytes}")
        bound = self._flows.get((src, dst, flow_id)) if path is None else None
        if bound is None:
            route, plan = self._bind(src, dst, flow_id, path)
        else:
            route, plan = bound
            if self.obs is not None:
                self.obs.incr("fastpath.plan_hits")
        packet_id = self._next_packet_id
        self._next_packet_id = packet_id + 1
        engine = self.engine
        now = engine.now
        packet = Packet(
            packet_id=packet_id,
            src=src,
            dst=dst,
            size_bytes=size_bytes,
            path=route,
            created_at=now,
            group=group,
            on_delivered=on_delivered,
            plan=plan,
        )
        arrival = self._hop(packet, now)
        if arrival is not None:
            engine.chain_at(arrival, self._hop, packet)
        return packet

    def _bind(
        self, src: str, dst: str, flow_id: int, path: Path | None
    ) -> "tuple[Path, HopPlan]":
        """Resolve one injection in full: route, endpoint checks, plan.

        :meth:`send` comes here when the flow is not bound (first packet
        of a flow in this fault epoch, explicit ``path=``, table full).
        A router-chosen route and its compiled plan
        are bound to ``(src, dst, flow_id)`` until the next
        :meth:`_invalidate_plans`; an unroutable pair raises before
        anything is stored, so a ``RoutingError`` is never cached.
        """
        route = path if path is not None else self.router.route(src, dst, flow_id)
        if route[0] != src or route[-1] != dst:
            raise NetworkSimError(f"path {route} does not join {src!r} → {dst!r}")
        if type(route) is not tuple:
            route = tuple(route)
        plan = self._plans.get(route)
        if plan is None:
            plan = self._compile_plan(route)
        elif self.obs is not None:
            self.obs.incr("fastpath.plan_hits")
        if path is None:
            if len(self._flows) < self.FLOW_TABLE_LIMIT:
                self._flows[(src, dst, flow_id)] = (route, plan)
            else:
                self.flow_table_full += 1
                if self.obs is not None:
                    self.obs.incr("fastpath.flow_table_full")
        return route, plan

    def note_unroutable(self, group: str | None = None) -> None:
        """Count one packet the router had no path for (partitioned mesh).

        Traffic sources call this instead of letting a
        :class:`~repro.routing.base.RoutingError` abort the run: under
        enough simultaneous fibre cuts a pair can be genuinely
        disconnected, and its offered load is simply lost until a
        repair reconnects it.
        """
        self.packets_unroutable += 1
        self.packets_dropped += 1
        self.packets_dropped_fault += 1
        if self.telemetry is not None:
            self.telemetry.on_unroutable()
        if self.obs is not None:
            self.obs.incr("drops.unroutable")
        if self._track_in_flight:
            self.fault_stats.record_drop(group, self.engine.now)

    # -- forwarding kernel ------------------------------------------------------------

    def _compile_plan(self, route: Path) -> HopPlan:
        """Compile and cache the hop plan for one path."""
        if self.obs is not None:
            self.obs.incr("fastpath.plan_compiles")
        plan = compile_plan(
            self._link_rec, self._hop_rec, self._in_flight, route, self.owned
        )
        self._plans[route] = plan
        return plan

    def _invalidate_plans(self) -> None:
        """Drop everything compiled against the links as they were: hop
        plans and the flows bound to them.  The
        one invalidation path — cut, repair, and hybrid residual change
        all come here.  Packets in flight keep the plan they carry.
        """
        self._plans.clear()
        self._flows.clear()
        if self.obs is not None:
            self.obs.incr("fastpath.plan_invalidations")

    def _tail_out(self, packet: Packet, arrival: float) -> "float | None":
        """Tail-out extension point: ``packet`` (at ``path[hop]``) is on
        its port, due at the next node at ``arrival``.  Return the time
        to schedule the local arrival at, or ``None`` to take the packet
        out of this event loop (a shard crossing).  The kernel asks only
        on ``plan.foreign`` hops: those whose next node is another
        shard's.
        """
        return arrival

    def _hop(self, packet: Packet, earliest_start: float | None = None) -> "float | None":
        """The forwarding kernel: one plan-walking step of one packet.

        A chained engine step (:meth:`Engine.chain_at`): called with the
        packet alone, its tail just arrived at the next node — deliver
        it, or clock it onto the next port; :meth:`send` and detours
        pass ``earliest_start`` to clock it out of the node it sits at.
        Returns the next arrival time, or ``None`` when the chain ends
        (delivered, dropped, severed, handed to another shard).  The
        arithmetic is DESIGN.md §5's switch spec, which the independent
        model in the tests is written from; the per-node delay is the
        plan's affine ``now + size * latf + lat`` (see
        :mod:`repro.sim.fastpath`).
        """
        plan = packet.plan
        hop = packet.hop
        size = packet.size_bytes
        track = self._track_in_flight
        if earliest_start is None:
            if packet.dropped:
                return None  # severed by a link failure while in flight
            if track:
                plan.flights[hop].discard(packet)
            hop += 1
            packet.hop = hop
            now = self.engine.now
            if hop == plan.last:
                delivered = packet.delivered_at = now + self.host_receive_latency
                self.packets_delivered += 1
                self.stats.record(delivered - packet.created_at, packet.group)
                if packet.stamps is not None:
                    self.stats.record_stamps(packet.group, packet.stamps)
                if track:
                    self.fault_stats.record_delivery(packet.group, now)
                if packet.on_delivered is not None:
                    packet.on_delivered(packet, delivered)
                return None
            earliest_start = now + size * plan.latf[hop] + plan.lat[hop]
        if self._dead_links and plan.keys[hop] in self._dead_links:
            return self._reroute_or_drop(packet, earliest_start)
        port = plan.ports[hop]
        start = port.busy_until
        if start < earliest_start:
            start = earliest_start
        tail_out = start + size * plan.ser[hop]
        port.busy_until = tail_out
        port.packets_sent += 1
        port.bytes_sent += size
        tele = self.telemetry
        if tele is not None:
            # ``tele.monitor`` inlined: one frame per armed hop, not two.
            monitor = tele.monitors.get(plan.keys[hop])
            if monitor is None:
                monitor = tele.monitor(plan.keys[hop])
            depth, wait = monitor.record_enqueue(
                packet.group, size, earliest_start, start, tail_out
            )
            stamps = packet.stamps
            if stamps is None:
                stamps = packet.stamps = []
            stamps.append((plan.path[hop], depth, wait))
        if track:
            plan.flights[hop].add(packet)
        arrival = tail_out + self.propagation_delay
        if plan.foreign is not None and plan.foreign[hop]:
            return self._tail_out(packet, arrival)
        return arrival

    # -- runtime faults ---------------------------------------------------------------

    def enable_fault_tracking(self) -> None:
        """Arm in-flight packet tracking so link failures can sever packets.

        Called by :class:`repro.sim.faults.FaultInjector` at attach time;
        call it manually before injecting traffic if driving
        :meth:`fail_link` directly.  Packets transmitted before arming
        are invisible to subsequent cuts.
        """
        self._track_in_flight = True

    def link_is_down(self, u: str, v: str) -> bool:
        """Whether the link ``u`` — ``v`` is currently torn down."""
        return (u, v) in self._dead_links

    def fail_link(self, u: str, v: str) -> int:
        """Tear down the link ``u`` — ``v`` mid-run; returns packets dropped.

        Packets queued on or crossing the link (either direction) are
        dropped and counted; the link disappears from the topology graph
        so recomputed routes avoid it; the router's memoized picks and
        path caches for affected pairs are invalidated.  Idempotent —
        failing a dead link is a no-op returning 0.
        """
        if (u, v) in self._dead_links:
            return 0
        data = self.topo.graph.get_edge_data(u, v)
        if data is None:
            raise NetworkSimError(f"no link {u!r} -- {v!r} to fail")
        self.enable_fault_tracking()
        now = self.engine.now
        self._removed_edges[(u, v)] = dict(data)
        self.topo.graph.remove_edge(u, v)
        self._dead_links.add((u, v))
        self._dead_links.add((v, u))
        dropped = 0
        for key in ((u, v), (v, u)):
            flight = self._in_flight.get(key)
            if flight:
                for packet in flight:
                    packet.dropped = True
                    self.fault_stats.record_drop(packet.group, now)
                    if self.telemetry is not None:
                        self.telemetry.on_drop(key, packet.group, now)
                dropped += len(flight)
                flight.clear()  # emptied in place: plans hold this set
            # The severed queue drains to nowhere: the port is idle for
            # whatever transmits after a repair.
            self._ports[key].busy_until = now
        self.packets_dropped_fault += dropped
        self.packets_dropped += dropped
        self._detour_cache.clear()
        self._invalidate_plans()
        self.router.invalidate_links([(u, v)])
        self.fault_stats.log(
            now, "link_down", link=(u, v), detail=f"dropped {dropped} in flight"
        )
        if self.obs is not None:
            self.obs.incr("faults.link_down")
            if dropped:
                self.obs.incr("faults.packets_severed", dropped)
        return dropped

    def repair_link(self, u: str, v: str) -> bool:
        """Restore a link previously torn down by :meth:`fail_link`.

        Returns ``False`` (a no-op) if the link is not currently down.
        Route caches are flushed so flows may fall back onto the repaired
        channel.
        """
        if (u, v) not in self._dead_links:
            return False
        data = self._removed_edges.pop((u, v), None)
        if data is None:
            data = self._removed_edges.pop((v, u))
        self.topo.graph.add_edge(u, v, **data)
        self._dead_links.discard((u, v))
        self._dead_links.discard((v, u))
        self._detour_cache.clear()
        self._invalidate_plans()
        self.router.invalidate_links([(u, v)], repaired=True)
        self.fault_stats.log(self.engine.now, "link_up", link=(u, v))
        if self.obs is not None:
            self.obs.incr("faults.link_up")
        return True

    def _reroute_or_drop(self, packet: Packet, earliest_start: float) -> "float | None":
        """A packet's next hop is dead: detour over live links, else drop.

        The detour is the deterministic shortest path from the packet's
        current node to its destination over the surviving topology
        (memoized until the next fault event).  Packets with no
        surviving path are dropped and counted.  Returns as :meth:`_hop`
        does: the detour's first arrival time for the chain to continue
        on, or ``None`` (dropped).
        """
        node = packet.path[packet.hop]
        key = (node, packet.dst)
        detour = self._detour_cache.get(key, False)
        if detour is False:
            detour = tuple(shortest_path(self.topo.graph, node, packet.dst)) or None
            self._detour_cache[key] = detour
        if detour is None:
            self.packets_dropped_fault += 1
            self.packets_dropped += 1
            self.fault_stats.record_drop(packet.group, self.engine.now)
            if self.telemetry is not None:
                # Charge the drop to the dead link the packet could not
                # cross — the port a diagnosis should point at.
                self.telemetry.on_drop(
                    (node, packet.path[packet.hop + 1]),
                    packet.group,
                    self.engine.now,
                )
            return None
        hop = packet.hop
        if hop:
            cut_through, latency = self._hop_rec[node]
            if cut_through:
                # The caller's cut-through credit was min(ser_in, ser_out)
                # of the dead link; a faster detour link must not start
                # (and finish) before the packet has arrived.
                size = packet.size_bytes
                ser_in = size * self._link_rec[(packet.path[hop - 1], node)][0]
                ser_out = size * self._link_rec[(node, detour[1])][0]
                earliest_start = (
                    self.engine.now - (ser_in if ser_in < ser_out else ser_out) + latency
                )
        packet.path = detour
        packet.hop = 0
        if not packet.rerouted:
            packet.rerouted = True
            self.packets_rerouted += 1
            self.fault_stats.record_reroute(packet.group, self.engine.now)
        packet.plan = self._plans.get(detour) or self._compile_plan(detour)
        return self._hop(packet, earliest_start)

    # -- introspection ---------------------------------------------------------------

    def port_utilization(self, u: str, v: str, horizon: float) -> float:
        """Fraction of ``horizon`` the port ``u → v`` spent transmitting."""
        port = self._ports.get((u, v))
        if port is None or horizon <= 0:
            return 0.0
        capacity = self._capacity[(u, v)]
        return min(1.0, (port.bytes_sent * 8 / capacity) / horizon)

    def run(self, until: float | None = None) -> None:
        """Run the simulation to ``until`` (or dry).

        The horizon is shared between two executors.  The port-major pass
        (:func:`repro.sim.portmajor.advance`) owns the queue's **roots**
        — the fire chains of single-destination Poisson sources and the
        packets in flight — and solves them port by port, one budgeted
        window after another, up to the first **foreign** entry: a
        timer, another kind of chain, a packet that is severed, stamped
        or about to meet a dead link, a source's ``stop_at``.  A foreign
        entry bounds a window; it does not veto it.  The event loop then
        runs to where the pass is worth trying again — the first foreign
        time that starts a gap wide enough to hold a budgeted window —
        and the two alternate until no such gap is left, which is when
        the engine finishes the horizon as usual: one heap scan per
        solved window and one per such gap, however many timers are
        queued.  Results are bit-identical either way, and a window the
        pass declines is left untouched.  Only this method tries the
        pass: ``engine.run`` always dispatches event by event, which
        makes it the pass's reference.
        """
        from repro.sim import portmajor  # imports this module

        engine = self.engine
        while True:
            _, resume = portmajor.advance(self, until)
            if resume is None:
                break
            engine.run(until=resume)
        engine.run(until=until)
