"""Conservative-window parallel DES: shard one simulation across processes.

:mod:`repro.runner` parallelizes *across* independent sweep cells; this
module parallelizes *within* one big simulation.  The fabric graph is
cut into per-rack shards (:func:`partition_racks`), each shard runs its
own :class:`~repro.sim.engine.Engine` + :class:`ShardNetwork` in a
pinned worker process, and a coordinator advances all shards in
conservative time windows bounded by the minimum cross-shard lookahead.

Why this is safe — the lookahead argument
-----------------------------------------
Quartz's physics gives every inter-switch link a nonzero delay.  A
packet transmitted at a boundary node ``u`` at local time ``now``
cannot reach the peer shard before

* ``now + latency(u) + propagation`` when ``u`` is a switch — the
  cut-through credit ``-min(ser_in, ser_out)`` never exceeds the output
  serialization the tail still has to pay, and a store-and-forward
  switch only adds to that;
* ``now + min_size * 8 / capacity + propagation`` when ``u`` is a
  server — injection pays at least the smallest packet's serialization
  (server *relays* additionally pay the OS-stack latency, which is
  larger still).

The **lookahead** ``L`` (:func:`lookahead`) is the minimum of those
bounds over every directed boundary link.  Each window starts from the
global next-event time ``N`` (the minimum over shard ``peek_time`` and
pending boundary arrivals) and runs every shard to ``w = min(N + L,
duration)``.  Any boundary packet *generated* inside the window has
generation time ``>= N``, hence arrival ``>= N + L >= w`` — so
exchanging outboxes only at window barriers never delivers a message
late.  Jumping to ``N`` instead of creeping ``L`` at a time makes the
number of windows proportional to traffic, not to ``duration / L``.

Determinism — the fingerprint contract
--------------------------------------
Within a shard, events replay in exactly the serial order (same engine,
same callbacks, same floats: every per-port ``busy_until`` chain is
owned by exactly one shard, and a crossing is clocked by the same
inherited kernel as any other transmit).  Across shards,
inbound boundary messages are sorted by ``(arrival, origin_shard,
emit_seq)`` before scheduling, so tie order is a pure function of the
scenario.  :meth:`RunResult.fingerprint` therefore matches the serial
reference bit for bit — the same discipline the fastpath, batch, and
hybrid layers established, enforced by ``tests/sim/test_parallel.py``.

Fault churn crosses shards too: every shard arms the *full* fault
timeline (cuts and repairs are deterministic plan-derived events, cheap
to replay everywhere), so a :class:`~repro.sim.faults.SegmentCut` on a
boundary link invalidates both shards' plans at the same simulated
instant.  A boundary packet severed after transmission is dropped and
counted by the *sending* shard's ``fail_link`` and skipped at the next
barrier; the fault-event duplication is subtracted exactly from the
merged ``events_processed``.  Per-flow recovery *times* are the one
statistic not merged: a recovery window can open in one shard and close
in another, so they are intentionally outside the fingerprint.

:func:`run_serial` is the single-process reference execution every
sharded run must match.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

import repro.topology as T
from repro import obs as _obs
from repro.core.multiring import plan_rings
from repro.obs.tracing import Span
from repro.routing import ECMPRouter, KShortestPathsRouter, VLBRouter
from repro.routing.base import Router
from repro.runner.pool import PinnedPool
from repro.sim.engine import Engine
from repro.sim.faults import FaultInjector, SegmentCut
from repro.sim.network import (
    DEFAULT_PROPAGATION_DELAY,
    Network,
    Packet,
)
from repro.sim.sources import DEFAULT_PACKET_BYTES, PoissonSource
from repro.sim.switch import get_model
from repro.topology.base import Topology
from repro.units import BITS_PER_BYTE

#: Multiplier shaving the analytic lookahead by one part in 10^9: the
#: per-hop bound holds in exact arithmetic, and the float evaluation of
#: ``start + ser + propagation`` can round each step by at most a few
#: ulp (parts in 10^16) — a nanoscale margin keeps the inequality safe
#: without measurably shrinking windows.
LOOKAHEAD_SAFETY = 1.0 - 1e-9

#: Fabric builders a picklable :class:`ParallelScenario` may name.
#: Scenarios carry the *name* + args, never the topology object, so a
#: worker process reconstructs its own graph (and the builders'
#: artifact cache makes reconstruction cheap).
FABRICS: dict[str, Callable[..., Topology]] = {
    "quartz-ring": T.quartz_ring,
    "quartz-in-edge": T.quartz_in_edge,
    "quartz-dual-tor": T.quartz_dual_tor,
}

#: Router factories a scenario may name (all deterministic + memoized).
ROUTERS: dict[str, Callable[[Topology], Router]] = {
    "ecmp": ECMPRouter,
    "kshortest": KShortestPathsRouter,
    "vlb": VLBRouter,
}


class ParallelSimError(RuntimeError):
    """Raised for invalid shard configurations or lookahead violations."""


# -- partitioning -----------------------------------------------------------------


def partition_racks(topo: Topology, num_shards: int) -> tuple[frozenset[str], ...]:
    """Cut the fabric into ``num_shards`` contiguous-rack shards.

    Every node carrying an integer ``rack`` attribute goes with its
    rack; racks are split into contiguous, balanced index ranges (the
    Quartz ring numbers ToRs around the physical ring, so contiguous
    ranges minimize boundary channels for near-neighbour wavelength
    assignments).  Rack-less nodes (aggregation/core tiers) ride with
    shard 0.  The partition is a pure function of the topology, so every
    process derives the same cut independently.
    """
    if num_shards < 1:
        raise ParallelSimError(f"need at least one shard, got {num_shards}")
    by_rack: dict[int, list[str]] = {}
    unracked: list[str] = []
    for node in topo.graph:
        rack = topo.graph.nodes[node].get("rack")
        if rack is None:
            unracked.append(node)
        else:
            by_rack.setdefault(rack, []).append(node)
    racks = sorted(by_rack)
    if len(racks) < num_shards:
        raise ParallelSimError(
            f"{num_shards} shards need at least as many racks; "
            f"topology {topo.name!r} has {len(racks)}"
        )
    base, extra = divmod(len(racks), num_shards)
    parts: list[frozenset[str]] = []
    lo = 0
    for shard in range(num_shards):
        hi = lo + base + (1 if shard < extra else 0)
        nodes: list[str] = []
        for rack in racks[lo:hi]:
            nodes.extend(by_rack[rack])
        if shard == 0:
            nodes.extend(unracked)
        parts.append(frozenset(nodes))
        lo = hi
    return tuple(parts)


def _owner_map(parts: Sequence[frozenset[str]]) -> dict[str, int]:
    return {node: index for index, part in enumerate(parts) for node in part}


def boundary_links(
    topo: Topology, parts: Sequence[frozenset[str]]
) -> tuple[tuple[str, str], ...]:
    """Directed links whose endpoints live in different shards, sorted."""
    owner = _owner_map(parts)
    out: list[tuple[str, str]] = []
    for u, v in topo.graph.edges():
        if owner[u] != owner[v]:
            out.append((u, v))
            out.append((v, u))
    return tuple(sorted(out))


def lookahead(
    topo: Topology,
    parts: Sequence[frozenset[str]],
    propagation_delay: float = DEFAULT_PROPAGATION_DELAY,
    min_packet_bytes: float = DEFAULT_PACKET_BYTES,
) -> float:
    """Minimum cross-shard delivery delay (the window width bound).

    Per directed boundary link ``(u, v)``: propagation plus the
    transmitting node's floor — the switch processing latency at ``u``
    (cut-through credit cannot beat it; see module docstring), or the
    smallest packet's serialization when ``u`` is a server injecting
    straight onto a boundary link.  Returns ``inf`` when no link
    crosses shards (a single-shard "partition").
    """
    if propagation_delay <= 0:
        raise ParallelSimError(
            f"conservative windows need positive propagation delay, "
            f"got {propagation_delay}"
        )
    if min_packet_bytes <= 0:
        raise ParallelSimError(
            f"minimum packet size must be positive, got {min_packet_bytes}"
        )
    owner = _owner_map(parts)
    best = math.inf
    for u, v, data in topo.graph.edges(data=True):
        if owner[u] == owner[v]:
            continue
        for sender in (u, v):
            if topo.is_server(sender):
                floor = min_packet_bytes * BITS_PER_BYTE / data["capacity"]
            else:
                floor = get_model(topo.switch_model(sender) or "ULL").latency
            bound = propagation_delay + floor
            if bound < best:
                best = bound
    if best is math.inf:
        return math.inf
    return best * LOOKAHEAD_SAFETY


# -- scenario ----------------------------------------------------------------------


@dataclass(frozen=True)
class SourceSpec:
    """One Poisson traffic source, as picklable plain data.

    Mirrors the :class:`~repro.sim.sources.PoissonSource` constructor
    arguments a sharded scenario supports (single destination, no
    delivery callbacks — those close over process-local state).
    """

    src: str
    dst: str
    rate_pps: float
    size_bytes: float = DEFAULT_PACKET_BYTES
    group: str | None = None
    flow_id: int = 0
    seed: int = 0
    stop_at: float | None = None


@dataclass(frozen=True)
class ParallelScenario:
    """A complete, picklable description of one shardable simulation.

    Workers rebuild the fabric and router from ``fabric``/``router``
    registry names (:data:`FABRICS` / :data:`ROUTERS`) — topologies are
    never shipped across process boundaries.  ``fault_plan`` names the
    ``(ring_size, num_rings)`` of the :func:`repro.core.multiring.plan_rings`
    layout the ``fault_cuts`` index into; every shard replays the whole
    fault timeline so cross-boundary cuts hit both sides at the same
    simulated instant.
    """

    fabric: str
    fabric_args: tuple = ()
    router: str = "ecmp"
    sources: tuple[SourceSpec, ...] = ()
    duration: float = 5e-3
    propagation_delay: float = DEFAULT_PROPAGATION_DELAY
    fault_cuts: tuple[SegmentCut, ...] = ()
    fault_plan: tuple[int, int | None] | None = None

    def __post_init__(self) -> None:
        if self.fabric not in FABRICS:
            raise ParallelSimError(
                f"unknown fabric {self.fabric!r}; known: {sorted(FABRICS)}"
            )
        if self.router not in ROUTERS:
            raise ParallelSimError(
                f"unknown router {self.router!r}; known: {sorted(ROUTERS)}"
            )
        if self.duration <= 0:
            raise ParallelSimError(f"duration must be positive, got {self.duration}")
        if self.fault_cuts and self.fault_plan is None:
            raise ParallelSimError("fault_cuts need a fault_plan to index into")

    def build_topology(self) -> Topology:
        return FABRICS[self.fabric](*self.fabric_args)

    def build_router(self, topo: Topology) -> Router:
        return ROUTERS[self.router](topo)

    def min_packet_bytes(self) -> float:
        if not self.sources:
            return DEFAULT_PACKET_BYTES
        return min(spec.size_bytes for spec in self.sources)


def _make_source(network: Network, spec: SourceSpec) -> PoissonSource:
    return PoissonSource(
        network,
        spec.src,
        spec.dst,
        rate_pps=spec.rate_pps,
        size_bytes=spec.size_bytes,
        group=spec.group,
        flow_id=spec.flow_id,
        seed=spec.seed,
        stop_at=spec.stop_at,
    )


def _attach_faults(network: Network, scenario: ParallelScenario) -> int:
    """Arm the scenario's fault timeline; returns the engine events it adds.

    Only events landing within the scenario duration count — later cuts
    or repairs are scheduled but never popped, in serial and in every
    shard alike, so they must not enter the duplicate-event adjustment.
    """
    if not scenario.fault_cuts:
        return 0
    ring_size, num_rings = scenario.fault_plan
    plan = plan_rings(ring_size, num_rings)
    injector = FaultInjector(network, plan)
    injector.schedule(scenario.fault_cuts)
    count = 0
    for cut in scenario.fault_cuts:
        if cut.start <= scenario.duration:
            count += 1
        if cut.repair_at is not None and cut.repair_at <= scenario.duration:
            count += 1
    return count


# -- boundary channel --------------------------------------------------------------


class BoundaryMessage(NamedTuple):
    """One packet crossing a shard boundary, as picklable plain data.

    ``hop`` indexes the boundary link ``(path[hop], path[hop + 1])``
    the packet is traversing; the receiver reconstructs the
    :class:`~repro.sim.network.Packet` (and recompiles its hop plan —
    plans hold process-local port references and never travel) and
    schedules the arrival.  The leading ``(arrival, origin, seq)`` is
    the deterministic merge key at window barriers: ``(origin, seq)``
    is unique, so plain tuple ordering never compares a later field.
    """

    arrival: float
    origin: int
    seq: int
    packet_id: int
    src: str
    dst: str
    size_bytes: float
    path: tuple
    created_at: float
    group: str | None
    hop: int
    rerouted: bool


class ShardNetwork(Network):
    """A :class:`Network` owning one shard of the fabric.

    No forwarding method is overridden, only the tail-out extension
    point: when a packet's next node belongs to a foreign shard, the
    inherited transmit clocks the (locally owned) port as usual and
    :meth:`_tail_out` queues the crossing for the next barrier's
    :class:`BoundaryMessage` batch instead of a local arrival.
    """

    def __init__(
        self,
        topo: Topology,
        router: Router,
        owned: frozenset[str],
        shard_index: int = 0,
        **kwargs: object,
    ) -> None:
        super().__init__(topo, router, **kwargs)  # type: ignore[arg-type]
        if self.telemetry is not None:
            raise ParallelSimError("telemetry cannot arm inside a shard")
        self.owned = frozenset(owned)
        self.shard_index = shard_index
        #: Pending outbound crossings: ``(arrival, emit_seq, packet)``.
        self.outbox: list[tuple[float, int, Packet]] = []
        self._emit_seq = 0
        #: Arrival events the serial schedule would have processed but a
        #: shard never does: a fault severed the packet while it sat in
        #: the outbox, so its (early-returning) arrival event is never
        #: scheduled anywhere.  Folded back into the merged
        #: ``events_processed`` for exact equality with serial.
        self.suppressed_events = 0

    # -- boundary interception ---------------------------------------------------

    def _tail_out(self, packet: Packet, arrival: float) -> "float | None":
        if packet.path[packet.hop + 1] in self.owned:
            return arrival
        self.outbox.append((arrival, self._emit_seq, packet))
        self._emit_seq += 1
        return None

    # -- barrier protocol --------------------------------------------------------

    def drain_outbox(self, cutoff: float) -> list[BoundaryMessage]:
        """Collect this window's boundary crossings as picklable messages.

        Packets severed by a fault after transmission (``dropped``) were
        already counted by this shard's ``fail_link`` and are skipped —
        their never-scheduled arrival events are tallied in
        ``suppressed_events`` when the serial run would have popped them
        (arrival within ``cutoff``, the scenario duration).  Everything
        shipped is deregistered from in-flight tracking so a *later* cut
        on the boundary link cannot double-count a packet that now lives
        in the peer shard.
        """
        messages: list[BoundaryMessage] = []
        for arrival, seq, packet in self.outbox:
            hop = packet.hop
            key = (packet.path[hop], packet.path[hop + 1])
            if self._track_in_flight:
                flight = self._in_flight.get(key)
                if flight is not None:
                    flight.discard(packet)
            if packet.dropped:
                if arrival <= cutoff:
                    self.suppressed_events += 1
                continue
            messages.append(
                BoundaryMessage(
                    arrival, self.shard_index, seq, packet.packet_id,
                    packet.src, packet.dst, packet.size_bytes, packet.path,
                    packet.created_at, packet.group, hop, packet.rerouted,
                )
            )
        self.outbox = []
        return messages

    def receive_boundary(self, messages: Sequence[BoundaryMessage]) -> None:
        """Schedule inbound crossings (already barrier-sorted) as arrivals."""
        engine = self.engine
        now = engine.now
        for message in messages:
            if message.arrival < now:
                raise ParallelSimError(
                    f"lookahead violation: boundary arrival {message.arrival!r} "
                    f"before shard {self.shard_index} time {now!r}"
                )
            packet = Packet(
                packet_id=message.packet_id,
                src=message.src,
                dst=message.dst,
                size_bytes=message.size_bytes,
                path=message.path,
                created_at=message.created_at,
                group=message.group,
                hop=message.hop,
            )
            packet.rerouted = message.rerouted
            if self._track_in_flight:
                key = (message.path[message.hop], message.path[message.hop + 1])
                self._in_flight.setdefault(key, set()).add(packet)
            packet.plan = (
                self._plans.get(message.path) or self._compile_plan(message.path)
            )
            engine.chain_at(message.arrival, self._hop, packet)


# -- per-shard state ---------------------------------------------------------------


@dataclass
class StepReport:
    """What one shard reports back at a window barrier (picklable)."""

    outbox: list[BoundaryMessage]
    next_event: float
    busy_wall: float
    busy_cpu: float
    #: Observability spans drained from the shard's tracer this window
    #: (empty unless :mod:`repro.obs` is armed in the worker).
    spans: list = field(default_factory=list)


@dataclass
class ShardResult:
    """One shard's (or the serial reference's) final state, as plain data."""

    shard_index: int
    packets_delivered: int
    packets_dropped: int
    packets_dropped_fault: int
    packets_rerouted: int
    packets_unroutable: int
    next_packet_id: int
    events_processed: int
    fault_event_count: int
    suppressed_events: int
    #: Latencies as float64, in delivery order; per group, groups sorted.
    samples: np.ndarray
    by_group: tuple[tuple[str, np.ndarray], ...]
    port_state: tuple[tuple[tuple[str, str], int, float, float], ...]
    source_packets: tuple[tuple[int, int], ...]
    drops_by_flow: tuple[tuple[str | None, int], ...]
    reroutes_by_flow: tuple[tuple[str | None, int], ...]
    now: float
    #: Metrics-registry snapshot drained from the shard's process when
    #: :mod:`repro.obs` is armed (``None`` otherwise); merged into the
    #: coordinator's registry, never fingerprinted.
    obs: dict | None = None


def extract_result(
    network: Network,
    sources: Mapping[int, PoissonSource],
    fault_event_count: int,
    owned: frozenset[str] | None = None,
    shard_index: int = 0,
    obs_snapshot: dict | None = None,
) -> ShardResult:
    """Snapshot a finished network into a :class:`ShardResult`.

    ``owned`` filters the port table to directed links transmitted by
    this shard (each directed port is owned by exactly one shard, so
    the union over shards reconstructs the serial table exactly);
    ``None`` keeps everything — the serial reference.
    """
    ports = [
        (key, port.packets_sent, port.bytes_sent, port.busy_until)
        for key, port in network._ports.items()
        if owned is None or key[0] in owned
    ]
    ports.sort()
    return ShardResult(
        shard_index=shard_index,
        packets_delivered=network.packets_delivered,
        packets_dropped=network.packets_dropped,
        packets_dropped_fault=network.packets_dropped_fault,
        packets_rerouted=network.packets_rerouted,
        packets_unroutable=network.packets_unroutable,
        next_packet_id=network._next_packet_id,
        events_processed=network.engine.events_processed,
        fault_event_count=fault_event_count,
        suppressed_events=getattr(network, "suppressed_events", 0),
        samples=network.stats.array(),
        by_group=tuple((group, network.stats.array(group)) for group in network.stats.groups()),
        port_state=tuple(ports),
        source_packets=tuple(
            sorted((index, source.packets_sent) for index, source in sources.items())
        ),
        drops_by_flow=tuple(sorted(network.fault_stats.drops_by_flow.items(),
                                   key=lambda item: (item[0] is None, item[0]))),
        reroutes_by_flow=tuple(sorted(network.fault_stats.reroutes_by_flow.items(),
                                      key=lambda item: (item[0] is None, item[0]))),
        now=network.engine.now,
        obs=obs_snapshot,
    )


class ShardRuntime:
    """One shard's live simulation state, stepped window by window."""

    def __init__(
        self, scenario: ParallelScenario, shard_index: int, num_shards: int
    ) -> None:
        self.scenario = scenario
        self.shard_index = shard_index
        topo = scenario.build_topology()
        parts = partition_racks(topo, num_shards)
        owned = parts[shard_index]
        router = scenario.build_router(topo)
        self.network = ShardNetwork(
            topo,
            router,
            owned=owned,
            shard_index=shard_index,
            propagation_delay=scenario.propagation_delay,
        )
        self.sources: dict[int, PoissonSource] = {
            index: _make_source(self.network, spec)
            for index, spec in enumerate(scenario.sources)
            if spec.src in owned
        }
        self.fault_event_count = _attach_faults(self.network, scenario)
        for source in self.sources.values():
            source.start()

    def step(self, until: float, inbox: Sequence[BoundaryMessage]) -> StepReport:
        network = self.network
        # Only the spans this step records are this shard's to ship:
        # inline shards share the coordinator's tracer, whose buffer
        # holds every earlier window's spans too.
        tracer = _obs.tracer()
        mark = len(tracer) if tracer is not None else 0
        if inbox:
            network.receive_boundary(inbox)
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        network.engine.run(until=until)
        busy_cpu = time.process_time() - cpu0
        busy_wall = time.perf_counter() - wall0
        # Ship this window's spans home with the report; the spans carry
        # this worker's pid, so the merged trace keeps one lane per
        # shard.  The shard index becomes the Chrome trace tid.
        spans = tracer.drain(mark) if tracer is not None else []
        if spans and self.shard_index:
            spans = [
                Span(s.name, s.start, s.duration, s.pid,
                     self.shard_index, s.args)
                for s in spans
            ]
        return StepReport(
            outbox=network.drain_outbox(self.scenario.duration),
            next_event=network.engine.peek_time(),
            busy_wall=busy_wall,
            busy_cpu=busy_cpu,
            spans=spans,
        )

    def finish(self) -> ShardResult:
        registry = _obs.registry()
        return extract_result(
            self.network,
            self.sources,
            self.fault_event_count,
            owned=self.network.owned,
            shard_index=self.shard_index,
            obs_snapshot=registry.drain() if registry is not None else None,
        )


# -- worker-process plumbing -------------------------------------------------------

#: The shard living in this worker process (pinned-pool slot state).
_RUNTIME: ShardRuntime | None = None


def _worker_init_shard(
    scenario: ParallelScenario,
    shard_index: int,
    num_shards: int,
    arm_obs: bool = False,
) -> None:
    global _RUNTIME
    if arm_obs:
        # The coordinator is armed: arm this worker too, so shard-side
        # metrics and spans exist to ship home at barriers/finish.
        _obs.arm()
    _RUNTIME = ShardRuntime(scenario, shard_index, num_shards)


def _worker_ready() -> bool:
    return _RUNTIME is not None


def _worker_step(until: float, inbox: list[BoundaryMessage]) -> StepReport:
    return _RUNTIME.step(until, inbox)


def _worker_finish() -> ShardResult:
    return _RUNTIME.finish()


class _ImmediateFuture:
    """Future-shaped wrapper for inline (in-process) shard stepping."""

    __slots__ = ("_value",)

    def __init__(self, value: object) -> None:
        self._value = value

    def result(self) -> object:
        return self._value


class _InlineShard:
    def __init__(
        self, scenario: ParallelScenario, shard_index: int, num_shards: int
    ) -> None:
        self._runtime = ShardRuntime(scenario, shard_index, num_shards)

    def step(self, until: float, inbox: list) -> _ImmediateFuture:
        return _ImmediateFuture(self._runtime.step(until, inbox))

    def finish(self) -> _ImmediateFuture:
        return _ImmediateFuture(self._runtime.finish())


class _ProcessShard:
    def __init__(self, pool: PinnedPool, slot: int) -> None:
        self._pool = pool
        self._slot = slot

    def step(self, until: float, inbox: list):
        return self._pool.submit(self._slot, _worker_step, until, inbox)

    def finish(self):
        return self._pool.submit(self._slot, _worker_finish)


# -- merged results ----------------------------------------------------------------


@dataclass
class RunResult:
    """A finished scenario — serial or parallel, same shape either way.

    Everything :meth:`fingerprint` returns is deterministic simulation
    state; the timing fields (never fingerprinted) split the run into
    spin-up (pool + shard construction), compute (max over shards of
    in-window CPU seconds — immune to timesharing on small CI
    containers), and barrier coordination.
    """

    mode: str
    num_shards: int
    windows: int
    lookahead: float
    boundary_messages: int
    packets_delivered: int
    packets_dropped: int
    packets_dropped_fault: int
    packets_rerouted: int
    packets_unroutable: int
    next_packet_id: int
    events_processed: int
    #: Latencies as float64 sorted by value; per group, groups sorted.
    samples: np.ndarray
    by_group: tuple[tuple[str, np.ndarray], ...]
    port_state: tuple[tuple[tuple[str, str], int, float, float], ...]
    source_packets: tuple[tuple[int, int], ...]
    drops_by_flow: tuple[tuple[str | None, int], ...]
    reroutes_by_flow: tuple[tuple[str | None, int], ...]
    wall_seconds: float
    spinup_seconds: float
    compute_seconds: float
    barrier_seconds: float

    def fingerprint(self) -> tuple:
        """Deterministic run signature; parallel must equal serial exactly
        (the sorted latencies by their bytes: bit for bit)."""
        return (
            self.packets_delivered,
            self.packets_dropped,
            self.packets_dropped_fault,
            self.packets_rerouted,
            self.packets_unroutable,
            self.next_packet_id,
            self.events_processed,
            self.samples.tobytes(),
            tuple((group, values.tobytes()) for group, values in self.by_group),
            self.port_state,
            self.source_packets,
            self.drops_by_flow,
            self.reroutes_by_flow,
        )


def _merge_results(
    results: Sequence[ShardResult],
    *,
    mode: str,
    num_shards: int,
    windows: int,
    lookahead_seconds: float,
    boundary_messages: int,
    wall_seconds: float,
    spinup_seconds: float,
    compute_seconds: float,
    barrier_seconds: float,
) -> RunResult:
    """Combine shard snapshots into the canonical merged result.

    Counters sum; latency samples merge by sorted value (the canonical
    order — per-shard insertion order interleaves differently than
    serial, values do not); the port table unions (each directed port
    has exactly one owner); ``events_processed`` subtracts the fault
    timeline every extra shard replayed, which is the only duplicated
    event source.
    """
    fault_events = results[0].fault_event_count if results else 0
    events = sum(r.events_processed + r.suppressed_events for r in results)
    events -= (len(results) - 1) * fault_events
    samples = np.sort(np.concatenate([r.samples for r in results]))
    groups: dict[str, list[np.ndarray]] = {}
    for r in results:
        for group, values in r.by_group:
            groups.setdefault(group, []).append(values)
    by_group = tuple(
        (group, np.sort(np.concatenate(blocks))) for group, blocks in sorted(groups.items())
    )
    flow_drops: dict[str | None, int] = {}
    flow_reroutes: dict[str | None, int] = {}
    for r in results:
        for flow, count in r.drops_by_flow:
            flow_drops[flow] = flow_drops.get(flow, 0) + count
        for flow, count in r.reroutes_by_flow:
            flow_reroutes[flow] = flow_reroutes.get(flow, 0) + count
    sort_key = lambda item: (item[0] is None, item[0])  # noqa: E731
    return RunResult(
        mode=mode,
        num_shards=num_shards,
        windows=windows,
        lookahead=lookahead_seconds,
        boundary_messages=boundary_messages,
        packets_delivered=sum(r.packets_delivered for r in results),
        packets_dropped=sum(r.packets_dropped for r in results),
        packets_dropped_fault=sum(r.packets_dropped_fault for r in results),
        packets_rerouted=sum(r.packets_rerouted for r in results),
        packets_unroutable=sum(r.packets_unroutable for r in results),
        next_packet_id=sum(r.next_packet_id for r in results),
        events_processed=events,
        samples=samples,
        by_group=by_group,
        port_state=tuple(sorted(p for r in results for p in r.port_state)),
        source_packets=tuple(
            sorted(pair for r in results for pair in r.source_packets)
        ),
        drops_by_flow=tuple(sorted(flow_drops.items(), key=sort_key)),
        reroutes_by_flow=tuple(sorted(flow_reroutes.items(), key=sort_key)),
        wall_seconds=wall_seconds,
        spinup_seconds=spinup_seconds,
        compute_seconds=compute_seconds,
        barrier_seconds=barrier_seconds,
    )


# -- drivers -----------------------------------------------------------------------


def run_serial(scenario: ParallelScenario) -> RunResult:
    """The single-process reference execution every parallel run must match."""
    wall0 = time.perf_counter()
    topo = scenario.build_topology()
    router = scenario.build_router(topo)
    network = Network(
        topo,
        router,
        propagation_delay=scenario.propagation_delay,
    )
    sources = {
        index: _make_source(network, spec)
        for index, spec in enumerate(scenario.sources)
    }
    fault_events = _attach_faults(network, scenario)
    for source in sources.values():
        source.start()
    spinup = time.perf_counter() - wall0
    cpu0 = time.process_time()
    network.engine.run(until=scenario.duration)
    compute = time.process_time() - cpu0
    wall = time.perf_counter() - wall0
    snapshot = extract_result(network, sources, fault_events)
    return _merge_results(
        [snapshot],
        mode="serial",
        num_shards=1,
        windows=0,
        lookahead_seconds=math.inf,
        boundary_messages=0,
        wall_seconds=wall,
        spinup_seconds=spinup,
        compute_seconds=compute,
        barrier_seconds=0.0,
    )


def _step_all(handles: Sequence, until: float, inboxes: Sequence[list]) -> list[StepReport]:
    futures = [
        handle.step(until, inbox) for handle, inbox in zip(handles, inboxes)
    ]
    return [future.result() for future in futures]


def run_parallel(
    scenario: ParallelScenario,
    num_shards: int = 2,
    mode: str = "process",
    parallel: bool = True,
) -> RunResult:
    """Run a scenario sharded across ``num_shards`` conservative windows.

    ``mode`` is ``"process"`` (one pinned worker process per shard — the
    real thing) or ``"inline"`` (shards stepped sequentially in this
    process — same windows, same barriers, no pickling; for tests and
    debugging).  A single shard runs through :func:`run_serial`.
    ``parallel`` selects nothing: ``True`` is accepted from callers
    written against the retired switch, ``False`` is refused — call
    :func:`run_serial` for the unsharded run.
    """
    if mode not in ("process", "inline"):
        raise ParallelSimError(f"mode must be 'process' or 'inline', got {mode!r}")
    if not parallel:
        raise ParallelSimError("parallel=False is retired: call run_serial(scenario)")
    if num_shards <= 1:
        return run_serial(scenario)

    wall0 = time.perf_counter()
    topo = scenario.build_topology()
    parts = partition_racks(topo, num_shards)
    owner = _owner_map(parts)
    window = lookahead(
        topo,
        parts,
        propagation_delay=scenario.propagation_delay,
        min_packet_bytes=scenario.min_packet_bytes(),
    )
    if math.isinf(window):
        raise ParallelSimError(
            "partition has no boundary links — nothing to coordinate"
        )

    reg = _obs.registry()
    tracer = _obs.tracer()
    pool: PinnedPool | None = None
    spin0 = time.perf_counter()
    if mode == "inline":
        handles: list = [
            _InlineShard(scenario, index, num_shards) for index in range(num_shards)
        ]
    else:
        pool = PinnedPool(
            num_shards,
            initializer=_worker_init_shard,
            initargs_per_slot=[
                (scenario, index, num_shards, reg is not None)
                for index in range(num_shards)
            ],
        )
        for future in pool.broadcast(_worker_ready):
            if not future.result():
                raise ParallelSimError("shard worker failed to initialize")
        handles = [_ProcessShard(pool, slot) for slot in range(num_shards)]
    spinup = time.perf_counter() - spin0

    duration = scenario.duration
    busy_wall = [0.0] * num_shards
    busy_cpu = [0.0] * num_shards
    windows = 0
    boundary_messages = 0
    pending: list[BoundaryMessage] = []
    empty: list[list[BoundaryMessage]] = [[] for _ in range(num_shards)]
    try:
        # Prime: process any t<=0 events and learn each shard's horizon.
        reports = _step_all(handles, 0.0, empty)
        peeks = [report.next_event for report in reports]
        for index, report in enumerate(reports):
            busy_wall[index] += report.busy_wall
            busy_cpu[index] += report.busy_cpu
            pending.extend(report.outbox)
            if tracer is not None:
                tracer.ingest(report.spans)

        while True:
            horizon = min(peeks)
            if pending:
                first_arrival = min(m.arrival for m in pending)
                if first_arrival < horizon:
                    horizon = first_arrival
            if horizon > duration:
                break
            until = horizon + window
            if until > duration:
                until = duration
            inboxes: list[list[BoundaryMessage]] = [[] for _ in range(num_shards)]
            for message in pending:
                inboxes[owner[message.path[message.hop + 1]]].append(message)
            for inbox in inboxes:
                inbox.sort()  # by (arrival, origin, seq), the leading fields
            boundary_messages += len(pending)
            pending = []
            window_start = time.perf_counter() if reg is not None else 0.0
            reports = _step_all(handles, until, inboxes)
            windows += 1
            for index, report in enumerate(reports):
                busy_wall[index] += report.busy_wall
                busy_cpu[index] += report.busy_cpu
                peeks[index] = report.next_event
                pending.extend(report.outbox)
            if reg is not None:
                # One window = every shard stepped to `until`, then the
                # barrier: the coordinator idled from the slowest
                # shard's in-window work to the window's wall end.
                window_wall = time.perf_counter() - window_start
                slowest = max(report.busy_wall for report in reports)
                stall = max(0.0, window_wall - slowest)
                reg.incr("parallel.windows")
                reg.observe("parallel.window_seconds", window_wall)
                reg.observe("parallel.barrier_seconds", stall)
                if tracer is not None:
                    for report in reports:
                        tracer.ingest(report.spans)
                    tracer.add("parallel.window", window_start, window_wall,
                               window=windows, until=until)
                    tracer.add("parallel.barrier", window_start + slowest,
                               stall, window=windows)

        # Land every shard exactly on the duration mark, mirroring the
        # serial run's final clock (no events remain at or before it).
        reports = _step_all(handles, duration, [[] for _ in range(num_shards)])
        for index, report in enumerate(reports):
            busy_wall[index] += report.busy_wall
            busy_cpu[index] += report.busy_cpu
            if tracer is not None:
                tracer.ingest(report.spans)
        results = [future.result() for future in [h.finish() for h in handles]]
    finally:
        if pool is not None:
            pool.shutdown()
    wall = time.perf_counter() - wall0

    compute = max(busy_cpu) if busy_cpu else 0.0
    barrier = max(0.0, wall - spinup - (max(busy_wall) if busy_wall else 0.0))
    if reg is not None:
        # Shard registries drained at finish() merge here, so a sweep
        # over run_parallel aggregates exactly like run_cells workers.
        for result in results:
            if result.obs:
                reg.merge(result.obs)
        reg.incr("parallel.runs")
        reg.incr("parallel.boundary_messages", boundary_messages)
        reg.gauge("parallel.compute_seconds", compute)
        reg.gauge("parallel.barrier_wall_seconds", barrier)
    return _merge_results(
        results,
        mode=f"parallel-{mode}",
        num_shards=num_shards,
        windows=windows,
        lookahead_seconds=window,
        boundary_messages=boundary_messages,
        wall_seconds=wall,
        spinup_seconds=spinup,
        compute_seconds=compute,
        barrier_seconds=barrier,
    )
