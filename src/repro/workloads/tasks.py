"""Scatter / gather / scatter-gather tasks — paper Section 7.1.

The simulation study measures per-packet latency of three operation
types, "representative of latency sensitive traffic found in social
networks and web search" (and of MPI's scatter/gather collectives):

* **scatter** — one sender streams packets to every receiver;
* **gather** — every sender streams packets to one receiver;
* **scatter/gather** — the sender sends one packet to every receiver,
  each receiver replies, and the next round begins when all replies
  have landed (a closed loop, like a search fan-out).

Tasks place their participants uniformly at random across the network
("global"), or within a window of nearby racks ("localized", Figure 18).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.sim.network import Network, Packet
from repro.sim.sources import DEFAULT_PACKET_BYTES, PoissonSource
from repro.topology.base import Topology


class TaskError(ValueError):
    """Raised for invalid task specifications."""


@dataclass(frozen=True)
class TaskSpec:
    """Participants of one task."""

    kind: str  # "scatter" | "gather" | "scatter_gather"
    hub: str  # the sender (scatter, scatter_gather) or receiver (gather)
    peers: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.kind not in ("scatter", "gather", "scatter_gather"):
            raise TaskError(f"unknown task kind {self.kind!r}")
        if not self.peers:
            raise TaskError("task needs at least one peer")
        if self.hub in self.peers:
            raise TaskError("hub cannot be its own peer")


def random_task(
    topo: Topology,
    kind: str,
    fan: int,
    seed: int = 0,
    rack_window: int | None = None,
    exclude: set[str] | None = None,
) -> TaskSpec:
    """Sample a task's participants.

    Global tasks draw hub and peers uniformly from all servers.
    Localized tasks (``rack_window`` racks) draw everyone from a
    contiguous window of nearby racks, reproducing Figure 18's "servers
    in nearby racks".

    ``exclude`` removes servers already claimed by other tasks — the
    paper's experiments keep each server in at most one flow, so that
    measured congestion comes from the *fabric*, not from oversubscribed
    host NICs.
    """
    rng = random.Random(seed)
    if rack_window is None:
        pool = topo.servers()
    else:
        racks = topo.racks()
        if rack_window > len(racks):
            raise TaskError(f"window of {rack_window} exceeds {len(racks)} racks")
        start = rng.randrange(len(racks) - rack_window + 1)
        window = racks[start : start + rack_window]
        pool = [s for r in window for s in topo.servers_in_rack(r)]
    if exclude:
        pool = [s for s in pool if s not in exclude]
    if len(pool) <= fan:
        raise TaskError(f"need more than {fan} servers in the placement pool")
    chosen = rng.sample(pool, fan + 1)
    return TaskSpec(kind=kind, hub=chosen[0], peers=tuple(chosen[1:]))


class StreamingTask:
    """A scatter or gather task: Poisson streams between hub and peers."""

    def __init__(
        self,
        network: Network,
        spec: TaskSpec,
        per_stream_bandwidth_bps: float,
        size_bytes: float = DEFAULT_PACKET_BYTES,
        group: str = "task",
        seed: int = 0,
        flow_base: int = 0,
    ) -> None:
        if spec.kind not in ("scatter", "gather"):
            raise TaskError(f"StreamingTask cannot run a {spec.kind!r} task")
        self.spec = spec
        self.group = group
        if spec.kind == "scatter":
            pairs = [(spec.hub, peer) for peer in spec.peers]
        else:
            pairs = [(peer, spec.hub) for peer in spec.peers]
        self.sources = [
            PoissonSource.at_bandwidth(
                network,
                src,
                dst,
                per_stream_bandwidth_bps,
                size_bytes=size_bytes,
                group=group,
                flow_id=flow_base + i,
                seed=seed + i,
            )
            for i, (src, dst) in enumerate(pairs)
        ]

    def start(self, delay: float = 0.0) -> None:
        for source in self.sources:
            source.start(delay)

    def stop(self) -> None:
        for source in self.sources:
            source.stop()

    @property
    def packets_sent(self) -> int:
        return sum(s.packets_sent for s in self.sources)


class ScatterGatherTask:
    """Closed-loop fan-out/fan-in rounds.

    Each round: the hub sends one packet to every peer; a peer replies
    the moment the request lands; the next round starts when every reply
    has arrived.  Every packet's one-way latency is recorded under
    ``group`` (the paper plots average latency per packet).
    """

    def __init__(
        self,
        network: Network,
        spec: TaskSpec,
        rounds: int = 100,
        size_bytes: float = DEFAULT_PACKET_BYTES,
        group: str = "task",
        flow_base: int = 0,
    ) -> None:
        if spec.kind != "scatter_gather":
            raise TaskError(f"ScatterGatherTask cannot run a {spec.kind!r} task")
        if rounds < 1:
            raise TaskError("need at least one round")
        self.network = network
        self.spec = spec
        self.rounds = rounds
        self.size_bytes = size_bytes
        self.group = group
        self.flow_base = flow_base
        self.completed_rounds = 0
        self._pending_replies = 0

    def start(self, delay: float = 0.0) -> None:
        self.network.engine.schedule(delay, self._begin_round)

    # The sends are positional: binding keywords is a cost every packet
    # of every round would pay.
    def _begin_round(self) -> None:
        peers = self.spec.peers
        self._pending_replies = len(peers)
        send = self.network.send
        hub, size, flow, group = self.spec.hub, self.size_bytes, self.flow_base, self.group
        landed = self._request_landed
        for i, peer in enumerate(peers):
            send(hub, peer, size, flow + i, group, None, landed)

    def _request_landed(self, packet: Packet, _when: float) -> None:
        self.network.send(
            packet.dst, packet.src, self.size_bytes, self.flow_base + 10_000,
            self.group, None, self._reply_landed,
        )

    def _reply_landed(self, _packet: Packet, _when: float) -> None:
        self._pending_replies -= 1
        if self._pending_replies == 0:
            self.completed_rounds += 1
            if self.completed_rounds < self.rounds:
                self._begin_round()


def build_task(
    network: Network,
    spec: TaskSpec,
    per_stream_bandwidth_bps: float,
    rounds: int = 100,
    size_bytes: float = DEFAULT_PACKET_BYTES,
    group: str = "task",
    seed: int = 0,
    flow_base: int = 0,
) -> StreamingTask | ScatterGatherTask:
    """Construct the right runnable task for ``spec``."""
    if spec.kind == "scatter_gather":
        return ScatterGatherTask(
            network, spec, rounds=rounds, size_bytes=size_bytes,
            group=group, flow_base=flow_base,
        )
    return StreamingTask(
        network,
        spec,
        per_stream_bandwidth_bps,
        size_bytes=size_bytes,
        group=group,
        seed=seed,
        flow_base=flow_base,
    )
