"""Traffic sources for the packet-level simulator.

Three source types cover every workload in the paper's evaluation:

* :class:`PoissonSource` — Section 7's model: servers send 400-byte
  packets according to a Poisson process.
* :class:`BurstSource` — Section 6.1's cross-traffic: fixed-size packet
  bursts separated by idle intervals sized to hit a target bandwidth.
* :class:`RPCSource` — Section 6.1's latency probe: a closed-loop
  request/response ping-pong ("Hello World" RPC), one call at a time.

Poisson draws are **vectorized**: gaps and destination picks come from
two independent numpy streams that are pre-drawn in chunks, so a
million-packet source pays one RNG call per few hundred packets instead
of one per packet.  numpy generators fill arrays from the same bit
stream an element-at-a-time draw would consume, so the batched sequence
is bit-identical for every chunk size — ``DEFAULT_CHUNK = 1`` is the
per-packet reference and produces exactly the same packets.  Under
``engine.run`` each packet's *injection* fires as its own engine event:
port queueing interleaves with other traffic at arrival times, so
arrivals cannot be applied stream by stream without changing results.
``Network.run(until=…)`` can do better between the queue entries that
are not single-destination Poisson fires or packets in flight: such a
stretch is open loop, every fire time is known up front, and
:mod:`repro.sim.portmajor` applies all streams' arrivals together, a
level of ports at a time, bit-identically — a ``stop_at`` inside the horizon ends a
window, and the fire that ends the chain is the event loop's.

A running Poisson or burst source is one engine **chain**
(:meth:`~repro.sim.engine.Engine.chain_at`): its fire step returns the
next fire time and the engine re-arms the same queue entry, so a source
is one heap entry for life.  The chain carries the source's generation
as its argument; :meth:`stop` bumps the generation, so the fire still
queued from before the stop ends its chain as a no-op and a later
:meth:`start` begins exactly one new chain at the configured rate.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Sequence

import numpy as np

from repro.routing.base import RoutingError
from repro.sim.network import Network, Packet
from repro.units import BITS_PER_BYTE

#: Packet size used throughout the paper's simulations (Section 7).
DEFAULT_PACKET_BYTES = 400

#: Poisson pre-draw batch size (packets per RNG call).  Read at every
#: draw, so a test that sets it to 1 gets the per-packet draw reference.
DEFAULT_CHUNK = 256

#: Non-negative 64-bit seed material for numpy's SeedSequence.
_SEED_MASK = (1 << 64) - 1


class SourceError(ValueError):
    """Raised for invalid traffic-source configurations."""


class PoissonSource:
    """Sends fixed-size packets with exponential inter-arrival times.

    ``dst`` may be a single server or a sequence; with a sequence each
    packet goes to an independently, uniformly sampled destination.

    ``vary_flow_per_packet`` gives each packet a distinct flow id, so
    multipath routers (VLB) spread the stream packet-by-packet rather
    than pinning it to one path — the granularity the paper's VLB needs
    when a handful of heavy flows share one channel (Section 7.2).

    Gap and destination draws come from two independent seeded numpy
    streams, pre-drawn ``DEFAULT_CHUNK`` packets at a time.  The packet
    sequence is identical for every chunk size (numpy fills batches from
    the same bit stream as repeated scalar draws), so batching is purely
    a matter of speed.
    """

    def __init__(
        self,
        network: Network,
        src: str,
        dst: str | Sequence[str],
        rate_pps: float,
        size_bytes: float = DEFAULT_PACKET_BYTES,
        group: str | None = None,
        flow_id: int = 0,
        seed: int = 0,
        stop_at: float | None = None,
        vary_flow_per_packet: bool = False,
        on_delivered: Callable[[Packet, float], None] | None = None,
    ) -> None:
        if rate_pps <= 0:
            raise SourceError(f"rate must be positive, got {rate_pps}")
        self.network = network
        self.src = src
        self._dsts = [dst] if isinstance(dst, str) else list(dst)
        if not self._dsts:
            raise SourceError("need at least one destination")
        self.rate_pps = rate_pps
        self.size_bytes = size_bytes
        self.group = group
        self.flow_id = flow_id
        self.stop_at = stop_at
        self.vary_flow_per_packet = vary_flow_per_packet
        self.on_delivered = on_delivered
        self.packets_sent = 0
        # Independent streams so the interleaving of gap and destination
        # draws — and therefore the values — cannot depend on the chunk.
        self._gap_rng = np.random.default_rng((seed & _SEED_MASK, 0))
        self._gaps: list[float] = []
        self._gap_i = 0
        if len(self._dsts) > 1:
            self._dst_rng = np.random.default_rng((seed & _SEED_MASK, 1))
            self._dst_picks: list[int] = []
            self._dst_i = 0
        else:
            self._dst_rng = None
        self._running = False
        self._generation = 0  # token of the live fire chain; see stop()

    @classmethod
    def at_bandwidth(
        cls,
        network: Network,
        src: str,
        dst: str | Sequence[str],
        bandwidth_bps: float,
        size_bytes: float = DEFAULT_PACKET_BYTES,
        **kwargs: object,
    ) -> "PoissonSource":
        """Convenience constructor: packet rate from a target bandwidth."""
        rate = bandwidth_bps / (size_bytes * BITS_PER_BYTE)
        return cls(network, src, dst, rate_pps=rate, size_bytes=size_bytes, **kwargs)  # type: ignore[arg-type]

    def start(self, delay: float = 0.0) -> None:
        """Begin sending, first packet one gap after ``delay``.  Legal
        again after :meth:`stop`: the stream resumes where its gap and
        destination draws left off."""
        if self._running:
            raise SourceError("source already started")
        self._running = True
        engine = self.network.engine
        engine.chain_at(
            engine.now + (delay + self._next_gap()), self._fire, self._generation
        )

    def stop(self) -> None:
        """Stop sending.  The fire already queued stays queued and ends
        its chain when it surfaces: it carries the generation this bumps."""
        self._running = False
        self._generation += 1

    def _draw_gaps(self) -> list[float]:
        """The stream's next batch of gaps.  Batches double from 32 up
        to ``DEFAULT_CHUNK``, so a short stream (a 1 ms Figure 17 cell
        uses ~31 gaps) does not hold a full chunk of Python floats; the
        values do not depend on how the stream is cut into batches."""
        batch = self._gap_rng.standard_exponential(
            min(DEFAULT_CHUNK, max(32, 2 * len(self._gaps)))
        )
        batch /= self.rate_pps
        return batch.tolist()

    def _next_gap(self) -> float:
        """Next exponential inter-arrival gap (pre-drawn in batches)."""
        i = self._gap_i
        gaps = self._gaps
        if i >= len(gaps):
            gaps = self._gaps = self._draw_gaps()
            i = 0
        self._gap_i = i + 1
        return gaps[i]

    @staticmethod
    def _fires_through(
        sources: "Sequence[PoissonSource]", first: np.ndarray, until: float
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray, list[list[float]]]":
        """The fire chains queued at ``first`` (one per source, each ≤
        ``until``), as one table: ``(times, fired, next, unspent)`` —
        every fire up to ``until``, source-major; how many each source
        fires; the first fire of each past ``until``; and the gaps after
        it, the ones the fires leave unspent.

        Row ``i`` of a zero-padded ``sources × gaps`` table holds
        ``first[i]`` and then the source's gaps: the pre-drawn buffer past
        its cursor and, for a row whose buffer ends before ``until``, one
        numpy draw of what the horizon is expected to need (the values do
        not depend on how the stream is cut into batches).  One
        ``np.cumsum(axis=1)`` performs every chain's own sequential ``t +=
        gap`` additions, a padding ``+ 0.0`` being exact.  No source is
        changed but for its generator: the port-major pass
        (:mod:`repro.sim.portmajor`) commits the fires and makes the
        unspent gaps the buffer, so a window's draw never round-trips
        through Python floats more than once.  The pass calls this only
        for a window it will solve.
        """
        buffers = [source._gaps[source._gap_i:] for source in sources]
        length = np.fromiter(map(len, buffers), np.intp, len(buffers))

        def draw(row: int, t: float, have: int) -> "tuple[int, int, np.ndarray]":
            # What the horizon is expected to need past ``t``, ``have``
            # gaps in: placed after them.
            rate = sources[row].rate_pps
            need = (until - t) * rate - have
            more = sources[row]._gap_rng.standard_exponential(int(need + 4.0 * need ** 0.5) + 32)
            more /= rate
            return row, int(length[row]) + 1, more

        def table_of(rows: list, drawn: list) -> tuple:
            # One table over ``rows``: their fires, counts, next fires and
            # unspent gaps; ``drawn`` holds their draws so far.
            held = length[rows]
            width = max([int(held.max(initial=0)) + 1] + [at + more.size for _, at, more in drawn])
            table = np.zeros((len(rows), width))
            table[:, 0] = first[rows]
            ends = np.cumsum(held)
            table.reshape(-1)[  # row ``i``'s buffer from its column 1 on
                np.repeat(np.arange(1, len(rows) * width, width) - ends + held, held)
                + np.arange(int(held.sum()))
            ] = np.fromiter(itertools.chain.from_iterable(buffers[row] for row in rows), float)
            place = {row: i for i, row in enumerate(rows)}
            while True:
                for row, at, more in drawn:
                    table[place[row], at:at + more.size] = more
                    length[row] += more.size
                times = np.cumsum(table, axis=1)
                short = np.flatnonzero(times[:, -1] <= until).tolist()
                if not short:
                    break
                drawn = [draw(rows[i], float(times[i, -1]), 0) for i in short]
                extra = max(at + more.size for _, at, more in drawn) - table.shape[1]
                if extra > 0:
                    table = np.concatenate((table, np.zeros((len(rows), extra))), axis=1)
            if len(rows) == 1:  # one chain (md1's shape): a binary search
                fired = times[0].searchsorted([until], "right")
                fires = times[0, :fired[0]]
            else:
                due = times <= until
                fired = np.count_nonzero(due, axis=1)
                fires = times[due]
            index = np.arange(len(rows))
            unspent = [
                table[i, start:stop].tolist()
                for i, start, stop in zip(index.tolist(), (fired + 1).tolist(), (length[rows] + 1).tolist())
            ]
            return fires, fired, times[index, fired], unspent

        # A row whose buffer is short of what the horizon is expected to
        # need draws before the table is built.  Rows are tabled in bands
        # of widths within a factor of two: one fast source does not pad
        # every slow one to its draw.
        drawn = [
            draw(row, t, have) for row, (t, have) in enumerate(zip(first.tolist(), length.tolist()))
            if (until - t) * sources[row].rate_pps > have
        ]
        width = length + 1
        for row, _, more in drawn:
            width[row] += more.size
        band = np.frexp(width)[1]
        if (band == band[:1]).all():
            return table_of(list(range(len(buffers))), drawn)
        bands = [np.flatnonzero(band == b).tolist() for b in np.unique(band).tolist()]
        fired = np.zeros(len(buffers), dtype=np.intp)
        after = np.zeros(len(buffers))
        unspent: list = [None] * len(buffers)
        parts = []
        for rows in bands:
            mine = set(rows)
            fires, fired[rows], after[rows], gaps = table_of(rows, [d for d in drawn if d[0] in mine])
            for row, left in zip(rows, gaps):
                unspent[row] = left
            parts.append((rows, fires))
        times = np.empty(int(fired.sum()))
        start = np.cumsum(fired) - fired  # each source's first fire in ``times``
        for rows, fires in parts:
            counts = fired[rows]
            times[np.repeat(start[rows] - (np.cumsum(counts) - counts), counts) + np.arange(fires.size)] = fires
        return times, fired, after, unspent

    def _next_dst(self) -> str:
        """Next uniformly sampled destination (pre-drawn in batches)."""
        i = self._dst_i
        picks = self._dst_picks
        if i >= len(picks):
            picks = self._dst_picks = self._dst_rng.integers(
                0, len(self._dsts), DEFAULT_CHUNK
            ).tolist()
            i = 0
        self._dst_i = i + 1
        return self._dsts[picks[i]]

    def _fire(self, generation: int) -> "float | None":
        """One chain step: send a packet, return the next fire time, or
        ``None`` to end the chain."""
        if generation != self._generation:
            return None  # queued before a stop()
        now = self.network.engine.now
        if self.stop_at is not None and now >= self.stop_at:
            self._running = False
            return None
        dst = self._dsts[0] if self._dst_rng is None else self._next_dst()
        flow = self.flow_id
        if self.vary_flow_per_packet:
            flow = self.flow_id * 1_000_003 + self.packets_sent
        try:  # positional, as ``ScatterGatherTask``'s sends
            self.network.send(
                self.src, dst, self.size_bytes, flow, self.group, None, self.on_delivered
            )
        except RoutingError:
            # A partitioned mesh (simultaneous fibre cuts) leaves the
            # pair unreachable; the offered packet is lost, not fatal.
            self.network.note_unroutable(self.group)
        self.packets_sent += 1
        return now + self._next_gap()


class BurstSource:
    """Back-to-back packet bursts separated by idle gaps.

    Reproduces the prototype's Nuttcp cross-traffic: "20 packet bursts
    that are separated by idle intervals, the duration of which is
    selected to meet a target bandwidth" (Section 6.1).
    """

    def __init__(
        self,
        network: Network,
        src: str,
        dst: str,
        target_bandwidth_bps: float,
        burst_packets: int = 20,
        size_bytes: float = 1500,
        group: str | None = None,
        flow_id: int = 0,
        seed: int = 0,
        stop_at: float | None = None,
    ) -> None:
        if target_bandwidth_bps <= 0:
            raise SourceError("target bandwidth must be positive")
        if burst_packets < 1:
            raise SourceError("burst must contain at least one packet")
        self.network = network
        self.src = src
        self.dst = dst
        self.burst_packets = burst_packets
        self.size_bytes = size_bytes
        self.group = group
        self.flow_id = flow_id
        self.stop_at = stop_at
        self.packets_sent = 0
        burst_bits = burst_packets * size_bytes * BITS_PER_BYTE
        #: Time from the start of one burst to the start of the next.
        self.burst_interval = burst_bits / target_bandwidth_bps
        self._rng = random.Random(seed)
        self._running = False
        self._generation = 0  # as PoissonSource: token of the live chain

    def start(self, delay: float | None = None) -> None:
        """Begin bursting; ``delay`` defaults to a random phase within one
        interval so concurrent sources are unsynchronized (as in the paper)."""
        if self._running:
            raise SourceError("source already started")
        self._running = True
        phase = self._rng.uniform(0, self.burst_interval) if delay is None else delay
        engine = self.network.engine
        engine.chain_at(engine.now + phase, self._fire_burst, self._generation)

    def stop(self) -> None:
        self._running = False
        self._generation += 1

    def _fire_burst(self, generation: int) -> "float | None":
        if generation != self._generation:
            return None  # queued before a stop()
        now = self.network.engine.now
        if self.stop_at is not None and now >= self.stop_at:
            self._running = False
            return None
        for _ in range(self.burst_packets):
            try:
                self.network.send(
                    self.src, self.dst, self.size_bytes,
                    flow_id=self.flow_id, group=self.group,
                )
            except RoutingError:  # lost, not fatal: as PoissonSource._fire
                self.network.note_unroutable(self.group)
            self.packets_sent += 1
        return now + self.burst_interval


class RPCSource:
    """Closed-loop request/response pairs; records full round-trip times.

    The destination replies as soon as the request is delivered (plus
    ``server_think_time``); the next call is issued when the response
    lands.  Round-trip latencies go to ``network.stats`` under
    ``group`` — per-leg packet latencies are not recorded, matching how
    the prototype measures RPC latency.
    """

    def __init__(
        self,
        network: Network,
        client: str,
        server: str,
        num_calls: int = 1000,
        request_bytes: float = 200,
        response_bytes: float = 200,
        server_think_time: float = 0.0,
        group: str = "rpc",
        flow_id: int = 0,
    ) -> None:
        if num_calls < 1:
            raise SourceError("need at least one RPC call")
        self.network = network
        self.client = client
        self.server = server
        self.num_calls = num_calls
        self.request_bytes = request_bytes
        self.response_bytes = response_bytes
        self.server_think_time = server_think_time
        self.group = group
        self.flow_id = flow_id
        self.completed = 0
        self.rtts: list[float] = []
        self._call_started = 0.0

    def start(self, delay: float = 0.0) -> None:
        self.network.engine.schedule(delay, self._issue_call)

    def _issue_call(self) -> None:
        self._call_started = self.network.engine.now
        self.network.send(
            self.client,
            self.server,
            self.request_bytes,
            flow_id=self.flow_id,
            on_delivered=self._request_delivered,
        )

    def _request_delivered(self, _packet: Packet, _when: float) -> None:
        self.network.engine.schedule(self.server_think_time, self._send_response)

    def _send_response(self) -> None:
        self.network.send(
            self.server,
            self.client,
            self.response_bytes,
            flow_id=self.flow_id,
            on_delivered=self._response_delivered,
        )

    def _response_delivered(self, _packet: Packet, when: float) -> None:
        rtt = when - self._call_started
        self.rtts.append(rtt)
        self.network.stats.record(rtt, group=self.group)
        self.completed += 1
        if self.completed < self.num_calls:
            self._issue_call()

