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

import functools
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


class _Seeds(np.random.SeedSequence):
    """A :class:`numpy.random.SeedSequence` that hashes its pool into
    state words once per request shape: ``generate_state`` is pure (only
    ``spawn`` changes a SeedSequence, and nothing here spawns), so every
    generator seeded from one is bit-equal to a fresh
    ``np.random.default_rng(entropy)``."""

    def generate_state(self, n_words, dtype=np.uint32):
        words = self.__dict__.get((n_words, dtype))
        if words is None:
            words = self.__dict__[(n_words, dtype)] = super().generate_state(n_words, dtype)
            words.flags.writeable = False  # shared by every generator seeded here
        return words


@functools.lru_cache(maxsize=4096)
def _seeds(seed: int, stream: int) -> _Seeds:
    """The seed sequence of one ``(seed, stream)``, shared by every source
    that draws it: a Figure 17 sweep seeds its ~4 500 streams from ~70."""
    return _Seeds((seed, stream))


def _generator(seed: int, stream: int) -> np.random.Generator:
    """``np.random.default_rng((seed & _SEED_MASK, stream))``, bit for bit,
    without hashing the seed again for each source."""
    return np.random.Generator(np.random.PCG64(_seeds(seed & _SEED_MASK, stream)))


def _spans(first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """``first[i], first[i] + 1, …``, ``count[i]`` long, for every ``i``."""
    return np.repeat(first - (np.cumsum(count) - count), count) + np.arange(int(count.sum()))


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
        self._gap_rng = _generator(seed, 0)
        self._gaps: list[float] = []
        self._gap_i = 0
        if len(self._dsts) > 1:
            self._dst_rng = _generator(seed, 1)
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
        sources: "Sequence[PoissonSource]", buffers: "list[list[float]]", first: np.ndarray,
        until: float,
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray, list[list[float]]]":
        """The fire chains queued at ``first`` (one per source, each ≤
        ``until``; ``buffers`` each source's pre-drawn gaps past its
        cursor, read by the caller's pass over its roots), as one table:
        ``(times, fired, next, unspent)`` —
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
        count = len(buffers)
        held = [len(buffer) for buffer in buffers]
        filled = held[:]  # the gaps each row holds, drawn ones included
        drawn: dict = {}  # row -> its draws not yet placed, in order

        def draw(row: int, t: float, have: int) -> None:
            # What the horizon is expected to need past ``t``, ``have``
            # gaps in: placed after them, over the row's rate.
            need = (until - t) * sources[row].rate_pps - have
            more = sources[row]._gap_rng.standard_exponential(int(need + 4.0 * need ** 0.5) + 32)
            drawn.setdefault(row, []).append(more)
            filled[row] += more.size

        def table_of(rows: list) -> tuple:
            # One table over ``rows``: their fires, counts, next fires and
            # unspent gaps.
            n = len(rows)
            width = max((filled[row] for row in rows), default=0) + 1
            table = np.zeros((n, width))
            table[:, 0] = first[rows]
            have = np.array([held[row] for row in rows], dtype=np.intp)
            table.reshape(-1)[  # row ``i``'s buffer from its column 1 on
                _spans(np.arange(1, n * width, width), have)
            ] = np.fromiter(
                itertools.chain.from_iterable([buffers[row] for row in rows]), float,
                int(have.sum()),
            )
            placed = [held[row] for row in rows]  # each row's gaps in the table
            pending = [i for i, row in enumerate(rows) if row in drawn]
            while True:
                for i in pending:
                    rate = sources[rows[i]].rate_pps
                    for more in drawn.pop(rows[i]):
                        at = placed[i] + 1
                        np.divide(more, rate, out=table[i, at:at + more.size])
                        placed[i] += more.size
                times = np.cumsum(table, axis=1)
                pending = np.flatnonzero(times[:, -1] <= until).tolist()
                if not pending:
                    break
                for i, t in zip(pending, times[pending, -1].tolist()):
                    draw(rows[i], t, 0)
                extra = max(filled[rows[i]] for i in pending) + 1 - width
                if extra > 0:
                    table = np.concatenate((table, np.zeros((n, extra))), axis=1)
                    width += extra
            if n == 1:  # one chain (md1's shape): a binary search
                fired = times[0].searchsorted([until], "right")
                fires = times[0, :fired[0]]
            else:
                due = times <= until
                fired = np.count_nonzero(due, axis=1)
                fires = times[due]
            unspent = [
                table[i, start:stop + 1].tolist()
                for i, start, stop in zip(range(n), (fired + 1).tolist(), placed)
            ]
            return fires, fired, times[np.arange(n), fired], unspent

        # A row whose buffer is short of what the horizon is expected to
        # need draws before the table is built.
        for row, t in enumerate(first.tolist()):
            if (until - t) * sources[row].rate_pps > held[row]:
                draw(row, t, held[row])
        # One table, unless padding every row to the widest would more
        # than double it: then rows are tabled in bands of widths within a
        # factor of two, so one fast source does not pad every slow one
        # to its draw.
        if count * (max(filled, default=0) + 1) <= 2 * (sum(filled) + count):
            return table_of(list(range(count)))
        band = np.frexp(np.array(filled) + 1)[1]
        fired = np.zeros(count, dtype=np.intp)
        after = np.zeros(count)
        unspent: list = [None] * count
        parts = []
        for b in np.unique(band).tolist():
            rows = np.flatnonzero(band == b).tolist()
            fires, fired[rows], after[rows], gaps = table_of(rows)
            for row, left in zip(rows, gaps):
                unspent[row] = left
            parts.append((rows, fires))
        times = np.empty(int(fired.sum()))
        start = np.cumsum(fired) - fired  # each source's first fire in ``times``
        for rows, fires in parts:
            times[_spans(start[rows], fired[rows])] = fires
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

