"""Deterministic discrete-event engine on a binary heap.

A minimal, fast event loop.  Queue entries are plain ``[time, seq,
callback, args]`` records, so ``heapq`` orders them with C-speed
list comparison — ``time`` first, then the unique sequence number
(the callback is never compared).  The sequence number makes
simultaneous events fire in scheduling order, so runs are exactly
reproducible.  The ``args`` slot says which of three kinds an entry is:

* a **timer**, ``[time, seq, callback, args]`` with ``args`` a tuple
  (:meth:`Engine.call_at`, :meth:`Engine.schedule`): ``callback(*args)``;
* a **chain**, ``[time, seq, step, _CHAIN, arg]``
  (:meth:`Engine.chain_at`): a step whose return value re-arms the same
  record, so a long-lived chain of events allocates once;
* a **packet**, ``[time, seq, network, _PACKET, packet]`` (``Network.send``):
  its tail reaches the next node of its plan, and the loop runs the
  forwarding kernel's arrival half inline — deliver it, or clock it onto
  its next port and re-arm the record — with the network's
  (:attr:`Engine.net`) constants read once per run.  ``engine.run`` and
  ``Network.run`` dispatch packets through this one loop.

Scheduling is fire-and-forget: nothing returns a handle and a queued
event cannot be revoked, so every entry in the queue fires, ``pending()``
is the queue's length and ``peek_time()`` is exact.
"""

from __future__ import annotations

import heapq
import math
import time as _time
from typing import Any, Callable, Iterable

from repro import obs as _obs

#: Markers in the ``args`` slot, never a valid args tuple: a chained
#: entry's ``[time, seq, step, _CHAIN, arg]`` (:meth:`Engine.chain_at`)
#: and a packet's ``[time, seq, network, _PACKET, packet]``.
_CHAIN = None
_PACKET = False

_CHAIN_PAST = "chained step returned time %r, before current time %r"


class SimulationError(RuntimeError):
    """Raised for invalid scheduling operations."""


class Engine:
    """The event loop.  Time starts at 0.0 seconds."""

    __slots__ = ("now", "_heap", "_seq", "events_processed", "running", "net")

    def __init__(self) -> None:
        self.now = 0.0
        self._seq = 0
        self.events_processed = 0
        #: True while a run loop is dispatching: a ``Network.run`` called
        #: from inside a callback must not solve the window it is part of
        #: (:mod:`repro.sim.portmajor`).
        self.running = False
        self._heap: list[list] = []
        #: The network whose packets this queue carries (set by
        #: ``Network``), or ``None``: a bare engine queues no packets.
        self.net = None

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` after ``delay`` seconds of sim time:
        the relative-time spelling of :meth:`call_at`."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        heapq.heappush(self._heap, [self.now + delay, self._seq, callback, args])
        self._seq += 1

    def call_at(self, time: float, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` at absolute sim time ``time``.

        Events at equal times fire in scheduling order (the sequence
        number drawn here breaks the tie).
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self.now}"
            )
        heapq.heappush(self._heap, [time, self._seq, callback, args])
        self._seq += 1

    def chain_at(
        self, time: float, step: "Callable[[Any], float | None]", arg: Any
    ) -> None:
        """Start a chain of events: run ``step(arg)`` at ``time``, and again
        at every time it returns, until it returns ``None``.

        Equivalent to a :meth:`call_at` callback whose *last* scheduling
        act is ``call_at(next_time, step, arg)`` — the run loop re-pushes
        the same entry with the sequence number that trailing call would
        have drawn, so pop order, ``pending()`` and ``events_processed``
        are identical — minus its frame and allocations.  Hence the
        contract: the continuation is the last thing a step schedules,
        and a returned time before ``now`` raises
        :class:`SimulationError`.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self.now}"
            )
        heapq.heappush(self._heap, [time, self._seq, step, _CHAIN, arg])
        self._seq += 1

    def call_at_many(
        self, items: "Iterable[tuple[float, Callable[..., None], tuple]]"
    ) -> None:
        """Bulk :meth:`call_at`: push ``(time, callback, args)`` triples.

        One engine call amortizes the per-event attribute lookups over a
        whole batch (fault timelines, benchmark warm fills).  Sequence
        numbers are assigned in iteration order, so equal-time items
        fire in the order given.
        """
        now = self.now
        heap = self._heap
        heappush = heapq.heappush
        seq = self._seq
        try:
            for time, callback, args in items:
                if time < now:
                    raise SimulationError(
                        f"cannot schedule at {time} before current time {now}"
                    )
                heappush(heap, [time, seq, callback, args])
                seq += 1
        finally:
            self._seq = seq

    def peek_time(self) -> float:
        """The next queued event's time (``inf`` when idle)."""
        heap = self._heap
        return heap[0][0] if heap else math.inf

    def credit_events(self, n: int) -> None:
        """Count ``n`` logical events elided by a batched advancement.

        ``events_processed`` reports *logical* simulation events: a
        window solved port-major (:mod:`repro.sim.portmajor`) credits
        the source fires and per-hop arrivals the event loop would have
        dispatched through the queue, so the counter — and any events/s
        rate derived from it — stays comparable between the one dispatch
        loop and the port-major pass.
        """
        self.events_processed += n

    def run(self, until: float | None = None) -> None:
        """Process events until the queue empties or ``until`` passes.

        Advances ``now`` to ``until`` at the end when a horizon is given,
        even if the queue drained earlier.

        When :mod:`repro.obs` is armed, each call additionally records
        one ``engine.run`` span plus aggregate counters (events
        dispatched, run wall-clock).  The accounting happens
        once per *run*, not per event, so the dispatch loop stays
        untouched and a disarmed run pays one ``None`` test.
        """
        until = math.inf if until is None else until
        reg = _obs.registry()
        if reg is None:
            self._run(until)
            return
        before = self.events_processed
        start = _time.perf_counter()
        try:
            self._run(until)
        finally:
            duration = _time.perf_counter() - start
            delta = self.events_processed - before
            reg.incr("engine.runs")
            reg.incr("engine.events.heap", delta)
            reg.observe("engine.run_seconds", duration)
            tracer = _obs.tracer()
            if tracer is not None:
                tracer.add("engine.run", start, duration,
                           kind="heap", events=delta)

    def _run(self, until: float) -> None:
        """The dispatch loop of :meth:`run` (observation-free): drain the
        heap up to (and including) time ``until``, then advance the clock
        to it — unless it is ``inf`` (no horizon): ``now`` stays at the
        last event.

        A packet entry runs the forwarding kernel's arrival half here
        (DESIGN.md §5; :mod:`repro.sim.fastpath`'s affine per-node delay).
        ``Network._hop`` clocks the hops of an armed or sharded network
        and those onto a dead link.  Tracking is read per hop: a cut may
        arm it mid-run."""
        heap = self._heap
        heappop = heapq.heappop
        heappush = heapq.heappush
        heappushpop = heapq.heappushpop
        packet_step = _PACKET
        net = self.net
        if net is not None:  # fixed within a run
            propagation = net.propagation_delay
            receive = net.host_receive_latency
            latencies = net.stats._pending
            groups = net.stats._pending_groups
            dead = net._dead_links  # emptied and refilled, never replaced
            log = net.telemetry
            general = log is not None or net.owned is not None
        processed = 0
        self.running = True
        try:
            while True:
                # Only the pop may end the run: an IndexError raised by
                # a callback propagates like any other exception.
                try:
                    entry = heappop(heap)
                except IndexError:
                    break
                time = entry[0]
                if time > until:
                    heappush(heap, entry)  # same (time, seq): order kept
                    break
                while True:  # dispatch ``entry``, then a re-armed entry's successor
                    self.now = time
                    args = entry[3]
                    if args is packet_step:
                        packet = entry[4]
                        plan = packet.plan
                        hop = packet.hop
                        track = net._track_in_flight
                        if track:
                            # Only ``fail_link`` severs, and it arms tracking first.
                            if packet.dropped:
                                processed += 1
                                break
                            plan.flights[hop].discard(packet)
                        hop += 1
                        packet.hop = hop
                        if hop == plan.last:
                            delivered = packet.delivered_at = time + receive
                            net.packets_delivered += 1
                            latency = delivered - packet.created_at
                            if not latency >= 0:
                                raise ValueError(f"negative latency {latency}")
                            # ``LatencyRecorder.record``, inlined.
                            latencies.append(latency)
                            groups.append(packet.group)
                            if log is not None:
                                log.deliveries.append(packet.packet_id)
                            if track:
                                net.fault_stats.record_delivery(packet.group, time)
                            if packet.on_delivered is not None:
                                packet.on_delivered(packet, delivered)
                            processed += 1
                            break
                        latf, lat, port, ser = plan.hops[hop]
                        size = packet.size_bytes
                        earliest = time + size * latf + lat
                        if general or dead and plan.keys[hop] in dead:
                            rearm = net._hop(packet, earliest)
                        else:
                            start = port.busy_until
                            if start < earliest:
                                start = earliest
                            tail_out = start + size * ser
                            port.busy_until = tail_out
                            port.packets_sent += 1
                            port.bytes_sent += size
                            if track:
                                plan.flights[hop].add(packet)
                            rearm = tail_out + propagation
                    elif args is None:  # _CHAIN
                        rearm = entry[2](entry[4])
                    else:
                        if args:
                            entry[2](*args)
                        else:
                            entry[2]()
                        processed += 1
                        break
                    processed += 1
                    if rearm is None:
                        break
                    if rearm < time:
                        raise SimulationError(_CHAIN_PAST % (rearm, time))
                    entry[0] = rearm
                    seq = entry[1] = self._seq
                    self._seq = seq + 1
                    # Re-push and pop the successor in one sift: the pop
                    # order of heappush + heappop, (time, seq) being a
                    # strict total order.
                    entry = heappushpop(heap, entry)
                    time = entry[0]
                    if time <= until:
                        continue
                    heappush(heap, entry)  # the outer pop meets it and stops
                    break
        finally:
            self.events_processed += processed
            self.running = False
        if self.now < until < math.inf:
            self.now = until

    def pending(self) -> int:
        """Number of events still queued."""
        return len(self._heap)
