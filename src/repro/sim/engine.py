"""Deterministic discrete-event engine with pluggable schedulers.

A minimal, fast event loop.  Queue entries are plain ``[time, seq,
callback, args]`` records, so the scheduler orders them with C-speed
list comparison — ``time`` first, then the unique sequence number
(the callback is never compared).  The sequence number makes
simultaneous events fire in scheduling order, so runs are exactly
reproducible.  A **chained** entry (:meth:`Engine.chain_at`) carries a
step whose return value re-arms the same record, so a long-lived chain
of events — a packet hopping through the fabric — allocates once.

Two schedulers share that entry format:

* the default **heap** (``heapq``) — the reference implementation; its
  pop order defines the engine's contract;
* a **bucket** (calendar) queue — a ring of fixed-width time buckets
  plus an overflow heap, tuned to the simulator's near-future event
  profile (a packet's next event is almost always within a few
  microseconds of ``now``).  Selected with ``Engine(scheduler="bucket")``
  or ``REPRO_SCHEDULER=bucket``; property-tested to pop in exactly the
  heap's order, including FIFO among equal timestamps.

Cancellation is lazy: :meth:`Event.cancel` blanks the entry's callback
slot in place and the run loop discards blanked entries as they surface.
When cancelled entries outnumber live ones the queue is compacted, so a
workload that schedules and cancels many timers (e.g. retransmission
timeouts) does not grow the queue without bound.
"""

from __future__ import annotations

import heapq
import math
import os
import time as _time
from bisect import insort
from typing import Any, Callable, Iterable

from repro import obs as _obs

#: Index of the callback slot in a queue entry; ``None`` marks an entry
#: that was cancelled (or already fired) and must not fire (again).
_CALLBACK = 2

#: Marker in the ``args`` slot of a chained entry ``[time, seq, step,
#: _CHAIN, arg]`` (see :meth:`Engine.chain_at`).  Never a valid args
#: tuple, and falsy: the run loops test for it only after ``if args:``
#: failed, so a plain event with arguments never pays for chains.  (A
#: cancelled entry's args slot is also ``None``; its blank callback slot
#: discards it before the args are read.)
_CHAIN = None

_CHAIN_PAST = "chained step returned time %r, before current time %r"

#: Environment variable selecting the default scheduler for new engines.
SCHEDULER_ENV = "REPRO_SCHEDULER"


class SimulationError(RuntimeError):
    """Raised for invalid scheduling operations."""


class Event:
    """Handle to one scheduled callback; cancel with :meth:`cancel`.

    ``time`` and ``seq`` read through to the queue entry (only chained
    entries, which have no handle, ever mutate their ``(time, seq)``
    prefix), which keeps the handle three stores cheap on the
    ``schedule`` hot path.
    """

    __slots__ = ("cancelled", "_entry", "_engine")

    def __init__(self, entry: list, engine: "Engine") -> None:
        self.cancelled = False
        self._entry = entry
        self._engine = engine

    @property
    def time(self) -> float:
        return self._entry[0]

    @property
    def seq(self) -> int:
        return self._entry[1]

    def cancel(self) -> bool:
        """Prevent the callback from firing (lazy removal from the queue).

        Returns ``True`` only when this call revoked a still-pending
        callback.  Idempotent: a second cancel — or cancelling an event
        that already fired — is a no-op that returns ``False`` and
        leaves ``cancelled`` untouched, so the flag always tells the
        truth (fired events never read as cancelled) and the engine's
        cancellation count never includes entries that are no longer in
        the queue.
        """
        entry = self._entry
        if entry[_CALLBACK] is None:
            return False
        self.cancelled = True
        entry[_CALLBACK] = None
        entry[3] = None  # free the args references eagerly
        self._engine._note_cancelled()
        return True


class BucketScheduler:
    """Calendar queue: a ring of fixed-width buckets plus an overflow heap.

    Events within the addressable window (``nbuckets × width`` seconds
    from the ring's base time) append to their bucket in O(1); events
    beyond it go to an overflow heap and migrate into the ring as the
    window advances.  A bucket is sorted once when it becomes the active
    (draining) bucket; inserts that land in the active bucket — the
    common case for a simulator whose next event is within one bucket of
    ``now`` — use ``bisect.insort`` past the drain cursor, which
    preserves FIFO order among equal timestamps because sequence numbers
    only grow.

    Pop order is identical to the heap scheduler's: ``(time, seq)``
    ascending.  Entries are the engine's ``[time, seq, callback, args]``
    lists, so lazy cancellation (blanking the callback slot) works
    unchanged.

    Bucket boundaries are exact.  The window base is recomputed from an
    integer epoch (``base0 + epoch * width``) instead of accumulating
    ``base += width``, so the boundary of slot ``k`` is the *same float*
    whether it is evaluated at push time, at migration time, or when the
    window advances past it.  Raw ``int(rel / width)`` indexing is then
    corrected against those boundaries: float division can misplace an
    entry that lands exactly on a bucket edge by one bucket in either
    direction (e.g. ``123e-6 / 1e-6 == 122.99…``), which reorders pops
    around equal-time entries — and, at the overflow horizon, can push a
    far-future entry into the *active* bucket, popping it arbitrarily
    early.  Both divergences are caught by the hypothesis equivalence
    suite in ``tests/sim/test_scheduler.py``.
    """

    __slots__ = (
        "width", "nbuckets", "_buckets", "_cur", "_base", "_base0",
        "_epoch", "_pos", "_ring_count", "_far", "_len",
    )

    def __init__(self, width: float = 1e-6, nbuckets: int = 256) -> None:
        if width <= 0:
            raise SimulationError(f"bucket width must be positive, got {width}")
        if nbuckets < 1:
            raise SimulationError(f"need at least one bucket, got {nbuckets}")
        self.width = width
        self.nbuckets = nbuckets
        self._buckets: list[list[list]] = [[] for _ in range(nbuckets)]
        self._cur = 0  # ring index of the active bucket
        self._base0 = 0.0  # window origin; slot k starts at base0 + (epoch+k)*width
        self._epoch = 0  # how many windows the ring has advanced past base0
        self._base = 0.0  # cached boundary(0): start of the active window
        self._pos = 0  # drain cursor into the active bucket
        self._ring_count = 0  # entries anywhere in the ring
        self._far: list[list] = []  # heap of entries beyond the window
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def _boundary(self, index: int) -> float:
        """Exact start time of the bucket ``index`` slots past the active one."""
        return self._base0 + (self._epoch + index) * self.width

    def _index_for(self, time: float) -> int:
        """Slot offset whose window truly contains ``time``.

        Returns ``nbuckets`` for anything at or past the overflow
        horizon.  The raw division is only a guess; within the ring the
        correction loops walk it to the unique ``k`` with ``boundary(k)
        <= time < boundary(k+1)`` (at most a step or two — never across
        the whole ring, and far-future times take the single horizon
        test instead of walking).  Entries at or before the active
        window report 0 — the caller keeps those sorted in the active
        bucket.
        """
        nbuckets = self.nbuckets
        guess = int((time - self._base) / self.width)
        if guess >= nbuckets:
            if time >= self._boundary(nbuckets):
                return nbuckets
            guess = nbuckets - 1  # division overshot the horizon
        elif guess < 0:
            guess = 0
        while guess > 0 and time < self._boundary(guess):
            guess -= 1
        while guess < nbuckets and time >= self._boundary(guess + 1):
            guess += 1
        return guess

    def push(self, entry: list) -> None:
        """Insert one entry; ``entry[0]`` must be ≥ the last popped time."""
        index = self._index_for(entry[0])
        if index == 0:
            # Active bucket (or a time at/before its window, which can
            # only be ≥ the last pop): keep it sorted past the cursor.
            insort(self._buckets[self._cur], entry, self._pos)
            self._ring_count += 1
        elif index < self.nbuckets:
            self._buckets[(self._cur + index) % self.nbuckets].append(entry)
            self._ring_count += 1
        else:
            heapq.heappush(self._far, entry)
        self._len += 1

    def pop(self) -> list:
        """Remove and return the earliest entry; IndexError when empty."""
        while True:
            bucket = self._buckets[self._cur]
            pos = self._pos
            if pos < len(bucket):
                entry = bucket[pos]
                self._pos = pos + 1
                self._ring_count -= 1
                self._len -= 1
                if self._pos == len(bucket):
                    del bucket[:]
                    self._pos = 0
                return entry
            if self._len == 0:
                raise IndexError("pop from an empty scheduler")
            del bucket[:]
            self._pos = 0
            if self._ring_count:
                self._advance()
            else:
                # Ring drained: jump the window straight to the overflow.
                self._base0 = self._far[0][0]
                self._epoch = 0
                self._base = self._base0
                self._migrate()
                if not self._ring_count:
                    # Degenerate window: the base is so large that one
                    # bucket width rounds away (ulp(base) > width), so
                    # nothing can migrate.  Drain the overflow head
                    # directly — pushes after this pop are ≥ its time
                    # by the scheduler contract, so order holds.
                    self._buckets[self._cur].append(heapq.heappop(self._far))
                    self._ring_count += 1
                self._buckets[self._cur].sort()
            # Loop: the new active bucket may still be empty (sparse ring).

    def peek_time(self) -> float:
        """Lower bound on the earliest queued entry's time (``inf`` if empty).

        Exact when the active bucket has entries left (it is sorted);
        otherwise the next window boundary / overflow head, which can
        only *under*-estimate — safe for lookahead decisions.
        """
        bucket = self._buckets[self._cur]
        if self._pos < len(bucket):
            return bucket[self._pos][0]
        if self._ring_count:
            return self._boundary(1)
        if self._far:
            return self._far[0][0]
        return math.inf

    def _advance(self) -> None:
        """Step the window one bucket forward and activate the next bucket."""
        self._cur = (self._cur + 1) % self.nbuckets
        self._epoch += 1
        self._base = self._base0 + self._epoch * self.width
        if self._far:
            self._migrate()
        self._buckets[self._cur].sort()

    def _migrate(self) -> None:
        """Pull overflow entries that now fall inside the window.

        The stop test is the *corrected* slot index, not a raw
        ``entry[0] < horizon`` comparison: an entry within one float
        rounding of the horizon must stay in the overflow heap rather
        than be wrapped modulo the ring into the active bucket.
        """
        far = self._far
        buckets = self._buckets
        cur, nbuckets = self._cur, self.nbuckets
        heappop = heapq.heappop
        while far:
            index = self._index_for(far[0][0])
            if index >= nbuckets:
                break
            buckets[(cur + index) % nbuckets].append(heappop(far))
            self._ring_count += 1

    def compact(self) -> None:
        """Drop cancelled (blanked) entries; live ordering is unchanged."""
        survivors = []
        for index, bucket in enumerate(self._buckets):
            start = self._pos if index == self._cur else 0
            survivors.extend(e for e in bucket[start:] if e[_CALLBACK] is not None)
            del bucket[:]
        survivors.extend(e for e in self._far if e[_CALLBACK] is not None)
        del self._far[:]
        self._pos = 0
        self._ring_count = 0
        self._len = 0
        for entry in survivors:
            self.push(entry)


def _make_scheduler(spec: "str | BucketScheduler | None") -> "BucketScheduler | None":
    """Resolve a scheduler spec; ``None`` means the default heap."""
    if spec is None:
        spec = os.environ.get(SCHEDULER_ENV, "heap")
    if isinstance(spec, str):
        name = spec.strip().lower()
        if name in ("", "heap"):
            return None
        if name in ("bucket", "calendar"):
            return BucketScheduler()
        raise SimulationError(
            f"unknown scheduler {spec!r}; options: 'heap', 'bucket'"
        )
    return spec  # duck-typed scheduler instance


class Engine:
    """The event loop.  Time starts at 0.0 seconds.

    ``scheduler`` selects the pending-event queue: ``"heap"`` (default,
    the reference implementation), ``"bucket"`` (calendar queue), or a
    pre-built scheduler instance.  When the argument is omitted the
    ``REPRO_SCHEDULER`` environment variable decides.
    """

    __slots__ = (
        "now", "_heap", "_sched", "_seq", "_n_cancelled", "events_processed",
        "run_horizon", "batching_ok",
    )

    def __init__(self, scheduler: "str | BucketScheduler | None" = None) -> None:
        self.now = 0.0
        self._seq = 0
        self._n_cancelled = 0
        self.events_processed = 0
        #: Horizon of the active :meth:`run` call (``None`` = unbounded);
        #: only meaningful while ``batching_ok`` is True.
        self.run_horizon: float | None = None
        #: True while a run loop without ``max_events`` is dispatching —
        #: the only state in which cohort batching may commit work ahead
        #: of the queue (see :meth:`repro.sim.network.Network.send_cohort`).
        self.batching_ok = False
        self._sched = _make_scheduler(scheduler)
        # The heap scheduler is inlined on the hot paths: ``_heap`` is
        # the live list when it is in use, ``None`` otherwise.
        self._heap: list[list] | None = [] if self._sched is None else None

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Run ``callback(*args)`` after ``delay`` seconds of sim time.

        Specialized like :meth:`call_at`: the entry is built and pushed
        inline (no delegation through :meth:`schedule_at`), so the only
        cost over the fire-and-forget path is the :class:`Event` handle —
        and that handle is built with ``__new__`` plus direct slot
        stores, skipping the ``__init__`` dispatch.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        entry = [self.now + delay, self._seq, callback, args]
        self._seq += 1
        heap = self._heap
        if heap is not None:
            heapq.heappush(heap, entry)
        else:
            self._sched.push(entry)
        event = Event.__new__(Event)
        event.cancelled = False
        event._entry = entry
        event._engine = self
        return event

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Run ``callback(*args)`` at absolute sim time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self.now}"
            )
        entry = [time, self._seq, callback, args]
        self._seq += 1
        heap = self._heap
        if heap is not None:
            heapq.heappush(heap, entry)
        else:
            self._sched.push(entry)
        event = Event.__new__(Event)
        event.cancelled = False
        event._entry = entry
        event._engine = self
        return event

    def call_at(self, time: float, callback: Callable[..., None], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule_at`: no :class:`Event` handle.

        The per-event hot path — skips the handle allocation, so use it
        whenever the caller never cancels (packet forwarding, traffic
        sources).  Semantics are otherwise identical to
        :meth:`schedule_at`, including the ordering sequence number.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self.now}"
            )
        heap = self._heap
        if heap is not None:
            heapq.heappush(heap, [time, self._seq, callback, args])
        else:
            self._sched.push([time, self._seq, callback, args])
        self._seq += 1

    def chain_at(
        self, time: float, step: "Callable[[Any], float | None]", arg: Any
    ) -> None:
        """Start a chain of events: run ``step(arg)`` at ``time``, and again
        at every time it returns, until it returns ``None``.

        Equivalent to a :meth:`call_at` callback whose *last* scheduling
        act is ``call_at(next_time, step, arg)`` — the run loops re-push
        the same entry with the sequence number that trailing call would
        have drawn, so pop order, ``pending()`` and ``events_processed``
        are identical — minus its frame and allocations.  Hence the
        contract: the continuation is the last thing a step schedules,
        and a returned time before ``now`` raises
        :class:`SimulationError`.  Fire-and-forget: no handle to cancel.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self.now}"
            )
        heap = self._heap
        if heap is not None:
            heapq.heappush(heap, [time, self._seq, step, _CHAIN, arg])
        else:
            self._sched.push([time, self._seq, step, _CHAIN, arg])
        self._seq += 1

    def call_at_many(
        self, items: "Iterable[tuple[float, Callable[..., None], tuple]]"
    ) -> None:
        """Bulk :meth:`call_at`: push ``(time, callback, args)`` triples.

        One engine call amortizes the per-event attribute lookups over a
        whole batch (fault timelines, cohort fallbacks, benchmark warm
        fills).  Sequence numbers are assigned in iteration order, so
        equal-time items fire in the order given.
        """
        now = self.now
        heap = self._heap
        seq = self._seq
        try:
            if heap is not None:
                heappush = heapq.heappush
                for time, callback, args in items:
                    if time < now:
                        raise SimulationError(
                            f"cannot schedule at {time} before current time {now}"
                        )
                    heappush(heap, [time, seq, callback, args])
                    seq += 1
            else:
                push = self._sched.push
                for time, callback, args in items:
                    if time < now:
                        raise SimulationError(
                            f"cannot schedule at {time} before current time {now}"
                        )
                    push([time, seq, callback, args])
                    seq += 1
        finally:
            self._seq = seq

    def peek_time(self) -> float:
        """Lower bound on the next queued event's time (``inf`` when idle).

        Exact for the heap scheduler up to lazily-cancelled entries (a
        blanked head can only make the bound *earlier*, never later, so
        lookahead decisions stay safe).  Duck-typed schedulers without a
        ``peek_time`` report ``-inf``, which disables batching entirely.
        """
        heap = self._heap
        if heap is not None:
            return heap[0][0] if heap else math.inf
        peek = getattr(self._sched, "peek_time", None)
        return peek() if peek is not None else -math.inf

    def credit_events(self, n: int) -> None:
        """Count ``n`` logical events elided by a batched advancement.

        ``events_processed`` reports *logical* simulation events: a
        cohort committed in one vectorized step credits the per-hop
        arrivals (and per-packet source fires) the scalar loop would
        have dispatched through the queue, so the counter — and any
        events/s rate derived from it — stays comparable across the
        scalar, fastpath, and batched engines.
        """
        self.events_processed += n

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Process events until the queue empties, ``until`` passes, or
        ``max_events`` have fired.

        Advances ``now`` to ``until`` at the end when a horizon is given,
        even if the queue drained earlier (unless ``max_events`` stopped
        the run first).

        When :mod:`repro.obs` is armed, each call additionally records
        one ``engine.run`` span plus aggregate counters (events popped
        per scheduler kind, run wall-clock).  The accounting happens
        once per *run*, not per event, so the inner loops above stay
        untouched and a disarmed run pays one ``None`` test.
        """
        reg = _obs.registry()
        if reg is None:
            self._run(until, max_events)
            return
        before = self.events_processed
        start = _time.perf_counter()
        try:
            self._run(until, max_events)
        finally:
            duration = _time.perf_counter() - start
            delta = self.events_processed - before
            kind = "heap" if self._heap is not None else "bucket"
            reg.incr("engine.runs")
            reg.incr("engine.events." + kind, delta)
            reg.observe("engine.run_seconds", duration)
            tracer = _obs.tracer()
            if tracer is not None:
                tracer.add("engine.run", start, duration,
                           kind=kind, events=delta)

    def _run(self, until: float | None, max_events: int | None) -> None:
        """The dispatch body of :meth:`run` (observation-free)."""
        if self._heap is not None and max_events is None:
            # Specialized heap loops for the two hot call shapes; the
            # shared general loop below covers everything else.
            if until is None:
                self._run_heap_unbounded()
            else:
                self._run_heap_until(until)
            return
        processed = 0
        # ``max_events`` counts real queue pops, which batching would
        # blur — cohort commits stay disabled for bounded-event runs.
        self.run_horizon = until
        self.batching_ok = max_events is None
        try:
            while True:
                entry = self._pop_entry()
                if entry is None:
                    break
                if max_events is not None and processed >= max_events:
                    self._push_entry(entry)
                    return
                if until is not None and entry[0] > until:
                    self._push_entry(entry)
                    break
                callback = entry[_CALLBACK]
                if callback is None:
                    self._n_cancelled -= 1
                    continue
                # Blank the entry before firing so a handle cancelled
                # from inside its own callback stays a no-op.
                entry[_CALLBACK] = None
                self.now = entry[0]
                args = entry[3]
                if args:
                    callback(*args)
                elif args is _CHAIN:
                    time = callback(entry[4])
                    if time is not None:
                        processed += 1  # the step fired, whatever its answer
                        if time < self.now:
                            raise SimulationError(_CHAIN_PAST % (time, self.now))
                        entry[0] = time
                        entry[1] = self._seq
                        entry[_CALLBACK] = callback
                        self._seq += 1
                        self._push_entry(entry)
                        continue
                else:
                    callback()
                processed += 1
        finally:
            self.events_processed += processed
            self.batching_ok = False
            self.run_horizon = None
        if until is not None and until > self.now:
            self.now = until

    def _run_heap_unbounded(self) -> None:
        """Drain the heap completely (no horizon, no event bound)."""
        heap = self._heap
        heappop = heapq.heappop
        heappushpop = heapq.heappushpop
        processed = 0
        self.run_horizon = None
        self.batching_ok = True
        try:
            while True:
                # Only the pop may end the run: an IndexError raised by
                # a callback propagates like any other exception.
                try:
                    entry = heappop(heap)
                except IndexError:
                    break
                while True:  # dispatch ``entry``, then a re-armed chain's successor
                    callback = entry[2]
                    if callback is None:
                        self._n_cancelled -= 1
                        break
                    self.now = entry[0]
                    # A plain entry is blanked before it fires; a chained
                    # one has no handle to cancel and stays armed.
                    args = entry[3]
                    if args:
                        entry[2] = None
                        callback(*args)
                    elif args is None:  # _CHAIN
                        time = callback(entry[4])
                        if time is not None:
                            processed += 1
                            if time < entry[0]:
                                raise SimulationError(_CHAIN_PAST % (time, entry[0]))
                            entry[0] = time
                            entry[1] = self._seq
                            self._seq += 1
                            # Re-push and pop the successor in one sift:
                            # the pop order of heappush + heappop,
                            # (time, seq) being a strict total order.
                            entry = heappushpop(heap, entry)
                            continue
                    else:
                        entry[2] = None
                        callback()
                    processed += 1
                    break
        finally:
            self.events_processed += processed
            self.batching_ok = False

    def _run_heap_until(self, until: float) -> None:
        """Drain the heap up to (and including) time ``until``."""
        heap = self._heap
        heappop = heapq.heappop
        heappush = heapq.heappush
        heappushpop = heapq.heappushpop
        processed = 0
        self.run_horizon = until
        self.batching_ok = True
        try:
            while True:
                try:  # as above: only the pop may end the run
                    entry = heappop(heap)
                except IndexError:
                    break
                time = entry[0]
                if time > until:
                    heappush(heap, entry)  # same (time, seq): order kept
                    break
                while True:  # dispatch ``entry``, then a re-armed chain's successor
                    callback = entry[2]
                    if callback is None:
                        self._n_cancelled -= 1
                        break
                    self.now = time
                    args = entry[3]
                    if args:
                        entry[2] = None
                        callback(*args)
                    elif args is None:  # _CHAIN (stays armed, as above)
                        rearm = callback(entry[4])
                        if rearm is not None:
                            processed += 1
                            if rearm < time:
                                raise SimulationError(_CHAIN_PAST % (rearm, time))
                            entry[0] = rearm
                            entry[1] = self._seq
                            self._seq += 1
                            entry = heappushpop(heap, entry)
                            time = entry[0]
                            if time <= until:
                                continue
                            heappush(heap, entry)  # the outer pop meets it and stops
                            break
                    else:
                        entry[2] = None
                        callback()
                    processed += 1
                    break
        finally:
            self.events_processed += processed
            self.batching_ok = False
            self.run_horizon = None
        if until > self.now:
            self.now = until

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        queued = len(self._heap) if self._heap is not None else len(self._sched)
        return queued - self._n_cancelled

    # -- internal ----------------------------------------------------------------

    def _pop_entry(self) -> list | None:
        """Earliest queued entry (live or blanked), or ``None`` if empty."""
        try:
            if self._heap is not None:
                return heapq.heappop(self._heap)
            return self._sched.pop()
        except IndexError:
            return None

    def _push_entry(self, entry: list) -> None:
        """Return an entry taken by :meth:`_pop_entry` to the queue."""
        if self._heap is not None:
            heapq.heappush(self._heap, entry)
        else:
            self._sched.push(entry)

    def _note_cancelled(self) -> None:
        """Record one cancellation; compact when the dead outnumber the live."""
        self._n_cancelled += 1
        queued = len(self._heap) if self._heap is not None else len(self._sched)
        if self._n_cancelled > queued // 2:
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries (queue order is re-derived from the
        ``(time, seq)`` prefix, so live ordering is unchanged).

        Compaction is in place — ``run`` holds a reference to the heap
        list while events fire, and cancellations from inside a callback
        must stay visible to that loop.
        """
        if self._heap is not None:
            self._heap[:] = [
                entry for entry in self._heap if entry[_CALLBACK] is not None
            ]
            heapq.heapify(self._heap)
        else:
            self._sched.compact()
        self._n_cancelled = 0
