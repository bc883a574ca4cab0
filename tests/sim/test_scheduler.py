"""Pluggable scheduler: the bucket queue must order events exactly
like the reference heap — same timestamps, same FIFO tie-breaking,
same behaviour under cancellation — for any operation sequence.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import BucketScheduler, Engine, SimulationError

#: Delays spanning the bucket width (1 µs), the full ring (256 µs), and
#: the overflow heap beyond it, plus exact duplicates from the small pool.
DELAYS = st.one_of(
    st.sampled_from([0.0, 1e-9, 5e-7, 1e-6, 3.2e-5, 2.56e-4, 1e-3]),
    st.floats(min_value=0.0, max_value=5e-4, allow_nan=False),
)


def run_trace(scheduler, ops):
    """Replay an operation script; return the observed firing order."""
    engine = Engine(scheduler=scheduler)
    trace = []
    handles = []

    def fire(tag):
        trace.append((engine.now, tag))
        chain = OPS_CHAIN.get(tag)
        if chain is not None:
            # One level of event-from-event scheduling; the ("chain", …)
            # tag is not in OPS_CHAIN, so chains don't recurse.
            engine.schedule(chain, fire, ("chain", tag))

    OPS_CHAIN = {}
    for tag, (delay, cancel_idx, chain_delay) in enumerate(ops):
        if chain_delay is not None:
            OPS_CHAIN[tag] = chain_delay
        handles.append(engine.schedule(delay, fire, tag))
        if cancel_idx is not None and handles:
            handles[cancel_idx % len(handles)].cancel()
    engine.run()
    return trace


OP = st.tuples(
    DELAYS,
    st.one_of(st.none(), st.integers(min_value=0, max_value=63)),
    st.one_of(st.none(), DELAYS),
)


class TestPopOrderEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(st.lists(OP, min_size=1, max_size=40))
    def test_bucket_matches_heap(self, ops):
        assert run_trace("bucket", ops) == run_trace("heap", ops)

    def test_fifo_among_equal_timestamps(self):
        for scheduler in ("heap", "bucket"):
            engine = Engine(scheduler=scheduler)
            order = []
            for tag in range(20):
                engine.schedule(1e-6, order.append, tag)
            engine.run()
            assert order == list(range(20)), scheduler

    def test_equal_timestamps_across_bucket_boundary(self):
        # Ties at a bucket edge (exact multiples of the 1 µs width) must
        # still pop in schedule order.
        for scheduler in ("heap", "bucket"):
            engine = Engine(scheduler=scheduler)
            order = []
            for tag in range(8):
                engine.schedule(2e-6, order.append, (2, tag))
                engine.schedule(1e-6, order.append, (1, tag))
            engine.run()
            assert order == sorted(order), scheduler

    def test_self_rescheduling_chain(self):
        # An event that schedules its successor inside the currently
        # draining bucket exercises the in-window insort path.
        results = {}
        for scheduler in ("heap", "bucket"):
            engine = Engine(scheduler=scheduler)
            times = []

            def tick():
                times.append(engine.now)
                if len(times) < 2000:
                    engine.schedule(3.7e-7, tick)

            engine.schedule(0.0, tick)
            engine.run()
            results[scheduler] = times
        assert results["bucket"] == results["heap"]

    def test_run_until_stops_identically(self):
        for scheduler in ("heap", "bucket"):
            engine = Engine(scheduler=scheduler)
            fired = []
            for tag in range(10):
                engine.schedule(tag * 1e-5, fired.append, tag)
            engine.run(until=4.5e-5)
            assert fired == [0, 1, 2, 3, 4], scheduler
            assert engine.now == 4.5e-5
            engine.run()
            assert fired == list(range(10)), scheduler


def run_chain_program(scheduler, chained, actors, plains, runs):
    """Replay one program of chained actors, plain events and cancellations.

    ``chained=True`` starts every actor with ``chain_at`` and lets its
    step *return* the next time; ``chained=False`` is the same program
    written the long way — a ``call_at`` callback whose last act is a
    trailing ``call_at`` for its own continuation.  Returns the firing
    trace plus an engine snapshot after every (split) ``run`` call.
    """
    engine = Engine(scheduler=scheduler)
    trace, snapshots, handles = [], [], []

    def fire(tag):
        trace.append((engine.now, tag))

    def body(state):
        # One link of an actor: log, optionally schedule a side event
        # and cancel some handle, then name the continuation time.
        actor, links = state["actor"], state["links"]
        k = state["k"]
        state["k"] = k + 1
        trace.append((engine.now, ("actor", actor, k)))
        delay, side_delay, cancel_idx = links[k]
        if side_delay is not None:
            handles.append(engine.schedule(side_delay, fire, ("side", actor, k)))
        if cancel_idx is not None and handles:
            handles[cancel_idx % len(handles)].cancel()
        return engine.now + delay if k + 1 < len(links) else None

    def trailing(state):
        time = body(state)
        if time is not None:
            engine.call_at(time, trailing, state)

    for actor, (start, links) in enumerate(actors):
        state = {"actor": actor, "links": links, "k": 0}
        if chained:
            engine.chain_at(start, body, state)
        else:
            engine.call_at(start, trailing, state)
        if actor < len(plains):
            handles.append(engine.schedule(plains[actor], fire, ("plain", actor)))

    def snapshot():
        snapshots.append(
            (engine.now, engine.events_processed, engine.pending(), engine.peek_time())
        )

    for kind, amount in runs:
        if kind == "until":
            engine.run(until=engine.now + amount)
        else:
            engine.run(max_events=amount)
        snapshot()
    engine.run()
    snapshot()
    return trace, snapshots


LINK = st.tuples(
    DELAYS,
    st.one_of(st.none(), DELAYS),
    st.one_of(st.none(), st.integers(min_value=0, max_value=63)),
)
ACTOR = st.tuples(DELAYS, st.lists(LINK, min_size=1, max_size=8))
RUN = st.one_of(
    st.tuples(st.just("until"), DELAYS),
    st.tuples(st.just("max_events"), st.integers(min_value=0, max_value=12)),
)


class TestChainProtocol:
    """``chain_at`` is a trailing ``call_at`` minus the allocation: same
    firing order, same counters, on both schedulers, across split runs."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(ACTOR, min_size=1, max_size=6),
        st.lists(DELAYS, max_size=6),
        st.lists(RUN, max_size=5),
    )
    def test_chained_equals_trailing_call_at(self, actors, plains, runs):
        results = {
            (scheduler, chained): run_chain_program(
                scheduler, chained, actors, plains, runs
            )
            for scheduler in ("heap", "bucket")
            for chained in (False, True)
        }
        for scheduler in ("heap", "bucket"):
            # Trace and (now, events_processed, pending, peek_time)
            # snapshots agree between the two forms of the program.
            assert results[scheduler, True] == results[scheduler, False]
        # Across schedulers everything but peek_time (only a lower
        # bound on the bucket queue) agrees too.
        heap_trace, heap_snaps = results["heap", True]
        bucket_trace, bucket_snaps = results["bucket", True]
        assert bucket_trace == heap_trace
        assert [s[:3] for s in bucket_snaps] == [s[:3] for s in heap_snaps]


class TestSelection:
    def test_env_selects_bucket(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCHEDULER", "bucket")
        assert Engine()._heap is None

    def test_env_selects_heap(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCHEDULER", "heap")
        assert Engine()._heap is not None

    def test_default_is_heap(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCHEDULER", raising=False)
        assert Engine()._heap is not None

    def test_calendar_is_alias_for_bucket(self):
        assert Engine(scheduler="calendar")._heap is None

    def test_instance_accepted(self):
        engine = Engine(scheduler=BucketScheduler(width=2e-6, nbuckets=64))
        fired = []
        engine.schedule(1e-3, fired.append, 1)
        engine.run()
        assert fired == [1]

    def test_unknown_name_rejected(self):
        with pytest.raises(SimulationError):
            Engine(scheduler="fibonacci")


class TestBucketCancellation:
    def test_cancel_in_far_heap_and_ring(self):
        engine = Engine(scheduler="bucket")
        near = engine.schedule(1e-7, lambda: None)
        ring = engine.schedule(5e-5, lambda: None)
        far = engine.schedule(1.0, lambda: None)
        assert engine.pending() == 3
        assert ring.cancel() is True
        assert far.cancel() is True
        assert engine.pending() == 1
        engine.run()
        assert engine.events_processed == 1
        assert not near.cancelled

    def test_mass_cancellation_compacts(self):
        engine = Engine(scheduler="bucket")
        keep = engine.schedule(100.0, lambda: None)
        doomed = [engine.schedule(float(i + 1), lambda: None) for i in range(64)]
        for event in doomed:
            event.cancel()
        assert engine.pending() == 1
        engine.run()
        assert engine.now == 100.0
        assert engine.events_processed == 1
        assert not keep.cancelled


#: Delays landing exactly on bucket boundaries: integer multiples of the
#: 1 µs width, spanning the ring (256 µs) and the overflow heap past it.
EDGE_DELAYS = st.builds(lambda k: k * 1e-6, st.integers(min_value=0, max_value=600))

EDGE_OP = st.tuples(
    EDGE_DELAYS,
    st.one_of(st.none(), st.integers(min_value=0, max_value=63)),
    st.one_of(st.none(), st.sampled_from([0.0, 3.7e-7, 1e-6, 2.56e-4])),
)


class TestWindowBoundaries:
    @settings(max_examples=120, deadline=None)
    @given(st.lists(EDGE_OP, min_size=1, max_size=40))
    def test_exact_bucket_edge_pushes_match_heap(self, ops):
        # Every push lands on a window boundary — the worst case for
        # float bucket indexing, where an ulp of drift flips the slot.
        assert run_trace("bucket", ops) == run_trace("heap", ops)

    def test_boundary_pushes_while_window_advances(self):
        # A chain stepping in whole-bucket strides keeps scheduling onto
        # the edge of the freshly advanced window; boundaries must stay
        # the same float no matter how many windows have rolled past.
        for stride_buckets in (1, 3, 255, 256, 257):
            results = {}
            for scheduler in ("heap", "bucket"):
                engine = Engine(scheduler=scheduler)
                times = []

                def tick():
                    times.append(engine.now)
                    if len(times) < 800:
                        engine.schedule(stride_buckets * 1e-6, tick)

                engine.schedule(0.0, tick)
                engine.run()
                results[scheduler] = times
            assert results["bucket"] == results["heap"], stride_buckets

    def test_migrate_keeps_cancelled_overflow_entries_dead(self):
        # Entries cancelled while parked in the overflow heap must stay
        # cancelled when _migrate pulls their window into the ring.
        engine = Engine(scheduler="bucket")
        fired = []
        near = engine.schedule(1e-6, fired.append, "near")
        far = [
            engine.schedule(5e-4 + i * 1e-6, fired.append, i) for i in range(8)
        ]
        for handle in far[::2]:
            handle.cancel()
        engine.run()
        assert fired == ["near", 1, 3, 5, 7]
        assert engine.events_processed == 5
        assert near.cancel() is False  # already fired

    def test_jump_to_far_head_skips_cancelled_head(self):
        # With an empty ring, pop re-bases the window on the overflow
        # head; a cancelled head must not leave a live event behind.
        engine = Engine(scheduler="bucket")
        fired = []
        doomed = engine.schedule(1e-3, fired.append, "doomed")
        engine.schedule(1e-3 + 5e-7, fired.append, "kept")
        doomed.cancel()
        engine.run()
        assert fired == ["kept"]

    def test_degenerate_width_force_drains(self):
        # When ulp(base) exceeds the bucket width, boundaries collapse to
        # the same float and the window cannot advance; the scheduler
        # must still drain events (in order) rather than spin.
        engine = Engine(scheduler=BucketScheduler(width=1e-9, nbuckets=4))
        fired = []
        for offset in (0.0, 0.5, 1.25):
            engine.schedule_at(1e12 + offset, fired.append, offset)
        engine.run()
        assert fired == [0.0, 0.5, 1.25]
        assert engine.now == 1e12 + 1.25


#: Timestamps with forced duplicates: a small exact pool (hit often) mixed
#: with arbitrary floats, spanning the bucket ring and the overflow heap.
DUP_TIMES = st.lists(
    st.one_of(
        st.sampled_from([0.0, 3.7e-7, 1e-6, 1e-6, 3.2e-5, 2.56e-4]),
        st.floats(min_value=0.0, max_value=5e-4, allow_nan=False),
    ),
    min_size=1,
    max_size=60,
)


class TestCallAtManyEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(DUP_TIMES)
    def test_duplicate_timestamps_pop_fifo_identically(self, times):
        # One bulk push per engine; sequence numbers are assigned in
        # iteration order, so duplicates must fire in list order — on
        # both schedulers, yielding identical traces.
        traces = {}
        for scheduler in ("heap", "bucket"):
            engine = Engine(scheduler=scheduler)
            trace = []

            def fire(tag):
                trace.append((engine.now, tag))

            engine.call_at_many(
                (t, fire, (tag,)) for tag, t in enumerate(times)
            )
            engine.run()
            traces[scheduler] = trace
        assert traces["bucket"] == traces["heap"]
        # FIFO among equal timestamps == a stable sort of the input.
        assert traces["heap"] == sorted(
            ((t, tag) for tag, t in enumerate(times)),
            key=lambda pair: pair[0],
        )

    @settings(max_examples=60, deadline=None)
    @given(DUP_TIMES, DUP_TIMES)
    def test_bulk_and_scalar_pushes_interleave_identically(self, bulk, scalar):
        # call_at_many shares the sequence counter with call_at; a bulk
        # batch followed by scalar pushes at colliding times must still
        # drain in global FIFO-per-timestamp order on both schedulers.
        traces = {}
        for scheduler in ("heap", "bucket"):
            engine = Engine(scheduler=scheduler)
            trace = []

            def fire(tag):
                trace.append((engine.now, tag))

            engine.call_at_many(
                (t, fire, (("bulk", tag),)) for tag, t in enumerate(bulk)
            )
            for tag, t in enumerate(scalar):
                engine.call_at(t, fire, ("scalar", tag))
            engine.run()
            traces[scheduler] = trace
        assert traces["bucket"] == traces["heap"]
        expected = [(t, ("bulk", tag)) for tag, t in enumerate(bulk)]
        expected += [(t, ("scalar", tag)) for tag, t in enumerate(scalar)]
        assert traces["heap"] == sorted(expected, key=lambda pair: pair[0])


#: (delay, cancel-this-one) pairs for the peek lower-bound property.
PEEK_OPS = st.lists(
    st.tuples(DELAYS, st.booleans()), min_size=1, max_size=40
)


class TestPeekTimeLowerBound:
    """``peek_time`` is a *lower bound* on the next live event.

    Lazily-cancelled entries are blanked in place, so a dead head may
    make the bound earlier than the next event that actually fires —
    never later.  Lookahead consumers (batching, the parallel window
    coordinator) rely on exactly this one-sided error.
    """

    @settings(max_examples=120, deadline=None)
    @given(PEEK_OPS)
    def test_peek_never_exceeds_next_live_event(self, ops):
        for scheduler in ("heap", "bucket"):
            engine = Engine(scheduler=scheduler)
            fired = []
            live = []
            for delay, doomed in ops:
                handle = engine.schedule(delay, fired.append, delay)
                if doomed:
                    handle.cancel()
                else:
                    live.append(delay)
            peek = engine.peek_time()
            assert peek >= 0.0, scheduler
            if live:
                assert peek <= min(live), scheduler
            engine.run()
            assert fired == sorted(fired), scheduler
            assert len(fired) == len(live), scheduler

    def test_peek_is_inf_when_empty(self):
        for scheduler in ("heap", "bucket"):
            assert math.isinf(Engine(scheduler=scheduler).peek_time())

    def test_heap_cancelled_head_only_underestimates(self):
        engine = Engine(scheduler="heap")
        doomed = engine.schedule(1e-6, lambda: None)
        engine.schedule(5e-6, lambda: None)
        doomed.cancel()
        # The blanked head may still be reported (1e-6) — a valid lower
        # bound — but the bound must never pass the live event.
        assert 0.0 <= engine.peek_time() <= 5e-6

    def test_bucket_cancelled_active_head_only_underestimates(self):
        engine = Engine(scheduler="bucket")
        doomed = engine.schedule(1e-7, lambda: None)
        engine.schedule(9e-7, lambda: None)  # same 1 us bucket
        doomed.cancel()
        assert 0.0 <= engine.peek_time() <= 9e-7

    def test_bucket_cancelled_overflow_head_only_underestimates(self):
        # Both events park in the overflow heap (past the 256 us ring);
        # cancelling its head must not push the bound past the live one.
        engine = Engine(scheduler="bucket")
        doomed = engine.schedule(1e-3, lambda: None)
        engine.schedule(2e-3, lambda: None)
        doomed.cancel()
        assert 0.0 <= engine.peek_time() <= 2e-3
        engine.run()
        assert engine.events_processed == 1
