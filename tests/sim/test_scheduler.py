"""The event queue's contract: events pop by time, FIFO among equal
timestamps (scheduling order), whether pushed one by one, in bulk or as
chains, and ``peek_time`` names the next one.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine

#: Delays from nanoseconds to a millisecond, plus exact duplicates from
#: the small pool.
DELAYS = st.one_of(
    st.sampled_from([0.0, 1e-9, 5e-7, 1e-6, 3.2e-5, 2.56e-4, 1e-3]),
    st.floats(min_value=0.0, max_value=5e-4, allow_nan=False),
)


class TestPopOrderEquivalence:
    def test_fifo_among_equal_timestamps(self):
        engine = Engine()
        order = []
        for tag in range(20):
            engine.schedule(1e-6, order.append, tag)
        engine.run()
        assert order == list(range(20))

    def test_self_rescheduling_chain(self):
        engine = Engine()
        times = []

        def tick():
            times.append(engine.now)
            if len(times) < 2000:
                engine.schedule(3.7e-7, tick)

        engine.schedule(0.0, tick)
        engine.run()
        expected = [0.0]
        while len(expected) < 2000:
            expected.append(expected[-1] + 3.7e-7)
        assert times == expected

    def test_run_until_stops_identically(self):
        engine = Engine()
        fired = []
        for tag in range(10):
            engine.schedule(tag * 1e-5, fired.append, tag)
        engine.run(until=4.5e-5)
        assert fired == [0, 1, 2, 3, 4]
        assert engine.now == 4.5e-5
        engine.run()
        assert fired == list(range(10))


def run_chain_program(chained, actors, plains, runs):
    """Replay one program of chained actors and plain events.

    ``chained=True`` starts every actor with ``chain_at`` and lets its
    step *return* the next time; ``chained=False`` is the same program
    written the long way — a ``call_at`` callback whose last act is a
    trailing ``call_at`` for its own continuation.  Returns the firing
    trace plus an engine snapshot after every (split) ``run`` call.
    """
    engine = Engine()
    trace, snapshots = [], []

    def fire(tag):
        trace.append((engine.now, tag))

    def body(state):
        # One link of an actor: log, optionally schedule a side event,
        # then name the continuation time.
        actor, links = state["actor"], state["links"]
        k = state["k"]
        state["k"] = k + 1
        trace.append((engine.now, ("actor", actor, k)))
        delay, side_delay = links[k]
        if side_delay is not None:
            engine.schedule(side_delay, fire, ("side", actor, k))
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
            engine.schedule(plains[actor], fire, ("plain", actor))

    def snapshot():
        snapshots.append(
            (engine.now, engine.events_processed, engine.pending(), engine.peek_time())
        )

    for delay in runs:
        engine.run(until=engine.now + delay)
        snapshot()
    engine.run()
    snapshot()
    return trace, snapshots


LINK = st.tuples(DELAYS, st.one_of(st.none(), DELAYS))
ACTOR = st.tuples(DELAYS, st.lists(LINK, min_size=1, max_size=8))


class TestChainProtocol:
    """``chain_at`` is a trailing ``call_at`` minus the allocation: same
    firing order, same counters, across split runs."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(ACTOR, min_size=1, max_size=6),
        st.lists(DELAYS, max_size=6),
        st.lists(DELAYS, max_size=5),
    )
    def test_chained_equals_trailing_call_at(self, actors, plains, runs):
        # Trace and (now, events_processed, pending, peek_time)
        # snapshots agree between the two forms of the program.
        assert run_chain_program(True, actors, plains, runs) == run_chain_program(
            False, actors, plains, runs
        )


#: Timestamps with forced duplicates: a small exact pool (hit often) mixed
#: with arbitrary floats.
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
        # One bulk push; sequence numbers are assigned in iteration
        # order, so duplicates must fire in list order.
        engine = Engine()
        trace = []

        def fire(tag):
            trace.append((engine.now, tag))

        engine.call_at_many((t, fire, (tag,)) for tag, t in enumerate(times))
        engine.run()
        # FIFO among equal timestamps == a stable sort of the input.
        assert trace == sorted(
            ((t, tag) for tag, t in enumerate(times)),
            key=lambda pair: pair[0],
        )

    @settings(max_examples=60, deadline=None)
    @given(DUP_TIMES, DUP_TIMES)
    def test_bulk_and_scalar_pushes_interleave_identically(self, bulk, scalar):
        # call_at_many shares the sequence counter with call_at; a bulk
        # batch followed by scalar pushes at colliding times must still
        # drain in global FIFO-per-timestamp order.
        engine = Engine()
        trace = []

        def fire(tag):
            trace.append((engine.now, tag))

        engine.call_at_many(
            (t, fire, (("bulk", tag),)) for tag, t in enumerate(bulk)
        )
        for tag, t in enumerate(scalar):
            engine.call_at(t, fire, ("scalar", tag))
        engine.run()
        expected = [(t, ("bulk", tag)) for tag, t in enumerate(bulk)]
        expected += [(t, ("scalar", tag)) for tag, t in enumerate(scalar)]
        assert trace == sorted(expected, key=lambda pair: pair[0])


class TestPeekTimeExact:
    """``peek_time`` is the time of the next event to fire: nothing in
    the queue can be revoked, so the head is always live.  The parallel
    window coordinator sizes its windows from it."""

    @settings(max_examples=120, deadline=None)
    @given(st.lists(DELAYS, min_size=1, max_size=40))
    def test_peek_equals_next_event_time(self, delays):
        engine = Engine()
        fired = []
        for delay in delays:
            engine.schedule(delay, fired.append, delay)
        first = min(delays)
        assert engine.peek_time() == first
        engine.run(until=first)
        assert fired == [first] * delays.count(first)
        rest = [delay for delay in sorted(delays) if delay > first]
        assert engine.peek_time() == (rest[0] if rest else math.inf)
        engine.run()
        assert fired == sorted(delays)

    def test_peek_is_inf_when_empty(self):
        assert math.isinf(Engine().peek_time())
