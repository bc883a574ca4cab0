"""Tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Engine, SimulationError


class TestScheduling:
    def test_events_fire_in_time_order(self):
        engine = Engine()
        fired = []
        engine.schedule(2.0, fired.append, "b")
        engine.schedule(1.0, fired.append, "a")
        engine.schedule(3.0, fired.append, "c")
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_simultaneous_events_fire_in_schedule_order(self):
        engine = Engine()
        fired = []
        for tag in "xyz":
            engine.schedule(1.0, fired.append, tag)
        engine.run()
        assert fired == ["x", "y", "z"]

    def test_now_advances(self):
        engine = Engine()
        seen = []
        engine.schedule(0.5, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [0.5]

    def test_nested_scheduling(self):
        engine = Engine()
        fired = []

        def outer():
            fired.append("outer")
            engine.schedule(1.0, lambda: fired.append("inner"))

        engine.schedule(1.0, outer)
        engine.run()
        assert fired == ["outer", "inner"]
        assert engine.now == 2.0

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Engine().schedule(-1.0, lambda: None)

    def test_past_absolute_time_rejected(self):
        engine = Engine()
        engine.schedule(5.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.call_at(1.0, lambda: None)


class TestRunControl:
    def test_until_horizon_stops_and_advances_clock(self):
        engine = Engine()
        fired = []
        engine.schedule(1.0, fired.append, "early")
        engine.schedule(10.0, fired.append, "late")
        engine.run(until=5.0)
        assert fired == ["early"]
        assert engine.now == 5.0
        engine.run()
        assert fired == ["early", "late"]

    def test_events_processed_counter(self):
        engine = Engine()
        engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        engine.run()
        assert engine.events_processed == 2

    def test_pending_count(self):
        engine = Engine()
        engine.schedule(1.0, lambda: None)
        assert engine.pending() == 1
        engine.run()
        assert engine.pending() == 0


class TestDeterministicOrdering:
    """Regression tests for the scheduling-order contract.

    Same-timestamp events must fire in the order they were scheduled,
    regardless of which API scheduled them (``schedule``, ``call_at``)
    — packet traces rely on this for bit-identical reruns.
    """

    def test_call_at_interleaved_with_schedule_keeps_order(self):
        engine = Engine()
        fired = []
        engine.schedule(1.0, fired.append, "a")
        engine.call_at(1.0, fired.append, "b")
        engine.schedule(1.0, fired.append, "c")
        engine.call_at(1.0, fired.append, "d")
        engine.run()
        assert fired == ["a", "b", "c", "d"]


class TestCallAtMany:
    def test_bulk_matches_individual_pushes(self):
        bulk = Engine()
        single = Engine()
        fired_bulk, fired_single = [], []
        items = [(0.3, fired_bulk.append, ("a",)), (0.1, fired_bulk.append, ("b",)),
                 (0.2, fired_bulk.append, ("c",))]
        bulk.call_at_many(items)
        for when, _cb, args in items:
            single.call_at(when, fired_single.append, *args)
        bulk.run()
        single.run()
        assert fired_bulk == fired_single == ["b", "c", "a"]
        assert bulk.events_processed == single.events_processed

    def test_equal_times_keep_submission_order(self):
        engine = Engine()
        fired = []
        engine.call_at(1.0, fired.append, "before")
        engine.call_at_many(
            [(1.0, fired.append, ("x",)), (1.0, fired.append, ("y",))]
        )
        engine.call_at(1.0, fired.append, "after")
        engine.run()
        assert fired == ["before", "x", "y", "after"]

    def test_past_time_rejected_and_sequence_stays_consistent(self):
        engine = Engine()
        engine.schedule(5.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.call_at_many([(6.0, lambda: None, ()), (1.0, lambda: None, ())])
        # Sequence numbers consumed by the failed bulk push must not
        # reorder later same-time events.
        fired = []
        engine.call_at(6.0, fired.append, "first")
        engine.call_at(6.0, fired.append, "second")
        engine.run()
        assert fired == ["first", "second"]


class TestPeekTime:
    def test_empty_queue_is_infinite(self):
        assert Engine().peek_time() == float("inf")

    def test_reports_head_time(self):
        engine = Engine()
        engine.schedule(2.0, lambda: None)
        engine.schedule(1.0, lambda: None)
        assert engine.peek_time() == 1.0

    def test_updates_inside_run(self):
        engine = Engine()
        seen = []
        engine.schedule(1.0, lambda: seen.append(engine.peek_time()))
        engine.schedule(2.0, lambda: None)
        engine.run()
        assert seen == [2.0]


class TestCreditEvents:
    def test_counts_logical_events(self):
        engine = Engine()
        engine.credit_events(5)
        engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        engine.run()
        assert engine.events_processed == 7

    @pytest.mark.parametrize("run_kwargs", [{}, {"until": 4.0}])
    def test_running_only_while_a_loop_dispatches(self, run_kwargs):
        engine = Engine()
        seen = []
        engine.schedule(1.0, lambda: seen.append(engine.running))
        assert not engine.running
        engine.run(**run_kwargs)
        assert seen == [True]
        assert not engine.running


class TestChainAt:
    def test_step_rearms_until_it_returns_none(self):
        engine = Engine()
        seen = []

        def step(state):
            seen.append((engine.now, state["left"]))
            state["left"] -= 1
            return engine.now + 0.5 if state["left"] else None

        engine.chain_at(1.0, step, {"left": 3})
        assert engine.pending() == 1
        engine.run()
        assert seen == [(1.0, 3), (1.5, 2), (2.0, 1)]
        assert engine.events_processed == 3
        assert engine.pending() == 0

    def test_continuation_draws_the_trailing_sequence_number(self):
        # The step schedules a same-time plain event before returning:
        # the continuation was "scheduled" last, so it fires after it —
        # exactly like a trailing call_at.
        engine = Engine()
        order = []

        def step(state):
            order.append(state["link"])
            state["link"] += 1
            if state["link"] == 1:
                engine.call_at(2.0, order.append, "plain")
                return 2.0
            return None

        engine.chain_at(1.0, step, {"link": 0})
        engine.run()
        assert order == [0, "plain", 1]

    def test_past_start_time_rejected(self):
        engine = Engine()
        engine.call_at(2.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.chain_at(1.0, lambda arg: None, None)

    @pytest.mark.parametrize("run_kwargs", [{}, {"until": 5.0}])
    def test_step_returning_the_past_raises(self, run_kwargs):
        engine = Engine()
        engine.chain_at(2.0, lambda arg: 1.0, None)
        with pytest.raises(SimulationError, match="before current time"):
            engine.run(**run_kwargs)
        assert engine.now == 2.0
        assert engine.pending() == 0  # the broken chain is not re-queued

    def test_until_pushes_a_chained_entry_back(self):
        engine = Engine()
        seen = []

        def step(arg):
            seen.append(engine.now)
            return engine.now + 1.0 if engine.now < 3.0 else None

        engine.chain_at(1.0, step, None)
        engine.run(until=1.5)
        assert seen == [1.0] and engine.pending() == 1
        assert engine.peek_time() == 2.0
        engine.run()
        assert seen == [1.0, 2.0, 3.0]

    @pytest.mark.parametrize("until", [None, 10.0])
    def test_rearm_hands_over_to_every_kind_of_successor(self, until):
        # The heap loops pop a re-armed chain's successor in the same
        # sift (heappushpop): it may be plain without or with arguments,
        # the chain itself again, or beyond the horizon.
        engine = Engine()
        log = []

        def step(arg):
            log.append(("step", engine.now))
            return engine.now + 1.0 if engine.now < 3.0 else None

        engine.chain_at(0.0, step, None)
        engine.call_at(0.6, lambda: log.append(("plain", engine.now)))
        engine.call_at(0.7, lambda tag: log.append((tag, engine.now)), "args")
        engine.call_at(20.0, log.append, "late")
        engine.run(until=until)
        expected = [
            ("step", 0.0), ("plain", 0.6), ("args", 0.7),
            ("step", 1.0), ("step", 2.0), ("step", 3.0),
        ]
        if until is None:
            assert log == expected + ["late"]
            assert (engine.pending(), engine.events_processed) == (0, 7)
        else:
            assert log == expected
            assert (engine.pending(), engine.events_processed) == (1, 6)
            assert engine.now == until and engine.peek_time() == 20.0


class TestCallbackExceptionsPropagate:
    """Only an empty queue may end a run: an exception a callback raises
    — IndexError included, which the heap loops once mistook for "heap
    drained" — propagates, with the counters reflecting what did fire."""

    @pytest.mark.parametrize(
        "run_kwargs", [{}, {"until": 5.0}], ids=["unbounded", "until"],
    )
    @pytest.mark.parametrize("chained", [False, True])
    @pytest.mark.parametrize("exc", [IndexError, KeyError])
    def test_raises_out_of_run(self, run_kwargs, chained, exc):
        engine = Engine()
        fired = []

        def boom(*_):
            raise exc("from a callback")

        engine.call_at(0.5, fired.append, "before")
        if chained:
            engine.chain_at(1.0, boom, None)
        else:
            engine.call_at(1.0, boom)
        engine.call_at(2.0, fired.append, "after")
        with pytest.raises(exc, match="from a callback"):
            engine.run(**run_kwargs)
        assert fired == ["before"]
        assert engine.now == 1.0
        assert engine.events_processed == 1
        assert engine.pending() == 1
        engine.run()  # the survivor is still runnable
        assert fired == ["before", "after"]
