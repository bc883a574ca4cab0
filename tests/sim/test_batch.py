"""The port-major pass: engaged or stood down, bit-identical to the scalar loops.

``Network.run(until=…)`` (the port-major pass,
:mod:`repro.sim.portmajor`) must be a pure speed change, like the
compiled fast path before it: every externally visible number —
per-packet latencies, drop/reroute counters, port state, the logical
event count, the fault bookkeeping — must match the scalar kernel run
by ``engine.run`` exactly, with Poisson gaps drawn in chunks and drawn
packet by packet (the reference), whether the
pass takes the whole horizon (plain streams) or the windows between
what it cannot own (timers, a cut and its repair, ``stop_at`` inside
it).  The equivalence fingerprint here extends
``tests/sim/test_fastpath.py``'s; ``tests/sim/test_portmajor.py`` holds
the pass's own differential.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.topology as T
from repro.routing import ECMPRouter
from repro.sim import Network, portmajor
from repro.sim.portmajor import _contended_tails, _repeated_add
from repro.sim.sources import PoissonSource
from repro.units import GBPS
from tests.sim.test_fastpath import network_fingerprint, per_packet_draws

MODES = ("batched", "fastpath", "reference")


def build(mode):
    """A three-tier network for one of the three modes: only
    ``"batched"`` runs through ``Network.run``, the scalar modes' ``run``
    is ``engine.run``; ``"reference"`` also draws packet by packet
    (:func:`run_workload`).
    """
    topo = T.three_tier_tree()
    net = Network(topo, ECMPRouter(topo))
    if mode != "batched":
        net.run = net.engine.run
    return net


def port_state(net):
    """Every port counter, in deterministic key order — exact floats."""
    return tuple(
        (key, port.packets_sent, port.bytes_sent, port.busy_until)
        for key, port in sorted(net._ports.items())
    )


def fingerprint(net, sources):
    return (
        net.packets_delivered,
        net.packets_dropped,
        net.packets_dropped_fault,
        net.packets_rerouted,
        net._next_packet_id,
        net.engine.events_processed,
        tuple(net.stats.samples),
        tuple(source.packets_sent for source in sources),
        port_state(net),
        network_fingerprint(net)[10:],  # fault counters, outages, in-flight sets
    )


def run_watched(net, until):
    """``net.run(until=until)``; returns how many windows the pass solved."""
    seen = []
    real = portmajor._solve

    def spy(*args):
        real(*args)
        seen.append(args[1])

    portmajor._solve = spy
    try:
        net.run(until=until)
    finally:
        portmajor._solve = real
    return len(seen)


def run_workload(
    mode,
    nsrc=6,
    rate=600_000.0,
    until=0.012,
    fault=None,
    stop_at=None,
    interrupters=(),
):
    """Fixed workload; returns (fingerprint, net, sources, engaged) —
    ``engaged`` being how many windows of the horizon the pass solved.

    ``fault="lazy"`` schedules a cut+repair without pre-arming in-flight
    tracking; ``fault="armed"`` pre-arms it like the fastpath suite.
    ``interrupters`` schedules no-op events at the given times.  The
    queued timers of all three bound the pass's windows: nothing may be
    applied at or past one before the event loop has run it.  The
    reference draws packet by packet.
    """
    with per_packet_draws(mode == "reference"):
        return _run_workload(mode, nsrc, rate, until, fault, stop_at, interrupters)


def _run_workload(mode, nsrc, rate, until, fault, stop_at, interrupters):
    net = build(mode)
    engine = net.engine
    servers = net.topo.servers()
    sources = [
        PoissonSource(
            net, servers[i], servers[-1], rate_pps=rate, seed=i, flow_id=i,
            group="load", stop_at=stop_at,
        )
        for i in range(nsrc)
    ]
    for source in sources:
        source.start()
    if fault is not None:
        probe = net.router.route(servers[0], servers[-1], 0)
        u, v = probe[1], probe[2]
        if fault == "armed":
            net.enable_fault_tracking()
        engine.schedule(0.004, lambda: net.fail_link(u, v))
        engine.schedule(0.008, lambda: net.repair_link(u, v))
    for when in interrupters:
        engine.call_at(when, lambda: None)
    engaged = run_watched(net, until)
    return fingerprint(net, sources), net, sources, engaged


class TestEquivalence:
    def test_multi_source_bit_identical(self):
        batched, _, _, engaged = run_workload("batched")
        fast, _, _, scalar = run_workload("fastpath")
        ref, _, _, _ = run_workload("reference")
        assert batched == fast == ref
        assert engaged and not scalar

    def test_single_source_full_cohorts_bit_identical(self):
        # One long stream: the horizon is a chain of full windows.
        batched, _, sources, engaged = run_workload("batched", nsrc=1)
        fast, _, _, _ = run_workload("fastpath", nsrc=1)
        assert batched == fast
        assert engaged and sources[0].packets_sent > 7000

    def test_contended_port_cohorts_bit_identical(self):
        # 2 Mpps of 400 B ≈ 6.4 Gb/s against 10 G links: packets queue
        # on their own ports, so the sequential busy-period replay must
        # agree with the scalar recurrence.
        batched, _, _, engaged = run_workload("batched", nsrc=1, rate=2_000_000.0)
        fast, _, _, _ = run_workload("fastpath", nsrc=1, rate=2_000_000.0)
        ref, _, _, _ = run_workload("reference", nsrc=1, rate=2_000_000.0)
        assert batched == fast == ref
        assert engaged

    def test_lazy_fault_churn_bit_identical(self):
        # Windows up to the cut, between it and the repair (tracking
        # armed by the cut, a dead link, detouring packets in flight),
        # and after the repair.
        batched, _, _, engaged = run_workload("batched", fault="lazy")
        fast, _, _, _ = run_workload("fastpath", fault="lazy")
        ref, _, _, _ = run_workload("reference", fault="lazy")
        assert batched == fast == ref
        assert engaged >= 3 and batched[3] > 0  # packets were rerouted

    def test_armed_fault_tracking_bit_identical(self):
        # Tracking armed from the start: what the first window hands
        # back is in the in-flight sets the cut severs.
        batched, _, _, engaged = run_workload("batched", fault="armed")
        fast, _, _, _ = run_workload("fastpath", fault="armed")
        assert batched == fast
        assert engaged >= 3 and batched[2] > 0  # packets were severed

    def test_interrupters_force_prefix_commits(self):
        # A wall of no-op events slices through the single-source
        # stream: nothing may be applied ahead of a queued timer, and
        # each 0.5 ms between two of them is a window.
        walls = tuple(0.0005 * k for k in range(1, 20))
        batched, _, _, engaged = run_workload("batched", nsrc=1, interrupters=walls)
        fast, _, _, _ = run_workload("fastpath", nsrc=1, interrupters=walls)
        assert batched == fast
        assert engaged == len(walls) + 1

    def test_stop_at_bit_identical(self):
        batched, _, sources, engaged = run_workload("batched", nsrc=1, stop_at=0.006)
        fast, _, _, _ = run_workload("fastpath", nsrc=1, stop_at=0.006)
        ref, _, _, _ = run_workload("reference", nsrc=1, stop_at=0.006)
        assert batched == fast == ref
        # The fires before ``stop_at`` are one window; the fire that
        # ends the chain is the event loop's.
        assert engaged == 1 and not sources[0]._running

    def test_horizon_leaves_same_packets_in_flight(self):
        # Stop mid-flight: what the pass hands back at the horizon must
        # be what the event loop would hold, so the counts agree at the
        # horizon *and* after resuming to exhaustion.
        results = {}
        for mode in MODES:
            fp, net, sources, engaged = run_workload(mode, nsrc=2, until=0.003)
            assert bool(engaged) == (mode == "batched")
            for source in sources:
                source.stop()
            resumed_at = fp
            net.engine.run()
            results[mode] = (resumed_at, fingerprint(net, sources))
        assert results["batched"] == results["fastpath"] == results["reference"]


def windows_solved(**kwargs):
    """Windows ``Network.run`` solves of one stream over 1 ms."""
    topo = T.full_mesh(2, 1)
    net = Network(topo, ECMPRouter(topo), **kwargs)
    PoissonSource(net, "h0.0", "h1.0", rate_pps=1_000_000.0, seed=1).start()
    return run_watched(net, 1e-3), net


class TestFlagResolution:
    def test_telemetry_stands_batching_down(self):
        assert windows_solved()[0] == 1
        solved, net = windows_solved(telemetry=True)
        assert solved == 0
        assert net.packets_delivered > 0, "the kernel keeps running under telemetry"



def count_guesses(monkeypatch) -> list:
    """Record every call of the busy-period guess of ``_contended_tails``."""
    guess = portmajor._guess_tails
    calls = []

    def counted(e, busy, ser):
        calls.append(e.size)
        return guess(e, busy, ser)

    monkeypatch.setattr(portmajor, "_guess_tails", counted)
    return calls


class TestContendedReplay:
    def test_matches_reference_recurrence(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            e = np.sort(rng.uniform(0.0, 1e-5, size=rng.integers(1, 40)))
            busy = float(rng.uniform(0.0, 1.2e-5))
            ser = float(rng.uniform(1e-8, 1e-6))
            tails = _contended_tails(e, busy, ser)
            b = busy
            for i, earliest in enumerate(e.tolist()):
                start = earliest if b < earliest else b
                b = start + ser
                assert tails[i] == b  # exact float equality

    @settings(max_examples=200, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(st.sampled_from(["tie", "gap"]), st.floats(0.0, 4.0)),
            min_size=1, max_size=60,
        ),
        rho=st.sampled_from([0.1, 0.5, 0.9, 1.2]),
        busy_at_start=st.booleans(),
        per_packet=st.booleans(),
        seed=st.integers(0, 1000),
    )
    def test_busy_periods_equal_the_recurrence(self, steps, rho, busy_at_start, per_packet, seed):
        """Arrivals at load ``rho``, some placed exactly on the previous
        tail (``e[i] == tail[i-1]`` starts service at either), on a port
        idle or busy at the start; one ``ser`` or one per packet."""
        rng = np.random.default_rng(seed)
        mean = 1e-6
        sers = (rng.uniform(0.2, 1.8, len(steps)) * mean).tolist() if per_packet else [mean] * len(steps)
        busy = 2.5 * mean if busy_at_start else 0.0
        arrivals, tails = [], []
        t, b = 0.0, busy
        for (kind, x), ser in zip(steps, sers):
            t = b if kind == "tie" and b >= t else t + x * mean / rho
            arrivals.append(t)
            start = t if b < t else b  # the reference recurrence
            b = start + ser
            tails.append(b)
        got = _contended_tails(
            np.array(arrivals), busy, np.array(sers) if per_packet else mean
        )
        assert got.tolist() == tails  # exact float equality

    @settings(max_examples=60, deadline=None)
    @given(
        size=st.integers(1, 5000),
        origin=st.sampled_from(["zero", "below_binade", "quarter"]),
        k=st.integers(3, 24),
        ser=st.sampled_from([1e-6, 1.2e-7, 8.000000000000001e-7]),
        rho=st.sampled_from([0.5, 0.9, 0.99, 1.3]),
        credits=st.booleans(),
        ties=st.sampled_from([0.0, 0.05, 0.5]),
        carried=st.sampled_from([None, 3.0, 400.0]),
        seed=st.integers(0, 2**16),
    )
    def test_long_arrays_equal_the_recurrence(
        self, size, origin, k, ser, rho, credits, ties, carried, seed
    ):
        """Streams long enough to cross binades and reach later guesses:
        starting at 0, a little below ``2**-k`` or ``0.25``; arrival
        order broken by per-hop credits; arrivals on the previous tail,
        exactly (``e[i] == tail[i-1]``) or within three ulps of it (what
        a port downstream of a busy one sees, and what the guess can
        misplace a busy period's start on); a busy port carried in.
        Bit-identical to the recurrence, in a bounded number of guesses."""
        rng = np.random.default_rng(seed)
        span = size * ser / rho
        first = {"zero": 0.0, "below_binade": 2.0**-k, "quarter": 0.25}[origin] - span / 2
        e = max(first, 0.0) + np.cumsum(rng.exponential(ser / rho, size))
        if credits:
            e += rng.choice([0.0, 0.3, 0.7], size) * ser
        busy = 0.0 if carried is None else float(e[0]) + carried * ser
        tie = rng.random(size) < ties
        ulps = rng.integers(-3, 4, size)
        expected = []
        b = busy
        for i, earliest in enumerate(e.tolist()):
            if tie[i]:
                e[i] = earliest = b + int(ulps[i]) * math.ulp(b)
            start = earliest if b < earliest else b  # the reference recurrence
            b = start + ser
            expected.append(b)
        with pytest.MonkeyPatch.context() as monkeypatch:
            guesses = count_guesses(monkeypatch)
            assert _contended_tails(e, busy, ser).tolist() == expected  # exact float equality
        # Each guess but the last certified an eighth of what was left.
        floor = portmajor.MIN_CERTIFIED
        assert len(guesses) <= 1 + max(0, math.ceil(math.log(size / floor) / math.log(8 / 7)))

    def test_a_half_ulp_service_time_costs_at_most_two_guesses(self, monkeypatch):
        """Every ``tail + ser`` in ``[0.125, 0.25)`` is an exact tie, so
        its rounding depends on the tail's last bit: the input a closed
        form is most easily wrong on.  No timing: guesses are counted."""
        ulp = 2.0**-55  # of [0.125, 0.25)
        ser = (math.floor(1e-6 / ulp) + 0.5) * ulp
        guesses = count_guesses(monkeypatch)
        for seed, rho in enumerate([0.5, 0.9, 0.99, 1.2] * 3):
            rng = np.random.default_rng(seed)
            e = 0.125 + np.cumsum(rng.exponential(ser / rho, 3000))
            busy = float(e[0]) + 5 * ser if seed % 2 else 0.0
            b = busy
            expected = []
            for earliest in e.tolist():
                b = (earliest if b < earliest else b) + ser
                expected.append(b)
            guesses.clear()
            assert _contended_tails(e, busy, ser).tolist() == expected
            assert 1 <= len(guesses) <= 2

    def test_a_stream_inside_one_binade_is_certified_whole(self, monkeypatch):
        """An M/D/1 stream whose tails never cross a power of two is the
        first guess, certified: the loop never runs."""
        replays = []
        monkeypatch.setattr(portmajor, "_replay", lambda *args: replays.append(args))
        guesses = count_guesses(monkeypatch)
        ser = 1e-6
        for seed, rho in enumerate([0.5, 0.9, 0.99]):
            e = 0.13 + np.cumsum(np.random.default_rng(seed).exponential(ser / rho, 5000))
            b = 0.0
            expected = []
            for earliest in e.tolist():
                b = (earliest if b < earliest else b) + ser
                expected.append(b)
            assert _contended_tails(e, 0.0, ser).tolist() == expected
        assert (len(guesses), replays) == (3, [])

    def test_repeated_add_exact(self):
        # Integer shortcut and float replay must both equal the chain.
        for base, step, count in [(0.0, 400.0, 257), (1.5e-7, 0.3, 100), (12.0, 64, 9)]:
            chain = float(base)
            for _ in range(count):
                chain += step
            assert _repeated_add(base, step, count) == chain


class TestCohortSourceAccounting:
    def test_gap_stream_consumption_matches_scalar(self):
        # The same seed must produce the same injection times whether
        # gaps are consumed one per fire or a window at a time — and the
        # fires after the window must continue from the same cursor.
        times = {}
        for mode in ("batched", "fastpath"):
            net = build(mode)
            servers = net.topo.servers()
            source = PoissonSource(
                net, servers[0], servers[-1], rate_pps=500_000.0, seed=3,
            )
            source.start()
            net.run(until=0.002)
            at_horizon = (source.packets_sent, tuple(net.stats.samples))
            net.engine.run(until=0.003)  # event by event in both modes
            times[mode] = (at_horizon, source.packets_sent, tuple(net.stats.samples))
        assert times["batched"] == times["fastpath"]
        assert times["batched"][0][0] > 900


def sequential_fires(source, first, until):
    """The chain's own adds: every fire up to ``until`` and the next."""
    times = [first]
    while times[-1] <= until:
        times.append(times[-1] + source._next_gap())
    return times


class TestFiresThrough:
    """``PoissonSource._fires_through``: the fire chain's times as one
    array, whatever the horizon still has to draw."""

    def pair(self, rate=1_000_000.0):
        topo = T.full_mesh(2, 1)
        net = Network(topo, ECMPRouter(topo))
        return [
            PoissonSource(net, "h0.0", "h1.0", rate_pps=rate, seed=11)
            for _ in range(2)
        ]

    def test_equals_sequential_adds_whatever_it_draws(self, monkeypatch):
        # The first start() draws 32 gaps: 10 us needs none beyond them,
        # 1 ms one draw, and a generator that hands out seven values at
        # a time (the stream does not depend on how it is cut) many.
        for until, most_at_once in ((1e-5, None), (1e-3, None), (1e-3, 7)):
            array, scalar = self.pair()
            first = array._next_gap()
            assert scalar._next_gap() == first
            if most_at_once is not None:
                draw = array._gap_rng.standard_exponential
                monkeypatch.setattr(
                    array, "_gap_rng",
                    type("Short", (), {"standard_exponential":
                                       staticmethod(lambda n: draw(min(n, most_at_once)))}),
                )
            buffer = list(array._gaps)
            fires, unspent = array._fires_through(first, until)
            assert fires.tolist() == sequential_fires(scalar, first, until)
            # The gaps the fires leave are the stream's next ones.
            assert unspent.tolist() == [scalar._next_gap() for _ in range(unspent.size)]
            # The source is unchanged: the pass commits.
            assert array._gap_i == 1 and array._gaps == buffer

    def test_the_gap_stream_continues_as_a_per_packet_draw(self, monkeypatch):
        """An md1-shaped stream cut into windows at ``MAX_WINDOW_FIRES``:
        after each hand-back the source's buffer holds exactly the gaps
        a per-packet draw would give next; so it does after a ``budget``
        stand-down, which draws nothing."""
        topo = T.full_mesh(2, 1, link_rate=10 * GBPS)
        net = Network(topo, ECMPRouter(topo))
        source = PoissonSource(net, "h0.0", "h1.0", rate_pps=500_000.0,
                               size_bytes=1250, seed=7)
        source.start()
        held = []
        solve = portmajor._solve

        def spy(net, until, roots):
            solve(net, until, roots)
            held.append((source.packets_sent, source._gaps[source._gap_i:]))

        monkeypatch.setattr(portmajor, "_solve", spy)
        net.run(until=0.1)
        assert len(held) >= 3  # windows cut at MAX_WINDOW_FIRES
        # One fire past the horizon is queued: a budget stand-down.
        assert portmajor.advance(net, net.engine._heap[0][0]) == (False, None)
        assert net.standdowns == {"budget": 1}
        held.append((source.packets_sent, source._gaps[source._gap_i:]))
        with per_packet_draws():
            for sent, buffer in held:
                reference = PoissonSource(net, "h0.0", "h1.0", rate_pps=500_000.0,
                                          size_bytes=1250, seed=7)
                for _ in range(sent + 1):  # start() draws one gap, each fire one more
                    reference._next_gap()
                assert buffer and buffer == [reference._next_gap() for _ in buffer]

    def test_later_scalar_fires_continue_from_the_same_cursor(self, monkeypatch):
        monkeypatch.setattr(portmajor, "MIN_WINDOW_FIRES", 8)  # 20 us of stream is a window
        for until in (2e-5, 1e-3, 2.5e-2):  # no draw, one, a chain of windows
            runs = []
            for batch in (True, False):
                topo = T.full_mesh(2, 1)
                net = Network(topo, ECMPRouter(topo))
                if not batch:
                    net.run = net.engine.run
                source = PoissonSource(net, "h0.0", "h1.0", rate_pps=1_500_000.0,
                                       seed=5)
                source.start()
                assert bool(run_watched(net, until)) == batch
                net.engine.run(until=until + 3e-4)
                runs.append((source.packets_sent, tuple(net.stats.samples)))
            assert runs[0] == runs[1]
