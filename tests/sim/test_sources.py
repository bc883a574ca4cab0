"""Tests for the traffic sources."""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.topology as T
from repro.routing import ECMPRouter
from repro.sim import BurstSource, Network, PoissonSource, RPCSource, SourceError
from repro.sim import sources as sources_module
from repro.units import GBPS, MBPS


@pytest.fixture()
def net():
    topo = T.full_mesh(4, 2)
    return Network(topo, ECMPRouter(topo))


class TestPoissonSource:
    def test_rate_is_respected(self, net):
        source = PoissonSource(net, "h0.0", "h1.0", rate_pps=100_000, seed=1)
        source.start()
        net.run(until=0.05)
        # 100 k pps over 50 ms → ~5000 packets; Poisson noise ±5 σ.
        assert 4600 <= source.packets_sent <= 5400

    def test_bandwidth_constructor(self, net):
        source = PoissonSource.at_bandwidth(
            net, "h0.0", "h1.0", 1 * GBPS, size_bytes=400, seed=1
        )
        assert source.rate_pps == pytest.approx(1e9 / 3200)

    def test_multiple_destinations_all_hit(self, net):
        source = PoissonSource(
            net, "h0.0", ["h1.0", "h2.0", "h3.0"], rate_pps=50_000, seed=2
        )
        source.start()
        net.run(until=0.01)
        assert net.stats.count > 100

    def test_stop_at(self, net):
        source = PoissonSource(net, "h0.0", "h1.0", rate_pps=100_000, stop_at=0.01, seed=3)
        source.start()
        net.run(until=0.05)
        assert source.packets_sent <= 1100

    def test_stop_method(self, net):
        source = PoissonSource(net, "h0.0", "h1.0", rate_pps=100_000, seed=4)
        source.start()
        net.engine.schedule(0.01, source.stop)
        net.run(until=0.05)
        assert source.packets_sent <= 1100

    def test_double_start_rejected(self, net):
        source = PoissonSource(net, "h0.0", "h1.0", rate_pps=1000)
        source.start()
        with pytest.raises(SourceError):
            source.start()

    def test_zero_rate_rejected(self, net):
        with pytest.raises(SourceError):
            PoissonSource(net, "h0.0", "h1.0", rate_pps=0)

    def test_empty_destinations_rejected(self, net):
        with pytest.raises(SourceError):
            PoissonSource(net, "h0.0", [], rate_pps=1000)

    def test_deterministic_for_seed(self):
        counts = []
        for _ in range(2):
            topo = T.full_mesh(4, 2)
            network = Network(topo, ECMPRouter(topo))
            source = PoissonSource(network, "h0.0", "h1.0", rate_pps=50_000, seed=9)
            source.start()
            network.run(until=0.01)
            counts.append(source.packets_sent)
        assert counts[0] == counts[1]


class TestSeeding:
    """Each Poisson source seeds its gap stream (``0``) and destination
    stream (``1``) from one memoized ``SeedSequence`` per ``(seed &
    _SEED_MASK, stream)``: bit-equal to ``np.random.default_rng((seed &
    _SEED_MASK, stream))``, which hashes the seed afresh each time."""

    SEEDS = st.one_of(
        st.integers(-(2**80), 2**80),
        st.integers(2**64, 2**70),  # past the mask: folded like any other
        st.integers(-(2**64), -1),
        st.sampled_from([0, 1, 2**64 - 1, 2**64, -1]),
    )

    @staticmethod
    def reference(seed, stream):
        return np.random.default_rng((seed & sources_module._SEED_MASK, stream))

    @settings(max_examples=60, deadline=None)
    @given(seed=SEEDS, again=st.booleans())
    def test_memoized_streams_equal_default_rng(self, seed, again):
        topo = T.full_mesh(4, 2)
        net = Network(topo, ECMPRouter(topo))
        dsts = ["h1.0", "h2.0", "h3.0"]
        for _ in range(2 if again else 1):  # the second source hits the memo
            source = PoissonSource(net, "h0.0", dsts, rate_pps=1e5, seed=seed)
            for rng, stream in ((source._gap_rng, 0), (source._dst_rng, 1)):
                assert rng.bit_generator.state == self.reference(seed, stream).bit_generator.state
            # What the source draws, through its own batching.
            gaps = self.reference(seed, 0).standard_exponential(40) / source.rate_pps
            picks = self.reference(seed, 1).integers(0, len(dsts), sources_module.DEFAULT_CHUNK)
            assert [source._next_gap() for _ in range(40)] == gaps.tolist()
            assert [source._next_dst() for _ in range(40)] == [dsts[i] for i in picks[:40]]
        single = PoissonSource(net, "h0.0", "h1.0", rate_pps=1e5, seed=seed)
        assert single._dst_rng is None
        assert single._gap_rng.bit_generator.state == self.reference(seed, 0).bit_generator.state

    def test_a_shared_sequence_is_never_spawned(self):
        """Sharing one ``SeedSequence`` between generators is sound only
        while nothing spawns from it: ``src/`` never calls ``spawn``, and a
        run leaves every memoized sequence unspawned."""
        src = Path(sources_module.__file__).resolve().parents[2]
        callers = [
            f"{path.relative_to(src)}:{n}"
            for path in sorted(src.rglob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if re.search(r"\bspawn\s*\(", line)
        ]
        assert callers == []
        topo = T.full_mesh(4, 2)
        net = Network(topo, ECMPRouter(topo))
        for seed in range(4):
            PoissonSource(net, "h0.0", ["h1.0", "h2.0"], rate_pps=1e5, seed=seed).start()
        net.run(until=1e-3)
        for seed in range(4):
            for stream in (0, 1):
                assert sources_module._seeds(seed, stream).n_children_spawned == 0


class TestBurstSource:
    def test_burst_interval_matches_target_bandwidth(self, net):
        source = BurstSource(
            net, "h0.0", "h1.0", target_bandwidth_bps=100 * MBPS,
            burst_packets=20, size_bytes=1500,
        )
        # 20 × 1500 B × 8 = 240 kbit per burst; at 100 Mb/s → 2.4 ms.
        assert source.burst_interval == pytest.approx(2.4e-3)

    def test_long_run_average_rate(self, net):
        source = BurstSource(
            net, "h0.0", "h1.0", target_bandwidth_bps=200 * MBPS, seed=5
        )
        source.start()
        net.run(until=0.1)
        sent_bits = source.packets_sent * 1500 * 8
        assert sent_bits / 0.1 == pytest.approx(200e6, rel=0.15)

    def test_packets_come_in_bursts(self, net):
        source = BurstSource(
            net, "h0.0", "h1.0", target_bandwidth_bps=50 * MBPS, burst_packets=20,
        )
        source.start(delay=0.0)
        net.run(until=source.burst_interval * 0.5)
        assert source.packets_sent == 20

    def test_invalid_parameters(self, net):
        with pytest.raises(SourceError):
            BurstSource(net, "h0.0", "h1.0", target_bandwidth_bps=0)
        with pytest.raises(SourceError):
            BurstSource(net, "h0.0", "h1.0", target_bandwidth_bps=1e6, burst_packets=0)


class TestRPCSource:
    def test_completes_requested_calls(self, net):
        rpc = RPCSource(net, "h0.0", "h1.0", num_calls=50)
        rpc.start()
        net.run()
        assert rpc.completed == 50
        assert len(rpc.rtts) == 50

    def test_rtts_are_recorded_in_stats_group(self, net):
        rpc = RPCSource(net, "h0.0", "h1.0", num_calls=10, group="probe")
        rpc.start()
        net.run()
        assert net.stats.summary("probe").count == 10

    def test_rtt_greater_than_one_way(self, net):
        rpc = RPCSource(net, "h0.0", "h1.0", num_calls=5)
        rpc.start()
        net.run()
        one_way = net.send("h0.0", "h1.0", 200)
        net.run()
        assert min(rpc.rtts) > one_way.latency

    def test_server_think_time_adds_to_rtt(self):
        topo = T.full_mesh(4, 2)
        network = Network(topo, ECMPRouter(topo))
        fast = RPCSource(network, "h0.0", "h1.0", num_calls=5, group="fast")
        slow = RPCSource(
            network, "h2.0", "h3.0", num_calls=5, server_think_time=1e-5, group="slow"
        )
        fast.start()
        slow.start()
        network.run()
        assert network.stats.summary("slow").mean - network.stats.summary(
            "fast"
        ).mean == pytest.approx(1e-5, rel=0.05)

    def test_zero_calls_rejected(self, net):
        with pytest.raises(SourceError):
            RPCSource(net, "h0.0", "h1.0", num_calls=0)


class TestChunkedDraws:
    """Batched RNG draws change only speed: any chunk size must
    produce the exact same packet sequence (numpy generators fill
    batches from the same bit stream as repeated scalar draws, and gap
    and destination picks use independent streams)."""

    def fingerprint(self, monkeypatch, chunk):
        monkeypatch.setattr(sources_module, "DEFAULT_CHUNK", chunk)
        topo = T.full_mesh(4, 2)
        net = Network(topo, ECMPRouter(topo))
        source = PoissonSource(
            net, "h0.0", ["h1.0", "h2.0", "h3.0"], rate_pps=100_000, seed=11,
        )
        source.start()
        net.run(until=0.02)
        return (
            source.packets_sent,
            net.packets_delivered,
            net.engine.events_processed,
            tuple(net.stats.samples),
        )

    def test_chunk_sizes_bit_identical(self, monkeypatch):
        one = self.fingerprint(monkeypatch, 1)
        assert self.fingerprint(monkeypatch, 256) == one
        assert self.fingerprint(monkeypatch, 7) == one
        assert self.fingerprint(monkeypatch, 1024) == one

    def test_gap_pre_draw_grows_to_the_chunk(self, monkeypatch):
        """A short stream must not hold a full chunk of floats: batches
        double from 32 and stop at ``DEFAULT_CHUNK`` (the values are the
        same stream however it is cut — ``test_chunk_sizes_bit_identical``)."""
        topo = T.full_mesh(2, 1)
        net = Network(topo, ECMPRouter(topo))
        sizes = {}
        for chunk in (1, 20, 256):
            monkeypatch.setattr(sources_module, "DEFAULT_CHUNK", chunk)
            source = PoissonSource(net, "h0.0", "h1.0", rate_pps=1000)
            sizes[chunk] = []
            for _ in range(5):
                source._gaps = source._draw_gaps()
                sizes[chunk].append(len(source._gaps))
        assert sizes == {
            1: [1] * 5, 20: [20] * 5, 256: [32, 64, 128, 256, 256],
        }


def _poisson(net):
    return PoissonSource(net, "h0.0", "h1.0", rate_pps=100_000, seed=1)


def _burst(net):
    return BurstSource(net, "h0.0", "h1.0", 1 * GBPS, burst_packets=10, seed=1)


def _runner(net, batch):
    """``Network.run`` tries the port-major pass; ``engine.run`` never does."""
    return net.run if batch else net.engine.run


class TestRestart:
    """``stop(); start()`` used to leave the pre-stop fire queued and live,
    so the restarted source ran two fire chains — twice the rate."""

    @pytest.mark.parametrize("batch", [False, True])
    def test_poisson_restart_keeps_the_rate(self, batch, monkeypatch):
        if not batch:
            monkeypatch.setattr(sources_module, "DEFAULT_CHUNK", 1)
        topo = T.full_mesh(4, 2)
        net = Network(topo, ECMPRouter(topo))
        run = _runner(net, batch)
        source = _poisson(net)
        source.start()
        run(until=0.01)
        first = source.packets_sent
        source.stop()
        source.start()
        run(until=0.02)
        # 100 kpps: ~1000 packets per 10 ms half, Poisson noise +-5 sigma.
        assert 850 <= first <= 1150
        assert 850 <= source.packets_sent - first <= 1150
        # The fabric has drained its last packets by the next fire or
        # two; what stays queued is the one live chain.
        assert net.engine.pending() == 1

    @pytest.mark.parametrize("batch", [False, True])
    def test_burst_restart_keeps_the_rate(self, batch):
        topo = T.full_mesh(4, 2)
        net = Network(topo, ECMPRouter(topo))
        run = _runner(net, batch)
        source = _burst(net)  # one 10-packet burst per 120 us
        source.start(delay=0.0)
        run(until=0.0101)
        first = source.packets_sent
        source.stop()
        source.start(delay=0.0)
        run(until=0.0202)
        assert first == 850  # bursts at 0, 120 us, ..., 10.08 ms
        assert source.packets_sent - first == 850
        assert net.engine.pending() == 1

    @pytest.mark.parametrize("make", [_poisson, _burst])
    def test_stopped_source_leaves_nothing_live(self, make):
        topo = T.full_mesh(4, 2)
        net = Network(topo, ECMPRouter(topo))
        source = make(net)
        source.start()
        net.run(until=0.001)
        source.stop()
        sent = source.packets_sent
        net.run(until=0.002)
        assert source.packets_sent == sent
        assert net.engine.pending() == 0

    def test_restart_continues_the_draw_streams(self, monkeypatch):
        """A restart resumes the seeded gap stream, it does not rewind it."""
        monkeypatch.setattr(sources_module, "DEFAULT_CHUNK", 4096)
        topo = T.full_mesh(4, 2)
        net = Network(topo, ECMPRouter(topo))
        source = PoissonSource(net, "h0.0", "h1.0", rate_pps=100_000, seed=1)
        source.start()
        net.run(until=0.001)
        source.stop()
        cursor = source._gap_i
        source.start()
        assert source._gap_i == cursor + 1


# -- chained sources against the trailing-call_at shape they replaced ------------


def _drive_with_call_at(source, step):
    """Fire ``step`` the pre-chain way: a plain event whose *last* act
    is ``call_at(next_time, ...)`` — what ``Engine.chain_at`` promises
    to be indistinguishable from."""
    engine = source.network.engine

    def fire(generation):
        when = step(generation)
        if when is not None:
            engine.call_at(when, fire, generation)

    return fire


class CallAtPoissonSource(PoissonSource):
    def start(self, delay=0.0):
        if self._running:
            raise SourceError("source already started")
        self._running = True
        engine = self.network.engine
        engine.call_at(
            engine.now + (delay + self._next_gap()),
            _drive_with_call_at(self, self._fire), self._generation,
        )


class CallAtBurstSource(BurstSource):
    def start(self, delay=None):
        if self._running:
            raise SourceError("source already started")
        self._running = True
        phase = self._rng.uniform(0, self.burst_interval) if delay is None else delay
        engine = self.network.engine
        engine.call_at(
            engine.now + phase,
            _drive_with_call_at(self, self._fire_burst), self._generation,
        )


SOURCE_SPECS = st.lists(
    st.fixed_dictionaries({
        "kind": st.sampled_from(["poisson", "poisson", "burst"]),
        "src": st.integers(0, 3),
        "fan": st.integers(1, 3),  # destinations (poisson only)
        "rate": st.sampled_from([2e5, 1e6, 4e6]),
        "stop_at": st.sampled_from([4e-5, 1.5e-4, 3e-4]),
        "forever": st.booleans(),  # no stop_at (split runs only)
        "vary": st.booleans(),
        "callback": st.booleans(),
        "seed": st.integers(0, 50),
    }),
    min_size=1, max_size=3,
)


def _snapshot(net, sources, delivered):
    engine = net.engine
    return (
        engine.now, engine.events_processed, engine.pending(), engine.peek_time(),
        tuple(s.packets_sent for s in sources),
        net._next_packet_id, net.packets_delivered,
        tuple(net.stats.samples), tuple(delivered),
        sorted(
            (key, p.packets_sent, p.bytes_sent, p.busy_until)
            for key, p in net._ports.items() if p.packets_sent
        ),
    )


def _run_sources(chained, batch, specs, mode, restart):
    """Snapshots after every leg of one run, chained or trailing-call_at."""
    topo = T.full_mesh(4, 2)
    net = Network(topo, ECMPRouter(topo))
    run = _runner(net, batch)
    poisson = PoissonSource if chained else CallAtPoissonSource
    burst = BurstSource if chained else CallAtBurstSource
    delivered = []
    sources = []
    for index, spec in enumerate(specs):
        src = f"h{spec['src']}.0"
        others = [f"h{(spec['src'] + k) % 4}.1" for k in range(1, 4)]
        # An unbounded ``run()`` only returns if every source ends.
        stop_at = None if spec["forever"] and mode != "run" else spec["stop_at"]
        if spec["kind"] == "burst":
            source = burst(
                net, src, others[0], spec["rate"] * 3200, burst_packets=4,
                size_bytes=400, flow_id=index, seed=spec["seed"], stop_at=stop_at,
            )
        else:
            source = poisson(
                net, src, others[: spec["fan"]], rate_pps=spec["rate"],
                flow_id=index, seed=spec["seed"], stop_at=stop_at,
                vary_flow_per_packet=spec["vary"],
                on_delivered=(
                    (lambda packet, when: delivered.append((packet.packet_id, when)))
                    if spec["callback"] else None
                ),
            )
        source.start()
        sources.append(source)
    snaps = []
    if mode == "run":
        run()
        snaps.append(_snapshot(net, sources, delivered))
    else:
        for leg in range(1, 5):
            run(until=leg * 1e-4)
            snaps.append(_snapshot(net, sources, delivered))
            if restart and leg == 2:
                for source in sources:
                    source.stop()
                    source.start()
    return snaps


class TestChainedSourcesMatchTrailingCallAt:
    """A chained source is the trailing-``call_at`` source minus the frame
    and the allocation: same packets, same event count, same queue."""

    @settings(max_examples=60, deadline=None)
    @given(
        batch=st.booleans(),
        specs=SOURCE_SPECS,
        mode=st.sampled_from(["run", "until"]),
        restart=st.booleans(),
    )
    def test_identical_snapshots(self, batch, specs, mode, restart):
        # Chunks of 32 refill the pre-drawn gaps inside these short runs.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sources_module, "DEFAULT_CHUNK", 32)
            chained = _run_sources(True, batch, specs, mode, restart)
            reference = _run_sources(False, batch, specs, mode, restart)
        assert chained == reference
        assert chained[-1][4] != (0,) * len(specs)  # traffic actually flowed
