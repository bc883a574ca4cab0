"""Tests for latency statistics."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.topology as T
from repro.routing import ECMPRouter
from repro.sim import Network, portmajor
from repro.sim.sources import PoissonSource
from repro.sim.stats import (
    UNGROUPED,
    DeliveryBins,
    HopStampStats,
    LatencyRecorder,
    LatencySummary,
    summarize_latencies,
)
from repro.units import GBPS


class ListRecorder:
    """The recorder as two Python lists, and its summary as a sorted
    list: the reference the column recorder must equal bit for bit."""

    def __init__(self):
        self.samples = []
        self.by_group = {}

    def record(self, latency, group=None):
        self.samples.append(latency)
        if group is not None:
            self.by_group.setdefault(group, []).append(latency)

    def record_many(self, latencies, group=None):
        self.samples.extend(latencies)
        if group is not None:
            self.by_group.setdefault(group, []).extend(latencies)

    def summary(self, group=None):
        samples = self.samples if group is None else self.by_group.get(group, [])
        if not samples:
            raise ValueError("no latency samples recorded")
        ordered = sorted(samples)
        n = len(ordered)
        mean = math.fsum(ordered) / n
        variance = math.fsum((x - mean) ** 2 for x in ordered) / (n - 1) if n > 1 else 0.0

        def rank(q):
            return ordered[min(n - 1, max(0, math.ceil(q * n) - 1))]

        return LatencySummary(n, mean, math.sqrt(variance), ordered[0], ordered[-1],
                              rank(0.50), rank(0.95), rank(0.99))


def bits(value):
    """Floats by their bits (``-0.0`` is not ``0.0``), recursively."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, LatencySummary):
        return bits(list(vars(value).values()))
    if isinstance(value, dict):
        return [(key, bits(item)) for key, item in value.items()]
    if isinstance(value, (list, tuple)):
        return [bits(item) for item in value]
    return value


class TestSummarize:
    def test_basic_statistics(self):
        s = summarize_latencies([1.0, 2.0, 3.0, 4.0])
        assert s.count == 4
        assert s.mean == pytest.approx(2.5)
        assert s.minimum == 1.0
        assert s.maximum == 4.0

    def test_percentiles(self):
        samples = [float(i) for i in range(1, 101)]
        s = summarize_latencies(samples)
        assert s.p50 == 50.0
        assert s.p95 == 95.0
        assert s.p99 == 99.0

    def test_single_sample(self):
        s = summarize_latencies([5.0])
        assert s.std == 0.0
        assert s.ci95_halfwidth == 0.0
        assert s.p99 == 5.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize_latencies([])
        with pytest.raises(ValueError):
            summarize_latencies(np.empty(0))

    def test_variance_squares_as_the_list_form_did(self):
        # The C library's pow rounds these two squares other than ``d * d``
        # does, and the std moves by one ulp: the array form keeps pow.
        samples = [2.606518e-06, 3.278286e-06]
        reference = ListRecorder()
        reference.record_many(samples)
        assert bits(summarize_latencies(np.array(samples))) == bits(reference.summary())

    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=200))
    def test_property_bounds(self, samples):
        s = summarize_latencies(samples)
        eps = 1e-9 * max(1.0, s.maximum)  # float summation slack
        assert s.minimum - eps <= s.mean <= s.maximum + eps
        assert s.minimum <= s.p50 <= s.p95 <= s.p99 <= s.maximum
        assert s.std >= 0


class TestRecorder:
    def test_grouping(self):
        rec = LatencyRecorder()
        rec.record(1.0, group="a")
        rec.record(3.0, group="b")
        rec.record(2.0)
        assert rec.count == 3
        assert rec.summary("a").mean == 1.0
        assert rec.summary().count == 3
        assert rec.groups() == ["a", "b"]

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            LatencyRecorder().record(-1.0)

    def test_nan_rejected_by_record(self):
        rec = LatencyRecorder()
        with pytest.raises(ValueError, match="negative latency nan"):
            rec.record(math.nan)
        rec.record(2.0)
        rec.record(1.0)
        assert rec.summary().minimum == 1.0

    def test_nan_rejected_by_record_many(self):
        rec = LatencyRecorder()
        with pytest.raises(ValueError, match="negative latency nan"):
            rec.record_many([2.0, math.nan, 1.0], group="a")
        assert rec.count == 0 and rec.groups() == []
        rec.record_many([2.0, 1.0])
        assert rec.summary().minimum == 1.0

    def test_missing_group_raises(self):
        rec = LatencyRecorder()
        rec.record(1.0, group="a")
        with pytest.raises(ValueError):
            rec.summary("missing")

    def test_clear(self):
        rec = LatencyRecorder()
        rec.record(1.0, group="a")
        rec.clear()
        assert rec.count == 0
        assert rec.groups() == []

    def test_record_many_matches_per_packet_records(self):
        bulk, loop = LatencyRecorder(), LatencyRecorder()
        samples = [3.0, 1.0, 2.0]
        bulk.record_many(samples, group="a")
        for sample in samples:
            loop.record(sample, group="a")
        assert bulk.samples == loop.samples
        assert bulk.by_group == loop.by_group

    def test_record_many_rejects_any_negative(self):
        rec = LatencyRecorder()
        with pytest.raises(ValueError):
            rec.record_many([1.0, -0.5, 2.0])

    def test_record_many_rejects_a_negative_in_an_array(self):
        # The port-major pass hands its latencies over as one array: the
        # check runs on the array, and a rejected batch records nothing.
        rec = LatencyRecorder()
        with pytest.raises(ValueError, match="negative latency -0.5"):
            rec.record_many(np.array([1.0, -0.5, 2.0]), group="a")
        assert rec.count == 0 and rec.groups() == []
        rec.record_many(np.array([3.0, 0.0]), group="a")
        assert rec.samples == [3.0, 0.0] and type(rec.samples[0]) is float

    def test_record_many_empty_records_no_samples(self):
        rec = LatencyRecorder()
        rec.record_many([], group="a")
        assert rec.count == 0
        # Documented quirk: unlike zero record() calls, an empty bulk
        # commit still registers the group key (setdefault) — empty.
        assert rec.groups() == ["a"]
        assert rec.by_group["a"] == []

    def test_record_many_rejects_codes_it_did_not_give(self):
        rec = LatencyRecorder()
        a = rec.code("a")
        for codes in ([a, a + 1], [a], [-1, a]):
            with pytest.raises(ValueError, match="registered group code"):
                rec.record_many([1.0, 2.0], codes=np.array(codes))
        assert rec.count == 0
        rec.record_many([1.0, 2.0], codes=np.array([a, a]))
        assert rec.by_group == {"a": [1.0, 2.0]}

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_columns_equal_the_lists(self, data):
        """Interleaved scalar records, bulk commits, coded multi-group
        commits, empty commits and reads: what the recorder reads back
        equals the list form's, bit for bit."""
        value = st.sampled_from([0.0, -0.0, 1e-6, 2.5e-6]) | st.floats(0.0, 1e-3)
        group = st.sampled_from([None, "a", "b", "c"])
        rec, ref = LatencyRecorder(), ListRecorder()
        for _ in range(data.draw(st.integers(0, 12))):
            op = data.draw(st.sampled_from(["record", "many", "coded", "empty", "read"]))
            if op == "record":
                latency, name = data.draw(value), data.draw(group)
                rec.record(latency, name)
                ref.record(latency, name)
            elif op in ("many", "empty"):
                latencies = data.draw(st.lists(value, max_size=0 if op == "empty" else 8))
                name = data.draw(group)
                rec.record_many(np.array(latencies, dtype=float), name)
                ref.record_many(latencies, name)
            elif op == "coded":
                pairs = data.draw(st.lists(st.tuples(value, group), min_size=1, max_size=8))
                codes = [rec.code(name) for _, name in pairs]  # first-delivery order
                rec.record_many(np.array([v for v, _ in pairs]), codes=np.array(codes))
                for latency, name in pairs:
                    ref.record(latency, name)
            else:
                assert bits(rec.samples) == bits(ref.samples)
        assert bits(rec.samples) == bits(ref.samples)
        assert all(type(x) is float for x in rec.samples)
        assert bits(rec.by_group) == bits(ref.by_group)
        assert rec.count == len(ref.samples)
        assert rec.groups() == sorted(ref.by_group)
        for name in [None, *ref.by_group, "missing"]:
            try:
                expected = bits(ref.summary(name))
            except ValueError:
                with pytest.raises(ValueError):
                    rec.summary(name)
            else:
                assert bits(rec.summary(name)) == expected

    def test_the_pass_reads_no_lists(self, monkeypatch):
        """Two groups and an ungrouped stream, solved port-major in
        windows of at most 4 096 fires: ``Network.run`` never reads
        ``samples`` or ``by_group``, which a read builds whole."""
        reads = []
        for name in ("samples", "by_group"):
            real = getattr(LatencyRecorder, name)
            monkeypatch.setattr(LatencyRecorder, name, property(
                lambda rec, real=real, name=name: reads.append(name) or real.fget(rec)
            ))
        windows = []
        record = portmajor._record

        def spy(stats, names, owner, latency):
            windows.append(len(set(names)))
            record(stats, names, owner, latency)

        monkeypatch.setattr(portmajor, "_record", spy)
        monkeypatch.setattr(portmajor, "MAX_WINDOW_FIRES", 4_096)
        topo = T.full_mesh(2, 2, link_rate=10 * GBPS)
        net = Network(topo, ECMPRouter(topo))
        for seed, (src, dst, group) in enumerate([
            ("h0.0", "h1.0", "a"), ("h1.0", "h0.0", "b"), ("h0.1", "h1.1", None),
        ]):
            PoissonSource(net, src, dst, rate_pps=100_000.0, size_bytes=1250,
                          group=group, seed=seed).start()
        net.run(until=0.05)
        assert len(windows) >= 3 and max(windows) == 3
        assert reads == []
        assert net.stats.groups() == ["a", "b"] and net.stats.count == net.packets_delivered


class TestHopStamps:
    def test_empty_stamp_list_creates_flow_without_nodes(self):
        rec = LatencyRecorder()
        rec.record_stamps("flow", [])
        assert rec.hop_stamps == {"flow": {}}

    def test_stamps_fold_into_sum_and_max(self):
        rec = LatencyRecorder()
        rec.record_stamps("f", [("tor0", 2, 1e-6), ("tor1", 0, 0.0)])
        rec.record_stamps("f", [("tor0", 4, 5e-7)])
        tor0 = rec.hop_stamps["f"]["tor0"]
        assert tor0.packets == 2
        assert tor0.depth_sum == 6
        assert tor0.depth_max == 4
        assert tor0.wait_sum == pytest.approx(1.5e-6)
        assert tor0.wait_max == pytest.approx(1e-6)
        assert tor0.mean_depth == pytest.approx(3.0)
        assert tor0.mean_wait == pytest.approx(7.5e-7)
        assert rec.hop_stamps["f"]["tor1"].packets == 1

    def test_groupless_packets_share_the_ungrouped_flow(self):
        rec = LatencyRecorder()
        rec.record_stamps(None, [("tor0", 1, 0.0)])
        rec.record_stamps(None, [("tor0", 3, 0.0)])
        rec.record_stamps("named", [("tor0", 9, 0.0)])
        assert rec.hop_stamps[UNGROUPED]["tor0"].packets == 2
        assert rec.hop_stamps["named"]["tor0"].depth_max == 9

    def test_zero_packet_stats_have_zero_means(self):
        empty = HopStampStats()
        assert empty.mean_depth == 0.0
        assert empty.mean_wait == 0.0

    def test_clear_drops_hop_stamps(self):
        rec = LatencyRecorder()
        rec.record_stamps("f", [("tor0", 1, 0.0)])
        rec.clear()
        assert rec.hop_stamps == {}


class TestDeliveryBins:
    WIDTH = 2.5e-4
    BINS = 6

    def test_bins_by_delivery_time(self):
        bins = DeliveryBins(1e-3, 3)
        for when, size in ((0.0, 100), (0.9e-3, 50), (1e-3, 25), (2.5e-3, 10), (7e-3, 1)):
            bins(SimpleNamespace(size_bytes=size), when)
        assert bins.bits == [1200.0, 200.0, 88.0]  # the last bin takes what is past it

    def test_rejects_empty_series(self):
        with pytest.raises(ValueError):
            DeliveryBins(0.0, 4)
        with pytest.raises(ValueError):
            DeliveryBins(1e-3, 0)

    @given(
        deliveries=st.lists(
            st.tuples(
                # on a bin edge, inside a bin, past the last bin
                st.integers(0, 8).map(lambda k: k * 2.5e-4) | st.floats(0.0, 2.5e-3),
                st.sampled_from([400, 1500, 64, 400.5, 333.1, 1499.25]),
            ),
            max_size=60,
        ),
        integer_sizes=st.booleans(),
        split=st.integers(0, 60),
    )
    def test_add_many_equals_the_calls(self, deliveries, integer_sizes, split):
        """Bit for bit, whether the window follows per-packet calls or
        precedes them — whole-bit sizes take the summed path, 333.1 B
        (2664.8 bits) replays the adds."""
        if integer_sizes:
            deliveries = [(when, int(size)) for when, size in deliveries]
        called, batched = DeliveryBins(self.WIDTH, self.BINS), DeliveryBins(self.WIDTH, self.BINS)
        for when, size in deliveries:
            called(SimpleNamespace(size_bytes=size), when)
        for part in (deliveries[:split], deliveries[split:]):
            batched.add_many(
                np.array([when for when, _ in part], dtype=float),
                np.array([size for _, size in part], dtype=float),
            )
        assert batched.bits == called.bits
