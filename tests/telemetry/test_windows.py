"""Window semantics of the queries over the hop log, against hand-computed values.

The queries promise fixed-width half-open windows ``[k·w, (k+1)·w)``
that tile time with no gaps and no overlaps, depths that count exactly
the packets still resident at arrival, and per-flow occupancy integrals
that decompose ``size × residency`` across window boundaries.  Rows are
written here as the kernel records them.  Every number here is small
enough to check by hand.
"""

import math

import pytest

from repro.telemetry import (
    DEFAULT_WINDOW,
    TelemetryError,
    TelemetryHub,
)
from repro.telemetry.windows import UNGROUPED
from repro.units import MICROSECONDS

KEY = ("u", "v")


def enqueue(hub, flow, size, arrival, start, tail, key=KEY):
    """One transmit row, as the kernel appends it; returns its packet id."""
    packet_id = len(hub.hops)
    hub.hops.append((key, packet_id, arrival, start, tail, size, flow))
    return packet_id


def stamp(hub, flow, size, arrival, start, tail):
    """:func:`enqueue`, then the ``(depth, wait)`` the profile gives the
    packet once delivered (``flow`` must be new to the log)."""
    hub.deliveries.append(enqueue(hub, flow, size, arrival, start, tail))
    stats = hub.hop_profile()[flow if flow is not None else UNGROUPED][KEY[0]]
    return stats.depth_max, stats.wait_max


class Monitor:
    """One port of a hub, written a row at a time: ``record_enqueue``
    appends a delivered packet's row and returns its ``(depth, wait)``;
    every read is the port's :class:`PortMonitor`'s."""

    def __init__(self, width=1.0):
        self.hub = TelemetryHub(window=width)

    def record_enqueue(self, *row):
        return stamp(self.hub, *row)

    def record_drop(self, flow, time):
        self.hub.drops.append((KEY, flow, time))

    def __getattr__(self, name):
        return getattr(self.hub.monitors[KEY], name)


def monitor(width=1.0):
    return Monitor(width)


class TestConfig:
    def test_defaults(self):
        assert DEFAULT_WINDOW == 100 * MICROSECONDS
        assert TelemetryHub().window == DEFAULT_WINDOW

    def test_rejects_nonpositive_window(self):
        with pytest.raises(TelemetryError):
            TelemetryHub(window=0.0)
        with pytest.raises(TelemetryError):
            TelemetryHub(window=-1e-6)


class TestDepthAndWait:
    def test_empty_port_sees_depth_zero(self):
        mon = monitor()
        depth, wait = mon.record_enqueue("a", 100, 0.5, 0.5, 1.5)
        assert depth == 0
        assert wait == 0.0

    def test_resident_packet_counts_toward_depth(self):
        mon = monitor()
        mon.record_enqueue("a", 100, 0.5, 0.5, 1.5)
        # Arrives at 0.6 while the first packet's tail leaves at 1.5:
        # one packet ahead, and the port is busy until 1.5.
        depth, wait = mon.record_enqueue("b", 200, 0.6, 1.5, 2.0)
        assert depth == 1
        assert wait == pytest.approx(0.9)

    def test_departed_tails_drain_before_probing(self):
        mon = monitor()
        mon.record_enqueue("a", 100, 0.5, 0.5, 1.5)
        mon.record_enqueue("b", 200, 0.6, 1.5, 2.0)
        # At 1.6 the first tail (1.5) has left; only the second remains.
        depth, _ = mon.record_enqueue("c", 100, 1.6, 2.0, 2.1)
        assert depth == 1


class TestWindowTiling:
    def test_half_open_boundaries(self):
        mon = monitor()
        # An arrival exactly on a boundary lands in the *upper* window.
        mon.record_enqueue("a", 100, 1.0, 1.0, 1.2)
        (win,) = [w for w in mon.windows() if w.enqueues]
        assert win.index == 1
        assert win.start == 1.0
        assert win.end == 2.0

    def test_windows_contiguous_with_gaps_materialized(self):
        mon = monitor()
        mon.record_enqueue("a", 100, 0.5, 0.5, 0.6)
        mon.record_enqueue("b", 100, 5.5, 5.5, 5.6)  # nothing in 1..4
        wins = mon.windows()
        assert [w.index for w in wins] == [0, 1, 2, 3, 4, 5]
        for prev, cur in zip(wins, wins[1:]):
            assert cur.start == prev.end  # no overlap, no skipped time
        assert all(w.enqueues == 0 for w in wins[1:5])

    def test_counters_accumulate_in_arrival_window(self):
        mon = monitor()
        mon.record_enqueue("a", 100, 0.5, 0.5, 1.5)
        mon.record_enqueue("b", 200, 0.6, 1.5, 2.0)
        win0 = mon.windows()[0]
        assert win0.enqueues == 2
        assert win0.depth_sum == 1
        assert win0.depth_max == 1
        assert win0.mean_depth == 0.5
        assert win0.wait_sum == pytest.approx(0.9)
        assert win0.wait_max == pytest.approx(0.9)

    def test_drops_charged_to_their_window(self):
        mon = monitor()
        mon.record_drop("a", 2.5)
        assert mon.drops == 1
        (win,) = mon.windows()
        assert win.index == 2
        assert win.drops == 1
        assert win.enqueues == 0


class TestOccupancyIntegral:
    def test_residency_split_across_windows(self):
        mon = monitor()
        # 100 B resident [0.5, 1.5): 50 B·s in window 0, 50 in window 1.
        mon.record_enqueue("a", 100, 0.5, 0.5, 1.5)
        win0, win1 = mon.windows()
        assert win0.occupancy_by_flow == {"a": pytest.approx(50.0)}
        assert win1.occupancy_by_flow == {"a": pytest.approx(50.0)}
        assert mon.occupancy == pytest.approx(100.0)

    def test_per_flow_decomposition(self):
        mon = monitor()
        mon.record_enqueue("a", 100, 0.5, 0.5, 1.5)
        # 200 B resident [0.6, 2.0): 80 in window 0, 200 in window 1.
        mon.record_enqueue("b", 200, 0.6, 1.5, 2.0)
        win0, win1 = mon.windows()
        assert win0.occupancy_by_flow["b"] == pytest.approx(80.0)
        assert win1.occupancy_by_flow["b"] == pytest.approx(200.0)
        assert win1.occupancy == pytest.approx(250.0)

    def test_integrals_never_negative(self):
        mon = monitor(width=0.3)
        for i in range(40):
            arrival = 0.05 * i
            mon.record_enqueue("f", 73, arrival, arrival + 0.01, arrival + 0.11)
        for win in mon.windows():
            for value in win.occupancy_by_flow.values():
                assert value >= 0.0

    def test_ungrouped_flows_share_a_label(self):
        mon = monitor()
        mon.record_enqueue(None, 100, 0.1, 0.1, 0.2)
        (win,) = mon.windows()
        assert list(win.occupancy_by_flow) == ["<ungrouped>"]

    def test_peak_window_prefers_largest_then_earliest(self):
        mon = monitor()
        mon.record_enqueue("a", 100, 0.2, 0.2, 0.4)  # 20 B·s in window 0
        mon.record_enqueue("a", 400, 1.2, 1.2, 1.4)  # 80 B·s in window 1
        assert mon.peak_window.index == 1


class TestHub:
    def test_monitors_created_lazily(self):
        hub = TelemetryHub(window=1.0)
        assert hub.ports() == []
        enqueue(hub, "a", 100, 0.5, 0.5, 1.5)
        assert hub.ports() == [KEY]
        assert hub.total_enqueues() == 1

    def test_window_dump_shape(self):
        hub = TelemetryHub(window=1.0)
        enqueue(hub, "a", 100, 0.5, 0.5, 1.5)
        hub.drops.append((KEY, "b", 0.7))
        hub.unroutable += 1
        dump = hub.window_dump()
        assert dump["window_width"] == 1.0
        assert dump["unroutable"] == 1
        port = dump["ports"]["u->v"]
        assert port["enqueues"] == 1
        assert port["drops"] == 1
        assert [w["index"] for w in port["windows"]] == [0, 1]
        # JSON-friendly: plain dicts/lists/floats all the way down.
        import json

        assert json.loads(json.dumps(dump)) == dump

    def test_iter_windows_sorted(self):
        hub = TelemetryHub(window=1.0)
        enqueue(hub, "x", 10, 0.1, 0.1, 0.2, key=("b", "c"))
        enqueue(hub, "x", 10, 0.1, 0.1, 0.2, key=("a", "b"))
        keys = [key for key, _ in hub.iter_windows()]
        assert keys == sorted(keys)


class TestNumericalEdges:
    def test_boundary_tail_excluded_from_depth(self):
        mon = monitor()
        mon.record_enqueue("a", 100, 0.0, 0.0, 1.0)
        # tail_out == arrival: the earlier packet's tail has left.
        depth, _ = mon.record_enqueue("b", 100, 1.0, 1.0, 2.0)
        assert depth == 0

    def test_zero_length_residency_contributes_nothing(self):
        mon = monitor()
        mon.record_enqueue("a", 100, 0.5, 0.5, 0.5 + 1e-300)
        total = math.fsum(
            v for w in mon.windows() for v in w.occupancy_by_flow.values()
        )
        assert total >= 0.0
