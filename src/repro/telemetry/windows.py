"""Time-windowed per-port queue monitors — the PrintQueue data structure.

A real data plane struggles to answer "how deep was this queue at
microsecond t, and which flows made it deep?"; the simulator knows both
exactly, and this module makes that knowledge a first-class surface.

Every output port the simulator forwards through gets (on first use) a
:class:`PortMonitor` that tiles simulated time into fixed-width,
half-open windows ``[k·w, (k+1)·w)``.  Per window it accumulates

* **enqueues / drops** — packets that joined the port's queue, packets
  lost at the port (severed by a cut, or stranded at a dead link);
* **depth samples** — the queue depth each arriving packet observed
  (packets already accepted whose tails had not left the wire yet),
  kept as sum and max so mean/max depth per window are O(1);
* **wait time** — each packet's queueing delay at this port (transmit
  start minus arrival at the port), kept as sum and max;
* **occupancy integral** — byte·seconds of queue residency, split
  *per flow*: a packet resident ``[arrival, tail_out)`` contributes
  ``size × overlap`` to every window its residency crosses.  The
  occupancy split is what "which flow built this queue" attribution
  ranks on (:mod:`repro.telemetry.attribution`).

Windows are derived purely from simulated timestamps, so monitors never
schedule engine events and never perturb the simulation: a telemetry-on
run produces bit-identical packet timings to a telemetry-off run.
Materialized windows (:meth:`PortMonitor.windows`) are contiguous —
every index between the first and last observed window is present, empty
windows included — so consumers can rely on "no overlaps, no skipped
time" structurally.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Iterator

from repro.units import MICROSECONDS

#: Monitoring window width of every armed network (PrintQueue uses
#: microsecond-scale windows; 100 µs keeps per-run window counts modest
#: at sim timescales and resolves the queue-diagnosis incast).
DEFAULT_WINDOW = 100 * MICROSECONDS

#: Flow label for packets injected without a ``group``, shared with
#: :mod:`repro.sim.stats`.
UNGROUPED = "<ungrouped>"


class TelemetryError(ValueError):
    """Raised for invalid telemetry configurations or queries."""


@dataclass
class Window:
    """One port's accumulated state over ``[start, end)``."""

    index: int
    start: float
    end: float
    enqueues: int = 0
    drops: int = 0
    depth_sum: int = 0
    depth_max: int = 0
    wait_sum: float = 0.0
    wait_max: float = 0.0
    #: Occupancy integral (byte·seconds of queue residency) per flow.
    occupancy_by_flow: dict[str, float] = field(default_factory=dict)

    @property
    def occupancy(self) -> float:
        """Total occupancy integral over every flow, byte·seconds."""
        return math.fsum(self.occupancy_by_flow.values())

    @property
    def mean_depth(self) -> float:
        """Mean queue depth over this window's depth samples."""
        return self.depth_sum / self.enqueues if self.enqueues else 0.0

    def as_dict(self) -> dict:
        """JSON-friendly rendering (flows sorted for stable output)."""
        return {
            "index": self.index,
            "start": self.start,
            "end": self.end,
            "enqueues": self.enqueues,
            "drops": self.drops,
            "depth_max": self.depth_max,
            "mean_depth": self.mean_depth,
            "wait_sum": self.wait_sum,
            "wait_max": self.wait_max,
            "occupancy": self.occupancy,
            "occupancy_by_flow": {
                flow: self.occupancy_by_flow[flow]
                for flow in sorted(self.occupancy_by_flow)
            },
        }


class PortMonitor:
    """Windowed queue telemetry for one directed link's output port."""

    __slots__ = ("key", "width", "_windows", "_tails", "enqueues", "drops")

    def __init__(self, key: tuple[str, str], width: float) -> None:
        self.key = key
        self.width = width
        self._windows: dict[int, Window] = {}
        #: Departure (tail_out) times of packets still resident, FIFO —
        #: the port's busy_until chain is nondecreasing, so the deque
        #: stays sorted and the depth probe is an amortized O(1) drain.
        self._tails: deque[float] = deque()
        self.enqueues = 0
        self.drops = 0

    def _window(self, index: int) -> Window:
        win = self._windows.get(index)
        if win is None:
            width = self.width
            win = self._windows[index] = Window(
                index=index, start=index * width, end=(index + 1) * width
            )
        return win

    def record_enqueue(
        self,
        flow: "str | None",
        size_bytes: float,
        arrival: float,
        start: float,
        tail_out: float,
    ) -> tuple[int, float]:
        """One packet joined this port's queue; returns ``(depth, wait)``.

        ``arrival`` is when the packet reached the port (its earliest
        possible transmit start), ``start`` when the port actually began
        clocking it out, ``tail_out`` when its last bit left.  The
        returned depth (packets already queued ahead of it, still
        resident at ``arrival``) and wait (``start − arrival``) are what
        INT stamping carries on the packet.
        """
        tails = self._tails
        while tails and tails[0] <= arrival:
            tails.popleft()
        depth = len(tails)
        tails.append(tail_out)
        wait = start - arrival
        self.enqueues += 1

        width = self.width
        index = math.floor(arrival / width)  # already an int
        win = self._windows.get(index)
        if win is None:
            win = self._window(index)
        win.enqueues += 1
        if depth:  # an empty queue (most hops of most packets) adds nothing
            win.depth_sum += depth
            if depth > win.depth_max:
                win.depth_max = depth
        if wait:
            win.wait_sum += wait
            if wait > win.wait_max:
                win.wait_max = wait

        label = flow if flow is not None else UNGROUPED
        boundary = (index + 1) * width
        if tail_out <= boundary:
            # The overwhelmingly common case (sub-µs residencies inside
            # 50 µs windows): the whole [arrival, tail_out) slice lands
            # in the window already in hand — one multiply and one dict
            # update, no boundary walk.  Bit-identical to the general
            # loop below collapsing to its single iteration.
            contribution = size_bytes * (tail_out - arrival)
            if contribution > 0.0:
                occ = win.occupancy_by_flow
                occ[label] = occ.get(label, 0.0) + contribution
            return depth, wait

        # Residency crosses window boundaries: spread the occupancy
        # integral across every window [arrival, tail_out) touches.
        # Each slice is a non-negative duration times a positive size,
        # so per-flow integrals can never go negative.
        t = arrival
        while t < tail_out:
            boundary = (index + 1) * width
            slice_end = tail_out if tail_out < boundary else boundary
            win = self._window(index)
            contribution = size_bytes * (slice_end - t)
            if contribution > 0.0:
                win.occupancy_by_flow[label] = (
                    win.occupancy_by_flow.get(label, 0.0) + contribution
                )
            t = boundary
            index += 1
        return depth, wait

    def record_drop(self, flow: "str | None", time: float) -> None:
        """One packet this port turned away (buffer full or link dead)."""
        self.drops += 1
        self._window(int(math.floor(time / self.width))).drops += 1

    def windows(self) -> list[Window]:
        """Observed windows, contiguous from first to last index.

        Indices between the first and last observed window that saw no
        traffic are materialized empty, so the returned list tiles the
        monitored span with no gaps and no overlaps.
        """
        if not self._windows:
            return []
        lo = min(self._windows)
        hi = max(self._windows)
        return [self._window(i) for i in range(lo, hi + 1)]

    @property
    def occupancy(self) -> float:
        """Total occupancy integral across all windows, byte·seconds."""
        return math.fsum(w.occupancy for w in self._windows.values())

    @property
    def peak_window(self) -> "Window | None":
        """The window with the largest occupancy integral (ties: earliest)."""
        best: Window | None = None
        for index in sorted(self._windows):
            win = self._windows[index]
            if best is None or win.occupancy > best.occupancy:
                best = win
        return best


class TelemetryHub:
    """All of one network's port monitors, plus run-level counters.

    The network owns exactly one hub when telemetry is armed
    (``Network.telemetry``); the forwarding kernel records each enqueue
    on :meth:`monitor`'s port monitor, drops go through :meth:`on_drop`,
    and everything else is read-side.  Monitors are
    created lazily, so idle ports cost nothing.  ``window`` is their
    window width in seconds; a network arms :data:`DEFAULT_WINDOW`.
    """

    def __init__(self, window: float = DEFAULT_WINDOW) -> None:
        if window <= 0:
            raise TelemetryError(f"window width must be positive, got {window}")
        self.window = window
        self.monitors: dict[tuple[str, str], PortMonitor] = {}
        self.unroutable = 0

    def monitor(self, key: tuple[str, str]) -> PortMonitor:
        """The (lazily created) monitor for directed link ``key``."""
        mon = self.monitors.get(key)
        if mon is None:
            mon = self.monitors[key] = PortMonitor(key, self.window)
        return mon

    def on_drop(self, key: tuple[str, str], flow: "str | None", time: float) -> None:
        self.monitor(key).record_drop(flow, time)

    def on_unroutable(self) -> None:
        """Offered load the router had no path for (no port to charge)."""
        self.unroutable += 1

    # -- read side ----------------------------------------------------------------

    def ports(self) -> list[tuple[str, str]]:
        """Monitored directed links, sorted."""
        return sorted(self.monitors)

    def iter_windows(self) -> Iterator[tuple[tuple[str, str], Window]]:
        """Every (port key, window) pair, ports sorted, windows in order."""
        for key in self.ports():
            for win in self.monitors[key].windows():
                yield key, win

    def total_enqueues(self) -> int:
        return sum(m.enqueues for m in self.monitors.values())

    def total_drops(self) -> int:
        return sum(m.drops for m in self.monitors.values())

    def window_dump(self) -> dict:
        """JSON-friendly dump of every monitor's windows.

        The shape CI uploads as the telemetry-smoke artifact: one entry
        per monitored port, windows contiguous and sorted.
        """
        return {
            "window_width": self.window,
            "unroutable": self.unroutable,
            "ports": {
                f"{u}->{v}": {
                    "enqueues": self.monitors[(u, v)].enqueues,
                    "drops": self.monitors[(u, v)].drops,
                    "occupancy": self.monitors[(u, v)].occupancy,
                    "windows": [
                        w.as_dict() for w in self.monitors[(u, v)].windows()
                    ],
                }
                for (u, v) in self.ports()
            },
        }
