"""The sequential telemetry oracle: windows and stamps kept event by event.

This is how the per-port windows and the per-flow hop profile used to be
kept, incrementally, from the forwarding kernel: a :class:`Monitor` per
port folds each transmit (:meth:`Monitor.enqueue`) and each drop
(:meth:`Monitor.drop`) into its windows as it happens, and each
delivered packet folds its per-hop stamps into the profile
(:func:`fold_stamps`).  :func:`replay` feeds it a
:class:`~repro.telemetry.TelemetryHub`'s log in record order, so a test
can hold every query over the log to it.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from repro.telemetry.windows import UNGROUPED, HopStats, Window


class Monitor:
    """One port's windows, kept as the rows arrive."""

    def __init__(self, key: tuple[str, str], width: float) -> None:
        self.key = key
        self.width = width
        self.windows: dict[int, Window] = {}
        #: Tails of the packets still resident, in enqueue order.
        self.tails: deque[float] = deque()
        self.enqueues = 0
        self.drops = 0

    def window(self, index: int) -> Window:
        win = self.windows.get(index)
        if win is None:
            win = self.windows[index] = Window(
                index=index, start=index * self.width, end=(index + 1) * self.width
            )
        return win

    def enqueue(self, flow, size_bytes, arrival, start, tail_out) -> tuple[int, float]:
        """One packet joined the queue; returns its stamp ``(depth, wait)``."""
        tails = self.tails
        while tails and tails[0] <= arrival:
            tails.popleft()
        depth = len(tails)
        tails.append(tail_out)
        wait = start - arrival
        self.enqueues += 1
        width = self.width
        index = math.floor(arrival / width)
        win = self.window(index)
        win.enqueues += 1
        if depth:
            win.depth_sum += depth
            win.depth_max = max(win.depth_max, depth)
        if wait:
            win.wait_sum += wait
            win.wait_max = max(win.wait_max, wait)
        label = flow if flow is not None else UNGROUPED
        if tail_out <= (index + 1) * width:
            contribution = size_bytes * (tail_out - arrival)
            if contribution > 0.0:
                occ = win.occupancy_by_flow
                occ[label] = occ.get(label, 0.0) + contribution
            return depth, wait
        # The residency crosses window boundaries: each window it touches
        # gets its slice.
        t = arrival
        while t < tail_out:
            boundary = (index + 1) * width
            slice_end = tail_out if tail_out < boundary else boundary
            win = self.window(index)
            contribution = size_bytes * (slice_end - t)
            if contribution > 0.0:
                occ = win.occupancy_by_flow
                occ[label] = occ.get(label, 0.0) + contribution
            t = boundary
            index += 1
        return depth, wait

    def drop(self, time: float) -> None:
        self.drops += 1
        self.window(int(math.floor(time / self.width))).drops += 1

    def contiguous(self) -> list[Window]:
        lo, hi = min(self.windows), max(self.windows)
        return [self.window(i) for i in range(lo, hi + 1)]


def fold_stamps(profile: dict, group, stamps: list) -> None:
    """Fold one delivered packet's ``(node, depth, wait)`` stamps, in
    path order, into ``profile`` (flow → node → :class:`HopStats`)."""
    per_node = profile.setdefault(group if group is not None else UNGROUPED, {})
    for node, depth, wait in stamps:
        rec = per_node.setdefault(node, HopStats())
        rec.packets += 1
        if depth:
            rec.depth_sum += depth
            rec.depth_max = max(rec.depth_max, depth)
        if wait:
            rec.wait_sum += wait
            rec.wait_max = max(rec.wait_max, wait)


def _rows(entries):
    """The log's entries one row at a time: a block's or a compacted
    chunk's columns row by row."""
    for entry in entries:
        if isinstance(entry, tuple) and not isinstance(entry[1], np.ndarray):
            yield entry
        elif isinstance(entry, tuple):
            key, *columns = entry
            for row in zip(*(c.tolist() for c in columns)):
                yield (key, *row)
        else:
            columns = (entry.pid, entry.earliest, entry.start, entry.tail, entry.size)
            yield from zip(entry.key, *(c.tolist() for c in columns), entry.group)


def replay(hub) -> tuple[dict, dict]:
    """``hub``'s log through the oracle: ``(window dump, hop profile)``.

    Stamps are taken at each transmit and folded when the packet's
    delivery comes up in the log's delivery order, as the kernel once
    did at the delivery itself."""
    width = hub.window
    monitors: dict = {}
    stamps: dict = {}
    groups: dict = {}
    for key, pid, earliest, start, tail, size, group in _rows(hub.hops):
        mon = monitors.get(key) or monitors.setdefault(key, Monitor(key, width))
        depth, wait = mon.enqueue(group, size, earliest, start, tail)
        stamps.setdefault(pid, []).append((key[0], depth, wait))
        groups[pid] = group
    for key, _, time in hub.drops:
        (monitors.get(key) or monitors.setdefault(key, Monitor(key, width))).drop(time)
    profile: dict = {}
    for entry in hub.deliveries:
        for pid in np.atleast_1d(entry).tolist():
            fold_stamps(profile, groups[pid], stamps.pop(pid))
    dump = {
        "window_width": width,
        "unroutable": hub.unroutable,
        "ports": {
            f"{u}->{v}": {
                "enqueues": monitors[(u, v)].enqueues,
                "drops": monitors[(u, v)].drops,
                "occupancy": math.fsum(w.occupancy for w in monitors[(u, v)].windows.values()),
                "windows": [w.as_dict() for w in monitors[(u, v)].contiguous()],
            }
            for (u, v) in sorted(monitors)
        },
    }
    return dump, profile
