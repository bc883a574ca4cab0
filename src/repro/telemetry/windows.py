"""One hop log, recorded by the executors, and the queries over it.

PrintQueue answers "how deep was this queue at microsecond t, and which
flows made it deep?" in two halves: the data plane only fills
registers, and an analysis program answers every query offline.  Here
the forwarding kernel and the port-major pass only append to a
:class:`HopLog`, and :class:`TelemetryHub` answers from it.

Each output port's time is tiled in half-open windows ``[k·w, (k+1)·w)``,
contiguous from the first to the last a residency or a drop touched.
Per window: enqueues and drops; the queue depth each arriving packet saw
(packets accepted before it whose tails had not left) and the wait it
paid, as sum and max; and per flow, the byte·seconds its packets were
resident (``size × overlap`` of ``[earliest, tail_out)`` with the
window), which "which flow built this queue" attribution ranks on
(:mod:`repro.telemetry.attribution`).  Every float is added in the
port's enqueue order (the per-flow hop profile's in delivery order, each
packet's hops in path order): a query equals, bit for bit, folding the
rows one by one as they happened.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import deque
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.sim.stats import UNGROUPED  # the flow label of a packet without a group
from repro.units import MICROSECONDS

#: Monitoring window width of every armed network (PrintQueue uses
#: microsecond-scale windows; 100 µs keeps per-run window counts modest
#: at sim timescales and resolves the queue-diagnosis incast).
DEFAULT_WINDOW = 100 * MICROSECONDS


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
        flows = self.occupancy_by_flow
        return {
            "index": self.index, "start": self.start, "end": self.end,
            "enqueues": self.enqueues, "drops": self.drops, "depth_max": self.depth_max,
            "mean_depth": self.mean_depth, "wait_sum": self.wait_sum, "wait_max": self.wait_max,
            "occupancy": self.occupancy, "occupancy_by_flow": {f: flows[f] for f in sorted(flows)},
        }


@dataclass
class HopStats:
    """One flow's delivered packets at one node: how many crossed it, the
    queue depth they saw and the wait they paid there (sum and max)."""

    packets: int = 0
    depth_sum: int = 0
    depth_max: int = 0
    wait_sum: float = 0.0
    wait_max: float = 0.0

    @property
    def mean_depth(self) -> float:
        return self.depth_sum / self.packets if self.packets else 0.0

    @property
    def mean_wait(self) -> float:
        return self.wait_sum / self.packets if self.packets else 0.0


@dataclass
class PortMonitor:
    """One directed link's output port, as a query found it."""

    key: tuple[str, str]
    _windows: list[Window]
    enqueues: int
    drops: int

    def windows(self) -> list[Window]:
        """The port's windows, contiguous from first to last index."""
        return list(self._windows)

    @property
    def occupancy(self) -> float:
        """Total occupancy integral across all windows, byte·seconds."""
        return math.fsum(w.occupancy for w in self._windows)

    @property
    def peak_window(self) -> "Window | None":
        """The window with the largest occupancy integral (ties: earliest)."""
        return max(self._windows, key=lambda w: w.occupancy, default=None)


class HopLog:
    """What the executors record while telemetry is armed, and nothing else.

    ``hops`` holds a row per transmit, ``(port key, packet id, earliest
    start, start, tail_out, size, group)``, from the kernel's ``_hop``;
    the port-major pass appends a port's share of a window as one row
    whose last six fields are arrays (the groups an object array).
    ``deliveries`` holds delivered packet ids in delivery order, an int
    per kernel delivery or an array per window; ``drops`` a ``(port key,
    group, time)`` per severed or stranded packet; ``unroutable`` counts
    offered packets with no route.  Each port's rows are in its enqueue
    order and each packet's in its path order; nothing else about the
    order of rows is promised.  Every ``CHUNK_ROWS`` entries, and before
    a query, the kernel's rows are transposed in place into typed
    columns (:meth:`compact`).
    """

    #: Kernel rows kept as Python tuples before they are transposed: a
    #: tuple row costs ~200 bytes, a chunk's row ~50.  A bound in the
    #: manner of ``Network.FLOW_TABLE_LIMIT``, not a knob.
    CHUNK_ROWS = 65_536

    def __init__(self) -> None:
        self.hops: list = []
        self.deliveries: list = []
        self.drops: list[tuple] = []
        self.unroutable = 0
        #: ``len(hops)`` at which the kernel calls :meth:`compact`.
        self.compact_at = self.CHUNK_ROWS
        self.compactions = 0
        self._compact = (0, 0)  # entries of hops and deliveries compacted

    def compact(self) -> None:
        """Transpose each run of kernel rows recorded since the last call
        into one :class:`_Chunk`, and each run of delivered ids into one
        array, where they stand: record order is kept."""
        hops, deliveries = self._compact
        rows = self.hops[hops:]
        ids = self.deliveries[deliveries:]
        rows, chunked = _runs(rows, map(type, map(operator.itemgetter(1), rows)), _Chunk.of)
        ids, folded = _runs(ids, map(type, ids), lambda run: np.array(run, dtype=np.int64))
        if chunked or folded:  # a query's answers are keyed on the lengths, and this
            self.hops[hops:] = rows  # shortens them
            self.deliveries[deliveries:] = ids
            self.compactions += 1
        self._compact = (len(self.hops), len(self.deliveries))
        self.compact_at = len(self.hops) + self.CHUNK_ROWS


def _runs(entries: list, kinds, transpose) -> "tuple[list, int]":
    """``entries`` with each run of the kernel's — ``kinds`` says whose
    id is a Python int — transposed into one entry; and how many runs."""
    flags = np.fromiter(map(operator.is_, kinds, itertools.repeat(int)), bool, len(entries))
    edges = np.flatnonzero(np.diff(flags, prepend=False, append=False)).tolist()
    out, done = [], 0
    for lo, hi in zip(edges[::2], edges[1::2]):
        out += entries[done:lo]
        out.append(transpose(entries[lo:hi]))
        done = hi
    return out + entries[done:], len(edges) // 2


def _numbered(values) -> "tuple[list, np.ndarray]":
    """``values``' distinct members in order of first record, and each
    value's number among them — C-level maps, no Python per value."""
    codes = {value: code for code, value in enumerate(dict.fromkeys(values))}
    return list(codes), np.fromiter(map(codes.__getitem__, values), np.intp, len(values))


@dataclass(slots=True)
class _Chunk:
    """A run of kernel rows as columns, in record order: the numbers as
    typed arrays, the port keys and groups as lists of the shared objects
    (numbered at query time)."""

    key: list
    pid: np.ndarray
    earliest: np.ndarray
    start: np.ndarray
    tail: np.ndarray
    size: np.ndarray
    group: list

    @classmethod
    def of(cls, rows: list) -> "_Chunk":
        field = [map(operator.itemgetter(i), rows) for i in range(7)]
        numbers = [np.fromiter(field[1], np.int64, len(rows))]
        numbers += [np.fromiter(column, float, len(rows)) for column in field[2:6]]
        return cls(list(field[0]), *numbers, list(field[6]))


def _codes(table: dict, values) -> list:
    """Each value's number in ``table``, a new value taking the next."""
    return [table.setdefault(value, len(table)) for value in values]


def _spans(first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """``first[i], first[i] + 1, …``, ``count[i]`` long, for every ``i``."""
    return np.repeat(first - (np.cumsum(count) - count), count) + np.arange(int(count.sum()))


class _Table:
    """The hop log as flat columns, rows in record order; ports and flows
    numbered in order of first record.  The log is compacted first: its
    entries are then chunks and the pass's blocks, no row is Python."""

    def __init__(self, log: HopLog) -> None:
        self.keys: dict = {}
        self.flows: dict = {}
        parts: list = []
        for entry in log.hops:
            if type(entry) is _Chunk:
                keys, port = _numbered(entry.key)
                groups, group = _numbered(entry.group)
                columns = (entry.pid, entry.earliest, entry.start, entry.tail, entry.size)
            else:  # a pass block: one port
                keys, port = [entry[0]], np.zeros(entry[1].size, dtype=np.intp)
                groups, group = _numbered(entry[6].tolist())
                columns = entry[1:6]
            ports = np.array(_codes(self.keys, keys), dtype=np.intp)
            flows = np.array(_codes(self.flows, (UNGROUPED if g is None else g for g in groups)),
                             dtype=np.intp)
            parts.append((ports[port], *columns, flows[group]))
        types = (np.intp, np.int64, float, float, float, float, np.intp)
        self.port, self.pid, self.earliest, self.start, self.tail, self.size, self.flow = (
            np.concatenate([np.asarray(part[i], dtype) for part in parts] or [np.empty(0, dtype)])
            for i, dtype in enumerate(types)
        )
        self.wait = self.start - self.earliest
        self.by_packet = np.argsort(self.pid, kind="stable")  # each packet's rows in path order
        self.pids = self.pid[self.by_packet]
        self.drop_port = np.array(_codes(self.keys, [key for key, _, _ in log.drops]), np.intp)
        self.drop_time = np.array([time for _, _, time in log.drops], float)


def _folded(slot, size: int, depth, wait) -> list:
    """Per slot of ``size``: rows, depth sum and max, wait sum and max —
    each sum added in row order (``np.bincount`` adds one by one)."""
    depth_max, wait_max = np.zeros(size, np.int64), np.zeros(size)
    np.maximum.at(depth_max, slot, depth)
    np.maximum.at(wait_max, slot, wait)
    return [
        np.bincount(slot, minlength=size), np.bincount(slot, depth, size).astype(np.int64),
        depth_max, np.bincount(slot, wait, size), wait_max,
    ]


def _query(method):
    """A query over the whole log, answered once until the log grows."""

    def answer(self):
        self.compact()
        size = (len(self.hops), len(self.deliveries), len(self.drops), self.compactions)
        if self._answers.get(None) != size:
            self._answers = {None: size}
        if method not in self._answers:
            self._answers[method] = method(self)
        return self._answers[method]

    return functools.wraps(method)(answer)


class TelemetryHub(HopLog):
    """A network's armed telemetry: the hop log the executors append to
    (``Network.telemetry``), and every query over it.  ``window`` is the
    window width in seconds; a network arms :data:`DEFAULT_WINDOW`."""

    def __init__(self, window: float = DEFAULT_WINDOW) -> None:
        if window <= 0:
            raise TelemetryError(f"window width must be positive, got {window}")
        super().__init__()
        self.window = window
        self._answers: dict = {}

    @_query
    def _table(self) -> _Table:
        return _Table(self)

    @_query
    def _depths(self) -> np.ndarray:
        """The queue depth each row's packet saw at its port: the packets
        accepted there before it whose tails were still to leave, the
        oldest let go first.  A port whose tails never step back (only a
        cut resets ``busy_until``) takes one vectorized pass."""
        table = self._table()
        depth = np.zeros(table.port.size, np.int64)
        order = np.argsort(table.port, kind="stable")
        bounds = np.searchsorted(table.port[order], np.arange(len(table.keys) + 1)).tolist()
        for lo, hi in zip(bounds, bounds[1:]):
            rows = order[lo:hi]
            tails, arrivals, index = table.tail[rows], table.earliest[rows], np.arange(hi - lo)
            if bool((tails[1:] >= tails[:-1]).all()):
                left = np.minimum(np.searchsorted(tails, arrivals, "right"), index)
                depth[rows] = index - np.maximum.accumulate(left)
                continue
            queue: deque = deque()
            for row, arrival, tail in zip(rows.tolist(), arrivals.tolist(), tails.tolist()):
                while queue and queue[0] <= arrival:
                    queue.popleft()
                depth[row] = len(queue)
                queue.append(tail)
        return depth

    @property
    @_query
    def monitors(self) -> dict:
        """Every port that took or lost a packet: key → its
        :class:`PortMonitor`, keys sorted."""
        table, width = self._table(), self.window
        first = np.floor(table.earliest / width).astype(np.int64)
        # The last window a residency reaches: the last k past the first
        # with k·width < tail_out, as a walk over the boundaries finds it.
        last, step = np.maximum(np.ceil(table.tail / width).astype(np.int64) - 1, first), 1
        while np.any(step):
            short = (last + 1) * width < table.tail  # one more boundary is crossed
            step = short * 1 - ((last > first) & (last * width >= table.tail))
            last += step
        dropped = np.floor(table.drop_time / width).astype(np.int64)
        lo = np.full(len(table.keys), np.iinfo(np.int64).max)
        hi = np.full(len(table.keys), np.iinfo(np.int64).min)
        for port, start, end in ((table.port, first, last), (table.drop_port, dropped, dropped)):
            np.minimum.at(lo, port, start)
            np.maximum.at(hi, port, end)
        count = hi - lo + 1
        base = np.cumsum(count) - count - lo  # a port's window k is slot base + k
        slots = int(count.sum())
        enqueues, *stats = _folded(base[table.port] + first, slots, self._depths(), table.wait)
        drops = np.bincount(base[table.drop_port] + dropped, minlength=slots)
        # Occupancy: each residency split at the window boundaries it crosses.
        row = np.repeat(np.arange(table.port.size), last - first + 1)
        k = _spans(first, last - first + 1)
        begin = np.where(k == first[row], table.earliest[row], k * width)
        part = table.size[row] * (np.minimum(table.tail[row], (k + 1) * width) - begin)
        kept = part > 0.0
        flows = max(len(table.flows), 1)
        slot = (base[table.port[row]] + k)[kept]
        keys, inverse = np.unique(slot * flows + table.flow[row][kept], return_inverse=True)
        by_slot: dict = {}
        labels = list(table.flows)
        for key, total in zip(keys.tolist(), np.bincount(inverse, part[kept]).tolist()):
            by_slot.setdefault(key // flows, {})[labels[key % flows]] = total
        windows = [
            Window(index, index * width, (index + 1) * width, enqueued, lost, *values,
                   by_slot.get(slot, {}))
            for slot, (index, enqueued, lost, *values) in enumerate(zip(
                _spans(lo, count).tolist(),
                enqueues.tolist(), drops.tolist(), *(column.tolist() for column in stats),
            ))
        ]
        monitors = {}
        for key, p in sorted(table.keys.items()):
            mine = windows[int(base[p] + lo[p]):int(base[p] + hi[p]) + 1]
            enqueued, lost = sum(w.enqueues for w in mine), sum(w.drops for w in mine)
            monitors[key] = PortMonitor(key, mine, enqueued, lost)
        return monitors

    @_query
    def hop_profile(self) -> dict[str, dict[str, HopStats]]:
        """Each flow's queueing profile over its delivered packets' hops:
        flow label → node → :class:`HopStats`, flows in first-delivery
        order, nodes in first-crossing order."""
        table = self._table()
        delivered = np.concatenate([np.atleast_1d(d) for d in self.deliveries] or [[]]).astype(int)
        lo = np.searchsorted(table.pids, delivered)
        rows = table.by_packet[_spans(lo, np.searchsorted(table.pids, delivered, "right") - lo)]
        nodes: dict = {}
        node = np.array(_codes(nodes, (key[0] for key in table.keys)), np.intp)
        key = table.flow[rows] * max(len(nodes), 1) + node[table.port[rows]]
        keys, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        stats = _folded(inverse, keys.size, self._depths()[rows], table.wait[rows])
        flows, names = list(table.flows), list(nodes)
        profile: dict = {}
        for at in np.argsort(first).tolist():  # in order of first appearance
            flow, number = divmod(int(keys[at]), max(len(nodes), 1))
            values = [column[at].item() for column in stats]
            profile.setdefault(flows[flow], {})[names[number]] = HopStats(*values)
        return profile

    def hops_of(self, packet_id: int) -> list[tuple[str, float]]:
        """``(node, wait)`` for each port ``packet_id`` was clocked onto,
        detours included, in path order."""
        table = self._table()
        at = np.searchsorted(table.pids, [packet_id, packet_id + 1])
        rows = table.by_packet[at[0]:at[1]]
        nodes = [key[0] for key in table.keys]
        return list(zip([nodes[p] for p in table.port[rows].tolist()], table.wait[rows].tolist()))

    def ports(self) -> list[tuple[str, str]]:
        """Monitored directed links, sorted."""
        return list(self.monitors)

    def iter_windows(self) -> Iterator[tuple[tuple[str, str], Window]]:
        """Every (port key, window) pair, ports sorted, windows in order."""
        for key, monitor in self.monitors.items():
            for win in monitor.windows():
                yield key, win

    def total_enqueues(self) -> int:
        return len(self._table().port)

    def total_drops(self) -> int:
        return len(self.drops)

    def window_dump(self) -> dict:
        """JSON-friendly dump of every port's windows — what CI uploads as
        the telemetry-smoke artifact."""
        ports = {
            f"{u}->{v}": {
                "enqueues": port.enqueues, "drops": port.drops, "occupancy": port.occupancy,
                "windows": [w.as_dict() for w in port.windows()],
            }
            for (u, v), port in self.monitors.items()
        }
        return {"window_width": self.window, "unroutable": self.unroutable, "ports": ports}
