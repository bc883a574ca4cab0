"""Latency and fault statistics collection for simulation runs."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from repro.units import BITS_PER_BYTE


@dataclass(frozen=True)
class LatencySummary:
    """Summary statistics over a set of packet latencies (seconds)."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float
    p50: float
    p95: float
    p99: float

    @property
    def ci95_halfwidth(self) -> float:
        """Half-width of the normal-approximation 95 % confidence interval."""
        if self.count < 2:
            return 0.0
        return 1.96 * self.std / math.sqrt(self.count)


def summarize_latencies(samples: "np.ndarray | list[float]") -> LatencySummary:
    """Compute a :class:`LatencySummary`; raises on an empty sample set.

    The deviations are squared as ``x ** 2``, the C library's pow, which
    now and then rounds other than ``x * x``: the variance keeps its bits."""
    samples = np.asarray(samples, dtype=float)
    if not samples.size:
        raise ValueError("no latency samples recorded")
    ordered = np.sort(samples)
    if ordered[0] == 0:  # ±0 tie: keep their order, as a stable sort would
        ordered[: np.count_nonzero(samples == 0)] = samples[samples == 0]
    values = ordered.tolist()
    n = len(values)
    mean = math.fsum(values) / n
    variance = math.fsum(map(pow, (ordered - mean).tolist(), repeat(2))) / (n - 1) if n > 1 else 0.0
    return LatencySummary(
        count=n,
        mean=mean,
        std=math.sqrt(variance),
        minimum=values[0],
        maximum=values[-1],
        p50=_percentile(values, 0.50),
        p95=_percentile(values, 0.95),
        p99=_percentile(values, 0.99),
    )


def _percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile on a pre-sorted list."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    index = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[index]


class LatencyRecorder:
    """Accumulates per-packet delivery latencies, grouped by flow label.

    Two columns, each a list of numpy blocks: float64 latencies in
    delivery order, and their group codes (:meth:`code`; a block of one
    group, ungrouped included, holds a broadcast code, no memory).
    ``record`` buffers in Python lists, flushed as one block at the next
    ``record_many`` or read; the forwarding kernel appends a delivery to
    the same two buffers itself (``_pending``, ``_pending_groups``),
    which it holds for a run: a flush empties them in place.
    ``samples`` and ``by_group`` are lists built on each read; nothing on
    a hot path may read them.
    """

    def __init__(self) -> None:
        self._values: list[np.ndarray] = []
        self._codes: list[np.ndarray] = []
        self._code_of: dict[str | None, int] = {}  # first-delivery order
        self._pending: list[float] = []
        self._pending_groups: list[str | None] = []

    def record(self, latency: float, group: str | None = None) -> None:
        if not latency >= 0:
            raise ValueError(f"negative latency {latency}")
        self._pending.append(latency)
        self._pending_groups.append(group)

    def record_many(self, latencies: "np.ndarray | list[float]", group: str | None = None,
                    codes: np.ndarray | None = None) -> None:
        """Bulk :meth:`record`, as one block: every sample under ``group``,
        or each under the group whose :meth:`code` ``codes`` holds for it.
        Reads back as per-sample :meth:`record` calls in the same order
        would, except that an empty commit still registers ``group``."""
        latencies = np.array(latencies, dtype=float)
        if latencies.size and not latencies.min() >= 0:
            raise ValueError(f"negative latency {float(latencies.min())}")
        if codes is None:
            codes = np.broadcast_to(self.code(group), latencies.shape)
        else:
            self._flush()
            codes, known = np.asarray(codes), len(self._code_of)
            if codes.shape != latencies.shape or (
                codes.size and not 0 <= codes.min() <= codes.max() < known
            ):
                raise ValueError("codes must hold one registered group code per latency")
            codes = codes.astype(np.min_scalar_type(known))
        if latencies.size:
            self._values.append(latencies)
            self._codes.append(codes)

    def code(self, group: str | None) -> int:
        """``group``'s code; a new group gets the next one."""
        self._flush()
        return self._code_of.setdefault(group, len(self._code_of))

    def _flush(self) -> None:
        groups = self._pending_groups
        if not groups:
            return
        code_of = self._code_of
        if groups.count(groups[0]) == len(groups):
            codes = np.broadcast_to(code_of.setdefault(groups[0], len(code_of)), len(groups))
        else:
            for group in dict.fromkeys(groups):  # first-delivery order
                code_of.setdefault(group, len(code_of))
            codes = np.fromiter(
                map(code_of.__getitem__, groups), np.min_scalar_type(len(code_of)),
                len(groups),
            )
        self._values.append(np.array(self._pending, dtype=float))
        self._codes.append(codes)
        self._pending.clear()
        groups.clear()

    def array(self, group: str | None = None) -> np.ndarray:
        """The samples, or one group's, as a float64 copy in delivery order."""
        self._flush()
        if not self._values:
            return np.empty(0)
        values = np.concatenate(self._values)
        if group is None:
            return values
        code = self._code_of.get(group)
        return values[np.concatenate(self._codes) == code] if code is not None else values[:0]

    @property
    def samples(self) -> list[float]:
        return self.array().tolist()

    @property
    def by_group(self) -> dict[str, list[float]]:
        return {group: self.array(group).tolist() for group in self._names()}

    @property
    def count(self) -> int:
        return sum(block.size for block in self._values) + len(self._pending)

    def summary(self, group: str | None = None) -> LatencySummary:
        """Summary over all samples, or one group's samples."""
        return summarize_latencies(self.array(group))

    def _names(self) -> list[str]:
        """The groups, in first-delivery order."""
        self._flush()
        return [group for group in self._code_of if group is not None]

    def groups(self) -> list[str]:
        return sorted(self._names())

    def clear(self) -> None:
        self.__init__()


class DeliveryBins:
    """Delivered bits per fixed-width time bin — a goodput time series.

    An ``on_delivered`` callback that is data, not code: the kernel
    calls it per packet (``bins(packet, when)``), and the port-major
    pass (:mod:`repro.sim.portmajor`), which knows what it does, applies
    a whole window's deliveries with :meth:`add_many` instead of
    leaving the stream to the event loop.  A delivery at ``when`` counts
    in bin ``int(when / bin_width)``, the last bin taking everything
    past it.  Both forms leave the same ``bits``, bit for bit: whole bit
    counts below 2**53 sum exactly in any order, and anything else
    replays the per-packet additions in delivery order.
    """

    __slots__ = ("bin_width", "bits")

    def __init__(self, bin_width: float, num_bins: int) -> None:
        if bin_width <= 0 or num_bins < 1:
            raise ValueError(f"need a positive bin width and count, got {bin_width}, {num_bins}")
        self.bin_width = bin_width
        #: Bits delivered in each bin.
        self.bits = [0.0] * num_bins

    def __call__(self, packet: object, when: float) -> None:
        bits = self.bits
        index = min(int(when / self.bin_width), len(bits) - 1)
        bits[index] += packet.size_bytes * BITS_PER_BYTE  # type: ignore[attr-defined]

    def add_many(self, when: np.ndarray, sizes: np.ndarray) -> None:
        """One call per delivery of ``sizes`` bytes at ``when``, in order."""
        bits = self.bits
        index = np.minimum((when / self.bin_width).astype(np.intp), len(bits) - 1)
        added = sizes * float(BITS_PER_BYTE)
        sums = np.bincount(index, weights=added, minlength=len(bits))
        touched = np.flatnonzero(sums).tolist()
        totals = [bits[i] + float(sums[i]) for i in touched]
        if (
            bool((added == np.floor(added)).all())
            and all(bits[i].is_integer() for i in touched)
            and max(totals, default=0.0) < 2.0 ** 53
        ):
            for i, total in zip(touched, totals):
                bits[i] = total
        else:
            for i, more in zip(index.tolist(), added.tolist()):
                bits[i] += more


# -- fault observability ------------------------------------------------------------

#: Flow label used for packets injected without a ``group``.
UNGROUPED = "<ungrouped>"


@dataclass(frozen=True)
class FaultLogEntry:
    """One entry of the per-run fault log.

    ``kind`` is one of ``"cut"`` / ``"repair"`` (a physical fibre-segment
    event, with ``ring``/``segment`` set) or ``"link_down"`` /
    ``"link_up"`` (one severed/restored mesh channel, with ``link`` set).
    ``detail`` carries free-form context (e.g. the number of in-flight
    packets dropped when a channel died).
    """

    time: float
    kind: str
    ring: int | None = None
    segment: int | None = None
    link: tuple[str, str] | None = None
    detail: str = ""


@dataclass
class FaultRecorder:
    """Fault observability: event log plus per-flow degradation counters.

    Flows are keyed by the packet's ``group`` label (the same label
    :class:`LatencyRecorder` buckets by); packets without a group share
    the :data:`UNGROUPED` bucket.

    A flow's **recovery time** measures how long its traffic was
    disrupted: the clock starts at the flow's first drop or reroute and
    stops at its next successful delivery.  A flow can recover several
    times in one run (e.g. cut → recover → second cut), so recovery
    times accumulate per flow.
    """

    events: list[FaultLogEntry] = field(default_factory=list)
    drops_by_flow: dict[str, int] = field(default_factory=dict)
    reroutes_by_flow: dict[str, int] = field(default_factory=dict)
    recovery_times_by_flow: dict[str, list[float]] = field(default_factory=dict)
    #: Flows currently inside an outage window (first disruption time).
    awaiting_recovery: dict[str, float] = field(default_factory=dict)

    def log(
        self,
        time: float,
        kind: str,
        ring: int | None = None,
        segment: int | None = None,
        link: tuple[str, str] | None = None,
        detail: str = "",
    ) -> None:
        self.events.append(
            FaultLogEntry(
                time=time, kind=kind, ring=ring, segment=segment,
                link=link, detail=detail,
            )
        )

    def record_drop(self, flow: str | None, time: float) -> None:
        key = flow if flow is not None else UNGROUPED
        self.drops_by_flow[key] = self.drops_by_flow.get(key, 0) + 1
        self.awaiting_recovery.setdefault(key, time)

    def record_drops(self, flow: str | None, count: int, time: float) -> None:
        """``count`` drops of one flow, the first at ``time``: what as
        many :meth:`record_drop` calls in time order leave."""
        key = flow if flow is not None else UNGROUPED
        self.drops_by_flow[key] = self.drops_by_flow.get(key, 0) + count
        self.awaiting_recovery.setdefault(key, time)

    def record_reroute(self, flow: str | None, time: float) -> None:
        key = flow if flow is not None else UNGROUPED
        self.reroutes_by_flow[key] = self.reroutes_by_flow.get(key, 0) + 1
        self.awaiting_recovery.setdefault(key, time)

    def record_delivery(self, flow: str | None, time: float) -> None:
        """Close the flow's outage window, if one is open."""
        if not self.awaiting_recovery:
            return
        key = flow if flow is not None else UNGROUPED
        started = self.awaiting_recovery.pop(key, None)
        if started is not None:
            self.recovery_times_by_flow.setdefault(key, []).append(time - started)

    # -- aggregates ---------------------------------------------------------------

    @property
    def total_drops(self) -> int:
        return sum(self.drops_by_flow.values())

    @property
    def total_reroutes(self) -> int:
        return sum(self.reroutes_by_flow.values())

    def recovery_times(self) -> list[float]:
        """All completed recovery intervals, in recording order per flow."""
        return [t for times in self.recovery_times_by_flow.values() for t in times]

    def max_recovery_time(self) -> float:
        """Slowest completed recovery, or 0.0 when nothing was disrupted."""
        times = self.recovery_times()
        return max(times) if times else 0.0

    def clear(self) -> None:
        self.events.clear()
        self.drops_by_flow.clear()
        self.reroutes_by_flow.clear()
        self.recovery_times_by_flow.clear()
        self.awaiting_recovery.clear()
