"""Wavelength (channel) assignment for Quartz rings — paper Section 3.1.

A Quartz ring of ``M`` switches implements a full logical mesh: every
unordered switch pair ``{s, t}`` owns a dedicated wavelength channel
``λst`` that is optically routed around the physical ring, either
clockwise or counter-clockwise.  Two constraints govern the assignment
(paper Eq. 1–6):

1. every pair gets exactly one channel on one direction, and
2. on any physical fibre segment, a given wavelength is used by at most
   one pair's path.

The objective is to minimize the number of distinct wavelengths, since
commodity DWDM gear supports ~80 channels per mux and fibre supports
~160 channels at 10 Gbps (paper Section 3.1).

This module provides:

* :func:`greedy_assignment` — the paper's greedy heuristic: assign the
  longest paths first (they are the most constrained and fragment the
  channel space the most), first-fit on wavelength index.
* :func:`ilp_assignment` — the exact ILP of Eq. 1–6, solved with HiGHS
  via :func:`scipy.optimize.milp`.  Practical for small rings, exactly
  as in the paper ("for a small ring, we can still find the optimal
  solution by ILP").
* :func:`lower_bound` — the link-load lower bound (total shortest-path
  length divided by ring segments), used as a fast cross-check.
* :func:`max_ring_size` — the largest ring buildable within a channel
  budget (the paper derives 35 switches at 160 channels).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from math import ceil

import numpy as np

from repro.cache import cached

#: Channels multiplexable on one fibre at 10 Gbps (paper Section 3.1).
FIBER_CHANNEL_LIMIT = 160

#: Channels supported by one commodity DWDM mux/demux (paper Section 3.1).
WDM_CHANNEL_LIMIT = 80


class ChannelAssignmentError(ValueError):
    """Raised when an assignment cannot be constructed or is invalid."""


@dataclass(frozen=True)
class PathAssignment:
    """One pair's channel: wavelength index plus the fibre segments used.

    ``links`` are segment indices: segment ``m`` joins switch ``m`` and
    switch ``(m + 1) % ring_size``.  ``clockwise`` records the direction
    (from the lower-numbered endpoint of the pair).
    """

    src: int
    dst: int
    channel: int
    clockwise: bool
    links: tuple[int, ...]

    @property
    def pair(self) -> tuple[int, int]:
        return (min(self.src, self.dst), max(self.src, self.dst))

    @property
    def length(self) -> int:
        return len(self.links)


@dataclass(frozen=True)
class ChannelPlan:
    """A complete wavelength plan for a ring of ``ring_size`` switches."""

    ring_size: int
    assignments: tuple[PathAssignment, ...]

    @property
    def num_channels(self) -> int:
        """Number of distinct wavelengths the plan uses (paper's objective)."""
        if not self.assignments:
            return 0
        return len({a.channel for a in self.assignments})

    @property
    def max_channel_index(self) -> int:
        """Highest wavelength index used (1-based count)."""
        if not self.assignments:
            return 0
        return max(a.channel for a in self.assignments) + 1

    def assignment_for(self, s: int, t: int) -> PathAssignment:
        """The assignment covering pair ``{s, t}``."""
        want = (min(s, t), max(s, t))
        for a in self.assignments:
            if a.pair == want:
                return a
        raise ChannelAssignmentError(f"no assignment for pair {want}")

    def channels_on_link(self, link: int) -> set[int]:
        """Wavelengths occupying fibre segment ``link``."""
        return {a.channel for a in self.assignments if link in a.links}

    def link_load(self, link: int) -> int:
        """Number of pair-paths crossing fibre segment ``link``."""
        return sum(1 for a in self.assignments if link in a.links)

    def validate(self) -> None:
        """Check plan invariants; raise :class:`ChannelAssignmentError` if bad.

        Invariants: every unordered pair is assigned exactly once, every
        path is a contiguous ring arc between its endpoints, and no
        wavelength is reused on a fibre segment.
        """
        m = self.ring_size
        expected = {(s, t) for s in range(m) for t in range(s + 1, m)}
        got = [a.pair for a in self.assignments]
        if len(got) != len(set(got)):
            raise ChannelAssignmentError("pair assigned more than once")
        if set(got) != expected:
            missing = expected - set(got)
            raise ChannelAssignmentError(f"pairs missing assignments: {sorted(missing)[:5]}")
        for a in self.assignments:
            if a.links != arc_links(a.src, a.dst, m, a.clockwise):
                raise ChannelAssignmentError(f"path of {a.pair} is not a ring arc")
        for link in range(m):
            used: set[int] = set()
            for a in self.assignments:
                if link in a.links:
                    if a.channel in used:
                        raise ChannelAssignmentError(
                            f"wavelength {a.channel} reused on segment {link}"
                        )
                    used.add(a.channel)


# -- ring geometry -------------------------------------------------------------


def clockwise_distance(s: int, t: int, ring_size: int) -> int:
    """Number of fibre segments on the clockwise arc from ``s`` to ``t``."""
    return (t - s) % ring_size


def ring_distance(s: int, t: int, ring_size: int) -> int:
    """Shortest arc length between ``s`` and ``t``."""
    d = clockwise_distance(s, t, ring_size)
    return min(d, ring_size - d)


def arc_links(s: int, t: int, ring_size: int, clockwise: bool) -> tuple[int, ...]:
    """Fibre segments traversed going from ``s`` to ``t`` in one direction.

    Segment ``m`` joins switches ``m`` and ``(m + 1) % ring_size``.
    """
    if s == t:
        return ()
    if clockwise:
        d = clockwise_distance(s, t, ring_size)
        return tuple((s + j) % ring_size for j in range(d))
    d = clockwise_distance(t, s, ring_size)
    return tuple((t + j) % ring_size for j in range(d))


def all_pairs(ring_size: int) -> list[tuple[int, int]]:
    """All unordered switch pairs of the ring."""
    return [(s, t) for s in range(ring_size) for t in range(s + 1, ring_size)]


# -- lower bound ----------------------------------------------------------------


def lower_bound(ring_size: int) -> int:
    """Link-load lower bound on the number of wavelengths.

    Each pair's path crosses at least ``ring_distance`` segments, and a
    segment carries each wavelength at most once, so the busiest segment
    needs at least ``ceil(total_path_length / ring_size)`` wavelengths.
    """
    if ring_size < 2:
        return 0
    total = sum(ring_distance(s, t, ring_size) for s, t in all_pairs(ring_size))
    return ceil(total / ring_size)


# -- greedy heuristic (paper Section 3.1.1) ---------------------------------------


@cached("channel-plan/greedy")
def greedy_assignment(
    ring_size: int,
    max_channels: int | None = None,
    seed: int | None = None,
    order: str = "longest-first",
) -> ChannelPlan:
    """The paper's greedy channel assignment.

    Paths are processed in decreasing length order (``⌊M/2⌋`` iterations):
    long paths are the most constrained, so assigning them first avoids
    fragmenting the channel space.  Within an iteration the starting pair
    is rotated (optionally randomized with ``seed``, matching the paper's
    "starting from a random location").  Each path takes the lowest
    wavelength index free on every segment of its shorter arc; ties in
    arc length (even rings, antipodal pairs) pick the direction whose
    segments are currently less loaded.

    ``order`` exists for ablation of the paper's heuristic:
    ``"longest-first"`` (the paper's choice), ``"shortest-first"``, or
    ``"random"`` (shuffled pair order, seeded by ``seed``).

    Raises :class:`ChannelAssignmentError` if the plan would exceed
    ``max_channels``.
    """
    if ring_size < 0:
        raise ChannelAssignmentError(f"ring size must be non-negative, got {ring_size}")
    if order not in ("longest-first", "shortest-first", "random"):
        raise ChannelAssignmentError(f"unknown ordering {order!r}")
    if ring_size < 2:
        return ChannelPlan(ring_size=ring_size, assignments=())

    rng = random.Random(seed)
    m = ring_size
    # channel_used[link] = set of wavelength indices occupied on that segment
    channel_used: list[set[int]] = [set() for _ in range(m)]
    link_paths = [0] * m
    assignments: list[PathAssignment] = []

    if order == "random":
        shuffled = all_pairs(m)
        rng.shuffle(shuffled)
        batches = [shuffled]
    else:
        by_length: dict[int, list[tuple[int, int]]] = {}
        for s, t in all_pairs(m):
            by_length.setdefault(ring_distance(s, t, m), []).append((s, t))
        reverse = order == "longest-first"
        batches = [by_length[k] for k in sorted(by_length, reverse=reverse)]

    for pairs in batches:
        start = rng.randrange(len(pairs)) if seed is not None and order != "random" else 0
        ordered = pairs[start:] + pairs[:start]
        for s, t in ordered:
            length = ring_distance(s, t, m)
            cw_links = arc_links(s, t, m, clockwise=True)
            ccw_links = arc_links(s, t, m, clockwise=False)
            candidates: list[tuple[int, ...]] = []
            if len(cw_links) == length:
                candidates.append(cw_links)
            if len(ccw_links) == length and ccw_links != cw_links:
                candidates.append(ccw_links)
            # On even rings the antipodal pairs have two equal-length arcs:
            # prefer the arc whose segments currently carry fewer paths.
            if len(candidates) == 2:
                loads = [sum(link_paths[e] for e in links) for links in candidates]
                if loads[1] < loads[0]:
                    candidates.reverse()

            best: tuple[int, tuple[int, ...]] | None = None
            for links in candidates:
                channel = _first_fit(links, channel_used)
                if best is None or channel < best[0]:
                    best = (channel, links)
            assert best is not None
            channel, links = best
            clockwise = links == cw_links
            for e in links:
                channel_used[e].add(channel)
                link_paths[e] += 1
            assignments.append(
                PathAssignment(src=s, dst=t, channel=channel, clockwise=clockwise, links=links)
            )

    plan = ChannelPlan(ring_size=m, assignments=tuple(assignments))
    if max_channels is not None and plan.num_channels > max_channels:
        raise ChannelAssignmentError(
            f"ring of {m} needs {plan.num_channels} channels, budget is {max_channels}"
        )
    return plan


def _first_fit(links: tuple[int, ...], channel_used: list[set[int]]) -> int:
    """Lowest wavelength index free on every segment in ``links``."""
    channel = 0
    while any(channel in channel_used[e] for e in links):
        channel += 1
    return channel


# -- exact ILP (paper Eq. 1-6) -----------------------------------------------------


@cached("channel-plan/ilp")
def ilp_assignment(
    ring_size: int,
    max_channels: int | None = None,
    time_limit: float = 60.0,
) -> ChannelPlan:
    """Exact minimum-wavelength assignment via the paper's ILP.

    Variables: ``C[p, i] = 1`` if directed pair ``p`` (a clockwise path)
    uses wavelength ``i``; ``λ[i] = 1`` if wavelength ``i`` is used at
    all.  Constraints: one channel+direction per unordered pair (Eq. 2),
    and per segment/wavelength, at most one path — folded together with
    Eq. 5 as ``sum_{p ∋ segment} C[p, i] ≤ λ[i]``.  Objective: minimize
    ``Σ λ[i]`` (Eq. 1).  Symmetry is broken with ``λ[i] ≥ λ[i+1]``.

    The wavelength pool defaults to the greedy solution size (a valid
    upper bound), keeping the model small.
    """
    if ring_size < 2:
        return ChannelPlan(ring_size=ring_size, assignments=())

    # The MILP solver is this function's alone, and ``import repro``
    # reaches this module: importing it here keeps ~0.2 s and ~25 MiB
    # out of every process that never solves an ILP.
    from scipy import sparse
    from scipy.optimize import Bounds, LinearConstraint, milp

    m = ring_size
    greedy = greedy_assignment(m)
    pool = greedy.num_channels if max_channels is None else max_channels

    directed = [(s, t) for s in range(m) for t in range(m) if s != t]
    pair_index = {p: j for j, p in enumerate(directed)}
    paths = {p: arc_links(p[0], p[1], m, clockwise=True) for p in directed}

    n_pairs = len(directed)
    n_c = n_pairs * pool  # C variables
    n_vars = n_c + pool  # plus λ variables

    def c_var(p: tuple[int, int], i: int) -> int:
        return pair_index[p] * pool + i

    def lam_var(i: int) -> int:
        return n_c + i

    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    lbs: list[float] = []
    ubs: list[float] = []
    row = 0

    # Eq. 2: each unordered pair picks exactly one (channel, direction).
    for s, t in all_pairs(m):
        for i in range(pool):
            for p in ((s, t), (t, s)):
                rows.append(row)
                cols.append(c_var(p, i))
                vals.append(1.0)
        lbs.append(1.0)
        ubs.append(1.0)
        row += 1

    # Segment capacity + channel-usage coupling:
    #   for every segment e and wavelength i: Σ_{p: e ∈ path(p)} C[p,i] − λ[i] ≤ 0
    pairs_on_segment: dict[int, list[tuple[int, int]]] = {e: [] for e in range(m)}
    for p, links in paths.items():
        for e in links:
            pairs_on_segment[e].append(p)
    for e in range(m):
        for i in range(pool):
            for p in pairs_on_segment[e]:
                rows.append(row)
                cols.append(c_var(p, i))
                vals.append(1.0)
            rows.append(row)
            cols.append(lam_var(i))
            vals.append(-1.0)
            lbs.append(-np.inf)
            ubs.append(0.0)
            row += 1

    # Symmetry breaking: λ[i] ≥ λ[i+1].
    for i in range(pool - 1):
        rows.append(row)
        cols.append(lam_var(i))
        vals.append(1.0)
        rows.append(row)
        cols.append(lam_var(i + 1))
        vals.append(-1.0)
        lbs.append(0.0)
        ubs.append(np.inf)
        row += 1

    a = sparse.csc_matrix((vals, (rows, cols)), shape=(row, n_vars))
    objective = np.zeros(n_vars)
    objective[n_c:] = 1.0

    result = milp(
        c=objective,
        constraints=LinearConstraint(a, np.array(lbs), np.array(ubs)),
        integrality=np.ones(n_vars),
        bounds=Bounds(0, 1),
        options={"time_limit": time_limit},
    )
    if not result.success:
        raise ChannelAssignmentError(
            f"ILP failed for ring size {m} with {pool} channels: {result.message}"
        )

    x = np.round(result.x).astype(int)
    assignments: list[PathAssignment] = []
    for s, t in all_pairs(m):
        chosen: PathAssignment | None = None
        for i in range(pool):
            for p in ((s, t), (t, s)):
                if x[c_var(p, i)] == 1:
                    links = paths[p]
                    chosen = PathAssignment(
                        src=p[0], dst=p[1], channel=i,
                        clockwise=True, links=links,
                    )
        if chosen is None:
            raise ChannelAssignmentError(f"ILP solution covers no channel for {(s, t)}")
        assignments.append(chosen)
    plan = ChannelPlan(ring_size=m, assignments=tuple(assignments))
    plan.validate()
    return plan


# -- derived quantities ------------------------------------------------------------


@lru_cache(maxsize=256)
def wavelengths_required(ring_size: int, method: str = "greedy") -> int:
    """Number of wavelengths a ring of ``ring_size`` needs (Figure 5 series)."""
    if method == "greedy":
        return greedy_assignment(ring_size).num_channels
    if method == "ilp":
        return ilp_assignment(ring_size).num_channels
    if method == "lower-bound":
        return lower_bound(ring_size)
    raise ChannelAssignmentError(f"unknown method {method!r}")


def max_ring_size(
    channel_budget: int = FIBER_CHANNEL_LIMIT,
    method: str = "greedy",
) -> int:
    """Largest ring size whose wavelength demand fits ``channel_budget``.

    With the paper's 160-channel fibre budget this is 35 switches.
    """
    size = 2
    while wavelengths_required(size + 1, method) <= channel_budget:
        size += 1
    return size


def rings_needed(ring_size: int, wdm_channels: int = WDM_CHANNEL_LIMIT) -> int:
    """Parallel physical rings needed when one WDM supports ``wdm_channels``.

    Paper Section 3.5: a 33-switch ring needs 137 channels, hence two
    80-channel WDM muxes — i.e. two parallel fibre rings.
    """
    needed = wavelengths_required(ring_size)
    if needed == 0:
        return 1
    return ceil(needed / wdm_channels)
