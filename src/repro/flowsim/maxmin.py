"""Max-min fair rate allocation by progressive filling.

The flow-level counterpart to the packet simulator: given flows with
(possibly multipath, weighted) routes and per-flow demand caps, raise
every unfrozen flow's rate in lockstep; when a link saturates, freeze
the flows crossing it; repeat.  This is the textbook water-filling
algorithm, implemented over a sparse link × flow incidence held as three
plain arrays (:class:`Incidence`) so Quartz-scale instances (tens of
thousands of subflows) solve quickly.

Used for the paper's bisection-bandwidth study (Section 5.1, Figure 10),
where TCP-like fair sharing is what the normalized-throughput metric
abstracts.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from repro.routing.base import Path, WeightedPath


class FlowSimError(ValueError):
    """Raised for malformed flow or capacity specifications."""


@dataclass(frozen=True)
class Flow:
    """One unidirectional flow: weighted paths plus a demand cap (bps)."""

    flow_id: int
    paths: tuple[WeightedPath, ...]
    demand: float

    def __post_init__(self) -> None:
        if not self.paths:
            raise FlowSimError(f"flow {self.flow_id} has no paths")
        total = sum(p.weight for p in self.paths)
        # Each weight carries its own rounding error, so the tolerance
        # must grow with the split width: 64 paths of 1/64 can drift
        # past a fixed 1e-9 while still being an exact even split.
        if abs(total - 1.0) > 1e-9 * max(1.0, len(self.paths)):
            raise FlowSimError(
                f"flow {self.flow_id} path weights sum to {total}, expected 1"
            )
        if self.demand <= 0:
            raise FlowSimError(f"flow {self.flow_id} demand must be positive")


def flow_from_single_path(flow_id: int, path: Path, demand: float) -> Flow:
    """Convenience: a flow pinned to one path."""
    return Flow(flow_id=flow_id, paths=(WeightedPath(path, 1.0),), demand=demand)


def _directed_links(path: Path) -> list[tuple[str, str]]:
    return [(path[i], path[i + 1]) for i in range(len(path) - 1)]


class Incidence(NamedTuple):
    """Sparse link × flow incidence ``A``, flow-major, as plain arrays.

    Entry ``k`` puts weight ``data[k]`` of flow (column) ``flow_of[k]``
    on link (row) ``indices[k]``; entries are grouped by flow, flows
    ascending — the CSR form of ``Aᵀ`` with the row pointer expanded.

    Both products accumulate **in storage order**, one multiply then one
    add per entry (``np.bincount`` is a sequential ``out[i] += w``): a
    link's sum adds its flows in ascending flow order, a flow's sum adds
    its links in the order they are stored.  That is the order scipy's
    ``csc_matvec`` / ``csr_matvec`` use over the same arrays, which the
    rates recorded with them (``tests/flowsim/test_incidence.py``) pin.
    The ``astype`` is a no-op except for an empty incidence, for which
    numpy answers *integer* zeros, weights or not.
    """

    data: np.ndarray
    indices: np.ndarray
    flow_of: np.ndarray
    n_links: int
    n_flows: int

    def link_sums(self, x: np.ndarray) -> np.ndarray:
        """``A @ x``: per link, the weighted sum of a per-flow vector."""
        return np.bincount(
            self.indices, weights=self.data * x[self.flow_of], minlength=self.n_links
        ).astype(float, copy=False)

    def flow_sums(self, y: np.ndarray) -> np.ndarray:
        """``Aᵀ @ y``: per flow, the weighted sum of a per-link vector."""
        return np.bincount(
            self.flow_of, weights=self.data * y[self.indices], minlength=self.n_flows
        ).astype(float, copy=False)


def _link_weights(
    flow: Flow, row_of: Callable[[tuple[str, str]], int | None]
) -> dict[int, float]:
    """Link row → weight for one incidence column, in first-touch order.

    Paths that share a link add their weights in path order; a path of
    weight zero carries nothing.  ``row_of`` returning ``None`` means
    the fabric has no such link: :class:`FlowSimError`.
    """
    merged: dict[int, float] = {}
    for wp in flow.paths:
        if wp.weight == 0.0:
            continue
        for link in _directed_links(wp.path):
            row = row_of(link)
            if row is None:
                raise FlowSimError(f"flow {flow.flow_id} uses unknown link {link}")
            merged[row] = merged.get(row, 0.0) + wp.weight
    return merged


def _build_incidence(
    flows: list[Flow],
    capacities: dict[tuple[str, str], float],
) -> tuple[Incidence, dict[tuple[str, str], int]]:
    """Link × flow incidence with per-flow weights, plus the link index.

    Raises :class:`FlowSimError` if a flow crosses a link that has no
    capacity entry.  The link index assigns rows in first-touch order,
    so identical flow lists always produce identical arrays; a flow's
    paths that share a link are merged in path order, exactly as
    :class:`ResidualSolver` merges them.
    """
    link_index: dict[tuple[str, str], int] = {}

    def row_of(link: tuple[str, str]) -> int | None:
        if link not in capacities:
            return None
        return link_index.setdefault(link, len(link_index))

    columns = [_link_weights(flow, row_of) for flow in flows]
    incidence = Incidence(
        np.array([w for col in columns for w in col.values()], dtype=float),
        np.array([row for col in columns for row in col], dtype=np.intp),
        np.repeat(np.arange(len(columns)), [len(col) for col in columns]),
        len(link_index),
        len(columns),
    )
    return incidence, link_index


def _waterfill(a: Incidence, cap: np.ndarray, demands: np.ndarray) -> np.ndarray:
    """Progressive filling over a prebuilt incidence; returns per-flow rates.

    This is the loop :func:`max_min_rates` has always run, factored out
    so the incremental solver (:class:`ResidualSolver`) can re-run it
    against mutated capacities without rebuilding the incidence.  One
    extension: links with (numerically) zero capacity — a failed fibre
    in the hybrid engine's capacity map — permanently freeze the flows
    crossing them at rate zero instead of raising, matching what the
    fluid model means by a dead link.  With every capacity positive the
    arithmetic is unchanged operation for operation.

    Every incidence entry is a positive path weight, so
    ``a.flow_sums(mask) > 0`` marks exactly the flows crossing a masked
    link.
    """
    n_links, n_flows = a.n_links, a.n_flows
    rates = np.zeros(n_flows)
    active = np.ones(n_flows, dtype=bool)

    dead = cap <= 1e-12
    if dead.any():
        active &= ~(a.flow_sums(dead.astype(float)) > 0)

    # Progressive filling: all active flows share a common increment.
    # ``load`` is carried across iterations: the value computed after a
    # rate update is exactly the value the next iteration starts from.
    load = a.link_sums(rates)
    for _ in range(n_flows + n_links + 1):
        if not active.any():
            break
        active_weight = a.link_sums(active.astype(float))
        headroom = cap - load
        # Numerical guard: tiny negative headroom from float error.
        headroom = np.maximum(headroom, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            per_link_increment = np.where(
                active_weight > 1e-12, headroom / active_weight, np.inf
            )
        link_limit = float(per_link_increment.min()) if n_links else np.inf
        demand_gap = np.where(active, demands - rates, np.inf)
        demand_limit = float(demand_gap.min())
        increment = min(link_limit, demand_limit)
        if not np.isfinite(increment):
            break
        rates = np.where(active, rates + increment, rates)

        # Freeze demand-satisfied flows.
        active &= rates < demands - 1e-9
        # Freeze flows crossing saturated links.
        load = a.link_sums(rates)
        saturated = load >= cap - 1e-6 * np.maximum(cap, 1.0)
        if saturated.any():
            active &= ~(a.flow_sums(saturated.astype(float)) > 0)
        if increment <= 0:
            # No progress possible (all remaining flows blocked).
            break
    return rates


def max_min_rates(
    flows: list[Flow],
    capacities: dict[tuple[str, str], float],
) -> dict[int, float]:
    """Allocate max-min fair rates.

    ``capacities`` maps *directed* links to bps.  Each flow's traffic is
    split over its paths per the path weights (the split ratio is fixed —
    it models the routing protocol, not the transport).  Returns
    flow_id → achieved rate.

    Raises :class:`FlowSimError` if a flow crosses a link that has no
    capacity entry or whose capacity entry is non-positive (the
    :class:`ResidualSolver` is the API that tolerates dead links).
    """
    if not flows:
        return {}

    a, link_index = _build_incidence(flows, capacities)
    if not link_index:
        # Degenerate: no links touched (empty paths) — everyone gets demand.
        return {f.flow_id: f.demand for f in flows}

    cap = np.zeros(len(link_index))
    for link, idx in link_index.items():
        cap[idx] = capacities[link]
        if cap[idx] <= 0:
            raise FlowSimError(f"link {link} has non-positive capacity")

    demands = np.array([f.demand for f in flows])
    rates = _waterfill(a, cap, demands)
    return {flow.flow_id: float(rates[i]) for i, flow in enumerate(flows)}


def max_min_rates_multipath(
    flows: list[Flow],
    capacities: dict[tuple[str, str], float],
) -> dict[int, float]:
    """Max-min allocation where flows spill onto detours adaptively.

    :func:`max_min_rates` fixes the split ratio across a flow's paths
    (modelling a static routing split): one saturated detour then caps
    the whole flow.  This variant models adaptive multipath (the
    paper's VLB with a demand-adaptive ``k``): each flow first fills its
    *primary* path (its first, shortest one), and whatever demand
    remains spills onto the detour paths over the residual capacity.
    Detours cost extra fabric capacity (two channels instead of one), so
    filling the direct paths first is both what real adaptive VLB does
    and what maximizes delivered throughput.

    Path weights are ignored; only the path order and set matter.
    """
    if not flows:
        return {}

    # Phase 1: every flow on its primary path alone.
    primary = [
        Flow(f.flow_id, (WeightedPath(f.paths[0].path, 1.0),), f.demand)
        for f in flows
    ]
    phase1 = max_min_rates(primary, capacities)

    # Residual capacity after the primary allocation.
    residual = dict(capacities)
    for f in flows:
        rate = phase1[f.flow_id]
        for link in _directed_links(f.paths[0].path):
            residual[link] = max(0.0, residual[link] - rate)

    # Phase 2: unsatisfied flows share the residual over their detours,
    # all detour subflows of a flow rising together (they are
    # symmetric: same length, disjoint middles).
    leftovers = []
    for f in flows:
        gap = f.demand - phase1[f.flow_id]
        if gap > 1e-9 and len(f.paths) > 1:
            share = 1.0 / (len(f.paths) - 1)
            leftovers.append(
                Flow(
                    f.flow_id,
                    tuple(WeightedPath(p.path, share) for p in f.paths[1:]),
                    gap,
                )
            )
    phase2: dict[int, float] = {}
    if leftovers:
        phase2 = _equal_rise_subflows(leftovers, residual)

    return {
        f.flow_id: phase1[f.flow_id] + phase2.get(f.flow_id, 0.0) for f in flows
    }


def _equal_rise_subflows(
    flows: list[Flow],
    capacities: dict[tuple[str, str], float],
) -> dict[int, float]:
    """Water-filling where each flow's subflows rise together but freeze
    independently when their own path saturates."""
    # One incidence column per subflow, weight 1 on each of its links.
    subflows = [
        flow_from_single_path(flow.flow_id, wp.path, flow.demand)
        for flow in flows
        for wp in flow.paths
    ]
    a, link_index = _build_incidence(subflows, capacities)
    n_subs = len(subflows)
    n_links = len(link_index)
    cap = np.zeros(n_links)
    for link, idx in link_index.items():
        cap[idx] = capacities[link]

    flow_of = np.repeat(np.arange(len(flows)), [len(f.paths) for f in flows])
    demands = np.array([f.demand for f in flows])
    n_flows = len(flows)
    sub_rates = np.zeros(n_subs)
    active = np.ones(n_subs, dtype=bool)
    # Subflows whose path crosses an already-saturated link can never rise.
    zero_links = cap <= 1e-9
    if zero_links.any():
        active &= ~(a.flow_sums(zero_links.astype(float)) > 0)

    for _ in range(n_subs + n_links + 1):
        if not active.any():
            break
        active_f = active.astype(float)
        load = a.link_sums(sub_rates)
        on_link = a.link_sums(active_f)
        headroom = np.maximum(cap - load, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            link_inc = np.where(on_link > 1e-12, headroom / on_link, np.inf)
        flow_totals = np.bincount(flow_of, weights=sub_rates, minlength=n_flows)
        flow_active = np.bincount(flow_of, weights=active_f, minlength=n_flows)
        gap = demands - flow_totals
        with np.errstate(divide="ignore", invalid="ignore"):
            demand_inc = np.where(flow_active > 1e-12, gap / flow_active, np.inf)
        increment = min(
            float(link_inc.min()) if n_links else np.inf,
            float(demand_inc.min()),
        )
        if not np.isfinite(increment) or increment < 0:
            break
        sub_rates = np.where(active, sub_rates + increment, sub_rates)

        load = a.link_sums(sub_rates)
        saturated = load >= cap - 1e-6 * np.maximum(cap, 1.0)
        if saturated.any():
            active &= ~(a.flow_sums(saturated.astype(float)) > 0)
        flow_totals = np.bincount(flow_of, weights=sub_rates, minlength=n_flows)
        satisfied = flow_totals >= demands - 1e-9
        active &= ~satisfied[flow_of]
        if increment == 0:
            break

    totals = np.bincount(flow_of, weights=sub_rates, minlength=n_flows)
    return {flow.flow_id: float(totals[i]) for i, flow in enumerate(flows)}


@dataclass(frozen=True, eq=False)
class MaxMinSolution:
    """One max-min solve, held as vectors over the solver's fixed indices.

    ``rates_vec`` follows ``flow_ids`` (ascending); ``load_vec`` and
    ``residual_vec`` follow ``links`` — *every* link the solver knows a
    capacity for: links no flow touches carry their full capacity,
    failed links carry zero.  The ``rates`` / ``link_load`` /
    ``residual`` dicts are views over the same numbers, built on first
    access; the hybrid engine's epoch loop reads only the vectors.
    """

    flow_ids: tuple[int, ...]
    links: tuple[tuple[str, str], ...]
    rates_vec: np.ndarray
    load_vec: np.ndarray
    residual_vec: np.ndarray

    @cached_property
    def rates(self) -> dict[int, float]:
        return dict(zip(self.flow_ids, self.rates_vec.tolist()))

    @cached_property
    def link_load(self) -> dict[tuple[str, str], float]:
        return dict(zip(self.links, self.load_vec.tolist()))

    @cached_property
    def residual(self) -> dict[tuple[str, str], float]:
        return dict(zip(self.links, self.residual_vec.tolist()))


class ResidualSolver:
    """Incrementally re-solvable max-min allocator with residual output.

    Owns a mutable capacity vector and a mutable flow set.  Mutations
    are cheap bookkeeping; :meth:`solve` is lazy and caches at two
    levels:

    * the link × flow incidence survives capacity-only mutations
      (``fail_link`` / ``repair_link`` / ``set_capacity``), so fault
      churn re-runs only the water-filling loop (:attr:`incidence_builds`
      counts the assemblies);
    * the full solution survives no-op calls (nothing changed since the
      last solve returns the identical object).

    The incidence is kept flow-major in CSR form — one row per flow in
    ascending ``flow_id`` order, one column per base link in
    :attr:`link_index` order — as three arrays, next to the sorted id
    list and the demand vector.  ``remove_flow`` splices one flow's
    entries out; an added flow's are spliced in at the next solve, so a
    solve walks the paths of the new flows only and hands the arrays to
    an :class:`Incidence` as they are.  An incremental re-solve is
    bit-identical to a from-scratch solve over the same final state
    regardless of mutation order.

    Each flow's entries are merged per link in path order (paths that
    share a link add their weights) and sorted by link row — the same
    merge :func:`max_min_rates` performs, so over flows listed in
    ascending id order its rates are bit-identical to this solver's;
    rows no flow touches are inert in the water-filling arithmetic.
    """

    def __init__(self, capacities: dict[tuple[str, str], float]) -> None:
        for link, cap in capacities.items():
            if cap <= 0:
                raise FlowSimError(f"link {link} has non-positive capacity")
        #: Directed link → its row in every per-link vector; fixed for
        #: the solver's life, in the capacity map's insertion order.
        self.link_index = {link: i for i, link in enumerate(capacities)}
        #: Times the incidence was assembled from the arrays.
        self.incidence_builds = 0
        self._links = tuple(capacities)
        self._base_vec = np.array(list(capacities.values()), dtype=float)
        self._cap_vec = self._base_vec.copy()
        # Flows added since the last solve: their entries are computed
        # and spliced in there, so unknown-link errors surface at solve.
        self._pending: dict[int, Flow] = {}
        self._order: list[int] = []
        self._demands = np.empty(0)
        self._indptr = np.zeros(1, dtype=np.intp)
        self._indices = np.empty(0, dtype=np.intp)
        self._data = np.empty(0)
        # The incidence over the arrays above is keyed to the flow set;
        # the solution is keyed to everything.
        self._incidence_cache: "Incidence | None" = None
        self._solution: "MaxMinSolution | None" = None

    # -- mutations ----------------------------------------------------------------

    def add_flow(self, flow: Flow) -> None:
        if flow.flow_id in self._pending or self._position(flow.flow_id) is not None:
            raise FlowSimError(f"flow {flow.flow_id} already registered")
        self._pending[flow.flow_id] = flow
        self._solution = None

    def _position(self, flow_id: int) -> "int | None":
        """Row of a spliced-in flow in the flow-major arrays."""
        pos = bisect_left(self._order, flow_id)
        return pos if pos < len(self._order) and self._order[pos] == flow_id else None

    def remove_flow(self, flow_id: int) -> None:
        if self._pending.pop(flow_id, None) is None:
            pos = self._position(flow_id)
            if pos is None:
                raise FlowSimError(f"flow {flow_id} not registered")
            indptr = self._indptr
            lo, hi = indptr[pos], indptr[pos + 1]
            del self._order[pos]
            self._demands = np.delete(self._demands, pos)
            self._indptr = np.concatenate((indptr[: pos + 1], indptr[pos + 2 :] - (hi - lo)))
            self._indices = np.concatenate((self._indices[:lo], self._indices[hi:]))
            self._data = np.concatenate((self._data[:lo], self._data[hi:]))
            self._incidence_cache = None
        self._solution = None

    def _splice_pending(self) -> None:
        """Fold the flows added since the last solve into the arrays.

        Validates against the *base* link index: a flow may legitimately
        cross a currently failed link (it gets rate zero), but a link
        the fabric never had is an error — raised here, i.e. at solve
        time, matching :func:`_build_incidence`; the flow stays pending,
        so every later solve raises again until it is removed.
        """
        for flow in list(self._pending.values()):
            merged = _link_weights(flow, self.link_index.get)
            rows = sorted(merged)
            pos = bisect_left(self._order, flow.flow_id)
            indptr = self._indptr
            lo = indptr[pos]
            self._order.insert(pos, flow.flow_id)
            self._demands = np.insert(self._demands, pos, flow.demand)
            self._indptr = np.concatenate((indptr[: pos + 1], indptr[pos:] + len(rows)))
            self._indices = np.concatenate(
                (self._indices[:lo], np.array(rows, dtype=np.intp), self._indices[lo:])
            )
            self._data = np.concatenate(
                (self._data[:lo], [merged[row] for row in rows], self._data[lo:])
            )
            self._incidence_cache = None
            del self._pending[flow.flow_id]

    def _rows(self, u: str, v: str) -> list[int]:
        """Rows of ``u — v``: whichever of its two directions exist."""
        index = self.link_index
        return [index[link] for link in ((u, v), (v, u)) if link in index]

    def fail_link(self, u: str, v: str) -> None:
        """Zero both directions of ``u — v`` (idempotent)."""
        self._cap_vec[self._rows(u, v)] = 0.0
        self._solution = None

    def repair_link(self, u: str, v: str) -> None:
        """Restore both directions of ``u — v`` to their base capacity."""
        rows = self._rows(u, v)
        self._cap_vec[rows] = self._base_vec[rows]
        self._solution = None

    def set_capacity(self, u: str, v: str, capacity: float) -> None:
        """Override one *directed* link's current capacity."""
        if (u, v) not in self.link_index:
            raise FlowSimError(f"unknown link {(u, v)}")
        if capacity < 0:
            raise FlowSimError(f"capacity must be non-negative, got {capacity}")
        self._cap_vec[self.link_index[(u, v)]] = capacity
        self._solution = None

    # -- read side ----------------------------------------------------------------

    @property
    def flow_ids(self) -> list[int]:
        return sorted([*self._order, *self._pending])

    def capacity(self, u: str, v: str) -> float:
        return float(self._cap_vec[self.link_index[(u, v)]])

    def _incidence(self) -> Incidence:
        """The link × flow incidence over the current flows."""
        self._splice_pending()
        if self._incidence_cache is None:
            n_flows = len(self._order)
            self._incidence_cache = Incidence(
                self._data,
                self._indices,
                np.repeat(np.arange(n_flows), np.diff(self._indptr)),
                len(self._links),
                n_flows,
            )
            self.incidence_builds += 1
        return self._incidence_cache

    def flows_crossing(self, u: str, v: str) -> list[int]:
        """Ids of the flows carrying traffic over ``u — v``, ascending.

        Either direction counts, as for :meth:`fail_link`; a path of
        weight zero carries nothing and does not count.
        """
        on_link = np.zeros(len(self._links))
        on_link[self._rows(u, v)] = 1.0
        crossing = np.flatnonzero(self._incidence().flow_sums(on_link))
        return [self._order[i] for i in crossing.tolist()]

    def solve(self) -> MaxMinSolution:
        if self._solution is None:
            a = self._incidence()
            rates_vec = _waterfill(a, self._cap_vec, self._demands)
            load_vec = a.link_sums(rates_vec)
            self._solution = MaxMinSolution(
                flow_ids=tuple(self._order),
                links=self._links,
                rates_vec=rates_vec,
                load_vec=load_vec,
                residual_vec=np.maximum(0.0, self._cap_vec - load_vec),
            )
        return self._solution


def capacities_of(topo) -> dict[tuple[str, str], float]:
    """Directed capacity map of a :class:`~repro.topology.base.Topology`."""
    caps: dict[tuple[str, str], float] = {}
    for link in topo.links():
        caps[(link.u, link.v)] = link.capacity
        caps[(link.v, link.u)] = link.capacity
    return caps
