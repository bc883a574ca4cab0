"""Property tests for the incremental residual max-min solver.

The hybrid engine trusts three things about :class:`ResidualSolver`:
residuals are physical (non-negative, conserve link capacity), the
incremental path is exact (a re-solve after add/remove/fail/repair
matches a from-scratch solve over the same final state bit for bit),
and mutation bookkeeping never corrupts the caches.  Hypothesis drives
random flow sets and mutation sequences over a small ring fabric.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.flowsim.maxmin import (
    Flow,
    FlowSimError,
    ResidualSolver,
    flow_from_single_path,
    max_min_rates,
)
from repro.routing.base import WeightedPath

#: Ring fabric the strategies route over: n0 — n1 — … — n4 — n0.
N_NODES = 5
NODES = [f"n{i}" for i in range(N_NODES)]
LINKS = [(NODES[i], NODES[(i + 1) % N_NODES]) for i in range(N_NODES)]


def ring_capacities(caps_per_link):
    """Directed capacity map for the ring, one value per undirected link."""
    out = {}
    for (u, v), cap in zip(LINKS, caps_per_link):
        out[(u, v)] = cap
        out[(v, u)] = cap
    return out


def arc_path(start, length, clockwise):
    """A simple path along the ring: ``length`` hops from ``start``."""
    step = 1 if clockwise else -1
    return tuple(NODES[(start + step * k) % N_NODES] for k in range(length + 1))


#: One flow: (start node, hop count, direction, demand).
flow_specs = st.tuples(
    st.integers(0, N_NODES - 1),
    st.integers(1, N_NODES - 1),
    st.booleans(),
    st.floats(0.5, 20.0),
)
capacity_lists = st.lists(
    st.floats(1.0, 50.0), min_size=len(LINKS), max_size=len(LINKS)
)


def build_flows(specs):
    return [
        flow_from_single_path(i, arc_path(s, h, cw), demand=d)
        for i, (s, h, cw, d) in enumerate(specs)
    ]


#: A mutation: ("add", spec) | ("remove", idx) | ("fail", link_idx) |
#: ("repair", link_idx).  Indices are taken modulo whatever exists.
mutations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), flow_specs),
        st.tuples(st.just("remove"), st.integers(0, 30)),
        st.tuples(st.just("fail"), st.integers(0, len(LINKS) - 1)),
        st.tuples(st.just("repair"), st.integers(0, len(LINKS) - 1)),
    ),
    min_size=1,
    max_size=12,
)


class TestResidualInvariants:
    @given(st.lists(flow_specs, min_size=1, max_size=10), capacity_lists)
    @settings(max_examples=60, deadline=None)
    def test_residuals_non_negative_and_conserve_capacity(self, specs, caps):
        capacities = ring_capacities(caps)
        solver = ResidualSolver(capacities)
        for flow in build_flows(specs):
            solver.add_flow(flow)
        sol = solver.solve()

        assert set(sol.residual) == set(capacities)
        assert set(sol.link_load) == set(capacities)
        for link, cap in capacities.items():
            assert sol.residual[link] >= 0.0
            # Conservation: load + residual spans the link exactly
            # (modulo the water-filling loop's saturation tolerance).
            assert sol.link_load[link] <= cap * (1 + 1e-6)
            assert sol.link_load[link] + sol.residual[link] == pytest.approx(
                cap, rel=1e-9, abs=1e-9
            )

    @given(st.lists(flow_specs, min_size=1, max_size=10), capacity_lists)
    @settings(max_examples=40, deadline=None)
    def test_untouched_links_keep_full_capacity(self, specs, caps):
        capacities = ring_capacities(caps)
        solver = ResidualSolver(capacities)
        flows = build_flows(specs)
        for flow in flows:
            solver.add_flow(flow)
        sol = solver.solve()

        touched = set()
        for f in flows:
            for wp in f.paths:
                for i in range(len(wp.path) - 1):
                    touched.add((wp.path[i], wp.path[i + 1]))
        for link in capacities:
            if link not in touched:
                assert sol.link_load[link] == 0.0
                assert sol.residual[link] == capacities[link]

    @given(st.lists(flow_specs, min_size=1, max_size=10), capacity_lists)
    @settings(max_examples=40, deadline=None)
    def test_matches_max_min_rates_on_static_state(self, specs, caps):
        """With no faults, the solver is exactly ``max_min_rates``."""
        capacities = ring_capacities(caps)
        solver = ResidualSolver(capacities)
        flows = build_flows(specs)
        for flow in flows:
            solver.add_flow(flow)
        assert solver.solve().rates == max_min_rates(flows, capacities)


class TestIncrementalExactness:
    @given(st.lists(flow_specs, min_size=0, max_size=6), mutations, capacity_lists)
    @settings(max_examples=60, deadline=None)
    def test_incremental_matches_from_scratch(self, specs, ops, caps):
        """Any mutation sequence → same answer as a fresh solver."""
        capacities = ring_capacities(caps)
        solver = ResidualSolver(capacities)
        flows = {}
        next_id = 0
        for flow in build_flows(specs):
            solver.add_flow(flow)
            flows[flow.flow_id] = flow
            next_id = flow.flow_id + 1
        failed = set()

        solver.solve()  # prime both caches so mutations must invalidate
        for op, arg in ops:
            if op == "add":
                s, h, cw, d = arg
                flow = flow_from_single_path(next_id, arc_path(s, h, cw), d)
                solver.add_flow(flow)
                flows[next_id] = flow
                next_id += 1
            elif op == "remove" and flows:
                fid = sorted(flows)[arg % len(flows)]
                solver.remove_flow(fid)
                del flows[fid]
            elif op == "fail":
                solver.fail_link(*LINKS[arg % len(LINKS)])
                failed.add(arg % len(LINKS))
            elif op == "repair":
                solver.repair_link(*LINKS[arg % len(LINKS)])
                failed.discard(arg % len(LINKS))
            solver.solve()  # exercise the incremental path every step

        fresh = ResidualSolver(capacities)
        for fid in sorted(flows):
            fresh.add_flow(flows[fid])
        for idx in failed:
            fresh.fail_link(*LINKS[idx])

        incremental, scratch = solver.solve(), fresh.solve()
        assert incremental.rates == scratch.rates
        assert incremental.link_load == scratch.link_load
        assert incremental.residual == scratch.residual

    @given(st.lists(flow_specs, min_size=1, max_size=8), capacity_lists)
    @settings(max_examples=40, deadline=None)
    def test_fail_repair_round_trips(self, specs, caps):
        capacities = ring_capacities(caps)
        solver = ResidualSolver(capacities)
        for flow in build_flows(specs):
            solver.add_flow(flow)
        before = solver.solve()

        for u, v in LINKS[:2]:
            solver.fail_link(u, v)
        failed_sol = solver.solve()
        for u, v in LINKS[:2]:
            assert failed_sol.residual[(u, v)] == 0.0
            assert failed_sol.residual[(v, u)] == 0.0
        for u, v in LINKS[:2]:
            solver.repair_link(u, v)
        after = solver.solve()

        assert after.rates == before.rates
        assert after.residual == before.residual

    @given(st.lists(flow_specs, min_size=1, max_size=8), capacity_lists)
    @settings(max_examples=40, deadline=None)
    def test_flows_on_dead_links_get_zero(self, specs, caps):
        capacities = ring_capacities(caps)
        solver = ResidualSolver(capacities)
        flows = build_flows(specs)
        for flow in flows:
            solver.add_flow(flow)
        dead = LINKS[0]
        solver.fail_link(*dead)
        sol = solver.solve()
        dead_links = {dead, (dead[1], dead[0])}
        for f in flows:
            crosses = any(
                (wp.path[i], wp.path[i + 1]) in dead_links
                for wp in f.paths
                for i in range(len(wp.path) - 1)
            )
            if crosses:
                assert sol.rates[f.flow_id] == 0.0
            assert math.isfinite(sol.rates[f.flow_id])


class TestSolverBookkeeping:
    def test_solution_cached_until_mutation(self):
        solver = ResidualSolver(ring_capacities([10.0] * len(LINKS)))
        solver.add_flow(flow_from_single_path(0, arc_path(0, 2, True), 5.0))
        first = solver.solve()
        assert solver.solve() is first  # no-op re-solve is free
        solver.fail_link(*LINKS[0])
        assert solver.solve() is not first

    def test_empty_solver_residual_is_full_capacity(self):
        capacities = ring_capacities([10.0] * len(LINKS))
        sol = ResidualSolver(capacities).solve()
        assert sol.rates == {}
        assert sol.residual == capacities

    def test_duplicate_flow_rejected(self):
        solver = ResidualSolver(ring_capacities([10.0] * len(LINKS)))
        solver.add_flow(flow_from_single_path(0, arc_path(0, 1, True), 1.0))
        with pytest.raises(FlowSimError):
            solver.add_flow(flow_from_single_path(0, arc_path(1, 1, True), 1.0))

    def test_unknown_flow_removal_rejected(self):
        solver = ResidualSolver(ring_capacities([10.0] * len(LINKS)))
        with pytest.raises(FlowSimError):
            solver.remove_flow(7)

    def test_unknown_link_capacity_rejected(self):
        solver = ResidualSolver(ring_capacities([10.0] * len(LINKS)))
        with pytest.raises(FlowSimError):
            solver.set_capacity("n0", "n3", 5.0)

    def test_flow_over_unknown_link_rejected_at_solve(self):
        solver = ResidualSolver(ring_capacities([10.0] * len(LINKS)))
        solver.add_flow(flow_from_single_path(0, ("n0", "zz"), 1.0))
        with pytest.raises(FlowSimError):
            solver.solve()

    def test_set_capacity_is_directed(self):
        solver = ResidualSolver(ring_capacities([10.0] * len(LINKS)))
        u, v = LINKS[0]
        solver.set_capacity(u, v, 3.0)
        sol = solver.solve()
        assert sol.residual[(u, v)] == 3.0
        assert sol.residual[(v, u)] == 10.0


# -- vector-backed solutions and merged incidence entries ----------------------------

#: A multipath flow whose paths overlap: (start node, direction, demand,
#: one weight per path).
weight_splits = st.sampled_from(
    [(0.3, 0.7), (0.5, 0.5), (0.25, 0.25, 0.5), (0.2, 0.3, 0.5), (1 / 3, 1 / 3, 1 / 3)]
)
multipath_specs = st.tuples(
    st.integers(0, N_NODES - 1), st.booleans(), st.floats(0.5, 20.0), weight_splits
)


def overlapping_flow(flow_id, start, clockwise, demand, weights):
    """Paths going 1, 2, 3 … hops out along one arc and back again: the
    first link carries every path, later links only the longer ones."""
    paths = []
    for k, weight in enumerate(weights):
        out = arc_path(start, k + 1, clockwise)
        paths.append(WeightedPath(out + out[-2::-1], weight))  # out and back
    return Flow(flow_id, tuple(paths), demand)


class TestMergedIncidenceEntries:
    @given(st.lists(multipath_specs, min_size=1, max_size=6), capacity_lists)
    @settings(max_examples=80, deadline=None)
    def test_shared_links_match_max_min_rates(self, specs, caps):
        """Duplicate (flow, link) incidence entries with unequal weights.

        Both builders merge a flow's entries per link in path order, so
        the rates are bit-identical however many paths share a link and
        whatever their weights.
        """
        capacities = ring_capacities(caps)
        flows = [overlapping_flow(i, *spec) for i, spec in enumerate(specs)]
        solver = ResidualSolver(capacities)
        for flow in reversed(flows):  # insertion order must not matter
            solver.add_flow(flow)
        assert solver.solve().rates == max_min_rates(flows, capacities)

    def test_merge_adds_weights_in_path_order(self):
        solver = ResidualSolver(ring_capacities([10.0] * len(LINKS)))
        solver.add_flow(overlapping_flow(0, 0, True, 100.0, (0.2, 0.3, 0.5)))
        sol = solver.solve()
        # n0→n1 carries all three paths, n1→n2 the two longer ones; the
        # back-tracking halves load the reverse directions alike.
        first, second, third = ("n0", "n1"), ("n1", "n2"), ("n2", "n3")
        assert sol.rates[0] == 10.0 / ((0.2 + 0.3) + 0.5)
        assert sol.link_load[second] == (0.3 + 0.5) * sol.rates[0]
        assert sol.link_load[third] == 0.5 * sol.rates[0]
        assert sol.link_load[first] == sol.link_load[first[::-1]]


class TestVectorBackedSolution:
    @given(st.lists(flow_specs, min_size=0, max_size=10), capacity_lists, mutations)
    @settings(max_examples=60, deadline=None)
    def test_dict_views_equal_the_vectors(self, specs, caps, ops):
        capacities = ring_capacities(caps)
        solver = ResidualSolver(capacities)
        for flow in build_flows(specs):
            solver.add_flow(flow)
        for op, arg in ops:
            if op == "fail":
                solver.fail_link(*LINKS[arg % len(LINKS)])
            elif op == "remove" and solver.flow_ids:
                solver.remove_flow(solver.flow_ids[arg % len(solver.flow_ids)])
        sol = solver.solve()

        assert sol.links == tuple(capacities)  # every base link, base order
        assert list(sol.flow_ids) == solver.flow_ids
        assert list(sol.rates) == list(sol.flow_ids)
        assert list(sol.link_load) == list(sol.residual) == list(sol.links)
        assert list(sol.rates.values()) == sol.rates_vec.tolist()
        assert list(sol.link_load.values()) == sol.load_vec.tolist()
        assert list(sol.residual.values()) == sol.residual_vec.tolist()
        for link, row in solver.link_index.items():
            cap = solver.capacity(*link)
            assert sol.residual_vec[row] == max(0.0, cap - sol.load_vec[row])
        assert sol.rates is sol.rates  # built once, on first access

    def test_solution_is_a_snapshot(self):
        solver = ResidualSolver(ring_capacities([10.0] * len(LINKS)))
        solver.add_flow(flow_from_single_path(0, arc_path(0, 2, True), 5.0))
        before = solver.solve()
        residual = before.residual_vec.copy()
        solver.fail_link(*LINKS[0])
        solver.add_flow(flow_from_single_path(1, arc_path(1, 1, True), 5.0))
        solver.solve()
        assert before.flow_ids == (0,)
        assert (before.residual_vec == residual).all()


class TestFlowsCrossing:
    @given(st.lists(flow_specs, min_size=0, max_size=10), st.integers(0, 30))
    @settings(max_examples=60, deadline=None)
    def test_matches_a_path_walk(self, specs, removed):
        solver = ResidualSolver(ring_capacities([10.0] * len(LINKS)))
        flows = {f.flow_id: f for f in build_flows(specs)}
        for flow in flows.values():
            solver.add_flow(flow)
        solver.solve()
        if flows:
            gone = sorted(flows)[removed % len(flows)]
            solver.remove_flow(gone)
            del flows[gone]
        for u, v in LINKS:
            expected = sorted(
                fid
                for fid, f in flows.items()
                if any(
                    {(wp.path[i], wp.path[i + 1])} & {(u, v), (v, u)}
                    for wp in f.paths
                    for i in range(len(wp.path) - 1)
                )
            )
            assert solver.flows_crossing(u, v) == expected
            assert solver.flows_crossing(v, u) == expected

    def test_sees_flows_not_yet_solved_and_skips_zero_weight_paths(self):
        solver = ResidualSolver(ring_capacities([10.0] * len(LINKS)))
        solver.add_flow(flow_from_single_path(4, arc_path(0, 1, True), 1.0))
        solver.add_flow(
            Flow(
                2,
                (
                    WeightedPath(arc_path(2, 1, True), 1.0),
                    WeightedPath(arc_path(0, 1, True), 0.0),
                ),
                1.0,
            )
        )
        assert solver.flows_crossing("n0", "n1") == [4]
        assert solver.flows_crossing("n2", "n3") == [2]
        assert solver.flows_crossing("n0", "zz") == []  # unknown link: nobody
