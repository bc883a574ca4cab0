"""The incidence arrays and their two products, pinned.

``repro.flowsim.maxmin`` holds the link × flow incidence as three plain
arrays and multiplies with ``np.bincount``.  Every rate, residual and
hybrid foreground latency in the repo depends on the *order* those sums
accumulate in, so this file states it three ways: the kernels equal
explicit storage-order Python loops exactly; :func:`max_min_rates` and
:class:`ResidualSolver` agree bit for bit; and two solutions recorded on
the tree that still multiplied with ``scipy.sparse`` are reproduced to
the last bit.  Last, a fresh interpreter shows that nothing but the ILP
wavelength assignment imports scipy any more.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.topology as T
from repro.flowsim.maxmin import (
    Flow,
    Incidence,
    ResidualSolver,
    _build_incidence,
    capacities_of,
    max_min_rates,
)
from repro.routing import ECMPRouter, VLBRouter
from repro.routing.base import WeightedPath
from repro.units import GBPS

PINS = Path(__file__).resolve().parents[1] / "golden" / "maxmin_scipy_pins.json"


def incidence_of(columns, n_links):
    """An :class:`Incidence` from per-flow ``[(link, weight), …]`` lists."""
    entries = [(f, link, w) for f, col in enumerate(columns) for link, w in col]
    return Incidence(
        np.array([w for _, _, w in entries], dtype=float),
        np.array([link for _, link, _ in entries], dtype=np.intp),
        np.array([f for f, _, _ in entries], dtype=np.intp),
        n_links,
        len(columns),
    )


def link_sums_loop(a, x):
    out = [0.0] * a.n_links
    for k in range(len(a.data)):
        out[a.indices[k]] += float(a.data[k]) * float(x[a.flow_of[k]])
    return out


def flow_sums_loop(a, y):
    out = [0.0] * a.n_flows
    for k in range(len(a.data)):
        out[a.flow_of[k]] += float(a.data[k]) * float(y[a.indices[k]])
    return out


values = st.floats(-1e12, 1e12, allow_nan=False)


@st.composite
def incidences(draw):
    """Random arrays: empty flows, untouched links and a link repeated
    inside one flow all occur."""
    n_links = draw(st.integers(1, 6))
    entry = st.tuples(st.integers(0, n_links - 1), values)
    columns = draw(st.lists(st.lists(entry, max_size=8), max_size=6))
    a = incidence_of(columns, n_links)
    x = np.array(draw(st.lists(values, min_size=a.n_flows, max_size=a.n_flows)))
    y = np.array(draw(st.lists(values, min_size=n_links, max_size=n_links)))
    return a, x, y


class TestKernelsEqualStorageOrderLoops:
    @given(incidences())
    @settings(max_examples=200, deadline=None)
    def test_exactly(self, drawn):
        a, x, y = drawn
        assert a.link_sums(x).tolist() == link_sums_loop(a, x)
        assert a.flow_sums(y).tolist() == flow_sums_loop(a, y)

    def test_sums_follow_storage_order_not_index_order(self):
        """1e16 + 1 + 1 + 1 is 1e16 left to right (each 1 is half an ulp
        and rounds away) and 1e16 + 4 right to left."""
        big = 1e16
        assert ((big + 1.0) + 1.0) + 1.0 == big != ((1.0 + 1.0) + 1.0) + big
        a = incidence_of([[(0, big)], [(0, 1.0)], [(0, 1.0)], [(0, 1.0)]], 1)
        assert a.link_sums(np.ones(4)).tolist() == [big]
        a = incidence_of([[(0, big), (1, 1.0), (2, 1.0), (3, 1.0)]], 4)
        assert a.flow_sums(np.ones(4)).tolist() == [big]

    def test_empty_flow_set(self):
        a = incidence_of([], 3)
        for out, n in ((a.link_sums(np.empty(0)), 3), (a.flow_sums(np.ones(3)), 0)):
            assert out.dtype == np.float64 and out.tolist() == [0.0] * n
        solver = ResidualSolver({("a", "b"): 4.0, ("b", "a"): 4.0})
        sol = solver.solve()
        assert sol.rates == {}
        assert sol.load_vec.dtype == np.float64
        assert sol.residual == {("a", "b"): 4.0, ("b", "a"): 4.0}
        assert max_min_rates([], {("a", "b"): 4.0}) == {}

    def test_flow_with_no_links_and_link_no_flow_touches(self):
        a = incidence_of([[(0, 0.5), (2, 0.5)], [], [(2, 1.0)]], 4)
        assert a.link_sums(np.array([4.0, 9.0, 1.0])).tolist() == [2.0, 0.0, 3.0, 0.0]
        assert a.flow_sums(np.array([1.0, 7.0, 3.0, 7.0])).tolist() == [2.0, 0.0, 3.0]
        # A flow whose every path has weight zero … cannot be built (the
        # weights sum to 1), but one with no hops can: it gets its demand.
        caps = {("a", "b"): 4.0, ("b", "a"): 4.0}
        flows = [
            Flow(0, (WeightedPath(("a",), 1.0),), 3.0),
            Flow(1, (WeightedPath(("a", "b"), 1.0),), 9.0),
        ]
        solver = ResidualSolver(caps)
        for flow in flows:
            solver.add_flow(flow)
        assert solver.solve().rates == max_min_rates(flows, caps) == {0: 3.0, 1: 4.0}
        assert solver.solve().residual == {("a", "b"): 0.0, ("b", "a"): 4.0}


class TestMergeOrder:
    def test_three_paths_sharing_a_link_add_in_path_order(self):
        """(0.7 + 0.2) + 0.1 is one ulp short of 1; every other order
        gives 1.0.  Both builders add in path order."""
        weights = (0.7, 0.2, 0.1)
        assert (0.7 + 0.2) + 0.1 != 0.7 + (0.2 + 0.1)
        paths = tuple(
            WeightedPath(("s", "m") + mid + ("d",), w)
            for mid, w in zip(((), ("x",), ("y",)), weights)
        )
        links = [("s", "m"), ("m", "d"), ("m", "x"), ("x", "d"), ("m", "y"), ("y", "d")]
        caps = {link: 10.0 for link in links}
        flow = Flow(0, paths, 100.0)

        a, link_index = _build_incidence([flow], caps)
        assert a.data[list(link_index).index(("s", "m"))] == (0.7 + 0.2) + 0.1
        expected = 10.0 / ((0.7 + 0.2) + 0.1)
        assert expected != 10.0
        assert max_min_rates([flow], caps) == {0: expected}
        solver = ResidualSolver(caps)
        solver.add_flow(flow)
        assert solver.solve().rates == {0: expected}


def routed_flows(topo, router, specs):
    servers = topo.servers()
    flows = []
    for i, (src, off, demand) in enumerate(specs):
        a = servers[src % len(servers)]
        b = servers[(src + 1 + off % (len(servers) - 1)) % len(servers)]
        flows.append(Flow(i, tuple(router.weighted_paths(a, b)), demand * GBPS))
    return flows


class TestMaxMinRatesEqualsResidualSolver:
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 11),
                st.integers(0, 10),
                st.sampled_from([0.5, 1.25, 3.0, 6.0, 20.0]),
            ),
            min_size=1,
            max_size=16,
        ),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_exactly_on_ecmp_and_vlb_flow_sets(self, specs, vlb):
        topo = T.quartz_ring(6, 2)
        router = VLBRouter(topo, direct_fraction=0.7) if vlb else ECMPRouter(topo)
        flows = routed_flows(topo, router, specs)
        caps = capacities_of(topo)
        solver = ResidualSolver(caps)
        for flow in reversed(flows):  # insertion order must not matter
            solver.add_flow(flow)
        assert solver.solve().rates == max_min_rates(flows, caps)


def pinned_scenario(vlb):
    """The flow sets the pins were recorded over (do not edit)."""
    topo = T.quartz_ring(6, 2)
    servers = topo.servers()
    router = VLBRouter(topo, direct_fraction=0.7) if vlb else ECMPRouter(topo)
    flows = []
    for i in range(4 * len(servers)):
        src = servers[i % len(servers)]
        dst = servers[(i * 5 + 3 + i // len(servers)) % len(servers)]
        if src == dst:
            dst = servers[(i + 1) % len(servers)]
        paths = tuple(router.weighted_paths(src, dst))
        flows.append(Flow(i, paths, (0.3 + (i * 7 % 11) / 3) * GBPS))
    return topo, flows


class TestPinnedAgainstScipy:
    @pytest.mark.parametrize("name", ["ecmp", "vlb"])
    def test_rates_and_residuals_bit_for_bit(self, name):
        pin = json.loads(PINS.read_text())[name]
        topo, flows = pinned_scenario(vlb=name == "vlb")
        caps = capacities_of(topo)
        solver = ResidualSolver(caps)
        for flow in flows:
            solver.add_flow(flow)
        solver.fail_link(*pin["cut"])
        sol = solver.solve()
        assert [x.hex() for x in sol.rates_vec.tolist()] == pin["rates"]
        assert [x.hex() for x in sol.residual_vec.tolist()] == pin["residual"]
        rates = max_min_rates(flows, caps)
        assert [rates[f.flow_id].hex() for f in flows] == pin["max_min_rates"]


class TestScipyLeftTheImportPath:
    def test_only_the_ilp_assignment_imports_scipy(self):
        """Every process — sweep cell, pool worker, shard worker — used
        to pay for ``scipy.sparse`` through ``repro.flowsim``; now only
        ``plan --method ilp`` reaches scipy (fresh interpreter; CI's
        ``benchmark-perf`` job runs this test as a step of its own)."""
        script = (
            "import sys\n"
            "import repro.experiments, repro.hybrid\n"
            "from repro.flowsim import ResidualSolver, flow_from_single_path\n"
            "from repro.flowsim import max_min_rates\n"
            "caps = {('a', 'b'): 10.0, ('b', 'a'): 10.0}\n"
            "flows = [flow_from_single_path(i, ('a', 'b'), 8.0) for i in range(2)]\n"
            "solver = ResidualSolver(caps)\n"
            "for flow in flows:\n"
            "    solver.add_flow(flow)\n"
            "assert solver.solve().rates == max_min_rates(flows, caps) == {0: 5.0, 1: 5.0}\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "assert not loaded, loaded\n"
            "from repro.cli import main\n"
            "assert main(['plan', '--ring-size', '5', '--method', 'ilp']) == 0\n"
            "assert 'scipy.optimize' in sys.modules\n"
        )
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ, PYTHONPATH=str(src), REPRO_CACHE_DISABLE="1")
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert "wavelengths (ilp)" in done.stdout
