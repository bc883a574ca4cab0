"""Tests for wavelength assignment (paper Section 3.1 / Figure 5)."""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import channels as ch


class TestRingGeometry:
    def test_clockwise_distance_wraps(self):
        assert ch.clockwise_distance(6, 1, 8) == 3

    def test_clockwise_distance_forward(self):
        assert ch.clockwise_distance(1, 6, 8) == 5

    def test_ring_distance_is_shorter_arc(self):
        assert ch.ring_distance(0, 5, 8) == 3
        assert ch.ring_distance(5, 0, 8) == 3

    def test_arc_links_clockwise(self):
        assert ch.arc_links(1, 3, 6, clockwise=True) == (1, 2)

    def test_arc_links_counterclockwise(self):
        # Counter-clockwise from 1 to 3 goes 1 → 0 → 5 → 4 → 3, crossing
        # segments 3, 4, 5, 0 (segment m joins m and m+1).
        assert set(ch.arc_links(1, 3, 6, clockwise=False)) == {3, 4, 5, 0}

    def test_arc_links_empty_for_same_node(self):
        assert ch.arc_links(2, 2, 6, clockwise=True) == ()

    def test_all_pairs_count(self):
        assert len(ch.all_pairs(8)) == 8 * 7 // 2

    @given(st.integers(2, 30), st.integers(0, 29), st.integers(0, 29))
    def test_arcs_cover_the_whole_ring(self, m, s, t):
        s %= m
        t %= m
        if s == t:
            return
        cw = ch.arc_links(s, t, m, clockwise=True)
        ccw = ch.arc_links(s, t, m, clockwise=False)
        assert len(cw) + len(ccw) == m
        assert set(cw) | set(ccw) == set(range(m))
        assert not set(cw) & set(ccw)


class TestLowerBound:
    def test_empty_and_trivial_rings(self):
        assert ch.lower_bound(0) == 0
        assert ch.lower_bound(1) == 0
        assert ch.lower_bound(2) == 1

    def test_paper_33_switch_ring(self):
        # Section 3.5: a 33-switch ring needs 137 channels; the link-load
        # bound is (33² − 1) / 8 = 136.
        assert ch.lower_bound(33) == 136

    def test_matches_closed_form_odd(self):
        for m in (5, 7, 9, 11, 33):
            assert ch.lower_bound(m) == (m * m - 1) // 8


class TestGreedyAssignment:
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 8, 12, 16, 24, 33])
    def test_plans_are_valid(self, m):
        plan = ch.greedy_assignment(m)
        plan.validate()
        assert len(plan.assignments) == m * (m - 1) // 2

    @pytest.mark.parametrize("m", [4, 8, 16, 33])
    def test_respects_lower_bound(self, m):
        assert ch.greedy_assignment(m).num_channels >= ch.lower_bound(m)

    def test_near_optimal_at_33(self):
        # Paper: 33 switches need 137 channels; greedy should land within
        # a few channels of the 136 bound.
        plan = ch.greedy_assignment(33)
        assert 136 <= plan.num_channels <= 140

    def test_trivial_sizes(self):
        assert ch.greedy_assignment(0).num_channels == 0
        assert ch.greedy_assignment(1).num_channels == 0
        assert ch.greedy_assignment(2).num_channels == 1

    def test_negative_ring_rejected(self):
        with pytest.raises(ch.ChannelAssignmentError):
            ch.greedy_assignment(-1)

    def test_budget_enforced(self):
        with pytest.raises(ch.ChannelAssignmentError):
            ch.greedy_assignment(36, max_channels=160)

    def test_seeded_runs_are_valid_and_deterministic(self):
        a = ch.greedy_assignment(12, seed=7)
        b = ch.greedy_assignment(12, seed=7)
        a.validate()
        assert a == b

    @given(st.integers(2, 20))
    @settings(max_examples=20, deadline=None)
    def test_property_valid_and_bounded(self, m):
        plan = ch.greedy_assignment(m)
        plan.validate()
        # No wavelength index can exceed the pair count.
        assert plan.num_channels <= m * (m - 1) // 2
        assert plan.num_channels >= ch.lower_bound(m)

    @given(st.integers(3, 14), st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_property_random_starts_stay_valid(self, m, seed):
        ch.greedy_assignment(m, seed=seed).validate()


class TestILPAssignment:
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_ilp_matches_lower_bound_small(self, m):
        plan = ch.ilp_assignment(m)
        plan.validate()
        assert plan.num_channels >= ch.lower_bound(m)

    @pytest.mark.parametrize("m", [4, 6, 8])
    def test_greedy_close_to_ilp(self, m):
        greedy = ch.greedy_assignment(m).num_channels
        optimal = ch.ilp_assignment(m).num_channels
        assert optimal <= greedy <= optimal + 2

    def test_ilp_trivial(self):
        assert ch.ilp_assignment(1).num_channels == 0

    def test_milp_solver_is_imported_only_when_solving(self):
        """``import repro`` reaches this module; only ``ilp_assignment``
        may pay for ``scipy.optimize`` (checked in a fresh interpreter)."""
        script = (
            "import sys\n"
            "import repro.experiments.section7\n"
            "assert 'scipy.optimize' not in sys.modules, 'eager MILP import'\n"
            "from repro.cli import main\n"
            "assert main(['plan', '--ring-size', '5', '--method', 'ilp']) == 0\n"
            "assert 'scipy.optimize' in sys.modules\n"
        )
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src), REPRO_CACHE_DISABLE="1")
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert "wavelengths (ilp)" in done.stdout


class TestDerivedQuantities:
    def test_max_ring_size_is_35(self):
        # Figure 5 / Section 3.1: 160 channels cap the ring at 35 switches.
        assert ch.max_ring_size(ch.FIBER_CHANNEL_LIMIT) == 35

    def test_rings_needed_for_33(self):
        # Section 3.5: 33 switches → two 80-channel WDMs.
        assert ch.rings_needed(33) == 2

    def test_rings_needed_small(self):
        assert ch.rings_needed(8) == 1

    def test_wavelengths_required_methods_agree_small(self):
        for m in (3, 5, 7):
            assert (
                ch.wavelengths_required(m, "lower-bound")
                <= ch.wavelengths_required(m, "ilp")
                <= ch.wavelengths_required(m, "greedy")
            )

    def test_unknown_method_rejected(self):
        with pytest.raises(ch.ChannelAssignmentError):
            ch.wavelengths_required(5, "magic")


class TestChannelPlanQueries:
    def test_assignment_lookup(self):
        plan = ch.greedy_assignment(6)
        a = plan.assignment_for(2, 5)
        assert a.pair == (2, 5)
        assert plan.assignment_for(5, 2).pair == (2, 5)

    def test_missing_pair_raises(self):
        plan = ch.greedy_assignment(4)
        with pytest.raises(ch.ChannelAssignmentError):
            plan.assignment_for(0, 9)

    def test_channels_on_link_disjoint_per_wavelength(self):
        plan = ch.greedy_assignment(10)
        for link in range(10):
            wavelengths = plan.channels_on_link(link)
            assert len(wavelengths) == plan.link_load(link)

    def test_validate_catches_duplicate_wavelength(self):
        plan = ch.greedy_assignment(5)
        # Force two assignments onto one wavelength and shared links.
        clash = tuple(
            ch.PathAssignment(a.src, a.dst, 0, a.clockwise, a.links)
            for a in plan.assignments
        )
        broken = ch.ChannelPlan(ring_size=5, assignments=clash)
        with pytest.raises(ch.ChannelAssignmentError):
            broken.validate()

    def test_validate_catches_missing_pair(self):
        plan = ch.greedy_assignment(5)
        broken = ch.ChannelPlan(ring_size=5, assignments=plan.assignments[:-1])
        with pytest.raises(ch.ChannelAssignmentError):
            broken.validate()
