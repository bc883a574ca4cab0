"""Integration tests for the experiment runners (small, fast instances)."""

import pytest

from repro.experiments import (
    TOPOLOGY_BUILDERS,
    figure10_sweep,
    figure17_sweep,
    figure18_sweep,
    figure20_sweep,
    format_figure10,
    format_figure20,
    format_sweep,
    run_pathological,
    run_task_experiment,
)
from repro.units import GBPS


class TestTopologyRoster:
    def test_all_six_architectures_build(self):
        for name, build in TOPOLOGY_BUILDERS.items():
            topo = build()
            topo.validate()
            assert len(topo.servers()) == 64, name

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError):
            run_task_experiment("hypercube", "scatter", 1)

    def test_zero_tasks_rejected(self):
        with pytest.raises(ValueError):
            run_task_experiment("jellyfish", "scatter", 0)


class TestTaskExperiment:
    def test_small_scatter_runs(self):
        result = run_task_experiment(
            "quartz in edge and core", "scatter", 2, fan=4, duration=0.002
        )
        assert result.summary.count > 10
        assert result.mean_latency > 0
        assert result.measured_group == "all tasks"

    def test_localized_measures_only_local_task(self):
        result = run_task_experiment(
            "three-tier tree", "scatter", 3, fan=4, duration=0.002, localized=True
        )
        assert result.measured_group == "local task"

    def test_quartz_core_beats_tree(self):
        tree = run_task_experiment("three-tier tree", "scatter", 1, fan=4,
                                   duration=0.002)
        quartz = run_task_experiment("quartz in core", "scatter", 1, fan=4,
                                     duration=0.002)
        # The CCS core hop dominates the tree's latency.
        assert tree.mean_latency - quartz.mean_latency > 2e-6

    def test_deterministic_for_seed(self):
        a = run_task_experiment("jellyfish", "gather", 2, fan=3, duration=0.002, seed=5)
        b = run_task_experiment("jellyfish", "gather", 2, fan=3, duration=0.002, seed=5)
        assert a.mean_latency == b.mean_latency


class TestSweeps:
    def test_figure17_sweep_shape(self):
        series = figure17_sweep(
            ["three-tier tree", "quartz in edge and core"],
            "scatter",
            [1, 2],
            fan=4,
            duration=0.002,
        )
        assert set(series) == {"three-tier tree", "quartz in edge and core"}
        assert [p.num_tasks for p in series["three-tier tree"]] == [1, 2]
        text = format_sweep(series, "test")
        assert "three-tier tree" in text

    def test_figure18_sweep_averages_seeds(self):
        series = figure18_sweep(
            ["jellyfish"], "scatter", [1], seeds=(0, 1), fan=4, duration=0.002
        )
        point = series["jellyfish"][0]
        assert len(point.per_seed) == 2
        assert point.mean_latency == pytest.approx(sum(point.per_seed) / 2)


class TestPathological:
    def test_ecmp_saturates_vlb_does_not(self):
        ecmp = run_pathological("quartz-ecmp", 50 * GBPS, duration=0.002)
        vlb = run_pathological("quartz-vlb", 50 * GBPS, duration=0.002)
        assert ecmp.saturated
        assert not vlb.saturated
        assert ecmp.mean_latency > 5 * vlb.mean_latency
        # Fig. 20: VLB stays near its zero-load latency at 50 G (1.528 us
        # measured).
        assert vlb.mean_latency <= 1.6e-6

    def test_nonblocking_pays_core_latency(self):
        core = run_pathological("nonblocking", 10 * GBPS, duration=0.002)
        quartz = run_pathological("quartz-ecmp", 10 * GBPS, duration=0.002)
        assert core.mean_latency > quartz.mean_latency + 4e-6

    def test_unknown_fabric_rejected(self):
        with pytest.raises(ValueError):
            run_pathological("torus", 10 * GBPS)

    def test_figure20_format(self):
        results = figure20_sweep([10], duration=0.001)
        text = format_figure20(results)
        assert "quartz-vlb" in text
        assert "10G" in text


class TestBisection:
    @pytest.fixture(scope="class")
    def results(self):
        return figure10_sweep(num_racks=5, servers_per_rack=4)

    def test_grid_complete(self, results):
        assert len(results) == 15  # 5 fabrics × 3 patterns

    def test_jellyfish_present(self, results):
        by_key = {(r.fabric, r.pattern): r.normalized_throughput for r in results}
        for pattern in ("random permutation", "incast", "rack level shuffle"):
            assert 0.0 < by_key[("jellyfish", pattern)] <= 1.0

    def test_quartz_between_full_and_half(self, results):
        by_key = {(r.fabric, r.pattern): r.normalized_throughput for r in results}
        for pattern in ("random permutation", "incast", "rack level shuffle"):
            assert by_key[("quartz", pattern)] > by_key[("1/2 bisection", pattern)]

    def test_format(self, results):
        text = format_figure10(results)
        assert "full bisection" in text
