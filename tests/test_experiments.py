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
from repro.routing.base import Router
from repro.sim import Network
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


    def test_a_point_carries_its_cells_standdowns(self):
        """A scatter/gather round is too few fires for a port-major window:
        each seed's cell says so (``budget``), and its point sums them."""
        cells = [
            run_task_experiment("quartz in core", "scatter_gather", 1, fan=8,
                                duration=5e-4, seed=seed)
            for seed in (0, 1)
        ]
        series = figure17_sweep(
            ["quartz in core"], "scatter_gather", [1], seeds=(0, 1), fan=8, duration=5e-4
        )
        (point,) = series["quartz in core"]
        assert all(cell.standdowns.get("budget", 0) >= 1 for cell in cells)
        assert point.standdowns == {"budget": sum(cell.standdowns["budget"] for cell in cells)}

    def test_a_point_carries_its_cells_table_overflows(self, monkeypatch):
        """Each cell reports its network's ``flow_table_full`` and its
        router's ``route_cache_full``; a point sums them over its seeds.
        Both read 0 at the shipped limits."""
        def sweep():
            cells = [
                run_task_experiment("three-tier tree", "scatter", 1, fan=8,
                                    duration=5e-4, seed=seed)
                for seed in (0, 1)
            ]
            series = figure17_sweep(
                ["three-tier tree"], "scatter", [1], seeds=(0, 1), fan=8, duration=5e-4
            )
            return cells, series["three-tier tree"][0]

        cells, point = sweep()
        assert [(c.flow_table_full, c.route_cache_full) for c in cells] == [(0, 0), (0, 0)]
        assert (point.flow_table_full, point.route_cache_full) == (0, 0)
        monkeypatch.setattr(Network, "FLOW_TABLE_LIMIT", 2)
        monkeypatch.setattr(Router, "ROUTE_CACHE_LIMIT", 3)
        cells, point = sweep()
        assert all(c.flow_table_full > 0 and c.route_cache_full > 0 for c in cells)
        assert point.flow_table_full == sum(c.flow_table_full for c in cells)
        assert point.route_cache_full == sum(c.route_cache_full for c in cells)


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


FIG10_PATTERNS = ("random permutation", "incast", "rack level shuffle")

#: benchmarks/results/fig10_bisection.txt, as printed (3 decimals).
FIG10_BARS = {
    "full bisection": ("1.000", "1.000", "1.000"),
    "quartz": ("0.824", "1.003", "0.974"),
    "jellyfish": ("0.444", "0.715", "0.427"),
    "1/2 bisection": ("0.580", "0.767", "0.551"),
    "1/4 bisection": ("0.339", "0.639", "0.275"),
}


class TestFigure10Claims:
    """The paper-size Figure 10: it routes through all three route tables."""

    @pytest.fixture(scope="class")
    def bars(self):
        return {
            (r.fabric, r.pattern): r.normalized_throughput for r in figure10_sweep()
        }

    def test_every_bar_as_printed(self, bars):
        assert {
            fabric: tuple(f"{bars[(fabric, p)]:.3f}" for p in FIG10_PATTERNS)
            for fabric in FIG10_BARS
        } == FIG10_BARS

    @pytest.mark.parametrize("pattern", FIG10_PATTERNS)
    def test_quartz_between_half_and_full_bisection(self, bars, pattern):
        # "Quartz's bisection bandwidth is less than full bisection
        # bandwidth but greater than 1/2"; incast is receiver-limited,
        # and there quartz brushes full bisection at a stated 1.003.
        quartz = bars[("quartz", pattern)]
        assert quartz > bars[("1/2 bisection", pattern)]
        if pattern == "incast":
            assert f"{quartz:.3f}" == "1.003"
        else:
            assert quartz < bars[("full bisection", pattern)]


class TestFigure17Claims:
    """Figure 17's two claims on one scatter task, seed 0."""

    @pytest.fixture(scope="class")
    def latency_us(self):
        return {
            topo: run_task_experiment(topo, "scatter", 1).mean_latency * 1e6
            for topo in ("three-tier tree", "quartz in core", "quartz in edge and core")
        }

    def test_measured_values(self, latency_us):
        expected = {
            "three-tier tree": 7.337,
            "quartz in core": 2.826,
            "quartz in edge and core": 2.185,
        }
        for topo, value in expected.items():
            assert latency_us[topo] == pytest.approx(value, abs=0.01)

    def test_quartz_in_core_saves_over_3us(self, latency_us):
        assert latency_us["three-tier tree"] - latency_us["quartz in core"] > 3.0

    def test_edge_and_core_at_most_030_of_tree(self, latency_us):
        ratio = latency_us["quartz in edge and core"] / latency_us["three-tier tree"]
        assert ratio <= 0.30
