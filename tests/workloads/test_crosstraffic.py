"""Tests for the prototype cross-traffic experiment (Section 6.1)."""

import pytest

from repro.topology.base import NodeKind
from repro.units import MBPS
from repro.workloads import crosstraffic
from repro.workloads.crosstraffic import (
    normalized_latency_curve,
    prototype_quartz,
    prototype_tree,
    run_cross_traffic_experiment,
)


class TestPrototypeTopologies:
    def test_quartz_is_full_mesh_of_four(self):
        topo = prototype_quartz()
        switches = topo.switches()
        assert len(switches) == 4
        for i, u in enumerate(switches):
            for v in switches[i + 1 :]:
                assert topo.graph.has_edge(u, v)

    def test_tree_has_one_agg_three_tors(self):
        topo = prototype_tree()
        assert len(topo.switches(NodeKind.AGG)) == 1
        assert len(topo.switches(NodeKind.TOR)) == 3

    def test_both_use_1g_managed_switches(self):
        for topo in (prototype_quartz(), prototype_tree()):
            for sw in topo.switches():
                assert topo.switch_model(sw) == "SF_1G"


class TestExperiment:
    def test_baseline_runs_without_cross_traffic(self):
        result = run_cross_traffic_experiment("quartz", 0.0, num_calls=50)
        assert result.rpc_count == 50
        assert result.mean_rpc_latency > 0

    def test_quartz_faster_than_tree_at_baseline(self):
        quartz = run_cross_traffic_experiment("quartz", 0.0, num_calls=50)
        tree = run_cross_traffic_experiment("tree", 0.0, num_calls=50)
        # Quartz's RPC crosses 2 switches, the tree's 3.
        assert quartz.mean_rpc_latency < tree.mean_rpc_latency

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError):
            run_cross_traffic_experiment("torus", 0.0)

    def test_tree_latency_rises_more_than_quartz(self):
        # Figure 14's shape at a load level where queueing bites.
        tree = normalized_latency_curve("tree", [600 * MBPS], num_calls=200)
        quartz = normalized_latency_curve("quartz", [600 * MBPS], num_calls=200)
        tree_rise = tree[-1][1]
        quartz_rise = quartz[-1][1]
        assert tree_rise > quartz_rise
        assert quartz_rise < 1.15  # Quartz is essentially unaffected

    def test_curve_starts_at_one(self):
        curve = normalized_latency_curve("quartz", [100 * MBPS], num_calls=50)
        assert curve[0] == (0.0, 1.0)

    def test_run_stops_within_a_slice_of_the_last_rpc(self, monkeypatch):
        # The burst sources never stop: the run must end at the slice in
        # which the RPC loop completes, not at the 30 s limit.
        built = []

        def capture(cls):
            class Captured(cls):
                def __init__(self, *args, **kwargs):
                    super().__init__(*args, **kwargs)
                    built.append(self)

            monkeypatch.setattr(crosstraffic, cls.__name__, Captured)

        capture(crosstraffic.Network)
        capture(crosstraffic.RPCSource)
        run_cross_traffic_experiment("tree", 200 * MBPS, num_calls=50)
        net, rpc = built
        last_rpc = rpc._call_started + rpc.rtts[-1]
        assert rpc.completed == 50
        assert last_rpc <= net.engine.now <= last_rpc + crosstraffic.RUN_SLICE
