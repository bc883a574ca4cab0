"""The ECMP segment table against its per-pair definition.

``ecmp_segment_table`` runs one BFS per source switch and reads every
target's paths off the same predecessor map.  Its definition is
:func:`~repro.routing.tables.ecmp_paths` per ordered switch pair — one
BFS per pair — with each row starting at the identity pair.  The two
must agree path for path and in key order, on every fabric a figure or
a benchmark routes, intact and with one switch-to-switch link cut (a
mesh link where the fabric has one).
"""

from __future__ import annotations

import pytest

from repro.experiments.bisection import FABRIC_BUILDERS
from repro.experiments.hybrid_scale import FABRIC_BUILDERS as HYBRID_FABRIC_BUILDERS
from repro.experiments.section7 import TOPOLOGY_BUILDERS
from repro.routing.tables import ecmp_paths, ecmp_segment_table
from repro.sim.parallel import ParallelScenario
from repro.topology.base import LinkKind
from repro.topology.graph import (
    Graph,
    all_shortest_paths,
    shortest_path_predecessors,
)


def per_pair(topo, max_paths):
    """The table as one ``ecmp_paths`` call per ordered switch pair."""
    switches = topo.switches()
    graph = topo.switch_graph()
    return {
        (s, d): tuple(ecmp_paths(graph, s, d, max_paths))
        for s in switches
        for d in (s, *(x for x in switches if x != s))
    }


def fabrics():
    built = {f"fig17 {name}": build for name, build in TOPOLOGY_BUILDERS.items()}
    built.update(
        (f"fig10 {name}", lambda build=build: build(9, 8))
        for name, build in FABRIC_BUILDERS.items()
    )
    built.update((f"hybrid {name}", build) for name, build in HYBRID_FABRIC_BUILDERS.items())
    built["sharded quartz-ring"] = ParallelScenario(
        fabric="quartz-ring", fabric_args=(33, 4)
    ).build_topology
    return built


def _cut_one_link(topo):
    links = [
        link for link in topo.links() if topo.is_switch(link.u) and topo.is_switch(link.v)
    ]
    mesh = [link for link in links if link.link_kind is LinkKind.MESH]
    cut = sorted((link.u, link.v) for link in mesh or links)
    return topo.degraded(cut[len(cut) // 2: len(cut) // 2 + 1])


@pytest.mark.parametrize("max_paths", [64, 2])
@pytest.mark.parametrize("name", sorted(fabrics()))
def test_one_bfs_per_source_equals_one_per_pair(name, max_paths):
    topo = fabrics()[name]()
    table = ecmp_segment_table.__wrapped__(topo, max_paths)
    reference = per_pair(topo, max_paths)
    assert list(table) == list(reference)
    assert table == reference


@pytest.mark.parametrize("name", sorted(fabrics()))
def test_equal_with_one_link_cut(name):
    topo = _cut_one_link(fabrics()[name]())
    table = ecmp_segment_table.__wrapped__(topo, 64)
    reference = per_pair(topo, 64)
    assert list(table) == list(reference)
    assert table == reference


def test_unknown_nodes_raise_key_error():
    graph = Graph()
    graph.add_edge("a", "b")
    with pytest.raises(KeyError, match="x"):
        all_shortest_paths(graph, "x", "a")
    with pytest.raises(KeyError, match="y"):
        all_shortest_paths(graph, "a", "y")
    with pytest.raises(KeyError, match="x"):
        shortest_path_predecessors(graph, "x")
    assert list(all_shortest_paths(graph, "a", "a")) == [["a"]]
