"""``repro.topology.graph`` against networkx, tie for tie.

The same operation history — nodes and edges added, edges removed and
re-added, ``copy()``, ``subgraph(nodes).copy()`` — is applied to a
:class:`Graph` and to an ``nx.Graph``; every neighbour order and every
search result must then be equal, in order.
"""

from __future__ import annotations

import os
import subprocess
import sys
from itertools import islice
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology.graph import (
    Graph,
    all_shortest_paths,
    is_connected,
    shortest_path,
    shortest_path_lengths,
    shortest_simple_paths,
    single_source_shortest_path,
)

NAMES = [f"n{i}" for i in range(8)]
node = st.sampled_from(NAMES)

#: One step: (kind, u, v, which edge to remove, which nodes a subgraph drops).
operations = st.lists(
    st.tuples(
        st.sampled_from(["add_edge"] * 6 + ["add_node", "remove_edge", "copy", "subgraph"]),
        node,
        node,
        st.integers(0, 63),
        st.lists(node, max_size=5, unique=True),
    ),
    min_size=10,
    max_size=60,
)


def replay(history):
    """The history applied to both graphs (edges carry their step)."""
    ours, theirs = Graph(), nx.Graph()
    for step, (kind, u, v, which, dropped) in enumerate(history):
        if kind == "add_node":
            ours.add_node(u, step=step)
            theirs.add_node(u, step=step)
        elif kind == "add_edge" and u != v:
            ours.add_edge(u, v, step=step)
            theirs.add_edge(u, v, step=step)
        elif kind == "remove_edge" and theirs.number_of_edges():
            u, v = list(theirs.edges())[which % theirs.number_of_edges()]
            ours.remove_edge(u, v)
            theirs.remove_edge(u, v)
        elif kind == "copy":
            ours, theirs = ours.copy(), theirs.copy()
        elif kind == "subgraph":
            keep = [n for n in NAMES if n not in dropped]
            ours, theirs = ours.subgraph(keep), theirs.subgraph(keep).copy()
    return ours, theirs


def nx_or_empty(search, *args):
    try:
        return list(search(*args))
    except nx.NetworkXNoPath:
        return []


@settings(max_examples=150, deadline=None)
@given(operations)
def test_same_history_same_paths(history):
    ours, theirs = replay(history)
    assert list(ours) == list(theirs)
    assert ours.edges(data=True) == list(theirs.edges(data=True))
    assert ours.number_of_edges() == theirs.number_of_edges()
    for n in theirs:
        assert list(ours.neighbors(n)) == list(theirs.neighbors(n))
        assert ours.degree(n) == theirs.degree(n)
    for s in theirs:
        assert single_source_shortest_path(ours, s) == nx.single_source_shortest_path(theirs, s)
        assert shortest_path_lengths(ours, s) == dict(
            nx.single_source_shortest_path_length(theirs, s)
        )
        for t in theirs:
            assert list(all_shortest_paths(ours, s, t)) == nx_or_empty(
                nx.all_shortest_paths, theirs, s, t
            )
            assert shortest_path(ours, s, t) == nx_or_empty(nx.shortest_path, theirs, s, t)
            assert list(islice(shortest_simple_paths(ours, s, t), 8)) == nx_or_empty(
                lambda *a: islice(nx.shortest_simple_paths(*a), 8), theirs, s, t
            )
    if len(theirs):
        assert is_connected(ours) == nx.is_connected(theirs)


def test_a_repaired_edge_goes_last_and_a_copy_reorders():
    g = Graph()
    for u, v in [("a", "b"), ("c", "b"), ("b", "d")]:
        g.add_edge(u, v)
    g.remove_edge("a", "b")
    g.add_edge("a", "b")
    assert list(g.neighbors("b")) == ["c", "d", "a"]
    assert list(g.copy().neighbors("b")) == ["a", "c", "d"]


def test_an_unknown_node_is_a_key_error_naming_it():
    g = Graph()
    g.add_edge("a", "b")
    for search in (all_shortest_paths, shortest_path, shortest_simple_paths):
        with pytest.raises(KeyError, match="ghost"):
            search(g, "a", "ghost")
        with pytest.raises(KeyError, match="ghost"):
            search(g, "ghost", "a")
    for search in (single_source_shortest_path, shortest_path_lengths):
        with pytest.raises(KeyError, match="ghost"):
            search(g, "ghost")


def test_no_path_is_empty():
    g = Graph()
    g.add_edge("a", "b")
    g.add_edge("c", "d")
    assert single_source_shortest_path(g, "a") == {"a": ["a"], "b": ["a", "b"]}
    assert shortest_path_lengths(g, "a") == {"a": 0, "b": 1}
    assert list(all_shortest_paths(g, "a", "d")) == []
    assert shortest_path(g, "a", "d") == []
    assert list(shortest_simple_paths(g, "a", "d")) == []
    assert not is_connected(g)


class TestNetworkxLeftTheImportPath:
    def test_the_run_path_never_imports_networkx(self):
        """networkx is a ``dev`` dependency only.  With it unimportable, a
        fresh interpreter builds both Jellyfish fabrics, computes the
        Table 9 metrics on a Jellyfish and on a BCube (server-centric:
        relay hops, and a flow over servers).  It runs a Fig. 17 scatter cell on a
        Jellyfish and a fault-recovery cell with a cut, detours and a
        repair."""
        script = (
            "import sys\n"
            "sys.modules['networkx'] = None\n"
            "import repro.cli, repro.experiments, repro.hybrid, repro.sim.parallel\n"
            "import repro.topology as T\n"
            "from repro.experiments.fault_recovery import run_fault_recovery_cell\n"
            "from repro.experiments.section7 import run_task_experiment\n"
            "T.quartz_in_jellyfish()\n"
            "jellyfish = T.jellyfish()\n"
            "row = T.summarize(jellyfish)\n"
            "assert (row.switch_hops, row.wiring_complexity, row.path_diversity) == (5, 32, 4), row\n"
            "row = T.summarize(T.bcube(4, 1))\n"
            "assert (row.switch_hops, row.server_relay_hops, row.path_diversity) == (2, 1, 2), row\n"
            "cell = run_task_experiment('jellyfish', 'scatter', 1, fan=4, duration=0.001)\n"
            "assert cell.summary.count > 0, cell\n"
            "cell = run_fault_recovery_cell(ring_size=5, servers_per_switch=2, seed=3,\n"
            "    duration=0.006, cut_at=0.002, repair_after=0.002)\n"
            "assert cell.channels_severed and cell.packets_rerouted, cell\n"
        )
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
