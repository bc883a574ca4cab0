"""Datacenter topology substrate: typed graphs, generators, and metrics."""

from repro import _lazy_exports

# Bound eagerly: each name is also a submodule (see repro._lazy_exports).
from repro.topology.bcube import bcube
from repro.topology.jellyfish import jellyfish

__all__ = [
    "HopProfile",
    "Link",
    "LinkKind",
    "NodeKind",
    "SWITCH_KINDS",
    "Topology",
    "TopologyError",
    "TopologySummary",
    "bcube",
    "connect_all",
    "fat_tree",
    "folded_clos",
    "full_mesh",
    "jellyfish",
    "path_diversity",
    "quartz_dual_tor",
    "quartz_in_core",
    "quartz_in_edge",
    "quartz_in_edge_and_core",
    "quartz_in_jellyfish",
    "quartz_ring",
    "server_relay_hops",
    "summarize",
    "switch_count",
    "switch_hops",
    "three_tier_tree",
    "two_tier_tree",
    "wiring_complexity",
    "worst_case_hop_profile",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    "Link": "repro.topology.base",
    "LinkKind": "repro.topology.base",
    "NodeKind": "repro.topology.base",
    "SWITCH_KINDS": "repro.topology.base",
    "Topology": "repro.topology.base",
    "TopologyError": "repro.topology.base",
    "connect_all": "repro.topology.base",
    "quartz_in_core": "repro.topology.composite",
    "quartz_in_edge": "repro.topology.composite",
    "quartz_in_edge_and_core": "repro.topology.composite",
    "quartz_in_jellyfish": "repro.topology.composite",
    "fat_tree": "repro.topology.fattree",
    "folded_clos": "repro.topology.fattree",
    "full_mesh": "repro.topology.mesh",
    "HopProfile": "repro.topology.metrics",
    "TopologySummary": "repro.topology.metrics",
    "path_diversity": "repro.topology.metrics",
    "server_relay_hops": "repro.topology.metrics",
    "summarize": "repro.topology.metrics",
    "switch_count": "repro.topology.metrics",
    "switch_hops": "repro.topology.metrics",
    "wiring_complexity": "repro.topology.metrics",
    "worst_case_hop_profile": "repro.topology.metrics",
    "quartz_dual_tor": "repro.topology.quartz",
    "quartz_ring": "repro.topology.quartz",
    "three_tier_tree": "repro.topology.tree",
    "two_tier_tree": "repro.topology.tree",
})
