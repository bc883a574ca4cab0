"""Datacenter topology substrate: typed graphs, generators, and metrics."""

from repro.topology.base import (
    Link,
    LinkKind,
    NodeKind,
    SWITCH_KINDS,
    Topology,
    TopologyError,
    connect_all,
)
from repro.topology.bcube import bcube
from repro.topology.composite import (
    quartz_in_core,
    quartz_in_edge,
    quartz_in_edge_and_core,
    quartz_in_jellyfish,
)
from repro.topology.fattree import fat_tree, folded_clos
from repro.topology.jellyfish import jellyfish
from repro.topology.mesh import full_mesh
from repro.topology.metrics import (
    HopProfile,
    TopologySummary,
    average_path_length,
    bisection_capacity,
    hop_profile,
    path_diversity,
    server_relay_hops,
    summarize,
    switch_count,
    switch_hops,
    wiring_complexity,
    worst_case_hop_profile,
)
from repro.topology.quartz import quartz_dual_tor, quartz_ring
from repro.topology.tree import three_tier_tree, two_tier_tree

__all__ = [
    "HopProfile",
    "Link",
    "LinkKind",
    "NodeKind",
    "SWITCH_KINDS",
    "Topology",
    "TopologyError",
    "TopologySummary",
    "average_path_length",
    "bcube",
    "bisection_capacity",
    "connect_all",
    "fat_tree",
    "folded_clos",
    "full_mesh",
    "hop_profile",
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
