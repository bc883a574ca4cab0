"""Equal-cost multi-path routing.

The paper's default for Quartz meshes (Section 3.4): since a full mesh
has a single shortest switch path between any ToR pair, ECMP always
selects the direct one-hop channel, minimizing hop count and isolation
from cross-traffic.  In multi-rooted trees ECMP spreads flows over the
equal-cost up/down paths.

Path computation is two-level.  Server-to-server shortest paths are
derived from **switch-to-switch** shortest paths computed once per
switch pair and stitched onto the server endpoints: every server pair
behind the same two switches shares the same fabric segment, so a
network with ``n`` switches and ``n·s`` servers solves ``n²`` switch
pairs instead of ``(n·s)²`` server pairs.  Server-centric topologies
(BCube), where servers relay traffic and the decomposition does not
hold, fall back to whole-graph search.
"""

from __future__ import annotations

from repro.routing.base import Path, Router, _path_crosses, stable_hash
from repro.routing.tables import RouteTable, ecmp_paths, ecmp_segment_table
from repro.topology.base import Topology
from repro.topology.graph import Graph


class ECMPRouter(Router):
    """All-shortest-paths routing with per-flow hashing.

    ``max_paths`` bounds the equal-cost set (hardware ECMP tables are
    finite).  Enumeration is bounded too: only the first ``max_paths``
    paths of the deterministic shortest-path generator are
    materialized (then sorted for a stable order), so dense meshes never
    pay for paths that would be truncated away.
    """

    def __init__(self, topo: Topology, max_paths: int = 64) -> None:
        super().__init__(topo)
        if max_paths < 1:
            raise ValueError("max_paths must be at least 1")
        self.max_paths = max_paths
        #: Whether server paths decompose into switch paths: servers
        #: must be leaves (no server relaying, i.e. not server-centric).
        self._stitchable = not bool(topo.graph.graph.get("server_centric"))
        self._switch_graph: Graph | None = None
        self._switch_paths: dict[tuple[str, str], list[Path]] = {}
        #: Whether the batched segment table was read, and the table
        #: while it holds (``None`` once a cut has outdated it).
        self._segments_warmed = False
        self._segments: RouteTable | None = None
        self._homes: dict[str, str | None] = {}  # see _home

    # -- path enumeration -----------------------------------------------------

    def paths(self, src: str, dst: str) -> list[Path]:
        if (
            self._stitchable
            and src != dst
            and self.topo.is_server(src)
            and self.topo.is_server(dst)
        ):
            stitched = self._stitched_paths(src, dst)
            if stitched is not None:
                return stitched
        return self._graph_paths(src, dst)

    def _pick(self, src: str, dst: str, flow_id: int) -> Path:
        """Two single-homed servers' pick, built alone: their stitched
        paths are ``(src, *segment, dst)`` over one switch pair's sorted
        segment list, so they sort as it does and the hash picks the same
        segment.  Every other pair (multi-homed, server-centric, no
        segment left) picks from the enumeration."""
        if src != dst:
            sw_s = self._home(src)
            sw_d = self._home(dst)
            if sw_s is not None and sw_d is not None:
                segments = self._switch_segment(sw_s, sw_d)
                if segments:
                    segment = segments[stable_hash(src, dst, flow_id) % len(segments)]
                    return (src, *segment, dst)
        return super()._pick(src, dst, flow_id)

    def _home(self, node: str) -> str | None:
        """The one switch a single-homed server hangs off, when paths
        stitch; else ``None``.  Memoized until the topology changes."""
        home = self._homes.get(node, False)
        if home is False:
            home = None
            if self._stitchable and self.topo.is_server(node):
                switches = self._attachments(node)
                if len(switches) == 1:
                    home = switches[0]
            self._homes[node] = home
        return home

    def _graph_paths(self, src: str, dst: str) -> list[Path]:
        """Bounded whole-graph enumeration (the pre-stitching behaviour)."""
        return ecmp_paths(self.topo.graph, src, dst, self.max_paths)

    def _stitched_paths(self, src: str, dst: str) -> list[Path] | None:
        """Server paths via precomputed switch segments, or ``None`` when
        the endpoints are not cleanly attached to switches."""
        src_switches = self._attachments(src)
        dst_switches = self._attachments(dst)
        if not src_switches or not dst_switches:
            return None

        # Keep only the attachment pairs whose switch segment achieves
        # the globally shortest server-to-server length (multi-homed
        # servers may reach several switch pairs at different distances).
        best: list[list[Path]] = []
        best_len: int | None = None
        for sw_s in src_switches:
            for sw_d in dst_switches:
                segment = self._switch_segment(sw_s, sw_d)
                if not segment:
                    continue
                length = len(segment[0])
                if best_len is None or length < best_len:
                    best, best_len = [segment], length
                elif length == best_len:
                    best.append(segment)
        if best_len is None:
            return []

        stitched = [
            (src, *segment, dst) for group in best for segment in group
        ]
        stitched.sort()
        return stitched[: self.max_paths]

    # -- runtime topology changes ----------------------------------------------

    def invalidate_links(self, links, repaired: bool = False) -> None:
        """Also invalidate the switch-to-switch segment cache.

        Cuts drop only the segments crossing an affected link (plus the
        stitched caches handled by the base class); repairs flush the
        segment cache wholesale, since a restored channel can shorten
        segments that never crossed it.
        """
        if not repaired:
            if self._segments is not None:  # the table's pairs not yet read
                for pair, segments in self._segments.items():
                    self._switch_paths.setdefault(pair, list(segments))
                self._segments = None
            affected = set()
            for u, v in links:
                affected.add((u, v))
                affected.add((v, u))
            crosses = _path_crosses(affected)
            self._switch_paths = {
                key: segments
                for key, segments in self._switch_paths.items()
                if not any(crosses(s) for s in segments)
            }
        super().invalidate_links(links, repaired=repaired)

    def _on_topology_change(self, repaired: bool) -> None:
        # The switch graph is a copy of the live topology: rebuild lazily.
        self._switch_graph = None
        self._homes.clear()
        if repaired:
            # A repair restores the original fingerprint, so re-warming
            # from the batched table is a cache hit, not a rebuild.
            self._switch_paths.clear()
            self._segments = None
            self._segments_warmed = False

    # -- shared switch-level computation --------------------------------------

    def _attachments(self, server: str) -> list[str]:
        """The switches a server hangs off, in stable order."""
        graph = self.topo.graph
        switches = [n for n in graph.neighbors(server) if self.topo.is_switch(n)]
        if len(switches) != graph.degree(server):
            return []  # attached to a non-switch: not stitchable
        switches.sort()
        return switches

    def _switch_segment(self, sw_s: str, sw_d: str) -> list[Path]:
        """All (bounded) shortest switch-to-switch paths, computed once
        per ordered switch pair and shared by every server pair behind
        them.

        The whole segment table is computed in one batch
        (content-addressed on the topology fingerprint) and read a pair at
        a time; pairs severed by a mid-run cut recompute lazily over the
        degraded graph.
        """
        key = (sw_s, sw_d)
        cached = self._switch_paths.get(key)
        if cached is None:
            if not self._segments_warmed:
                self._segments = ecmp_segment_table(self.topo, self.max_paths)
                self._segments_warmed = True
            segments = None if self._segments is None else self._segments.get(key)
            if segments is not None:
                cached = list(segments)
            else:
                if self._switch_graph is None:
                    self._switch_graph = self.topo.switch_graph()
                cached = ecmp_paths(self._switch_graph, sw_s, sw_d, self.max_paths)
            self._switch_paths[key] = cached
        return cached
