"""Valiant Load Balancing over Quartz meshes — paper Section 3.4.

Direct (one-hop) routing between two mesh switches offers the lowest
latency but only one channel of bandwidth (n : 1 oversubscription for
rack-concentrated traffic).  VLB sends a configurable fraction of the
traffic over the ``M − 2`` two-hop detour paths through the other mesh
switches, trading a small latency increase for up to full switch-to-
switch bandwidth (Figure 20).

``direct_fraction`` is the paper's ``k``: the share of traffic kept on
the direct channel.  The remainder is spread evenly over the two-hop
paths.  :class:`AdaptiveVLBRouter` picks ``k`` from the offered load the
way the paper suggests ("the parameter k can be adaptive depending on
the traffic characteristics").
"""

from __future__ import annotations

from repro.cache import artifact_cache
from repro.routing.base import Path, Router, RoutingError, WeightedPath, stable_hash
from repro.routing.tables import vlb_table
from repro.topology.base import LinkKind, Topology


class VLBRouter(Router):
    """Direct + two-hop Valiant routing on a full-mesh ToR fabric."""

    def __init__(self, topo: Topology, direct_fraction: float = 0.5) -> None:
        super().__init__(topo)
        if not 0.0 <= direct_fraction <= 1.0:
            raise ValueError(f"direct_fraction must be in [0, 1], got {direct_fraction}")
        self.direct_fraction = direct_fraction
        self._mesh_peers = self._build_mesh_peers()
        self._warm_paths()

    def _build_mesh_peers(self) -> dict[str, set[str]]:
        peers: dict[str, set[str]] = {}
        for link in self.topo.links():
            if link.link_kind is LinkKind.MESH:
                peers.setdefault(link.u, set()).add(link.v)
                peers.setdefault(link.v, set()).add(link.u)
        if not peers:
            raise RoutingError("VLB requires a topology with mesh links")
        return peers

    def _warm_paths(self) -> None:
        """Prefill the per-pair path cache from the batched VLB table.

        The table is content-addressed on the topology fingerprint and
        replicates :meth:`paths` exactly.  Unroutable pairs (stored
        empty) are *not* prefilled, so they still reach :meth:`paths`
        and raise :class:`RoutingError` as before.
        """
        if not artifact_cache().enabled:
            return
        for pair, entry in vlb_table(self.topo).items():
            if entry:
                self._cache.setdefault(pair, list(entry))

    def _on_topology_change(self, repaired: bool) -> None:
        # The peer table mirrors the live mesh links: a cut removes the
        # direct channel between two switches, a repair restores it.
        try:
            self._mesh_peers = self._build_mesh_peers()
        except RoutingError:
            # Every mesh channel is dead; all pairs become unroutable
            # until a repair (paths() raises per pair).
            self._mesh_peers = {}
            return
        if repaired:
            # The base class flushed the path cache; the restored
            # fingerprint makes re-warming a cache hit.
            self._warm_paths()

    @staticmethod
    def _split(options: list[Path]) -> tuple[Path | None, list[Path]]:
        """Separate the direct path (if it survives) from the detours.

        A direct rack-to-rack path is ``(src, tor_s, tor_d, dst)``; when
        the direct channel is dead the option list holds only five-node
        two-hop detours.
        """
        if len(options[0]) == 4:
            return options[0], options[1:]
        return None, options

    def paths(self, src: str, dst: str) -> list[Path]:
        """Direct path first (when its channel is alive), then the
        two-hop detours in stable order.

        When a fibre cut has severed the direct channel the direct path
        is omitted and all traffic falls back to the surviving two-hop
        VLB detours; a pair with no surviving detour either is
        unroutable and raises :class:`RoutingError`.
        """
        tor_src = self.topo.tor_of(src)
        tor_dst = self.topo.tor_of(dst)
        if tor_src == tor_dst:
            return [(src, tor_src, dst)]
        direct_alive = tor_dst in self._mesh_peers.get(tor_src, ())
        detours = [
            (src, tor_src, mid, tor_dst, dst)
            for mid in sorted(
                self._mesh_peers.get(tor_src, set())
                & self._mesh_peers.get(tor_dst, set())
            )
            if mid not in (tor_src, tor_dst)
        ]
        if direct_alive:
            return [(src, tor_src, tor_dst, dst), *detours]
        if not detours:
            raise RoutingError(
                f"{tor_src!r} and {tor_dst!r} share no surviving VLB path; "
                "the mesh channel is dead and no two-hop detour remains"
            )
        return detours

    def weighted_paths(self, src: str, dst: str) -> list[WeightedPath]:
        options = self._cached_paths(src, dst)
        direct, detours = self._split(options)
        if direct is None:
            share = 1.0 / len(detours)
            return [WeightedPath(p, share) for p in detours]
        if not detours or self.direct_fraction >= 1.0:
            return [WeightedPath(direct, 1.0)]
        detour_share = (1.0 - self.direct_fraction) / len(detours)
        weighted = [WeightedPath(direct, self.direct_fraction)]
        weighted.extend(WeightedPath(p, detour_share) for p in detours)
        return weighted

    def route(self, src: str, dst: str, flow_id: int = 0) -> Path:
        """Pick the direct path with probability ``direct_fraction``.

        The pick is a deterministic hash of the flow key, so a given
        flow is pinned to one path (no in-flow reordering).  Picks are
        memoized per flow key, like :meth:`Router.route`.  Flows whose
        direct channel died hash over the surviving detours only.
        """
        key = (src, dst, flow_id)
        pick = self._route_cache.get(key)
        if pick is not None:
            return pick
        options = self._cached_paths(src, dst)
        direct, detours = self._split(options)
        if not detours:
            pick = direct if direct is not None else options[0]
        elif direct is not None and (
            stable_hash(src, dst, flow_id, "vlb") % 10_000 < self.direct_fraction * 10_000
        ):
            pick = direct
        else:
            pick = detours[stable_hash(src, dst, flow_id, "detour") % len(detours)]
        self._memoize(key, pick)
        return pick


class AdaptiveVLBRouter(VLBRouter):
    """VLB with ``k`` chosen from the offered switch-pair load.

    Keeps everything on the direct channel while it has headroom, then
    spills the excess over the detours, targeting ``utilization_target``
    on the direct channel: ``k = min(1, target × channel / demand)``.
    Running the direct channel *at* capacity would leave no headroom and
    queue without bound, so the target defaults to 90 %.

    ``offered_load_bps`` is the anticipated aggregate rate between the
    ToR pair (e.g. from a traffic matrix or measurement).
    """

    def __init__(
        self,
        topo: Topology,
        offered_load_bps: float,
        utilization_target: float = 0.9,
    ) -> None:
        if offered_load_bps < 0:
            raise ValueError("offered load must be non-negative")
        if not 0 < utilization_target <= 1:
            raise ValueError("utilization target must be in (0, 1]")
        self._offered = offered_load_bps
        # Channel rate: capacity of any mesh link (uniform in Quartz).
        mesh_caps = [
            link.capacity for link in topo.links() if link.link_kind is LinkKind.MESH
        ]
        if not mesh_caps:
            raise RoutingError("VLB requires a topology with mesh links")
        channel = mesh_caps[0]
        usable = utilization_target * channel
        direct = 1.0 if offered_load_bps <= usable else usable / offered_load_bps
        super().__init__(topo, direct_fraction=direct)


class DemandAwareVLBRouter(VLBRouter):
    """VLB with a per-rack-pair ``k`` derived from a traffic matrix.

    Real adaptive VLB tunes the direct fraction per switch pair from the
    observed demand between them; this router does the same from a
    nominal traffic matrix ``[(src, dst, demand_bps), …]``: pairs whose
    aggregate demand fits within ``utilization_target`` of their channel
    stay fully direct, heavier pairs spill proportionally onto the
    two-hop detours.  Used by the Figure 10 throughput study.
    """

    def __init__(
        self,
        topo: Topology,
        matrix: list[tuple[str, str, float]],
        utilization_target: float = 0.9,
    ) -> None:
        super().__init__(topo, direct_fraction=1.0)
        if not 0 < utilization_target <= 1:
            raise ValueError("utilization target must be in (0, 1]")
        # Channels are full duplex, so demand is tracked per *direction*.
        demand: dict[tuple[str, str], float] = {}
        for src, dst, rate in matrix:
            tor_s = topo.tor_of(src)
            tor_d = topo.tor_of(dst)
            if tor_s != tor_d:
                demand[(tor_s, tor_d)] = demand.get((tor_s, tor_d), 0.0) + rate
        self._pair_direct: dict[tuple[str, str], float] = {}
        for pair, load in demand.items():
            usable = utilization_target * topo.capacity(*pair)
            self._pair_direct[pair] = 1.0 if load <= usable else usable / load

    def _direct_fraction_for(self, path: Path) -> float:
        tor_s, tor_d = path[1], path[-2]
        return self._pair_direct.get((tor_s, tor_d), 1.0)

    def weighted_paths(self, src: str, dst: str) -> list[WeightedPath]:
        options = self._cached_paths(src, dst)
        direct, detours = self._split(options)
        if direct is None:
            if len(options[0]) == 3:  # same-rack: the lone host path
                return [WeightedPath(options[0], 1.0)]
            share = 1.0 / len(detours)
            return [WeightedPath(p, share) for p in detours]
        k = self._direct_fraction_for(direct)
        if not detours or k >= 1.0:
            return [WeightedPath(direct, 1.0)]
        detour_share = (1.0 - k) / len(detours)
        return [
            WeightedPath(direct, k),
            *(WeightedPath(p, detour_share) for p in detours),
        ]
