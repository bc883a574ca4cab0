"""Routing abstractions shared by the packet- and flow-level simulators.

A :class:`Router` maps a (source server, destination server) pair to one
or more node paths through a :class:`~repro.topology.base.Topology`.
The packet simulator asks for a single path per flow (:meth:`route`);
the flow-level simulator asks for the full weighted path set
(:meth:`weighted_paths`) so it can split a flow's rate the way the
routing protocol would.

Path selection is deterministic: flows are spread across equal-cost
paths by a stable hash of the flow key, so simulations are reproducible.
"""

from __future__ import annotations

import abc
import zlib
from dataclasses import dataclass
from typing import Callable, Iterable

from repro import obs as _obs
from repro.topology.base import Topology, TopologyError

#: A path is the full node sequence, server to server.
Path = tuple[str, ...]


class RoutingError(ValueError):
    """Raised when no path exists or a router is misconfigured."""


def _path_crosses(affected: set[tuple[str, str]]) -> Callable[[Path], bool]:
    """Predicate: does a path traverse any of the affected directed links?"""

    def crosses(path: Path) -> bool:
        return any(
            (path[i], path[i + 1]) in affected for i in range(len(path) - 1)
        )

    return crosses


def stable_hash(*parts: object) -> int:
    """A deterministic 32-bit hash of the given parts.

    Python's builtin ``hash`` is salted per process for strings; CRC32
    over the repr keeps path selection reproducible across runs.
    """
    return zlib.crc32("\x00".join(map(repr, parts)).encode())


@dataclass(frozen=True)
class WeightedPath:
    """A path with the fraction of the flow's traffic routed over it."""

    path: Path
    weight: float


class Router(abc.ABC):
    """Base class: path selection over a topology."""

    #: Cap on memoized per-flow route picks; hashing is re-done (still
    #: deterministically) once a run has seen this many distinct flows.
    ROUTE_CACHE_LIMIT = 1_000_000

    def __init__(self, topo: Topology) -> None:
        self.topo = topo
        self._cache: dict[tuple[str, str], list[Path]] = {}
        self._route_cache: dict[tuple[str, str, int], Path] = {}
        #: Picks not memoized because the memo was full
        #: (``ROUTE_CACHE_LIMIT``): counted armed or not; an armed
        #: :mod:`repro.obs` registry mirrors it as ``routing.route_cache_full``.
        self.route_cache_full = 0

    # -- interface -------------------------------------------------------------

    @abc.abstractmethod
    def paths(self, src: str, dst: str) -> list[Path]:
        """All paths this router may use between two servers (stable order)."""

    def route(self, src: str, dst: str, flow_id: int = 0) -> Path:
        """The single path used by flow ``flow_id`` (hash-based pick).

        The pick is memoized per ``(src, dst, flow_id)`` — the stable
        hash is pure, so caching it never changes which path a flow gets.
        """
        key = (src, dst, flow_id)
        pick = self._route_cache.get(key)
        if pick is None:
            pick = self._pick(src, dst, flow_id)
            self._memoize(key, pick)
        return pick

    def _pick(self, src: str, dst: str, flow_id: int) -> Path:
        """A flow's pick, not memoized: ``paths(src, dst)[stable_hash(src,
        dst, flow_id) % len]`` over the pair's memoized path set."""
        options = self._cached_paths(src, dst)
        return options[stable_hash(src, dst, flow_id) % len(options)]

    def _memoize(self, key: tuple[str, str, int], pick: Path) -> None:
        """Memoize a flow's pick, or count that the memo is full."""
        if len(self._route_cache) < self.ROUTE_CACHE_LIMIT:
            self._route_cache[key] = pick
            return
        self.route_cache_full += 1
        registry = _obs.registry()
        if registry is not None:
            registry.incr("routing.route_cache_full")

    def weighted_paths(self, src: str, dst: str) -> list[WeightedPath]:
        """Paths with traffic split weights; defaults to an even ECMP split."""
        options = self._cached_paths(src, dst)
        share = 1.0 / len(options)
        return [WeightedPath(path=p, weight=share) for p in options]

    # -- runtime topology changes ---------------------------------------------------

    def invalidate_links(
        self, links: Iterable[tuple[str, str]], repaired: bool = False
    ) -> None:
        """React to links going down (or coming back) mid-run.

        On a **cut** (``repaired=False``) the invalidation is targeted:
        memoized path sets and per-flow route picks survive unless one of
        their paths crosses an affected link, so unaffected pairs keep
        their (still valid) routes and only severed pairs recompute over
        the surviving topology.  A pair memoized as having no path
        crosses nothing and stays so: a cut cannot reconnect it.

        On a **repair** (``repaired=True``) every cache is flushed: a
        restored link can shorten paths for pairs whose cached routes
        never touched it, so targeted filtering cannot identify the
        beneficiaries.

        Either way the router re-reads ``self.topo`` lazily, which the
        network keeps in sync with the live link state.
        """
        if repaired:
            self._cache.clear()
            self._route_cache.clear()
        else:
            affected = set()
            for u, v in links:
                affected.add((u, v))
                affected.add((v, u))
            crosses = _path_crosses(affected)
            self._cache = {
                key: paths
                for key, paths in self._cache.items()
                if not any(crosses(p) for p in paths)
            }
            self._route_cache = {
                key: pick
                for key, pick in self._route_cache.items()
                if not crosses(pick)
            }
        self._on_topology_change(repaired=repaired)

    def _on_topology_change(self, repaired: bool) -> None:
        """Hook for subclasses holding derived topology state (e.g. the
        ECMP switch graph or the VLB mesh-peer table)."""

    # -- helpers ------------------------------------------------------------------

    def _cached_paths(self, src: str, dst: str) -> list[Path]:
        """The pair's path set, memoized — and the one place "no path"
        becomes :class:`RoutingError`, however :meth:`paths` reports it:
        an empty list (a graph search that finds the pair partitioned)
        or a ToR lookup on a server whose only uplink is cut.  "No path"
        is memoized too, as the empty set, so every packet a partitioned
        pair offers until the repair costs a lookup, not a search.  A
        node the topology does not hold stays the ``KeyError`` naming
        it."""
        key = (src, dst)
        cached = self._cache.get(key)
        if cached is None:
            try:
                cached = self.paths(src, dst)
            except TopologyError:
                cached = []
            self._cache[key] = cached
        if not cached:
            raise RoutingError(f"no path from {src!r} to {dst!r}")
        return cached
