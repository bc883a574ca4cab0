"""k-shortest-paths routing (Jellyfish's preferred scheme).

Singla et al. showed random graphs need k-shortest-paths rather than
plain ECMP to exploit their path diversity; the paper's Table 9 notes
Jellyfish's diversity depends on this choice.

Yen's enumeration is the most expensive per-pair computation in the
routing layer, so with the artifact cache enabled the router routes
through the batched all-pairs table of
:func:`repro.routing.tables.kshortest_table` (built once per topology
fingerprint, shared across processes) instead of re-running
Yen's enumeration per call.  The table replicates the
per-call enumeration exactly, so results are identical either way.
"""

from __future__ import annotations

from itertools import islice

from repro.cache import artifact_cache
from repro.routing.base import Path, Router
from repro.routing.tables import RouteTable, kshortest_table
from repro.topology.base import Topology
from repro.topology.graph import shortest_simple_paths


class KShortestPathsRouter(Router):
    """Hash flows over the ``k`` shortest simple paths per pair."""

    def __init__(self, topo: Topology, k: int = 8) -> None:
        super().__init__(topo)
        if k < 1:
            raise ValueError("k must be at least 1")
        self.k = k
        self._table: RouteTable | None = None

    def paths(self, src: str, dst: str) -> list[Path]:
        if artifact_cache().enabled:
            if self._table is None:
                self._table = kshortest_table(self.topo, self.k)
            entry = self._table.get((src, dst))
            if entry is not None:
                # Empty = unroutable; _cached_paths turns it into RoutingError.
                return list(entry)
        # Cache disabled, or an endpoint outside the server table.
        found = shortest_simple_paths(self.topo.graph, src, dst)
        return [tuple(p) for p in islice(found, self.k)]

    def _on_topology_change(self, repaired: bool) -> None:
        # The graph content changed, so its fingerprint — and therefore
        # the right table — changed too.  Refetch lazily: a cut keys a
        # fresh (degraded) table, a full repair keys back to the
        # original one and hits the cache.
        self._table = None
