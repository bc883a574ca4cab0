"""k-shortest-paths routing (Jellyfish's preferred scheme).

Singla et al. showed random graphs need k-shortest-paths rather than
plain ECMP to exploit their path diversity; the paper's Table 9 notes
Jellyfish's diversity depends on this choice.

Yen's enumeration is the most expensive per-pair computation in the
routing layer, so on the intact topology the router reads the batched
all-pairs table of :func:`repro.routing.tables.kshortest_table` (built
once per topology fingerprint) instead of re-running Yen's enumeration
per pair.  After a cut, pairs re-enumerate one at a time over the live
graph; a repair back to the intact graph returns to the table.  Both
call :func:`~repro.routing.tables.kshortest_paths`, so results are
identical either way.
"""

from __future__ import annotations

from repro.routing.base import Path, Router
from repro.routing.tables import RouteTable, kshortest_paths, kshortest_table
from repro.topology.base import Topology


class KShortestPathsRouter(Router):
    """Hash flows over the ``k`` shortest simple paths per pair."""

    def __init__(self, topo: Topology, k: int = 8) -> None:
        super().__init__(topo)
        if k < 1:
            raise ValueError("k must be at least 1")
        self.k = k
        self._intact = topo.fingerprint()
        #: The intact topology's all-pairs table, fetched on first use
        #: and not read while a cut is outstanding.
        self._table: RouteTable | None = None
        self._degraded = False

    def paths(self, src: str, dst: str) -> list[Path]:
        if not self._degraded:
            if self._table is None:
                self._table = kshortest_table(self.topo, self.k)
            entry = self._table.get((src, dst))
            if entry is not None:
                # Empty = unroutable; _cached_paths turns it into RoutingError.
                return list(entry)
        # Degraded graph, or an endpoint outside the server table.
        return kshortest_paths(self.topo.graph, src, dst, self.k)

    def _on_topology_change(self, repaired: bool) -> None:
        # A cut leaves severed pairs to re-enumerate over the live
        # graph; building the degraded graph's whole table for them
        # would run Yen's enumeration over every server pair.
        self._degraded = not repaired or self.topo.fingerprint() != self._intact
