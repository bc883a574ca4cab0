"""Compiled per-path forwarding plans — the simulator's fast path.

Forwarding a packet one hop needs the same per-hop facts for every
packet on a path: the link record behind a ``(u, v)`` dict lookup, the
switch model behind a node lookup, and the cut-through serialization
credit from two more link lookups.  For a path that thousands of packets
share, all of that is loop-invariant.

A :class:`HopPlan` resolves it once per unique path, indexed by hop
number, so the kernel (its arrival half in the engine's loop, its clock
:meth:`Network._hop`) walks plain tuple indices with zero dict lookups:

* ``hops[h]`` — the **per-hop record** ``(latf, lat, port, ser)``, what
  the kernel reads on every hop with one index:

  - ``lat`` / ``latf`` — the forwarding delay charged at node
    ``path[h]`` before transmitting on link ``h``, folded into the
    affine form ``earliest = now + size * latf + lat``.
    Store-and-forward hops have ``latf == 0.0``; cut-through hops carry
    ``-min(ser_in, ser_out)`` so the serialization credit is one
    multiply;
  - ``port`` — the output :class:`PortState` of link ``h``;
  - ``ser`` — serialization factor (seconds per byte) of link ``h``;

* ``keys[h]`` — the directed link ``(path[h], path[h+1])``, used only
  for the dead-link check and telemetry;
* ``flights[h]`` — the network's in-flight set of link ``h``
  (``Network._in_flight[keys[h]]``, the same object), which the kernel
  adds to and discards from when fault tracking is armed;
* ``foreign[h]`` — whether ``path[h+1]`` lies outside the owning
  network's shard (``None`` when the network is unsharded): the hops
  where the kernel consults ``Network._tail_out``;
* ``rows`` — what the port-major pass reads of the plan: each hop's
  port number (``PortState.number``), ``ser``, ``latf`` and ``lat``, as
  four tuples filled in at the pass's first read (``None`` until then),
  so the rows live and die with the plan.

The affine form is **bit-identical** to the switch spec's arithmetic
(DESIGN.md §5): ``size * latf`` equals ``-min(size * ser_in_factor,
size * ser_out_factor)`` exactly (IEEE 754 multiplication is
sign-symmetric and monotonic, so the minimum commutes with the
scaling), and ``now + (-x) + lat`` performs the same two additions, in
the same order, as the spec's ``(now - x) + lat``.

Plans own no mutable forwarding state — ports and in-flight sets stay
owned by the network, which never replaces either object for a link —
so a plan is shared by every packet on its path and survives fault
events structurally: dead links are still checked per transmit against
the network's live ``_dead_links`` set, and a packet still riding a
plan that has left the cache registers in the same set a later cut of
its link empties, which is what preserves severing, detours, and drop
accounting exactly.  The network still clears its plan cache on
:meth:`Network.fail_link` / :meth:`Network.repair_link` so the cache
cannot accumulate stale paths across fault churn.

With :mod:`repro.obs` armed, the owning network counts plan compiles,
cache hits, fault invalidations and flow-table overflow (``fastpath.*``
counters).  The port-major pass (:mod:`repro.sim.portmajor`) reads the
same plans, through their ``rows``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.routing.base import Path
    from repro.sim.network import PortState


class HopPlan:
    """Per-path forwarding chain, resolved once and walked by index."""

    __slots__ = ("path", "last", "hops", "keys", "flights", "foreign", "rows")

    def __init__(
        self,
        path: "Path",
        hops: "tuple[tuple[float, float, PortState, float], ...]",
        keys: tuple,
        flights: tuple,
        foreign: "tuple | None" = None,
    ) -> None:
        self.path = path
        self.last = len(path) - 1  # hop index of the destination node
        self.hops = hops
        self.keys = keys
        self.flights = flights
        self.foreign = foreign
        self.rows = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HopPlan({' -> '.join(self.path)})"


def compile_plan(
    link_rec: "dict[tuple[str, str], tuple[float, PortState, float]]",
    hop_rec: "dict[str, tuple[bool, float]]",
    in_flight: "dict[tuple[str, str], set]",
    path: "Path",
    owned: "frozenset[str] | None" = None,
) -> HopPlan:
    """Resolve ``path`` against the network's link and node records.

    ``in_flight`` is the network's per-link registry: each hop binds its
    link's set (created here on first use) into ``flights``.  ``owned``
    (a shard's node set) fills ``foreign``; ``None`` leaves it ``None``,
    so an unsharded kernel pays one identity test per hop.

    Raises :class:`~repro.sim.network.NetworkSimError` if any hop has no
    link, before the packet is injected.
    """
    hops = []
    keys = []
    flights = []
    ser_in = 0.0
    for h in range(len(path) - 1):
        key = (path[h], path[h + 1])
        rec = link_rec.get(key)
        if rec is None:
            from repro.sim.network import NetworkSimError

            raise NetworkSimError(f"no link {path[h]!r} → {path[h + 1]!r} on path")
        ser, port, _ = rec
        lat = latf = 0.0
        if h:  # the source server starts at its injection time
            cut_through, lat = hop_rec[path[h]]
            if cut_through:
                latf = -(ser_in if ser_in < ser else ser)
        hops.append((latf, lat, port, ser))
        keys.append(key)
        flight = in_flight.get(key)
        if flight is None:
            flight = in_flight[key] = set()
        flights.append(flight)
        ser_in = ser
    foreign = None
    if owned is not None:
        foreign = tuple(node not in owned for node in path[1:])
    return HopPlan(path, tuple(hops), tuple(keys), tuple(flights), foreign)
