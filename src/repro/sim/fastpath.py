"""Compiled per-path forwarding plans — the simulator's fast path.

Forwarding a packet one hop needs the same per-hop facts for every
packet on a path: the link record behind a ``(u, v)`` dict lookup, the
switch model behind a node lookup, and the cut-through serialization
credit from two more link lookups.  For a path that thousands of packets
share, all of that is loop-invariant.

A :class:`HopPlan` resolves it once per unique path into parallel
tuples indexed by hop number, so the kernel (:meth:`Network._hop`) walks
plain tuple indices with zero dict lookups:

* ``keys[h]`` — the directed link ``(path[h], path[h+1])``, used only
  for the dead-link check and telemetry;
* ``flights[h]`` — the network's in-flight set of link ``h``
  (``Network._in_flight[keys[h]]``, the same object), which the kernel
  adds to and discards from when fault tracking is armed;
* ``ser[h]`` — serialization factor (seconds per byte) of link ``h``;
* ``ports[h]`` — the output :class:`PortState`;
* ``foreign[h]`` — whether ``path[h+1]`` lies outside the owning
  network's shard (``None`` when the network is unsharded): the hops
  where the kernel consults ``Network._tail_out``;
* ``lat[h]`` / ``latf[h]`` — the forwarding delay charged at node
  ``path[h]`` before transmitting on link ``h``, folded into the affine
  form ``earliest = now + size * latf[h] + lat[h]``.  Store-and-forward
  hops have ``latf == 0.0``; cut-through hops carry
  ``-min(ser_in, ser_out)`` so the serialization credit is one multiply.

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
same plans: one column of per-hop coefficients per stream or packet.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.routing.base import Path
    from repro.sim.network import PortState


class HopPlan:
    """Per-path forwarding chain, resolved once and walked by index."""

    __slots__ = (
        "path", "last", "keys", "flights", "ser", "ports", "lat", "latf", "foreign",
    )

    def __init__(
        self,
        path: "Path",
        keys: tuple,
        flights: tuple,
        ser: tuple,
        ports: tuple,
        lat: tuple,
        latf: tuple,
        foreign: "tuple | None" = None,
    ) -> None:
        self.path = path
        self.last = len(path) - 1  # hop index of the destination node
        self.keys = keys
        self.flights = flights
        self.ser = ser
        self.ports = ports
        self.lat = lat
        self.latf = latf
        self.foreign = foreign

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
    n = len(path)
    keys = []
    flights = []
    ser = []
    ports = []
    for h in range(n - 1):
        key = (path[h], path[h + 1])
        rec = link_rec.get(key)
        if rec is None:
            from repro.sim.network import NetworkSimError

            raise NetworkSimError(f"no link {path[h]!r} → {path[h + 1]!r} on path")
        keys.append(key)
        flights.append(in_flight.setdefault(key, set()))
        ser.append(rec[0])
        ports.append(rec[1])
    lat = [0.0] * max(1, n - 1)
    latf = [0.0] * max(1, n - 1)
    for h in range(1, n - 1):
        cut_through, latency = hop_rec[path[h]]
        lat[h] = latency
        if cut_through:
            ser_in = ser[h - 1]
            ser_out = ser[h]
            latf[h] = -(ser_in if ser_in < ser_out else ser_out)
    foreign = None
    if owned is not None:
        foreign = tuple(node not in owned for node in path[1:])
    return HopPlan(
        path, tuple(keys), tuple(flights), tuple(ser), tuple(ports), tuple(lat),
        tuple(latf), foreign,
    )
