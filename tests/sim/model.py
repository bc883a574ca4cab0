"""An independent model of the packet fabric, written from the switch spec.

DESIGN.md §5 states what one hop computes; this module is that text as
a small event simulation, and nothing else.  It shares no code with the
forwarding kernel (``Network._hop``) or the port-major pass: from
:mod:`repro.sim` it imports the switch table alone.  It keeps its own
``(time, seq)`` event list, its own ports, in-flight sets, counters and
latency samples, and it routes on its own topology with its own router,
so a fault in ``send``, the detour, ``fail_link``, the stats or a
compiled plan shows as a difference instead of sitting in both legs.

Its inputs are plain data: each source's **fire record** — ``[(time,
[(src, dst, size, flow_id, group), ...]), ...]``, recorded on a kernel
run by :func:`record_fires` — and the fault timeline.  They are handed
to :class:`FabricModel` in the order the kernel's run scheduled them,
so ties break the same way.  :func:`outcome` reads a finished network
into the shape :meth:`FabricModel.outcome` returns; tests compare the
two with ``==``, bit for bit.
"""

from __future__ import annotations

import heapq
import types

from repro.routing import RoutingError
from repro.sim.switch import get_model
from repro.topology.graph import shortest_path


class _Packet:
    __slots__ = ("dst", "size", "group", "created", "path", "hop", "rerouted", "severed")

    def __init__(self, dst, size, group, created, path):
        self.dst = dst
        self.size = size
        self.group = group
        self.created = created
        self.path = path
        self.hop = 0  # index into ``path`` of the node the packet is at
        self.rerouted = False
        self.severed = False


class FabricModel:
    """Per-port FIFO servers, cut-through and store-and-forward hops,
    cuts, repairs and detours, over ``topo`` (which it mutates) and a
    ``router`` built on that topology."""

    def __init__(
        self, topo, router, *, propagation_delay, server_forward_latency,
        host_receive_latency, tracked=False,
    ):
        self.topo = topo
        self.router = router
        self.prop = propagation_delay
        self.host_receive = host_receive_latency
        #: directed link -> seconds per byte, ``8 / C``
        self.per_byte = {}
        #: directed link -> [busy, packets sent, bytes sent]
        self.ports = {}
        for link in topo.links():
            for key in ((link.u, link.v), (link.v, link.u)):
                self.per_byte[key] = 8 / link.capacity
                self.ports[key] = [0.0, 0, 0.0]
        #: node -> (cut-through, latency); a relaying server stores and forwards
        self.forwarding = {
            node: (False, server_forward_latency) for node in topo.servers()
        }
        for switch in topo.switches():
            model = get_model(topo.switch_model(switch) or "ULL")
            self.forwarding[switch] = (model.cut_through, model.latency)
        #: in-flight tracking: armed by the first cut unless armed here
        self.tracked = tracked
        self.crossing = {key: set() for key in self.ports}
        self.dead = set()
        self.removed = {}
        self.events = []
        self.seq = 0
        self.now = 0.0
        self.samples = []
        self.by_group = {}
        self.delivered = self.dropped = self.dropped_fault = 0
        self.rerouted = self.unroutable = 0

    # -- the schedule, handed over in the kernel run's scheduling order ----------

    def at(self, time, action, *args):
        heapq.heappush(self.events, (time, self.seq, action, args))
        self.seq += 1

    def cut(self, time, u, v):
        self.at(time, self._cut, u, v)

    def repair(self, time, u, v):
        self.at(time, self._repair, u, v)

    def source(self, fires):
        """A source's chain: each recorded fire injects, then re-arms.
        Hand a record over once the kernel run that fills it is done."""
        if fires:
            self.at(fires[0][0], self._fire, fires, 0)

    def run(self, until):
        events = self.events
        while events and events[0][0] <= until:
            time, _, action, args = heapq.heappop(events)
            self.now = time
            action(*args)
        self.now = max(self.now, until)

    # -- sources ------------------------------------------------------------------

    def _fire(self, fires, i):
        for src, dst, size, flow_id, group in fires[i][1]:
            self._inject(src, dst, size, flow_id, group)
        if i + 1 < len(fires):
            self.at(fires[i + 1][0], self._fire, fires, i + 1)

    def _inject(self, src, dst, size, flow_id, group):
        try:
            path = tuple(self.router.route(src, dst, flow_id))
        except RoutingError:
            self.unroutable += 1
            self._drop()
            return
        self._clock(_Packet(dst, size, group, self.now, path), self.now)

    # -- one hop --------------------------------------------------------------------

    def _clock(self, packet, earliest):
        """Put ``packet`` on the port toward its next node, no earlier
        than ``earliest``; detour first if that link is dead."""
        link = (packet.path[packet.hop], packet.path[packet.hop + 1])
        if link in self.dead:
            self._detour(packet, earliest)
            return
        port = self.ports[link]
        ser = packet.size * self.per_byte[link]
        tail = max(port[0], earliest) + ser
        port[0] = tail
        port[1] += 1
        port[2] += packet.size
        if self.tracked:
            self.crossing[link].add(packet)
        self.at(tail + self.prop, self._arrive, packet)

    def _arrive(self, packet):
        if packet.severed:
            return
        path = packet.path
        self.crossing[(path[packet.hop], path[packet.hop + 1])].discard(packet)
        packet.hop += 1
        if packet.hop == len(path) - 1:
            latency = (self.now + self.host_receive) - packet.created
            self.delivered += 1
            self.samples.append(latency)
            if packet.group is not None:
                self.by_group.setdefault(packet.group, []).append(latency)
            return
        self._clock(packet, self._earliest(packet, path[packet.hop + 1]))

    def _earliest(self, packet, toward):
        """When the node ``packet`` just reached may start sending it on
        to ``toward``."""
        node = packet.path[packet.hop]
        cut_through, latency = self.forwarding[node]
        if not cut_through:
            return self.now + latency
        ser_in = packet.size * self.per_byte[(packet.path[packet.hop - 1], node)]
        ser_out = packet.size * self.per_byte[(node, toward)]
        return (self.now - min(ser_in, ser_out)) + latency

    # -- faults -----------------------------------------------------------------------

    def _drop(self):
        self.dropped += 1
        self.dropped_fault += 1

    def _detour(self, packet, earliest):
        node = packet.path[packet.hop]
        detour = tuple(shortest_path(self.topo.graph, node, packet.dst))
        if not detour:
            self._drop()
            return
        if packet.hop:
            earliest = self._earliest(packet, detour[1])
        packet.path = detour
        packet.hop = 0
        if not packet.rerouted:
            packet.rerouted = True
            self.rerouted += 1
        self._clock(packet, earliest)

    def _cut(self, u, v):
        if (u, v) in self.dead:
            return
        self.removed[(u, v)] = dict(self.topo.graph.get_edge_data(u, v))
        self.topo.graph.remove_edge(u, v)
        self.dead.update(((u, v), (v, u)))
        for link in ((u, v), (v, u)):
            for packet in self.crossing[link]:
                packet.severed = True
                self._drop()
            self.crossing[link].clear()
            self.ports[link][0] = self.now
        self.tracked = True
        self.router.invalidate_links([(u, v)])

    def _repair(self, u, v):
        if (u, v) not in self.dead:
            return
        self.topo.graph.add_edge(u, v, **self.removed.pop((u, v)))
        self.dead.difference_update(((u, v), (v, u)))
        self.router.invalidate_links([(u, v)], repaired=True)

    # -- what is compared ----------------------------------------------------------------

    def outcome(self):
        return {
            "samples": self.samples,
            "by_group": self.by_group,
            "counters": (
                self.delivered, self.dropped, self.dropped_fault,
                self.rerouted, self.unroutable,
            ),
            "ports": {key: tuple(port[1:]) + (port[0],) for key, port in self.ports.items()},
        }


def outcome(net):
    """A network's run in the shape of :meth:`FabricModel.outcome`."""
    return {
        "samples": list(net.stats.samples),
        "by_group": net.stats.by_group,
        "counters": (
            net.packets_delivered, net.packets_dropped, net.packets_dropped_fault,
            net.packets_rerouted, net.packets_unroutable,
        ),
        "ports": {
            key: (port.packets_sent, port.bytes_sent, port.busy_until)
            for key, port in net._ports.items()
        },
    }


def record_fires(net, sources):
    """Record each source's fires on ``net`` (before the sources start):
    one list per source, filled as the run goes, of ``(time, sends)``
    with every ``send`` the fire made — the routable and the unroutable
    alike."""
    sends = []
    send = net.send

    def recording_send(src, dst, size_bytes, flow_id=0, group=None, **kwargs):
        sends.append((src, dst, size_bytes, flow_id, group))
        return send(src, dst, size_bytes, flow_id=flow_id, group=group, **kwargs)

    net.send = recording_send
    records = []
    for source in sources:
        name = "_fire_burst" if hasattr(source, "_fire_burst") else "_fire"
        fires = []

        def fire(source, generation, step=getattr(source, name), fires=fires):
            before = len(sends)
            rearm = step(generation)
            fires.append((net.engine.now, sends[before:]))
            return rearm

        setattr(source, name, types.MethodType(fire, source))
        records.append(fires)
    return records
