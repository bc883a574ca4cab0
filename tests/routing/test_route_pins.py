"""Route pins: what every CLI fabric routes over, hashed.

``tests/golden/route_pins.json`` holds, per fabric, the topology
fingerprint (equal fingerprints are equal route-table cache keys), the
sha256 of its ECMP segment table, VLB table (Quartz fabrics) and
k-shortest table (fabrics of at most 64 servers), of every
switch→server shortest path (the detour ``Network._reroute_or_drop``
takes) and of ``tor_of`` for every server.  Besides the twelve CLI
fabrics at default arguments, ``quartz_ring(9, 2)`` and
``three_tier_tree()`` are pinned degraded (``Topology.degraded``),
mid-cut (``Network.fail_link``) and repaired (``repair_link``): a
repaired link sits last in both endpoints' neighbour order, which is
where the tie order of every search shows.

Builders run through the in-memory artifact cache, as in every run,
so each fabric is a copy of the stored build (a copy's neighbour order
can differ from the build's own).  Tables are built with the uncached
constructors (``__wrapped__``), so a pin checks the searches, never a
cache hit.  Regenerate with
``PYTHONPATH=src python tests/routing/test_route_pins.py`` only when a
topology builder changes on purpose.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

import repro.topology as T
from repro.cache import configure, reset
from repro.cli import _TOPOLOGY_CHOICES
from repro.routing import ECMPRouter
from repro.routing.tables import ecmp_segment_table, kshortest_table, vlb_table
from repro.sim import Network
from repro.topology.base import TopologyError
from repro.topology.graph import shortest_path

PINS = Path(__file__).resolve().parents[1] / "golden" / "route_pins.json"


def _sha(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def _table_sha(table) -> str:
    return _sha([[list(pair), [list(p) for p in paths]] for pair, paths in table.items()])


def _tor(topo, server):
    try:
        return topo.tor_of(server)
    except TopologyError:
        return None


def pins_of(topo) -> dict:
    servers = topo.servers()
    pins = {
        "fingerprint": topo.fingerprint(),
        "ecmp": _table_sha(ecmp_segment_table.__wrapped__(topo, 64)),
        "detours": _sha([
            shortest_path(topo.graph, switch, server) or None
            for switch in topo.switches()
            for server in servers
        ]),
        "tor_of": _sha([[s, _tor(topo, s)] for s in servers]),
    }
    if topo.name.startswith("quartz"):
        pins["vlb"] = _table_sha(vlb_table.__wrapped__(topo))
    if len(servers) <= 64:
        pins["kshortest"] = _table_sha(kshortest_table.__wrapped__(topo, 8))
    return pins


def _switch_links(topo, count):
    links = sorted(
        (link.u, link.v) for link in topo.links()
        if topo.is_switch(link.u) and topo.is_switch(link.v)
    )
    return links[:count]


def fabrics() -> dict:
    """Name → zero-argument builder of every pinned topology state."""
    built = {name: build for name, build in _TOPOLOGY_CHOICES.items()}
    for name, build in (
        ("quartz_ring(9, 2)", lambda: T.quartz_ring(9, 2)),
        ("three_tier_tree()", T.three_tier_tree),
    ):
        built[f"{name} degraded"] = (
            lambda build=build: (lambda t: t.degraded(_switch_links(t, 2)))(build())
        )
        built[f"{name} cut"] = lambda build=build: _cycle(build(), repair=False)
        built[f"{name} repaired"] = lambda build=build: _cycle(build(), repair=True)
    return built


def _cycle(topo, repair: bool):
    (u, v), = _switch_links(topo, 1)
    net = Network(topo, ECMPRouter(topo))
    net.fail_link(u, v)
    if repair:
        assert net.repair_link(u, v)
    return topo


@pytest.fixture(autouse=True)
def _memory_cache():
    configure(directory=None, enabled=True)
    yield
    reset()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(PINS.read_text())["fabrics"]


@pytest.mark.parametrize("name", sorted(fabrics()))
def test_routes_match_the_pins(name, golden):
    assert pins_of(fabrics()[name]()) == golden[name]


def test_every_fabric_is_pinned(golden):
    assert sorted(golden) == sorted(fabrics())


if __name__ == "__main__":
    configure(directory=None, enabled=True)
    PINS.write_text(json.dumps({
        "_comment": "Route pins of tests/routing/test_route_pins.py, computed "
        "with networkx 3.6.1 as the graph library.",
        "fabrics": {name: pins_of(build()) for name, build in sorted(fabrics().items())},
    }, indent=1) + "\n")
