"""Every query over the hop log against the sequential oracle.

``tests/telemetry/reference.py`` keeps windows and stamps the way the
kernel once did, row by row as events happened.  Fed a log in record
order it must give the same window dump and the same per-flow hop
profile as the queries — every float bit for bit, flows and nodes in
the same order.  Drawn logs cover what makes the queries hard:
residencies that cross window boundaries, tails exactly on one (the
times are dyadic, so many land there), drops in windows no packet
joined, cuts that reset a port's ``busy_until`` (its tails then step
back), packets that cross several ports, and the port-major pass's
shape, a port's consecutive rows as one row of columns.  Logs written
by real armed runs, both executors and a fibre cut, are replayed too.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

import repro.topology as T
from repro.routing import ECMPRouter
from repro.sim import Network
from repro.sim.sources import PoissonSource
from repro.telemetry import TelemetryHub
from repro.telemetry.windows import HopLog, _Chunk
from tests.telemetry.reference import replay

PORTS = [("a", "b"), ("b", "c"), ("c", "a")]


def as_blocks(rows):
    """Each run of consecutive rows on one port as one row of columns,
    as the port-major pass appends a port it clocked."""
    blocks = []
    for row in rows:
        if blocks and blocks[-1][0] == row[0]:
            blocks[-1][1].append(row[1:])
        else:
            blocks.append((row[0], [row[1:]]))
    out = []
    for key, run in blocks:
        pid, earliest, start, tail, size, group = zip(*run)
        out.append((
            key, np.array(pid), np.array(earliest), np.array(start), np.array(tail),
            np.array(size, float), np.array(group, dtype=object),
        ))
    return out


@st.composite
def logs(draw):
    """A hub holding a drawn log, written as the executors write one."""
    hub = TelemetryHub(window=draw(st.sampled_from([1.0, 0.375])))
    busy = dict.fromkeys(PORTS, 0.0)
    live = {}  # packet id -> group, for packets not yet delivered
    rows, deliveries = [], []
    now = 0.0
    for _ in range(draw(st.integers(1, 40))):
        now += draw(st.sampled_from([0.0, 0.125, 0.25, 1.0, 0.1]))
        kind = draw(st.sampled_from(["send", "send", "hop", "hop", "deliver", "drop", "cut"]))
        port = draw(st.sampled_from(PORTS))
        if kind == "send" or (kind == "hop" and not live):
            pid = len(live) + len(deliveries)
            live[pid] = draw(st.sampled_from(["x", "y", None]))
            kind = "hop"
        if kind == "hop":
            pid = draw(st.sampled_from(sorted(live)))
            earliest = now + draw(st.sampled_from([0.0, 0.125, 0.05]))
            size = draw(st.sampled_from([100, 400, 1500]))
            start = max(busy[port], earliest)
            tail = busy[port] = start + size * draw(st.sampled_from([1 / 800, 1 / 400, 1 / 1500]))
            rows.append((port, pid, earliest, start, tail, size, live[pid]))
        elif kind == "deliver" and live:
            pid = draw(st.sampled_from(sorted(live)))
            if any(row[1] == pid for row in rows):
                del live[pid]
                deliveries.append(pid)
        elif kind == "drop":  # may land windows past every enqueue
            later = draw(st.sampled_from([0.0, 4.5]))
            hub.drops.append((port, draw(st.sampled_from(["x", None])), now + later))
        elif kind == "cut":
            busy[port] = now  # as ``fail_link`` leaves the port
    # Chunks a few rows long, so runs of rows straddle their boundaries,
    # written as the kernel writes them: compacted every ``CHUNK_ROWS``.
    hub.CHUNK_ROWS = hub.compact_at = draw(st.integers(1, 6))
    for row in as_blocks(rows) if draw(st.booleans()) else rows:
        hub.hops.append(row)
        if len(hub.hops) >= hub.compact_at:
            hub.compact()
    if deliveries and draw(st.booleans()):
        hub.deliveries.append(np.array(deliveries))
    else:
        cut = draw(st.integers(0, len(deliveries)))
        hub.deliveries.extend(deliveries[:cut])
        hub.compact()
        hub.deliveries.extend(deliveries[cut:])
    hub.unroutable = draw(st.integers(0, 2))
    return hub


def profile_items(profile):
    """The profile with its order: flows, and each flow's nodes."""
    return [(flow, [(n, vars(s)) for n, s in nodes.items()]) for flow, nodes in profile.items()]


def assert_matches_the_oracle(hub):
    dump, profile = replay(hub)
    assert hub.window_dump() == dump
    assert profile_items(hub.hop_profile()) == profile_items(profile)


def crossing_and_cut():
    """A residency across three windows, a tail exactly on a boundary,
    a drop alone in a window, and a cut that steps the tails back."""
    hub = TelemetryHub(window=1.0)
    key = PORTS[0]
    hub.hops.extend([
        (key, 0, 0.5, 0.5, 2.5, 400, "x"),
        (key, 1, 0.75, 2.5, 3.0, 100, "y"),  # tail on the boundary at 3.0
        (key, 2, 1.0, 3.0, 3.5, 100, None),
        (key, 3, 1.25, 1.25, 1.5, 100, "x"),  # after a cut: tails step back
        (key, 4, 1.3, 1.5, 1.75, 100, "y"),
    ])
    hub.drops.append((key, "x", 7.5))
    hub.deliveries.extend([1, 0, 4, 3, 2])
    return hub


@settings(max_examples=150, deadline=None, derandomize=True, print_blob=True)
@given(hub=logs())
@example(hub=crossing_and_cut())
def test_queries_equal_the_sequential_oracle(hub):
    assert_matches_the_oracle(hub)


def test_the_example_exercises_what_it_names():
    hub = crossing_and_cut()
    (monitor,) = hub.monitors.values()
    assert [w.index for w in monitor.windows()] == list(range(8))
    assert monitor.windows()[2].occupancy_by_flow == {"x": 200.0, "y": 100.0, "<ungrouped>": 100.0}
    assert monitor.windows()[7].drops == 1 and monitor.windows()[7].enqueues == 0
    # Packet 4 finds the three long tails still queued ahead of the short
    # one: the oldest tail has not left, so none is let go.
    assert hub.hop_profile()["y"]["a"].depth_max == 4


def armed_run(batch, cut):
    """Six streams into one server on the tree (its downlink queues),
    armed, through ``Network.run`` with ``batch``, else ``engine.run``;
    with ``cut`` a link on stream 0's route is cut and repaired."""
    topo = T.three_tier_tree()
    net = Network(topo, ECMPRouter(topo), telemetry=True)
    servers = topo.servers()
    for i in range(6):
        PoissonSource(
            net, servers[i], servers[-1], rate_pps=600_000.0, seed=i, flow_id=i,
            group=f"g{i % 2}" if i else None,
        ).start()
    if cut:
        u, v = net.router.route(servers[0], servers[-1], 0)[1:3]
        net.enable_fault_tracking()
        net.engine.schedule(0.001, net.fail_link, u, v)
        net.engine.schedule(0.002, net.repair_link, u, v)
    (net.run if batch else net.engine.run)(until=0.003)
    return net


def test_armed_runs_match_the_oracle(monkeypatch):
    # Chunks of 500 rows: the kernel compacts many times a run, between
    # and across the pass's blocks.
    monkeypatch.setattr(HopLog, "CHUNK_ROWS", 500)
    for batch in (True, False):
        for cut in (False, True):
            net = armed_run(batch, cut)
            assert_matches_the_oracle(net.telemetry)
            assert net.telemetry.total_enqueues() == sum(
                port.packets_sent for port in net._ports.values()
            )
    assert any(isinstance(row[1], np.ndarray) for row in armed_run(True, True).telemetry.hops)
    # The kernel's rows were compacted as they came, before any query.
    assert sum(type(row) is _Chunk for row in armed_run(False, True).telemetry.hops) > 1
