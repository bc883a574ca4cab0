"""Correctness checks on finished simulations: invariants and digests.

Every figure here is *simulated* (packets, simulated seconds); none is
host time.  The experiment functions return summaries, not their
``Network``, so :class:`NetworkLog` notes each network as it is
constructed; the checks read its counters after the timed section ends.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from repro.sim.network import Network

#: Slack on float comparisons of accumulated port clocks (seconds).
_EPS = 1e-12


class NetworkLog:
    """Collects every ``Network`` (or subclass) built while it is open.

    One list append per construction; nothing on the forwarding path.
    Networks built inside worker processes are not seen — the sharded
    workload is checked through its ``RunResult`` instead.
    """

    def __init__(self) -> None:
        self._networks: list[Network] = []
        self._original = None

    def __enter__(self) -> "NetworkLog":
        original = self._original = Network.__init__
        networks = self._networks

        def recording_init(net, *args, **kwargs):
            original(net, *args, **kwargs)
            networks.append(net)

        Network.__init__ = recording_init
        return self

    def __exit__(self, *exc: object) -> None:
        Network.__init__ = self._original

    def drain(self) -> list[Network]:
        """Return and forget the networks seen since the last drain."""
        networks = list(self._networks)
        self._networks.clear()
        return networks


def conservation_errors(
    sent: int, delivered: int, dropped: int, unroutable: int, pending: float
) -> list[str]:
    """``sent = delivered + dropped + in-flight``, with in-flight bounded.

    ``dropped`` counts unroutable packets too, and those never received
    a packet id, so they are taken back out.  In-flight packets are not
    counted by the simulator; each holds one queued arrival event, so
    the remainder must lie in ``[0, pending events]``.
    """
    in_flight = sent - delivered - (dropped - unroutable)
    if in_flight < 0:
        return [f"delivered+dropped exceeds sent by {-in_flight}"]
    if in_flight > pending:
        return [f"{in_flight} packets unaccounted for, {pending} events pending"]
    return []


def port_errors(ports, capacity) -> list[str]:
    """No port may have sent more bits than its clock allows.

    ``ports`` yields ``(key, bytes_sent, busy_until)``.  A port serves
    packets one after another from time zero, so its bits sent divided
    by the line rate cannot exceed its ``busy_until`` clock — the form
    of "port busy past the horizon" that stays true when a congested
    queue legitimately extends beyond the end of the run.
    """
    errors = []
    for key, bytes_sent, busy_until in ports:
        if bytes_sent * 8.0 / capacity[key] > busy_until + _EPS:
            errors.append(f"port {key} sent {bytes_sent} B by t={busy_until}")
    return errors


def network_errors(net: Network) -> list[str]:
    """Invariant violations of one finished in-process network."""
    errors = conservation_errors(
        net._next_packet_id,
        net.packets_delivered,
        net.packets_dropped,
        net.packets_unroutable,
        net.engine.pending(),
    )
    errors += port_errors(
        ((key, port.bytes_sent, port.busy_until) for key, port in net._ports.items()),
        net._capacity,
    )
    return errors


def group_stats(by_group) -> dict:
    """Per-group latency count / exact mean / nearest-rank p99 (simulated
    seconds) — ``repro.sim.stats.summarize_latencies``' definitions, by
    selection instead of a full sort (the groups hold 10^5 samples)."""
    stats = {}
    for group, samples in by_group:
        n = len(samples)
        if n:
            rank = max(0, math.ceil(0.99 * n) - 1)
            p99 = float(np.partition(np.asarray(samples, dtype=float), rank)[rank])
            stats[str(group)] = [n, math.fsum(samples) / n, p99]
    return stats


def network_fields(net: Network) -> dict:
    """The simulated statistics one network contributes to a digest."""
    groups = sorted(net.stats.by_group.items())
    if not groups:
        groups = [("all", net.stats.samples)]
    return {
        "delivered": net.packets_delivered,
        "dropped": net.packets_dropped,
        "rerouted": net.packets_rerouted,
        "unroutable": net.packets_unroutable,
        "groups": group_stats(groups),
    }


def digest(fields) -> str:
    """sha256 of a JSON-able value; floats keep every digit (``repr``)."""
    blob = json.dumps(fields, sort_keys=True, allow_nan=False)
    return hashlib.sha256(blob.encode()).hexdigest()
