"""Counted cost: the Python calls a run makes per packet, as a ratchet.

A clock on a shared 1–2 CPU host moves with the hour; a count of calls
does not.  Each case is one Fig. 17 scatter/gather cell — one task,
seed 0, 1 ms — run through ``Network.run`` with ``sys.setprofile``
counting every Python-level call (``"call"`` events; C calls aside)
until the run returns.  The cache is emptied first, so the count
includes the cell's first route misses (its ECMP segment table); the
modules a run imports are imported up front, so a count does not
depend on which test ran first.

The ceilings were measured on CPython 3.11.7, where the kernel's arrival
half runs inside the engine's dispatch loop: 8.06 calls per packet on
the three-tier tree and 6.22 on quartz in core, against 13.76 and 11.80
when every arrival was a call into the kernel.  3.12 inlines list
comprehensions (PEP 709), so its counts can only be lower.  A change
that lowers a count lowers its ceiling; one that raises a count says
why in CHANGES.md.  The logical event counts are pinned beside them:
fewer calls must not mean fewer events.

The small window is the port-major pass alone: 63 streams from one hub
at Fig. 17's 100 Mb/s of 400 B packets, a 2 ms warm-up through
``engine.run``, the floors at 0, then one :func:`portmajor.advance` of
2 or 20 fires per source (``bench_engine_throughput``'s window).  Its
Python and C calls (``"call"`` and ``"c_call"`` events) are counted per
stage — each call charged to the function ``advance`` called that is
on the stack — and the totals held to ceilings.  Measured on CPython
3.11.7 with numpy 2.4.6 (Python / C calls, identical run to run):

================  =====  ===============  ===============
fabric            fires  one function     six stages
================  =====  ===============  ===============
three-tier tree   2      1 284 / 2 803    830 / 2 076
three-tier tree   20     1 438 / 3 208    912 / 2 367
quartz in core    2      1 236 / 2 697    813 / 1 998
quartz in core    20     1 376 / 3 074    884 / 2 272
================  =====  ===============  ===============

The ceilings are the stages' counts with the same ~10 % of headroom the
rounds' have, for 3.10's and 3.12's interpreters and other numpy
releases.  ``python tests/sim/test_counted_cost.py`` (with ``src`` on
the path) prints the ledger, stage by stage.
"""

import sys

import pytest

from repro.cache import reset
from repro.experiments import section7
from repro.experiments.section7 import TOPOLOGY_BUILDERS
from repro.routing import ECMPRouter
from repro.sim import Network, portmajor
from repro.sim.sources import PoissonSource

#: fabric -> (ceiling on Python calls per injected packet, events_processed)
CASES = {
    "three-tier tree": (9.0, 18_392),
    "quartz in core": (7.0, 26_788),
}


@pytest.mark.parametrize("fabric", sorted(CASES))
def test_calls_per_packet_stay_under_the_ceiling(monkeypatch, fabric):
    ceiling, events = CASES[fabric]
    counted = []

    class Counted(Network):
        def run(self, until=None):
            calls = 0

            def profile(frame, event, arg):
                nonlocal calls
                if event == "call":
                    calls += 1

            sys.setprofile(profile)
            try:
                super().run(until)
            finally:
                sys.setprofile(None)
            counted.append((calls, self._next_packet_id, self.engine.events_processed))

    monkeypatch.setattr(section7, "Network", Counted)
    reset()
    section7.run_task_experiment(fabric, "scatter_gather", 1, seed=0, duration=1e-3)
    ((calls, packets, processed),) = counted
    assert processed == events
    assert calls / packets <= ceiling, (calls, packets)


#: (fabric, fires per source) -> ceilings on (Python calls, C calls) of the
#: small window's ``advance``.
WINDOW_CASES = {
    ("three-tier tree", 2): (925, 2_280),
    ("three-tier tree", 20): (1_010, 2_600),
    ("quartz in core", 2): (905, 2_200),
    ("quartz in core", 20): (985, 2_500),
}
WINDOW_RATE_PPS = 100e6 / (400 * 8)
WINDOW_WARMUP = 2e-3


def window_ledger(fabric, fires, monkeypatch):
    """``{stage: [Python calls, C calls]}`` of one small window."""
    topo = TOPOLOGY_BUILDERS[fabric]()
    net = Network(topo, ECMPRouter(topo))
    hub, *peers = topo.servers()
    for flow, peer in enumerate(peers):
        PoissonSource(net, hub, peer, rate_pps=WINDOW_RATE_PPS, flow_id=flow, seed=flow).start()
    net.engine.run(until=WINDOW_WARMUP)
    net.stats.summary()  # the warm-up's samples, folded before the count
    monkeypatch.setattr(portmajor, "MIN_WINDOW_FIRES", 0)
    monkeypatch.setattr(portmajor, "MIN_FIRES_PER_SOURCE", 0)
    advance = portmajor.advance.__code__
    ledger = {}

    def stage(frame):
        while frame is not None and frame.f_code is not advance:
            back = frame.f_back
            if back is not None and back.f_code is advance:
                return getattr(frame.f_code, "co_qualname", frame.f_code.co_name)
            frame = back
        return "advance"

    def profile(frame, event, arg):
        if event in ("call", "c_call"):
            ledger.setdefault(stage(frame), [0, 0])[event == "c_call"] += 1

    sys.setprofile(profile)
    try:
        solved, _ = portmajor.advance(net, WINDOW_WARMUP + fires / WINDOW_RATE_PPS)
    finally:
        sys.setprofile(None)
    assert solved
    return ledger


@pytest.mark.parametrize("case", sorted(WINDOW_CASES))
def test_small_window_calls_stay_under_the_ceiling(monkeypatch, case):
    python, c = (sum(counts) for counts in zip(*window_ledger(*case, monkeypatch).values()))
    most_python, most_c = WINDOW_CASES[case]
    assert python <= most_python and c <= most_c, (python, c)


if __name__ == "__main__":
    with pytest.MonkeyPatch.context() as patch:
        for case in sorted(WINDOW_CASES):
            ledger = window_ledger(*case, patch)
            total = [sum(counts) for counts in zip(*ledger.values())]
            print(*case, "total", *total)
            for name, counts in ledger.items():
                print("   ", name, *counts)
