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
"""

import sys

import pytest

from repro.cache import reset
from repro.experiments import section7
from repro.sim import Network, portmajor  # noqa: F401 -- what a run imports

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
