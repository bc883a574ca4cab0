"""Host-speed calibration for the end-to-end benchmark.

The development container is a 2-vCPU VM whose speed for *identical*
CPU-bound work drifts by up to 1.6x within seconds (user CPU time
inflates with wall time, so it is contention for the core, not
descheduling).  No statistic taken inside one run removes that, so
every timed step is metered against a fixed pure-Python kernel: a slice
of the kernel runs before the step, every ``INTERVAL_S`` seconds during
it (on a timer signal, between two bytecodes of the main thread) and
after it, and the step's host time is scaled by

    mean over those slices of (NOMINAL_S / the slice's CPU seconds)

i.e. reported as *seconds on the nominal host*.  The slices' own time
is taken out of the step, and so is the time the hypervisor ran
something else on the VM's CPUs (*steal*, which the kernel counts in
``/proc/stat``): in its bad minutes the host steals a fifth of a busy
CPU and a barrier-bound two-process run takes three times as long.  The
scale is computed the same way for every
commit measured with this harness, so it cancels machine drift without
favouring either side of a comparison; raw seconds are kept beside the
scaled ones in the result files.

The kernel uses only the standard library so a child process can take
its first sample before importing numpy or ``repro``.
"""

from __future__ import annotations

import signal
import time
from heapq import heappop, heappush

#: Kernel CPU seconds on the nominal host: the development container's
#: median over quiet runs.  Only fixes the scale on which seconds are
#: reported; changing it rescales every time metric by the same factor.
NOMINAL_S = 0.0095

#: Seconds between two slices inside a step: ~8 % of the step's time.
INTERVAL_S = 0.1


def _kernel() -> float:
    """One slice: the simulator's own mix of work, in miniature.

    Half is interpreter-bound (heap, dict, integer and float arithmetic:
    the event loop and the scalar forwarding path), half streams freshly
    allocated boxed floats through copy, sort and sum (latency samples,
    cohort flights, the flow solver's vectors).  The second half matters:
    a neighbour that fills the memory system slows allocation-heavy
    workloads more than a cache-resident loop would show.
    """
    heap: list[tuple[float, int]] = []
    table: dict[int, int] = {}
    x = 1
    acc = 0.0
    for i in range(7_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heappush(heap, (x * 1e-9, i))
        table[i & 1023] = x
        if i & 1:
            acc += heappop(heap)[0]
    for _ in range(2):
        samples = [i * 1e-9 for i in range(45_000)]
        ordered = samples[::-1]
        ordered.sort()
        acc += sum(ordered)
    return acc


def _stolen_now() -> float:
    """Seconds the hypervisor has stolen from this VM's CPUs so far."""
    try:
        with open("/proc/stat") as stat:
            return int(stat.readline().split()[8]) / 100.0
    except (OSError, IndexError, ValueError):
        return 0.0  # no steal accounting on this host


class Meter:
    """Times the enclosed block and the host's speed while it runs.

    ``wall`` and ``cpu`` are the block's own seconds (slices and stolen
    time removed; ``raw_wall`` keeps the stolen time); ``scale`` turns
    them into nominal-host seconds.  ``cpu_clock`` lets
    the caller count reaped children's CPU time too.  With
    ``timer=False`` only the two boundary slices are taken (the profiled
    pass, where a signal handler would land in the profile).
    """

    def __init__(self, cpu_clock=time.process_time, timer: bool = True) -> None:
        self._cpu_clock = cpu_clock
        self._timer = timer
        self._slices: list[float] = []
        self._spent_wall = self._spent_cpu = 0.0
        self._busy = False
        self.wall = self.raw_wall = self.cpu = self.scale = 0.0

    def _slice(self, *_signal_args: object) -> None:
        if self._busy:  # a late signal while the previous slice still runs
            return
        self._busy = True
        w0, c0 = time.perf_counter(), time.process_time()
        _kernel()
        cpu = time.process_time() - c0
        self._spent_wall += time.perf_counter() - w0
        self._spent_cpu += cpu
        self._slices.append(cpu)
        self._busy = False

    def __enter__(self) -> "Meter":
        self._slice()
        self._spent_wall = self._spent_cpu = 0.0
        if self._timer:
            self._previous = signal.signal(signal.SIGALRM, self._slice)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._stolen0, self._own0 = _stolen_now(), time.process_time()
        self._w0, self._c0 = time.perf_counter(), self._cpu_clock()
        return self

    def __exit__(self, *exc: object) -> None:
        wall, cpu = time.perf_counter() - self._w0, self._cpu_clock() - self._c0
        stolen = _stolen_now() - self._stolen0
        own = time.process_time() - self._own0 - self._spent_cpu
        if self._timer:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        self.raw_wall = wall - self._spent_wall
        # The slices are pure CPU, so their unstolen wall is their CPU time;
        # ``stolen`` already holds what was stolen while they ran.  Steal is
        # counted VM-wide in 10 ms ticks, so it can overshoot on a short
        # block: the block took at least this process's own CPU time.
        self.wall = max(own, wall - self._spent_cpu - stolen)
        self.cpu = cpu - self._spent_cpu
        self._slice()
        # Slices are evenly spaced in time, so the mean of their speeds is
        # the block's work rate relative to the nominal host.
        self.scale = sum(NOMINAL_S / s for s in self._slices) / len(self._slices)
