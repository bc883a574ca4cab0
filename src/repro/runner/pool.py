"""Process-pool fan-out for independent experiment cells.

Determinism contract
--------------------
``run_cells`` returns results **in the order the cells were given**, and
every cell function must be a pure function of its spec (build its own
topology, router, engine and RNGs from the spec's arguments).  Under
those rules the parallel schedule cannot influence any result, so
``run_cells(cells, workers=n)`` is bit-identical to
``run_cells(cells, workers=1)`` for every ``n`` — verified by
``tests/runner/test_parallel.py``.

Workers are separate processes (``concurrent.futures``), so cell
functions and their arguments/results must be picklable: module-level
functions with plain-data arguments.  ``workers=1`` runs everything in
the calling process with no pool (and no pickling), which is also the
fallback when only one cell is given.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro import obs as _obs


class RunnerError(ValueError):
    """Raised for invalid runner configurations."""


@dataclass(frozen=True)
class ExperimentSpec:
    """One independent experiment cell: ``fn(*args, **kwargs)``.

    ``fn`` must be picklable (a module-level callable) and pure —
    everything the cell computes must derive from ``args``/``kwargs``.
    ``label`` is carried along for progress reporting and error
    messages; it does not affect execution.
    """

    fn: Callable[..., Any]
    args: tuple = ()
    kwargs: dict[str, Any] = field(default_factory=dict)
    label: str = ""

    def run(self) -> Any:
        return self.fn(*self.args, **self.kwargs)


def default_workers() -> int:
    """Worker count used when callers pass ``workers=None``.

    The ``REPRO_WORKERS`` environment variable wins when set (so CI and
    benchmarks can pin parallelism); otherwise all visible CPUs.
    """
    env = os.environ.get("REPRO_WORKERS")
    if env is not None:
        try:
            workers = int(env)
        except ValueError:
            raise RunnerError(f"REPRO_WORKERS must be an integer, got {env!r}")
        if workers < 1:
            raise RunnerError(f"REPRO_WORKERS must be at least 1, got {workers}")
        return workers
    return os.cpu_count() or 1


#: Below this many cells *per worker* a sweep counts as short: IPC and
#: per-worker cache warm-up dominate, so cells are dealt out as one
#: contiguous chunk per worker instead of four.
SHORT_SWEEP_CELLS_PER_WORKER = 8


def run_cells(
    cells: Sequence[ExperimentSpec],
    workers: int | None = 1,
) -> list[Any]:
    """Run every cell and return their results in input order.

    ``workers=1`` (the default) runs serially in-process;
    ``workers=None`` uses :func:`default_workers`; anything larger fans
    out over a process pool.  Results are ordered by input position
    regardless of completion order, so output is bit-identical to the
    serial run (see the module docstring for the purity contract).

    Cells are batched per pickling round-trip so large sweeps do not
    pay per-cell IPC overhead: roughly four chunks per worker, except
    for short sweeps (fewer than ``SHORT_SWEEP_CELLS_PER_WORKER`` cells
    per worker), which get one contiguous chunk per worker: callers lay
    out grids major-axis first
    (topology, then parameters), so contiguous chunks keep cells that
    share expensive construction on the same worker's in-process caches,
    and a short sweep pays one pickling round-trip per worker instead of
    four.  The trade is load balancing, which only pays off when there
    are enough cells to rebalance — exactly what a short sweep lacks.
    Batching only changes scheduling granularity — ``map`` still yields
    results in submission order.

    A worker exception cancels the remaining cells and re-raises in the
    caller.
    """
    if workers is not None and workers < 1:
        raise RunnerError(f"workers must be at least 1, got {workers}")
    cells = list(cells)
    if workers is None:
        workers = default_workers()
    if workers == 1 or len(cells) <= 1:
        if _obs.registry() is None:
            return [cell.run() for cell in cells]
        results = []
        for cell in cells:
            results.append(_observed_run(cell))
        return results
    workers = min(workers, len(cells))
    if len(cells) < workers * SHORT_SWEEP_CELLS_PER_WORKER:
        chunksize = -(-len(cells) // workers)  # ceil: one chunk/worker
    else:
        chunksize = max(1, len(cells) // (workers * 4))
    obs_armed = _obs.registry() is not None
    # Imported here: concurrent.futures loads multiprocessing, which no
    # serial run needs.
    from concurrent.futures import ProcessPoolExecutor

    # Armed: arm each worker so sweep-cell spans and metrics exist to
    # ship home with each result.
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_obs.arm if obs_armed else None
    ) as pool:
        # ``map`` yields results in submission order — completion order
        # never leaks into the output.
        if not obs_armed:
            return list(pool.map(_run_spec, cells, chunksize=chunksize))
        # Armed: workers bundle (result, spans, metrics snapshot); the
        # parent re-ingests spans (per-worker pids intact) and merges
        # the registries — snapshot merge is commutative, and results
        # stay in submission order exactly as above.
        registry = _obs.registry()
        tracer = _obs.tracer()
        results = []
        for result, spans, snapshot in pool.map(
            _run_spec_observed, cells, chunksize=chunksize
        ):
            if tracer is not None:
                tracer.ingest(spans)
            if snapshot:
                registry.merge(snapshot)
            results.append(result)
        return results


def _observed_run(spec: ExperimentSpec) -> Any:
    """Run one cell under an armed registry, recording a sweep.cell span."""
    registry = _obs.registry()
    start = time.perf_counter()
    result = spec.run()
    duration = time.perf_counter() - start
    label = spec.label or getattr(spec.fn, "__name__", "cell")
    registry.incr("sweep.cells")
    registry.observe("sweep.cell_seconds", duration)
    tracer = _obs.tracer()
    if tracer is not None:
        tracer.add("sweep.cell", start, duration, label=label)
    return result


def _run_spec_observed(spec: ExperimentSpec) -> tuple:
    """Worker-side twin of :func:`_observed_run`: runs the cell, then
    drains this worker's spans and registry for the parent to merge."""
    result = _observed_run(spec)
    tracer = _obs.tracer()
    registry = _obs.registry()
    return (
        result,
        tracer.drain() if tracer is not None else [],
        registry.drain() if registry is not None else None,
    )


class PinnedPool:
    """A row of single-worker executors with slot-to-process affinity.

    Work submitted to slot ``i`` always runs in the same OS process, so
    state installed by that slot's initializer — or left behind by
    earlier submissions — persists across calls.  :func:`run_cells`
    deliberately offers no such affinity (a shared pool hands cells to
    whichever worker frees up first), which is exactly wrong for
    stateful shard loops: the conservative-window coordinator in
    :mod:`repro.sim.parallel` must step the *same* live simulation at
    every window barrier.

    Each slot's worker runs ``initializer(*initargs_per_slot[slot])``
    once, before its first submission.
    """

    def __init__(
        self,
        slots: int,
        initializer: Callable[..., Any] | None = None,
        initargs_per_slot: Sequence[tuple] | None = None,
    ) -> None:
        if slots < 1:
            raise RunnerError(f"need at least one slot, got {slots}")
        if initargs_per_slot is not None and len(initargs_per_slot) != slots:
            raise RunnerError(
                f"initargs_per_slot has {len(initargs_per_slot)} entries "
                f"for {slots} slots"
            )
        from concurrent.futures import ProcessPoolExecutor

        self._pools = [
            ProcessPoolExecutor(
                max_workers=1,
                initializer=initializer,
                initargs=tuple(initargs_per_slot[slot]) if initargs_per_slot else (),
            )
            for slot in range(slots)
        ]

    @property
    def slots(self) -> int:
        return len(self._pools)

    def submit(self, slot: int, fn: Callable[..., Any], *args: Any):
        """Submit ``fn(*args)`` to slot ``slot``'s pinned worker."""
        return self._pools[slot].submit(fn, *args)

    def broadcast(self, fn: Callable[..., Any], *args: Any) -> list:
        """Submit the same call to every slot; returns one future per slot."""
        return [pool.submit(fn, *args) for pool in self._pools]

    def shutdown(self, wait: bool = True) -> None:
        for pool in self._pools:
            pool.shutdown(wait=wait)

    def __enter__(self) -> "PinnedPool":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.shutdown()
        return False


def _run_spec(spec: ExperimentSpec) -> Any:
    """Module-level trampoline so specs pickle cleanly into workers."""
    return spec.run()
