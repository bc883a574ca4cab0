"""Parallel experiment runner.

The evaluation sweeps (Figures 10, 17, 18, 20) are embarrassingly
parallel: every ``(topology, kind, num_tasks, seed)`` cell builds its
own topology, router and event engine, so cells share no state.  This
package fans independent cells out over a process pool while keeping
results **bit-identical** to a serial run — see :func:`run_cells`.

Usage::

    from repro.runner import ExperimentSpec, run_cells

    cells = [ExperimentSpec(run_task_experiment, args=("jellyfish", "scatter", n),
                            kwargs={"seed": s}) for n in counts for s in seeds]
    results = run_cells(cells, workers=8)   # same order as ``cells``
"""

from repro import _lazy_exports

__all__ = [
    "SHORT_SWEEP_CELLS_PER_WORKER",
    "ExperimentSpec",
    "PinnedPool",
    "RunnerError",
    "default_workers",
    "run_cells",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    "SHORT_SWEEP_CELLS_PER_WORKER": "repro.runner.pool",
    "ExperimentSpec": "repro.runner.pool",
    "PinnedPool": "repro.runner.pool",
    "RunnerError": "repro.runner.pool",
    "default_workers": "repro.runner.pool",
    "run_cells": "repro.runner.pool",
})
