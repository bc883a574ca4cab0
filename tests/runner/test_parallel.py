"""Tests for the parallel sweep runner.

The contract under test: ``run_cells(cells, workers=N)`` returns the
same results in the same order for every ``N`` — a parallel sweep is
bit-identical to a serial one.
"""

import pickle

import pytest

from repro.experiments import figure17_sweep
from repro.runner import ExperimentSpec, RunnerError, default_workers, run_cells
from repro.runner.pool import SHORT_SWEEP_CELLS_PER_WORKER


def _square(x):
    return x * x


def _concat(a, b, sep="-"):
    return f"{a}{sep}{b}"


class TestRunCells:
    def test_serial_runs_in_order(self):
        cells = [ExperimentSpec(_square, args=(i,)) for i in range(5)]
        assert run_cells(cells, workers=1) == [0, 1, 4, 9, 16]

    def test_parallel_matches_serial_order(self):
        cells = [ExperimentSpec(_square, args=(i,)) for i in range(8)]
        serial = run_cells(cells, workers=1)
        parallel = run_cells(cells, workers=4)
        assert parallel == serial

    def test_kwargs_and_labels(self):
        cell = ExperimentSpec(
            _concat, args=("a", "b"), kwargs={"sep": "+"}, label="demo"
        )
        assert run_cells([cell], workers=1) == ["a+b"]
        assert cell.label == "demo"

    def test_specs_are_picklable(self):
        cell = ExperimentSpec(_concat, args=("a", "b"), kwargs={"sep": "+"})
        clone = pickle.loads(pickle.dumps(cell))
        assert clone.run() == "a+b"

    def test_zero_workers_rejected(self):
        with pytest.raises(RunnerError):
            run_cells([ExperimentSpec(_square, args=(1,))], workers=0)

    def test_chunksize_preserves_order(self):
        """Both chunking branches: one contiguous chunk per worker (a
        short sweep) and about four chunks per worker (a long one)."""
        workers = 3
        edge = workers * SHORT_SWEEP_CELLS_PER_WORKER
        for count in (2, 11, edge - 1, edge, 2 * edge + 5):
            cells = [ExperimentSpec(_square, args=(i,)) for i in range(count)]
            assert run_cells(cells, workers=workers) == [i * i for i in range(count)]

    def test_workers_none_uses_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        assert default_workers() == 2
        cells = [ExperimentSpec(_square, args=(i,)) for i in range(3)]
        assert run_cells(cells, workers=None) == [0, 1, 4]

    def test_bad_repro_workers_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "zero")
        with pytest.raises(RunnerError):
            default_workers()
        monkeypatch.setenv("REPRO_WORKERS", "0")
        with pytest.raises(RunnerError):
            default_workers()


class TestSweepDeterminism:
    def test_figure17_parallel_bit_identical_to_serial(self):
        """A 4-way parallel Figure 17 sweep equals the serial sweep, byte
        for byte (pickled SweepPoints compared verbatim)."""
        kwargs = dict(
            topologies=["three-tier tree", "quartz in edge and core"],
            kind="scatter",
            task_counts=[1, 2],
            seeds=(0, 1),
        )
        serial = figure17_sweep(**kwargs, workers=1)
        parallel = figure17_sweep(**kwargs, workers=4)
        assert pickle.dumps(parallel) == pickle.dumps(serial)

    def test_figure10_parallel_with_shared_disk_cache_bit_identical(
        self, tmp_path, monkeypatch
    ):
        """Workers warmed from a shared on-disk artifact cache must not
        change a single bit of the sweep output — the tentpole's
        determinism criterion."""
        from repro.cache import configure, reset
        from repro.experiments import figure10_sweep

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
        configure(directory=str(tmp_path / "store"))
        try:
            kwargs = dict(num_racks=5, servers_per_rack=4)
            serial = figure10_sweep(**kwargs, workers=1)
            parallel = figure10_sweep(**kwargs, workers=4)  # warm disk store
            # Compared per result: pickling the whole list is sensitive
            # to cross-result object sharing (serial cells share interned
            # strings, pool results do not), which differs between serial
            # and parallel even with caching disabled.
            assert len(parallel) == len(serial)
            for par, ser in zip(parallel, serial):
                assert pickle.dumps(par) == pickle.dumps(ser)
        finally:
            reset()
