"""Armed-vs-disarmed identity and end-to-end span/metric collection.

The contract the whole layer hangs on: arming :mod:`repro.obs` records
counters and spans but changes **no** simulation result — the same
fingerprint contract the fastpath/batch/telemetry/parallel layers obey.
"""

import os

import pytest

import repro.topology as T
from repro import obs
from repro.hybrid import BackgroundFlow, HybridNetwork
from repro.routing import ECMPRouter
from repro.runner import ExperimentSpec, run_cells
from repro.sim import Network
from repro.sim.parallel import (
    ParallelScenario,
    ShardRuntime,
    SourceSpec,
    run_parallel,
    run_serial,
)
from repro.sim.sources import PoissonSource


@pytest.fixture(autouse=True)
def _disarmed():
    """Tests control arming explicitly; always leave the process
    disarmed."""
    obs.disarm()
    yield
    obs.disarm()


def _small_run():
    topo = T.quartz_ring(4, 1)
    net = Network(topo, ECMPRouter(topo))
    source = PoissonSource(
        net, "h0.0", "h2.0", rate_pps=200_000.0, seed=3, group="g"
    )
    source.start()
    net.engine.run(until=0.002)
    return (
        net.packets_delivered,
        net.packets_dropped,
        net.engine.events_processed,
        tuple(net.stats.samples),
    )


class TestFingerprintIdentity:
    def test_armed_run_is_bit_identical(self):
        baseline = _small_run()
        obs.arm()
        armed = _small_run()  # attaches to the armed process
        assert armed == baseline

    def test_armed_engine_records_runs_and_spans(self):
        obs.arm()
        fingerprint = _small_run()
        assert fingerprint[0] > 0
        reg = obs.registry()
        assert reg.counters["engine.runs"] == 1
        assert reg.counters["engine.events.heap"] == fingerprint[2]
        (run,) = (s for s in obs.tracer().spans if s.name == "engine.run")
        assert run.args == {"kind": "heap", "events": fingerprint[2]}

    def test_network_built_after_disarm_stays_disarmed(self):
        # ``obs.arm()`` is the only switch: building a network must not
        # arm the process again once ``disarm()`` has run.
        obs.arm()
        obs.disarm()
        topo = T.quartz_ring(4, 1)
        net = Network(topo, ECMPRouter(topo))
        assert net.obs is None and not obs.armed()


def _parallel_scenario():
    return ParallelScenario(
        fabric="quartz-ring",
        fabric_args=(6, 1),
        sources=tuple(
            SourceSpec(
                src=f"h{rack}.0", dst=f"h{(rack + 2) % 6}.0",
                rate_pps=100_000.0, flow_id=rack, seed=rack,
            )
            for rack in range(6)
        ),
        duration=5e-4,
    )


class TestParallelObservation:
    def test_inline_armed_matches_serial_and_collects_window_spans(self):
        scenario = _parallel_scenario()
        serial = run_serial(scenario)
        obs.arm()
        sharded = run_parallel(
            scenario, num_shards=2, mode="inline"
        )
        assert sharded.fingerprint() == serial.fingerprint()
        reg = obs.registry()
        assert reg.counters["parallel.runs"] == 1
        assert reg.counters["parallel.windows"] == sharded.windows
        names = {span.name for span in obs.tracer().spans}
        assert {"parallel.window", "parallel.barrier", "engine.run"} <= names
        # Shard spans carry the shard index as their thread lane.
        tids = {
            span.tid for span in obs.tracer().spans
            if span.name == "engine.run"
        }
        assert {0, 1} <= tids

    def test_shard_step_ships_only_the_spans_it_recorded(self):
        """Inline shards share the coordinator's tracer: a step hands
        back what it recorded, not the whole buffer (which made every
        window move every earlier window's spans out and back in)."""
        obs.arm()
        tracer = obs.tracer()
        tracer.add("recorded.before", 0.0, 1.0)
        shard = ShardRuntime(_parallel_scenario(), 1, 2)
        for until in (0.0, 1e-4, 2e-4):
            report = shard.step(until, [])
            assert [(s.name, s.tid) for s in report.spans] == [("engine.run", 1)]
            assert [s.name for s in tracer.spans] == ["recorded.before"]

    def test_disarmed_parallel_records_nothing(self):
        run_parallel(
            _parallel_scenario(), num_shards=2, mode="inline"
        )
        assert obs.registry() is None
        assert obs.tracer() is None


def _cell(seed):
    return _small_run()


class TestSweepObservation:
    def test_run_cells_pool_merges_worker_spans_and_metrics(self):
        cells = [
            ExperimentSpec(_cell, (seed,), label=f"cell-{seed}")
            for seed in range(4)
        ]
        baseline = run_cells(cells, workers=1)
        obs.arm()
        observed = run_cells(cells, workers=2)
        assert observed == baseline  # pool + arming change no result
        reg = obs.registry()
        assert reg.counters["sweep.cells"] == 4
        assert reg.counters["engine.runs"] == 4  # workers shipped theirs home
        cell_spans = [
            s for s in obs.tracer().spans if s.name == "sweep.cell"
        ]
        assert len(cell_spans) == 4
        # Every cell ran in a pool worker's lane.  How the four cells
        # spread over the two workers is the OS scheduler's business:
        # one worker may drain them all.
        worker_pids = {span.pid for span in cell_spans}
        assert os.getpid() not in worker_pids
        assert 1 <= len(worker_pids) <= 2
        run_spans = [s for s in obs.tracer().spans if s.name == "engine.run"]
        assert len(run_spans) == 4
        assert {span.pid for span in run_spans} == worker_pids
        assert sorted(span.args["label"] for span in cell_spans) == [
            f"cell-{seed}" for seed in range(4)
        ]
        assert reg.snapshot()["timers"]["sweep.cell_seconds"]["count"] == 4

    def test_serial_run_cells_records_without_pool(self):
        obs.arm()
        run_cells([ExperimentSpec(_cell, (0,))], workers=1)
        reg = obs.registry()
        assert reg.counters["sweep.cells"] == 1
        timer = reg.snapshot()["timers"]["sweep.cell_seconds"]
        assert timer["count"] == 1


class TestSmokeRuntimeKeys:
    def test_timed_run_runtime_shape(self, monkeypatch):
        from repro import smoke

        monkeypatch.setattr(
            smoke, "compute_smoke_metrics", lambda: {"fake.metric": 1}
        )
        metrics, runtime = smoke.timed_run()
        assert metrics == {"fake.metric": 1}
        assert set(runtime) == {
            "runtime.wall_clock_s",
            "runtime.cache_hit_rate",
            "runtime.cache_lookups",
        }
        assert runtime["runtime.wall_clock_s"] > 0.0

    def test_timed_run_merges_into_armed_registry(self, monkeypatch):
        from repro import smoke

        monkeypatch.setattr(
            smoke, "compute_smoke_metrics", lambda: {"fake.metric": 1}
        )
        obs.arm()
        smoke.timed_run()
        assert "smoke.run" in obs.registry().snapshot()["timers"]


def _hybrid_run(topo, flows, cut=None, **kwargs):
    net = HybridNetwork(topo, ECMPRouter(topo), flows, **kwargs)
    if cut is not None:
        net.engine.call_at(0.0, net.fail_link, *cut)
    source = PoissonSource(
        net, "h0.0", "h2.0", rate_pps=200_000.0, seed=3, group="g"
    )
    source.start()
    net.run(until=5e-4)
    return (
        net.packets_delivered, net.epochs, net.residual_epoch,
        tuple(net.stats.samples),
    )


class TestHybridObservation:
    """Every hybrid fallback and empty epoch is counted and named."""

    def _flows(self, topo):
        servers = topo.servers()
        return [
            BackgroundFlow(1_000_000, servers[0], servers[2], 4e9, 1e-4, 3e-4),
            BackgroundFlow(1_000_001, servers[1], servers[3], 4e9, 2e-4, 4e-4),
        ]

    def test_noop_epochs_counted_and_fingerprint_unchanged(self):
        # h1.0's only uplink is cut at t=0, so flow 1_000_001 parks at
        # its start and both of its boundaries re-solve to no change.
        def run():
            topo = T.quartz_ring(4, 1)
            return _hybrid_run(
                topo, self._flows(topo), cut=("h1.0", "tor1"), hybrid=True
            )

        baseline = run()
        obs.arm()
        assert run() == baseline
        counters = obs.registry().counters
        assert counters["hybrid.resolves"] == baseline[1] == 5
        assert counters["hybrid.residual_epochs"] == baseline[2] == 3
        assert counters["hybrid.noop_epochs"] == 2
        assert not [name for name in counters if "fallback_oracle" in name]

    def test_oracle_fallback_names_its_reason(self):
        obs.arm()
        topo = T.quartz_ring(4, 1)
        _hybrid_run(topo, self._flows(topo), hybrid=False)
        counters = obs.registry().counters
        assert counters["hybrid.fallback_oracle.arg"] == 1
        assert "hybrid.resolves" not in counters
