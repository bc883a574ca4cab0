"""Engine and sweep throughput: six paired, same-round gates.

How long a whole experiment takes, and where the time goes, is
``benchmarks/e2e``'s record (``BENCH_trajectory.jsonl``).  What stays
here is what that benchmark cannot show, each as the ratio of two runs
made back to back in one round — host drift hits both sides of a pair,
so the ratio is a property of the two code paths, not of the machine:

* the port-major pass of ``Network.run`` against the scalar kernel on a
  single-stream workload, ≥ 1.5× with identical fingerprints;
* the same stream with telemetry armed (monitors + INT stamping on
  every packet), ≤ 2× the scalar kernel, fingerprint identical;
* the same stream with ``repro.obs`` armed, ≤ 1.3×, fingerprint
  identical;
* the fault shape — all-to-all streams over a 9-switch Quartz ring,
  goodput binned, one fibre cut and its repair on the timeline — with
  the pass against the scalar kernel, ≥ 2× with identical fingerprints
  (fault counters, outages and goodput bins included): the windows end
  at the cut and the repair instead of standing down for them;
* the same streams on one physical ring cut twice, which partitions
  it: ≥ 3× with identical fingerprints — the unroutable streams' fires
  are solved as drops instead of leaving the outage to the event loop;
* a 4-seed Figure 17 scatter mini-sweep at ``workers=4``: results
  identical to the serial sweep, and at most 1.4× its wall-clock net of
  pool spin-up (no e2e workload runs ``workers > 1``).
"""

import time

import repro.topology as T
from repro import obs as obs_layer
from repro.core.multiring import plan_rings
from repro.experiments import figure17_sweep
from repro.routing import ECMPRouter
from repro.runner import ExperimentSpec, run_cells
from repro.sim import DeliveryBins, Network
from repro.sim.faults import FaultInjector, random_fault_schedule
from repro.sim.sources import PoissonSource
from repro.units import GBPS

ROUNDS = 3
SWEEP_TOPOLOGIES = ["three-tier tree", "quartz in edge and core"]
SWEEP_TASKS = [1, 2]
SWEEP_SEEDS = (0, 1, 2, 3)
SWEEP_CELLS = len(SWEEP_TOPOLOGIES) * len(SWEEP_TASKS) * len(SWEEP_SEEDS)
SWEEP_WORKERS = 4


#: Cohort benchmark: one 2 Mpps Poisson stream (≈ 6.4 Gb/s of 400 B
#: packets into 10 G links) for 50 ms of simulated time — a chain of
#: full port-major windows with real port queueing inside each.
COHORT_RATE_PPS = 2_000_000.0
COHORT_DURATION = 0.05


def _cohort_run(
    batch: bool, telemetry: bool = False, obs: bool = False
) -> tuple[float, tuple]:
    """One single-stream run; returns (wall seconds, metric fingerprint).

    ``batch`` runs it through ``Network.run`` (the port-major pass),
    else through ``engine.run`` (the scalar kernel).  ``telemetry`` arms
    the windowed monitors + INT stamping; ``obs`` arms the
    :mod:`repro.obs` metrics registry + tracer for this run only (the
    caller leaves the process disarmed).  Both default to off, and
    nothing in the environment arms either.
    """
    if obs:
        obs_layer.arm()
    try:
        topo = T.three_tier_tree()
        net = Network(topo, ECMPRouter(topo), telemetry=telemetry)
        servers = topo.servers()
        source = PoissonSource(
            net, servers[0], servers[-1], rate_pps=COHORT_RATE_PPS, seed=7,
            group="load",
        )
        source.start()
        run = net.run if batch else net.engine.run
        start = time.perf_counter()
        run(until=COHORT_DURATION)
        wall = time.perf_counter() - start
    finally:
        if obs:
            obs_layer.disarm()
    fingerprint = (
        net.packets_delivered,
        net.packets_dropped,
        net.engine.events_processed,
        source.packets_sent,
        tuple(net.stats.samples),
    )
    return wall, fingerprint


def _cohort_round() -> dict[str, float]:
    """Scalar, port-major, telemetry-armed and obs-armed runs, back to
    back; returns each wall-clock (and the logical event count) once
    every fingerprint has been checked against the scalar kernel's.

    Events are *logical*: a port-major window credits the per-hop
    arrivals it elides, so every variant divides the same numerator.
    """
    scalar, fingerprint = _cohort_run(batch=False)
    walls = {"scalar": scalar, "events": fingerprint[2]}
    for name, kwargs in (
        ("port-major", dict(batch=True)),
        ("telemetry", dict(batch=True, telemetry=True)),
        ("obs", dict(batch=False, obs=True)),
    ):
        walls[name], other = _cohort_run(**kwargs)
        assert other == fingerprint, f"{name} run diverged from the scalar kernel"
    return walls


#: Fault benchmark: ``run_fault_recovery_cell``'s scenario at the e2e
#: workload's size — 72 streams of 1.5 Gb/s over a 9-switch ring, fibre
#: segments cut at 1.5 ms and spliced at 2.5 ms of 4 — built here
#: because the cell always runs ``Network.run``.  The two e2e cells, as
#: (physical rings, simultaneous cuts): one cut of two rings reroutes,
#: two cuts of one ring partition it.
FAULT_RING = 9
FAULT_DURATION = 4e-3
CUT_AND_REPAIR = (2, 1)
PARTITION = (1, 2)


def _fault_run(batch: bool, rings: int, cuts: int) -> tuple[float, tuple]:
    """The fault shape through ``Network.run`` with ``batch``, else
    through ``engine.run``."""
    topo = T.quartz_ring(FAULT_RING, servers_per_switch=2)
    net = Network(topo, ECMPRouter(topo))
    plan = plan_rings(FAULT_RING, num_rings=rings)
    FaultInjector(net, plan).schedule(
        random_fault_schedule(plan, cuts, cut_at=1.5e-3, repair_after=1e-3, seed=0)
    )
    bins = DeliveryBins(2.5e-4, 16)
    stream = 0
    for i in range(FAULT_RING):
        for j in range(FAULT_RING):
            if i != j:
                PoissonSource.at_bandwidth(
                    net, f"h{i}.{j % 2}", f"h{j}.{i % 2}", 1.5 * GBPS, group=f"p{i}-{j}",
                    flow_id=stream, seed=stream, on_delivered=bins,
                ).start()
                stream += 1
    run = net.run if batch else net.engine.run
    start = time.perf_counter()
    run(until=FAULT_DURATION)
    wall = time.perf_counter() - start
    faults = net.fault_stats
    fingerprint = (
        net.packets_delivered,
        net.packets_dropped_fault,
        net.packets_rerouted,
        net.packets_unroutable,
        net.engine.events_processed,
        net._next_packet_id,
        tuple(net.stats.samples),
        sorted(faults.drops_by_flow.items()),
        tuple(faults.reroutes_by_flow.items()),
        tuple((flow, tuple(times)) for flow, times in faults.recovery_times_by_flow.items()),
        sorted(faults.awaiting_recovery.items()),
        tuple(bins.bits),
    )
    return wall, fingerprint


def _fault_round(cell: tuple[int, int]) -> dict[str, float]:
    scalar, fingerprint = _fault_run(False, *cell)
    portmajor, other = _fault_run(True, *cell)
    assert other == fingerprint, "port-major fault run diverged from the scalar kernel"
    return {"scalar": scalar, "port-major": portmajor, "events": fingerprint[4]}


def _time_sweep(workers: int) -> tuple[float, dict]:
    start = time.perf_counter()
    result = figure17_sweep(
        SWEEP_TOPOLOGIES, "scatter", SWEEP_TASKS, seeds=SWEEP_SEEDS, workers=workers
    )
    return time.perf_counter() - start, result


def _noop_cell() -> None:
    return None


def _pool_spinup_seconds(workers: int, n_cells: int) -> float:
    """Wall clock of a pool round-trip over no-op cells.

    Same worker count and cell count as the mini-sweep, but every cell
    returns immediately — what remains is process start-up, initializer
    runs, and pickling, i.e. the pool's fixed overhead.  Subtracting it
    from the parallel sweep isolates the compute phase so the parallel
    gate prices the pool's marginal cost, not process creation.
    """
    cells = [ExperimentSpec(_noop_cell) for _ in range(n_cells)]
    start = time.perf_counter()
    run_cells(cells, workers=workers)
    return time.perf_counter() - start


def _sweep_round() -> dict[str, float]:
    """Serial sweep, pool spin-up, ``workers=4`` sweep, back to back."""
    serial_s, serial = _time_sweep(workers=1)
    spinup_s = _pool_spinup_seconds(SWEEP_WORKERS, SWEEP_CELLS)
    parallel_s, parallel = _time_sweep(workers=SWEEP_WORKERS)
    assert {t: [p.mean_latency for p in pts] for t, pts in parallel.items()} == {
        t: [p.mean_latency for p in pts] for t, pts in serial.items()
    }
    return {"serial": serial_s, "spinup": spinup_s, "parallel": parallel_s}


def _best(rounds: list[dict], ratio) -> tuple[float, dict]:
    """The lowest ``ratio(round)`` and the round it came from: a gate
    should compare the code paths, not whichever round a noisy
    neighbour hit."""
    best = min(rounds, key=ratio)
    return ratio(best), best


def bench_engine_throughput(benchmark, report):
    cohort = [benchmark.pedantic(_cohort_round, rounds=1, iterations=1)]
    cohort += [_cohort_round() for _ in range(ROUNDS - 1)]
    portmajor_ratio, portmajor_round = _best(
        cohort, lambda r: r["port-major"] / r["scalar"]
    )
    portmajor_speedup = 1.0 / portmajor_ratio
    telemetry_overhead, telemetry_round = _best(
        cohort, lambda r: r["telemetry"] / r["scalar"]
    )
    obs_overhead, obs_round = _best(cohort, lambda r: r["obs"] / r["scalar"])
    fault_ratio, fault_round = _best(
        [_fault_round(CUT_AND_REPAIR) for _ in range(ROUNDS)],
        lambda r: r["port-major"] / r["scalar"],
    )
    fault_speedup = 1.0 / fault_ratio
    partition_ratio, partition_round = _best(
        [_fault_round(PARTITION) for _ in range(ROUNDS)],
        lambda r: r["port-major"] / r["scalar"],
    )
    partition_speedup = 1.0 / partition_ratio

    _time_sweep(workers=1)  # warm-up: construction caches, imports
    parallel_ratio, sweep = _best(
        [_sweep_round() for _ in range(ROUNDS)],
        lambda r: max(0.0, r["parallel"] - r["spinup"]) / r["serial"],
    )

    events = cohort[0]["events"]

    def rate_row(label: str, variant: str, round_: dict, ratio: str) -> str:
        count = round_["events"]
        return (
            f"{label:<46}{count / round_['scalar']:>12,.0f}"
            f"{count / round_[variant]:>12,.0f}  {ratio}"
        )

    lines = [
        "Engine throughput: paired same-round gates",
        f"{'metric':<46}{'scalar':>12}{'variant':>12}  ratio (gate)",
        "-" * 96,
        rate_row(f"cohort stream, port-major (ev/s), {events:,} ev", "port-major",
                 portmajor_round, f"{portmajor_speedup:.2f}x faster (>= 1.5x)"),
        rate_row("cohort stream, telemetry armed (ev/s)", "telemetry",
                 telemetry_round, f"{telemetry_overhead:.2f}x the wall (<= 2.0x)"),
        rate_row("cohort stream, obs armed (ev/s)", "obs",
                 obs_round, f"{obs_overhead:.2f}x the wall (<= 1.3x)"),
        rate_row(f"cut + repair, port-major (ev/s), {fault_round['events']:,} ev",
                 "port-major", fault_round, f"{fault_speedup:.2f}x faster (>= 2.0x)"),
        rate_row(f"partition, port-major (ev/s), {partition_round['events']:,} ev",
                 "port-major", partition_round,
                 f"{partition_speedup:.2f}x faster (>= 3.0x)"),
        f"{'fig17 mini-sweep, workers=4 net of spin-up (s)':<46}"
        f"{sweep['serial']:>12.2f}{sweep['parallel'] - sweep['spinup']:>12.2f}"
        f"  {parallel_ratio:.2f}x the serial wall (<= 1.4x)",
        f"{'fig17 mini-sweep, workers=4 spin-up, wall (s)':<46}"
        f"{sweep['spinup']:>12.2f}{sweep['parallel']:>12.2f}",
        "",
        f"Each row is the round, of {ROUNDS}, with the best ratio; both of its runs",
        "were made back to back in that round.  The cohort rows run one",
        "2 Mpps Poisson stream for 50 ms of simulated time and assert every",
        "metric identical to the scalar kernel's before a ratio is reported;",
        "events are logical (a port-major window credits the per-hop arrivals",
        "it elides), so all variants divide the same count.  The cut + repair",
        "row is 72 all-to-all streams over a 9-switch Quartz ring for 4 ms, one",
        "fibre segment of two rings cut at 1.5 ms and spliced at 2.5 ms, goodput",
        "binned; fault counters, outages and bins are in its fingerprint.  The",
        "partition row is the same with two segments of one ring cut, which",
        "leaves pairs with no path until the repair.  The workers=4",
        "results are asserted identical to the serial sweep's; spin-up is the",
        "same pool over no-op cells.",
    ]
    report("engine_throughput", "\n".join(lines))

    assert portmajor_speedup >= 1.5, (
        f"port-major pass {portmajor_speedup:.2f}x the scalar kernel, below 1.5x"
    )
    # Worst case for the telemetry hooks: every packet monitored and
    # stamped.  Armed telemetry may cost, but not more than 2x.
    assert telemetry_overhead <= 2.0, (
        f"armed telemetry overhead {telemetry_overhead:.2f}x exceeds 2x"
    )
    # Armed obs records aggregate deltas once per engine run (never per
    # event), plan-cache counters on the compile/miss paths only, and
    # one span per run — so even with every logical event through the
    # scalar loop, arming must cost at most 1.3x.
    assert obs_overhead <= 1.3, (
        f"armed obs overhead {obs_overhead:.2f}x exceeds 1.3x"
    )
    # A cut, a repair, armed tracking and a goodput callback on every
    # stream: windows end at the two timers instead of standing down.
    assert fault_speedup >= 2.0, (
        f"port-major pass {fault_speedup:.2f}x the scalar kernel through a cut, below 2x"
    )
    # Through a partition the unroutable streams' fires are solved as
    # drops: the outage is the pass's, not the event loop's.
    assert partition_speedup >= 3.0, (
        f"port-major pass {partition_speedup:.2f}x the scalar kernel through a "
        "partition, below 3x"
    )
    # The sweep is short and the CI container may expose a single CPU,
    # so a *speedup* gate would be dishonest — what the gate holds is
    # that fanning out costs at most IPC + timesharing overhead (the old
    # one-chunk-per-four regression showed up as ~1.75x serial here).
    assert parallel_ratio <= 1.4, (
        f"workers=4 sweep net of spin-up is {parallel_ratio:.2f}x serial"
    )
