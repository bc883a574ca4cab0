"""Cold vs warm artifact cache for the Figure 10 and scaling sweeps.

The tentpole's acceptance benchmark: run the same sweep workload twice
against one on-disk artifact store — first cold (empty store), then
warm (fresh process memory, populated disk) — and require the warm run
to be at least 2x faster while producing identical results.  The
cold/warm table is written to ``benchmarks/results/cache_warmstart.txt``.

The workload is the Figure 10 bisection sweep (whose Jellyfish bar is
dominated by Yen's all-pairs k-shortest enumeration — exactly the
artifact the cache memoizes) plus the Section 8 scaling table with
exact greedy wavelength counts.
"""

import time

from repro.analysis.scaling import scaling_table
from repro.cache import artifact_cache, configure, reset
from repro.core.channels import wavelengths_required
from repro.experiments import figure10_sweep

#: Port counts for the greedy scaling rows (128 ports → a 65-rack ring,
#: the expensive greedy_assignment call).
SCALING_PORTS = (16, 64, 128)


def _workload():
    fig10 = figure10_sweep()
    scale = scaling_table(SCALING_PORTS, method="greedy")
    return fig10, scale


def _timed_run(store: str):
    """One pass over the workload against ``store``, from cold memory."""
    configure(directory=store)
    # Drop the in-process L0 on wavelengths_required: the warm run must
    # go through the artifact cache, not functools.lru_cache.
    wavelengths_required.cache_clear()
    start = time.perf_counter()
    value = _workload()
    elapsed = time.perf_counter() - start
    return value, elapsed, artifact_cache().stats


def _cold_then_warm(store: str):
    cold_value, cold_s, cold_stats = _timed_run(store)
    warm_value, warm_s, warm_stats = _timed_run(store)
    return {
        "cold": (cold_value, cold_s, cold_stats),
        "warm": (warm_value, warm_s, warm_stats),
    }


def bench_cache_warmstart(benchmark, report, tmp_path):
    store = str(tmp_path / "store")
    try:
        outcome = benchmark.pedantic(
            _cold_then_warm, args=(store,), rounds=1, iterations=1
        )
    finally:
        reset()

    cold_value, cold_s, cold_stats = outcome["cold"]
    warm_value, warm_s, warm_stats = outcome["warm"]
    speedup = cold_s / warm_s

    lines = [
        "Artifact cache warm-start: Figure 10 sweep + greedy scaling table",
        f"{'phase':<6}{'wall-clock':>12}{'hits':>7}{'misses':>8}"
        f"{'hit rate':>10}{'disk read':>12}{'disk written':>14}",
        "-" * 69,
    ]
    for phase, seconds, stats in (
        ("cold", cold_s, cold_stats),
        ("warm", warm_s, warm_stats),
    ):
        lines.append(
            f"{phase:<6}{seconds:>10.2f} s{stats.hits:>7}{stats.misses:>8}"
            f"{stats.hit_rate:>9.0%}{stats.disk_bytes_read:>11} B"
            f"{stats.disk_bytes_written:>13} B"
        )
    lines.append("")
    lines.append(f"warm speedup: {speedup:.2f}x (acceptance floor: 2x)")
    report("cache_warmstart", "\n".join(lines))

    # Identical results, cold or warm — caching must never change output.
    assert warm_value == cold_value
    # Warm runs rebuild nothing: everything comes from the shared store.
    assert warm_stats.misses == 0
    assert warm_stats.hit_rate == 1.0
    assert speedup >= 2.0
