"""Hybrid packet/flow engine: accuracy and speedup vs the pure-packet oracle.

Two gates, two scenarios (ISSUE 8 acceptance):

* **Accuracy** — small ring, moderate persistent background (~20 %
  fabric load).  Foreground incast latency under the hybrid residual
  handoff must track the oracle (every background packet simulated):
  mean error ≤ 5 %, p99 error ≤ 50 %.  The tail bound is loose by
  design — the fluid model deliberately erases packet-level background
  burstiness, which is most of what the oracle's p99 is made of (see
  the accuracy caveats in API.md).
* **Speedup** — matched mid-size ring, heavy long-lived background
  (the regime the hybrid engine exists for: many packets per epoch).
  Hybrid wall-clock must beat the oracle's ≥ 5×; measured headroom is
  ~2× on top of the gate.  Its foreground error is printed beside the
  speedup and not gated: under this load the hybrid over-states the
  foreground mean by 1.7–2.8× (API.md caveat (a)).

Both scenarios' numbers are printed to ``hybrid_scale.txt``, so a
regression in either the solver's epoch cost or the residual handoff's
fidelity shows up as number drift, not just pass/fail.
"""

from repro.experiments import run_hybrid_scale_cell

#: Foreground-latency error bounds vs the oracle (accuracy scenario).
MEAN_ERR_GATE = 0.05
P99_ERR_GATE = 0.50
#: Minimum hybrid-over-oracle wall-clock ratio (speedup scenario).
SPEEDUP_GATE = 5.0

ACCURACY_SCENARIO = dict(
    fabric="quartz-ring-small",
    n_background=40,
    fg_fan=4,
    bg_demand_bps=5e8,
    duration=2e-2,
    bg_mean_duration=1e-2,
    seed=0,
)
SPEEDUP_SCENARIO = dict(
    fabric="quartz-ring-mid",
    n_background=300,
    fg_fan=8,
    bg_demand_bps=2e9,
    duration=3e-2,
    bg_mean_duration=1.5e-2,
    seed=0,
)


def _relative_error(hybrid, oracle):
    return abs(hybrid - oracle) / oracle


def _signed_error(hybrid, oracle):
    return (hybrid - oracle) / oracle


def bench_hybrid_scale(benchmark, report):
    def run():
        cells = {}
        for name, scenario in (
            ("accuracy", ACCURACY_SCENARIO),
            ("speedup", SPEEDUP_SCENARIO),
        ):
            cells[name] = {
                mode: run_hybrid_scale_cell(mode=mode, **scenario)
                for mode in ("hybrid", "oracle")
            }
        return cells

    cells = benchmark.pedantic(run, rounds=1, iterations=1)

    acc_h, acc_o = cells["accuracy"]["hybrid"], cells["accuracy"]["oracle"]
    spd_h, spd_o = cells["speedup"]["hybrid"], cells["speedup"]["oracle"]
    mean_err = _relative_error(acc_h.fg_mean, acc_o.fg_mean)
    p99_err = _relative_error(acc_h.fg_p99, acc_o.fg_p99)
    speedup = spd_o.wall_clock_s / spd_h.wall_clock_s

    lines = [
        "Hybrid engine vs pure-packet oracle",
        f"accuracy scenario ({acc_h.fabric}, {acc_h.n_background} bg flows):",
        f"  fg mean  hybrid {acc_h.fg_mean * 1e6:8.2f} us"
        f"  oracle {acc_o.fg_mean * 1e6:8.2f} us  err {mean_err:.3f}",
        f"  fg p99   hybrid {acc_h.fg_p99 * 1e6:8.2f} us"
        f"  oracle {acc_o.fg_p99 * 1e6:8.2f} us  err {p99_err:.3f}"
        f"  (advisory, gate <= {P99_ERR_GATE:.2f})",
        "  p99 error is advisory by design: the oracle's tail is mostly",
        "  background packet burstiness, which the fluid model removes;",
        "  the mean is work-conserving, the variance is not (API.md).",
        f"speedup scenario ({spd_h.fabric}, {spd_h.n_background} bg flows):",
        f"  wall     hybrid {spd_h.wall_clock_s:8.2f} s "
        f"  oracle {spd_o.wall_clock_s:8.2f} s   speedup {speedup:.1f}x",
        f"  epochs   {spd_h.epochs} ({spd_h.residual_epochs} residual)"
        f"  oracle packets {spd_o.packets_delivered}",
        f"  fg mean  hybrid {spd_h.fg_mean * 1e6:8.2f} us"
        f"  oracle {spd_o.fg_mean * 1e6:8.2f} us  err {_signed_error(spd_h.fg_mean, spd_o.fg_mean):+.3f}",
        f"  fg p99   hybrid {spd_h.fg_p99 * 1e6:8.2f} us"
        f"  oracle {spd_o.fg_p99 * 1e6:8.2f} us  err {_signed_error(spd_h.fg_p99, spd_o.fg_p99):+.3f}",
        "  not gated: where the hybrid is fast, its fluid background",
        "  over-states the foreground's queueing (API.md caveat (a)).",
    ]
    report("hybrid_scale", "\n".join(lines))

    # Sanity on the scenarios themselves before gating on them.
    assert acc_h.foreground.count > 0 and acc_o.foreground.count > 0
    assert spd_h.epochs > 0 and spd_h.residual_epochs > 0
    assert spd_o.packets_delivered > spd_h.packets_delivered  # oracle pays

    # Acceptance gates (ISSUE 8).
    assert mean_err <= MEAN_ERR_GATE, f"fg mean error {mean_err:.3f}"
    assert p99_err <= P99_ERR_GATE, f"fg p99 error {p99_err:.3f}"
    assert speedup >= SPEEDUP_GATE, f"speedup {speedup:.1f}x"
