"""Figure 10: normalized throughput for three DCN traffic patterns.

Quartz (demand-adaptive VLB over one- and two-hop paths) against full-,
half- and quarter-bisection reference fabrics under random permutation,
incast, and rack-level shuffle.  Prints the table; tier-1's
``tests/test_experiments.py::TestFigure10Claims`` asserts every bar and
the paper's ordering.
"""

from repro.experiments import figure10_sweep, format_figure10
from repro.textplot import bar_chart


def bench_fig10(benchmark, report):
    results = benchmark(figure10_sweep)
    bars = "\n\n".join(
        bar_chart(
            {
                r.fabric: r.normalized_throughput
                for r in results
                if r.pattern == pattern
            },
            title=pattern,
        )
        for pattern in ("random permutation", "incast", "rack level shuffle")
    )
    report("fig10_bisection", format_figure10(results) + "\n\n" + bars)
