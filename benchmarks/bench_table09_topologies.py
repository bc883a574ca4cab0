"""Table 9: comparison of ~1000-port network structures.

Builds the paper's five candidate design elements at the quoted sizes
and prints every column: no-congestion latency, 64-port switch count,
wiring complexity (cross-rack links), and path diversity, beside the
paper's row.  ``tests/topology/test_metrics.py::TestTable9`` asserts
every printed value, and states the deviations (BCube's switch count
and wiring, Jellyfish's diversity).
"""

import repro.topology as T
from repro.analysis.latency import table9_latency
from repro.topology.metrics import worst_case_hop_profile
from repro.units import usec


def _row(topo, hop_sample=48):
    profile = worst_case_hop_profile(topo, sample=hop_sample)
    return {
        "latency_us": usec(table9_latency(profile)),
        "switch_hops": profile.switch_hops,
        "server_hops": profile.server_relay_hops,
        "switches": T.switch_count(topo),
        "wiring": T.wiring_complexity(topo),
        "diversity": T.path_diversity(topo),
    }


def bench_table09(benchmark, report):
    def build_all():
        return {
            "2-tier tree": _row(T.two_tier_tree(16, 2)),
            "fat-tree (folded Clos)": _row(T.folded_clos(32, 16, 2, 1)),
            "BCube(32,1)": _row(T.bcube(32, 1), hop_sample=24),
            "jellyfish": _row(T.jellyfish(24, 20, 1, seed=1)),
            "mesh (Quartz)": _row(T.full_mesh(33, 1)),
        }

    rows = benchmark.pedantic(build_all, rounds=1, iterations=1)

    paper = {
        "2-tier tree": (1.5, 17, 16, 1),
        "fat-tree (folded Clos)": (1.5, 48, 1024, 32),
        "BCube(32,1)": (16.0, 32, 960, 2),
        "jellyfish": (1.5, 24, 240, 32),
        "mesh (Quartz)": (1.0, 33, 528, 32),
    }
    header = (
        f"{'structure':<24}{'lat (us)':>9}{'switches':>9}{'wiring':>8}"
        f"{'divers.':>8}   paper: (lat, sw, wiring, div)"
    )
    lines = ["Table 9: network structures with ~1k ports", header, "-" * len(header)]
    for name, row in rows.items():
        lines.append(
            f"{name:<24}{row['latency_us']:>9.1f}{row['switches']:>9}"
            f"{row['wiring']:>8}{row['diversity']:>8}   {paper[name]}"
        )
    report("table09_topologies", "\n".join(lines))
