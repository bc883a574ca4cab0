"""Per-layer attribution for the traced run: spans, profile folding, counters.

Layers are the repo's modules.  Three sources feed them, all read from
the harness's own files — nothing under ``src/`` is instrumented here:

* :class:`SpanLog` — phase spans (name, start, end, parent) around the
  public calls the harness makes, kept in memory until the run ends;
* :func:`fold_profile` — a ``cProfile`` of the timed steps, each
  function's self time and primitive call count folded into the module
  it lives in;
* ``repro.obs`` counters and ``repro.cache.describe()``.

Call counts repeat exactly from run to run; self times are inflated by
the profiler and are best read as shares of the traced wall.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from typing import Iterator

#: (path fragment, layer), first match wins.  Everything else under the
#: profile is ``other`` (topology, core, workloads, cache, the standard
#: library, the harness itself).  ``obs`` is armed in the traced run only,
#: so its self time is part of the tracing overhead, not of ``wall_s``.
LAYER_RULES = (
    ("repro/sim/network.py", "sim.network"),
    ("repro/sim/fastpath.py", "sim.fastpath"),
    ("repro/sim/engine.py", "sim.engine"),
    ("repro/sim/sources.py", "sim.sources"),
    ("repro/sim/stats.py", "sim.stats"),
    ("repro/sim/faults.py", "sim.faults"),
    ("repro/sim/parallel.py", "sim.parallel"),
    ("repro/routing/", "routing"),
    ("repro/flowsim/", "flowsim"),
    ("repro/hybrid/", "hybrid"),
    ("repro/runner/", "runner"),
    ("repro/obs/", "obs"),
    ("/numpy/", "numpy"),
    ("/scipy/", "numpy"),
    ("/networkx/", "networkx"),
)
LAYERS = tuple(dict.fromkeys(layer for _, layer in LAYER_RULES)) + ("other",)


class SpanLog:
    """Nested wall-clock spans recorded by the harness."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[str] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        self._stack.append(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans.append(
                {"name": name, "start": start, "end": time.perf_counter(),
                 "parent": parent}
            )

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)


def _layer_of(filename: str) -> str:
    path = filename.replace("\\", "/")
    for fragment, layer in LAYER_RULES:
        if fragment in path:
            return layer
    return "other"


def fold_profile(stats: dict) -> dict[str, dict[str, float]]:
    """Fold ``pstats`` entries into ``{layer: {"self_s", "calls"}}``.

    ``stats`` maps ``(file, line, name)`` to ``(primitive calls, calls,
    self time, cumulative time, callers)``.  Built-ins and C-extension
    calls have no file (``"~"``): their self time is charged to the
    layers of their callers, in proportion to the per-caller self time
    the profiler recorded on each edge, and their call counts are not
    added to any layer (``calls`` counts Python functions only).
    """
    folded = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    for (filename, _line, _name), (prim, _n, self_s, _cum, callers) in stats.items():
        if filename != "~":
            layer = folded[_layer_of(filename)]
            layer["self_s"] += self_s
            layer["calls"] += prim
            continue
        edge_total = sum(edge[2] for edge in callers.values())
        if edge_total <= 0.0:
            folded["other"]["self_s"] += self_s
            continue
        for (caller_file, _l, _n2), edge in callers.items():
            owner = "other" if caller_file == "~" else _layer_of(caller_file)
            folded[owner]["self_s"] += self_s * edge[2] / edge_total
    return folded


def cumulative_seconds(stats: dict, fragment: str, names: tuple[str, ...]) -> float:
    """Cumulative profiled time of the named functions in one file."""
    return sum(
        entry[3]
        for (filename, _line, name), entry in stats.items()
        if name in names and fragment in filename.replace("\\", "/")
    )


def chrome_trace(spans: list[dict], obs_spans, pid: int) -> dict:
    """Harness spans plus ``repro.obs`` spans as one Chrome trace."""
    from repro.obs import Span, export_chrome

    merged = [
        Span(s["name"], s["start"], s["end"] - s["start"], pid, 0,
             {"parent": s["parent"]})
        for s in spans
    ]
    merged += list(obs_spans)
    return export_chrome(merged, process_labels={pid: "benchmark child"})


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, min(len(ordered), math.ceil(q * len(ordered))) - 1)]
