"""Shared helpers for the benchmark harness.

Each ``bench_*`` module regenerates one table or figure from the paper's
evaluation.  The regenerated table is written to ``benchmarks/results/``
and echoed to the real stdout (bypassing pytest capture) so that
``pytest benchmarks/ --benchmark-only | tee bench_output.txt`` preserves
it; pytest-benchmark's own timing table covers the runtime cost of each
experiment.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture()
def report():
    """Write a named experiment table to disk and the terminal."""

    def _report(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        sys.__stdout__.write(f"\n{text}\n[saved to {path}]\n")
        sys.__stdout__.flush()

    return _report

