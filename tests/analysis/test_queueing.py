"""Tests for the M/D/1 reference formula."""

import pytest

from repro.analysis.queueing import QueueingError, md1_mean_wait


class TestMD1:
    def test_md1_is_half_of_mm1_wait(self):
        # Deterministic service halves the queueing delay: M/M/1 at
        # λ = 5, µ = 10 waits ρ / (µ − λ) = 0.1.
        assert md1_mean_wait(5.0, 0.1) == pytest.approx(0.1 / 2)

    def test_invalid_inputs(self):
        with pytest.raises(QueueingError):
            md1_mean_wait(5, 0)
        with pytest.raises(QueueingError):
            md1_mean_wait(-1, 0.1)
        with pytest.raises(QueueingError, match="unstable"):
            md1_mean_wait(10, 0.1)

