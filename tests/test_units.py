"""Tests for unit helpers."""

import pytest
from hypothesis import given, strategies as st

from repro.units import (
    GBPS,
    MICROSECONDS,
    serialization_delay,
    usec,
)


class TestSerialization:
    def test_known_values(self):
        # 400 B at 10 Gbps = 320 ns; 1500 B at 1 Gbps = 12 µs.
        assert serialization_delay(400, 10 * GBPS) == pytest.approx(320e-9)
        assert serialization_delay(1500, 1 * GBPS) == pytest.approx(12e-6)

    def test_zero_rate_rejected(self):
        with pytest.raises(ValueError):
            serialization_delay(100, 0)

    @given(st.floats(1, 1e5), st.floats(1e6, 1e12))
    def test_property_scales_linearly(self, size, rate):
        assert serialization_delay(2 * size, rate) == pytest.approx(
            2 * serialization_delay(size, rate)
        )


class TestReportingHelpers:
    def test_usec(self):
        assert usec(1.5 * MICROSECONDS) == pytest.approx(1.5)
