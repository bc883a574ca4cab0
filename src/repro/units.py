"""Unit constants and small helpers used throughout the library.

All quantities in the library are plain floats in SI base units:

* time in **seconds**
* data rates in **bits per second**
* data sizes in **bytes** (packet and flow sizes follow networking
  convention), converted to bits only where serialization is computed
* optical power in **dBm**, losses and gains in **dB**

The constants below exist so that call sites read like the paper
(``40 * GBPS``, ``6 * MICROSECONDS``) rather than as raw exponents.
"""

from __future__ import annotations

# --- time ------------------------------------------------------------------
SECONDS = 1.0
MILLISECONDS = 1e-3
MICROSECONDS = 1e-6
NANOSECONDS = 1e-9

# --- data rate -------------------------------------------------------------
BPS = 1.0
KBPS = 1e3
MBPS = 1e6
GBPS = 1e9

# --- data size -------------------------------------------------------------
BYTES = 1
KILOBYTES = 1000
BITS_PER_BYTE = 8


def serialization_delay(size_bytes: float, rate_bps: float) -> float:
    """Time to clock ``size_bytes`` onto a link of ``rate_bps``.

    >>> serialization_delay(400, 10 * GBPS)  # 400 B at 10 Gbps
    3.2e-07
    """
    if rate_bps <= 0:
        raise ValueError(f"link rate must be positive, got {rate_bps}")
    return (size_bytes * BITS_PER_BYTE) / rate_bps


def usec(seconds: float) -> float:
    """Express a time in microseconds (for reporting)."""
    return seconds / MICROSECONDS
