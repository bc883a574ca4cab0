"""The queueing-theory reference used to validate the packet simulator.

The paper: "We have performed extensive validation testing of our
simulator to ensure that it produces correct results that match queuing
theory."  We do the same: Poisson arrivals into a fixed-rate output port
with fixed-size packets form an M/D/1 queue.
``tests/sim/test_queueing_validation.py`` drives the simulator with that
traffic and checks the measured mean waiting time against the M/D/1
formula here.
"""

from __future__ import annotations


class QueueingError(ValueError):
    """Raised for invalid (unstable or degenerate) queue parameters."""


def _check(arrival_rate: float, service_rate: float) -> float:
    if arrival_rate <= 0 or service_rate <= 0:
        raise QueueingError("rates must be positive")
    rho = arrival_rate / service_rate
    if rho >= 1:
        raise QueueingError(f"unstable queue: utilization {rho:.3f} ≥ 1")
    return rho


def md1_mean_wait(arrival_rate: float, service_time: float) -> float:
    """Mean time in queue for M/D/1 (Pollaczek–Khinchine, deterministic
    service): ``W = ρ · S / (2 (1 − ρ))``."""
    if service_time <= 0:
        raise QueueingError("service time must be positive")
    rho = _check(arrival_rate, 1.0 / service_time)
    return rho * service_time / (2 * (1 - rho))
