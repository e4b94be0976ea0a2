"""Closed-form queueing checks for the event simulator.

The event simulator is the testbed substitute, so its FIFO mechanics must
match queueing theory where theory has answers.  This module computes the
classical M/D/1 and M/M/1 reference values the test suite compares
simulated waits against:

* tasks arriving Poisson(λ) at a single FIFO server with deterministic
  service ``s`` form an **M/D/1** queue: mean wait in queue
  ``W_q = λ·s² / (2·(1 − ρ))`` with ``ρ = λ·s`` (Pollaczek-Khinchine);
* with exponential service (mean ``s``) it is **M/M/1**:
  ``W_q = ρ·s / (1 − ρ)``.

A simulator whose single-server waits match P-K inherits credibility for
the multi-stage topologies the experiments use.
"""

from __future__ import annotations


def utilisation(arrival_rate: float, service_time: float) -> float:
    """``ρ = λ·s``; must be < 1 for a stable queue."""
    if arrival_rate < 0 or service_time < 0:
        raise ValueError("rate and service time must be non-negative")
    return arrival_rate * service_time


def md1_mean_wait(arrival_rate: float, service_time: float) -> float:
    """Pollaczek-Khinchine mean queueing delay for M/D/1 (excluding
    service)."""
    rho = utilisation(arrival_rate, service_time)
    if rho >= 1:
        raise ValueError(f"unstable queue: utilisation {rho:.3f} >= 1")
    return arrival_rate * service_time**2 / (2.0 * (1.0 - rho))


def md1_mean_sojourn(arrival_rate: float, service_time: float) -> float:
    """Mean time in system (wait + service) for M/D/1."""
    return md1_mean_wait(arrival_rate, service_time) + service_time


def mm1_mean_wait(arrival_rate: float, mean_service_time: float) -> float:
    """Mean queueing delay for M/M/1 (excluding service)."""
    rho = utilisation(arrival_rate, mean_service_time)
    if rho >= 1:
        raise ValueError(f"unstable queue: utilisation {rho:.3f} >= 1")
    return rho * mean_service_time / (1.0 - rho)

