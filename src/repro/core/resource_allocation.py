"""Edge compute-share allocation across devices (Appendix B).

The edge server divides its FLOPS among the ``N`` connected devices with
shares ``p_i`` (``Σ p_i = 1``, ``p_i ≥ 0`` — the paper's Docker resource
isolation).  Appendix B minimises the mean per-task processing time

    f(P) = (1/Σk_i) · Σ_i  k_i·(μ₁ + (1−σ₁)·μ₂) / (F_i^d + p_i·F^e)   (Eq. 26)

which is convex in ``P``; the KKT solution is the square-root water-filling
of Eq. 27:

    p_i = √k_i·(Σ_j F_j^d + F^e) / (F^e·Σ_j √k_j) − F_i^d / F^e.

Eq. 27 can go negative for a fast device with few tasks; the paper's
formula implicitly assumes an interior solution.  We implement the full
active-set KKT: devices whose unconstrained share is negative are pinned to
``p_i = 0`` and the water level is re-solved over the remainder — standard
water-filling, and exactly what the KKT conditions with the ``p_i ≥ 0``
multipliers give.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


def _validate(
    device_flops: Sequence[float], arrival_rates: Sequence[float]
) -> np.ndarray:
    """Check the inputs as arrays; returns the arrival rates as one."""
    if len(device_flops) != len(arrival_rates):
        raise ValueError("device_flops and arrival_rates must have equal length")
    if not len(device_flops):
        raise ValueError("need at least one device")
    if (np.asarray(device_flops, dtype=np.float64) <= 0).any():
        raise ValueError("device FLOPS must be positive")
    rates = np.asarray(arrival_rates, dtype=np.float64)
    if (rates < 0).any():
        raise ValueError("arrival rates must be non-negative")
    return rates


def _validate_kkt(
    device_flops: Sequence[float],
    arrival_rates: Sequence[float],
    edge_flops: float,
) -> np.ndarray:
    rates = _validate(device_flops, arrival_rates)
    if edge_flops <= 0:
        raise ValueError("edge FLOPS must be positive")
    return rates


def _listed(values: Sequence[float]) -> Sequence[float]:
    """A float64 column as a list of Python floats; a sequence as is."""
    return values.tolist() if isinstance(values, np.ndarray) else values


def kkt_edge_allocation(
    device_flops: Sequence[float],
    arrival_rates: Sequence[float],
    edge_flops: float,
) -> list[float]:
    """Optimal edge shares ``p_i`` (Eq. 27 with the active-set extension).

    Args:
        device_flops: ``F_i^d`` per device (a sequence or a float64
            column; a column is solved as a list of Python floats).
        arrival_rates: expected tasks per slot ``k_i`` per device.
        edge_flops: total edge capacity ``F^e``.

    Returns:
        Shares summing to 1 (devices with ``k_i = 0`` can receive 0).

    Raises:
        ValueError: on inconsistent inputs or non-positive edge capacity.
    """
    _validate_kkt(device_flops, arrival_rates, edge_flops)
    device_flops, arrival_rates = _listed(device_flops), _listed(arrival_rates)
    n = len(device_flops)
    if all(k == 0 for k in arrival_rates):
        # No demand: the objective is flat; fall back to a uniform split.
        return [1.0 / n] * n

    active = [i for i in range(n) if arrival_rates[i] > 0]
    shares = [0.0] * n
    while True:
        sqrt_k = sum(math.sqrt(arrival_rates[i]) for i in active)
        total_active_device = sum(device_flops[i] for i in active)
        # Interior solution over the active set: Eq. 27 restricted to it.
        level = (total_active_device + edge_flops) / (edge_flops * sqrt_k)
        candidate = {
            i: math.sqrt(arrival_rates[i]) * level - device_flops[i] / edge_flops
            for i in active
        }
        negative = {i for i in active if candidate[i] < 0}
        if not negative:
            for i in active:
                shares[i] = candidate[i]
            break
        # Pin the violators to zero and re-solve over the rest.
        active = [i for i in active if i not in negative]
        if not active:
            # Pathological: every device is so fast it wants no edge help.
            # Give everything to the slowest device (any feasible point has
            # the same objective up to the monotone tail).
            slowest = min(range(n), key=lambda i: device_flops[i])
            shares = [0.0] * n
            shares[slowest] = 1.0
            return shares
    # Numerical cleanup: clamp and renormalise to the simplex.
    total = sum(shares)
    return [s / total for s in shares]


def floored_edge_allocation(
    device_flops: Sequence[float],
    arrival_rates: Sequence[float],
    edge_flops: float,
    min_share: float = 0.01,
) -> list[float]:
    """The KKT allocation with a minimum share for every active device.

    Eq. 26 only models *first-block* processing time, so its KKT solution
    happily pins a fast device's share to zero — but a σ₁ < 1 deployment
    sends every device's non-exited tasks to the edge for second-block
    inference, and a zero slice would stall them forever.  Deployments
    therefore floor every device with non-zero arrivals at ``min_share``
    and renormalise; the paper's Docker-based edge behaves the same way (a
    container always retains a CPU quantum).

    When the floors alone fill the budget (``active · min_share ≥ 1``,
    e.g. 100 or more active devices at the default 1 %) every device gets
    ``1/n`` and the KKT problem is never solved.  The inputs may be
    float64 columns (a federation shard's gathered members): they are
    checked and counted as arrays, and solved as lists of Python floats,
    so the solve's sums keep their order.
    """
    if not 0.0 <= min_share < 1.0:
        raise ValueError("min_share must be in [0, 1)")
    if min_share == 0.0:
        return kkt_edge_allocation(device_flops, arrival_rates, edge_flops)
    # Check the inputs here too: the uniform split below skips the solve
    # that would otherwise reject them.
    rates = _validate_kkt(device_flops, arrival_rates, edge_flops)
    num_active = int(np.count_nonzero(rates > 0))
    if not num_active or num_active * min_share >= 1.0:
        # Degenerate: floors alone exceed the budget; split evenly.
        n = len(device_flops)
        return [1.0 / n] * n
    arrival_rates = _listed(arrival_rates)
    shares = kkt_edge_allocation(device_flops, arrival_rates, edge_flops)
    floored = [
        max(s, min_share) if k > 0 else s for s, k in zip(shares, arrival_rates)
    ]
    total = sum(floored)
    return [s / total for s in floored]


def proportional_allocation(
    device_flops: Sequence[float],
    arrival_rates: Sequence[float],
    edge_flops: float,
) -> list[float]:
    """Ablation baseline: shares proportional to arrival rates ``k_i``."""
    _validate(device_flops, arrival_rates)
    total = sum(arrival_rates)
    n = len(arrival_rates)
    if total == 0:
        return [1.0 / n] * n
    return [k / total for k in arrival_rates]


def uniform_allocation(
    device_flops: Sequence[float],
    arrival_rates: Sequence[float],
    edge_flops: float,
) -> list[float]:
    """Ablation baseline: equal shares regardless of demand."""
    _validate(device_flops, arrival_rates)
    n = len(device_flops)
    return [1.0 / n] * n


def mean_processing_time(
    shares: Sequence[float],
    device_flops: Sequence[float],
    arrival_rates: Sequence[float],
    edge_flops: float,
    work_per_task: float,
) -> float:
    """The Appendix B objective ``f(P)`` (Eq. 26) for a given allocation.

    ``work_per_task`` is ``μ₁ + (1−σ₁)·μ₂`` — the expected FLOPs a task
    costs across device and edge.
    """
    _validate(device_flops, arrival_rates)
    if len(shares) != len(device_flops):
        raise ValueError("shares length mismatch")
    total_k = sum(arrival_rates)
    if total_k == 0:
        return 0.0
    acc = 0.0
    for p, f_d, k in zip(shares, device_flops, arrival_rates):
        acc += k * work_per_task / (f_d + p * edge_flops)
    return acc / total_k

