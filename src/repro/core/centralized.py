"""Centralized solution of the per-slot problem P1' (§III-D4 reference).

The paper notes P1' is convex and solvable centrally (gradient descent,
quasi-Newton) but argues such solvers are "time-consuming in the case of
large-scale end device connections", motivating the decentralized
per-device rule.  This module provides the centralized reference: a joint
scipy optimisation over the whole ratio vector ``X(t)``.

Because the shares ``p_i`` are fixed offline (Appendix B), the Eq. 18
objective separates across devices, so the decentralized exact policy and
the centralized solve must land on the same optimum — which is precisely
what the ablation verifies, alongside the wall-clock gap that justifies
the paper's design choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .offloading import (
    DeviceConfig,
    EdgeSystem,
    LyapunovState,
    drift_plus_penalty,
    feasible_ratio_interval,
    slot_cost,
)


@dataclass
class CentralizedDriftPlusPenaltyPolicy:
    """Joint minimisation of ``Σ_i V·Y_i + Q_i(A_i−b_i) + H_i(D_i−c_i)``
    over the whole ratio vector with scipy's L-BFGS-B.

    Drop-in :class:`~repro.core.offloading.OffloadingPolicy`; used only as
    the ablation reference — it is strictly slower than the decentralized
    policy and (by separability) cannot be better.

    Attributes:
        v: Lyapunov trade-off parameter.
        restarts: Extra random restarts guarding against the objective's
            mild non-convexity near ``x = 0``.
    """

    v: float = 50.0
    restarts: int = 2

    def __post_init__(self) -> None:
        if self.v < 0:
            raise ValueError("V must be non-negative")
        if self.restarts < 0:
            raise ValueError("restarts must be non-negative")

    def decide(
        self,
        system: EdgeSystem,
        state: LyapunovState,
        arrivals: Sequence[float],
        devices: Sequence[DeviceConfig] | None = None,
    ) -> list[float]:
        # Imported here: SciPy is this ablation reference's alone, and
        # loading it with the package would slow every start-up.
        from scipy import optimize

        devs = tuple(devices) if devices is not None else system.devices
        n = len(devs)
        bounds = [
            feasible_ratio_interval(
                devs[i], system.partition, system.slot_length, arrivals[i]
            )
            for i in range(n)
        ]

        def objective(x: np.ndarray) -> float:
            total = 0.0
            for i in range(n):
                cost = slot_cost(
                    devs[i],
                    system,
                    float(min(max(x[i], bounds[i][0]), bounds[i][1])),
                    arrivals[i],
                    state.queue_local[i],
                    state.queue_edge[i],
                    system.shares[i],
                    include_tail=False,
                )
                total += drift_plus_penalty(
                    cost, state.queue_local[i], state.queue_edge[i], self.v
                )
            return total

        rng = np.random.default_rng(0)
        starts = [np.array([0.5 * (lo + hi) for lo, hi in bounds])]
        for _ in range(self.restarts):
            starts.append(
                np.array([rng.uniform(lo, hi) for lo, hi in bounds])
            )
        best_x: np.ndarray | None = None
        best_value = float("inf")
        for start in starts:
            result = optimize.minimize(
                objective,
                start,
                method="L-BFGS-B",
                bounds=bounds,
            )
            if result.fun < best_value:
                best_value = float(result.fun)
                best_x = result.x
        assert best_x is not None
        return [
            float(min(max(best_x[i], bounds[i][0]), bounds[i][1]))
            for i in range(n)
        ]
