"""The fluid model's reading of a fault plan.

A fluid run given ``faults=`` (:class:`~repro.sim.simulator.SlotSimulator`)
overlays the plan's per-device channels on its own copy of the
configured environment (:func:`run_environment`), and its shard provider
collapses the edge on outage slots.  The federated fluid run does the
same with its plan's ``base`` channels and collapses each down edge:

* ``uplink_drop`` cuts the device's goodput to :data:`DROP_FACTOR` (2% —
  a retransmit-until-success MAC on a failing link): the Eq. 8 budget
  nearly vanishes, constraint-aware policies are forced to
  ``x_i(t) ≈ 0``, and constraint-*unaware* baselines pay the degraded
  serialisation cost in full;
* ``uplink_corrupt`` scales goodput by :data:`CORRUPT_FACTOR` (each byte
  is on the wire twice — the fluid analogue of retransmission);
* ``straggler`` divides the device's compute rate by the slowdown;
* ``edge_down`` leaves :data:`EDGE_DOWN_FACTOR` (5%, strictly positive to
  satisfy :class:`~repro.core.offloading.EdgeSystem` validation) of the
  edge capacity: edge service ``c_i(t) ≈ 0``, so ``H_i`` queues back up
  for the outage and drain after it — the signal
  :func:`~repro.resilience.slo.time_to_recovery` measures.

The factors are *fluid* degradation constants, deliberately not hard
zeros: the analytic cost model has no retry path, so a literal zero
would charge infinite time to transfers a real system simply re-sends
later.  The event simulators and the live runtime model drops and
crashes discretely instead.

The overlay is pure arithmetic on the plan's pre-realised arrays — no
RNG — so the scalar and array planes stay byte-identical.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..core.offloading import DeviceConfig, EdgeSystem, LiveFleet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.environment import DynamicEnvironment
    from .faults import FaultPlan

#: Goodput multiplier during an uplink drop.
DROP_FACTOR = 0.02
#: Goodput multiplier during corruption (retransmission halves it).
CORRUPT_FACTOR = 0.5
#: Share of the edge capacity left while the edge is out.
EDGE_DOWN_FACTOR = 0.05


def edge_down_system(system: EdgeSystem) -> EdgeSystem:
    """``system`` with its edge out: :data:`EDGE_DOWN_FACTOR` of its
    capacity, shares and partitions as deployed."""
    return replace(system, edge_flops=system.edge_flops * EDGE_DOWN_FACTOR)


def run_environment(
    configured: "DynamicEnvironment", plan: "FaultPlan | None"
) -> "DynamicEnvironment":
    """A run's own copy of the configured environment, under ``plan``'s
    device channels when there is a plan (``plan`` is as wide as the
    environment's fleet, in its device order)."""
    environment = copy.deepcopy(configured)
    return environment if plan is None else _FaultyEnvironment(plan, environment)


@dataclass
class _FaultyEnvironment:
    """A fault plan's device channels over a base environment.

    Attributes:
        plan: The realised fault schedule, as wide as the fleet.
        base: The environment supplying the fault-free conditions; its
            ``system_at`` extension, if any, passes through.
    """

    plan: FaultPlan
    base: DynamicEnvironment

    def __post_init__(self) -> None:
        # The columns of the last base fleet seen.
        self._fleet: LiveFleet | None = None

    def devices_at(
        self, slot: int, base: Sequence[DeviceConfig], rng: np.random.Generator
    ) -> Sequence[DeviceConfig]:
        devices = self.base.devices_at(slot, base, rng)
        if not self.plan.in_range(slot):
            return devices
        plan, t = self.plan, slot
        fleet = self._fleet = LiveFleet.of(devices, self._fleet)
        goodput = np.where(
            plan.uplink_drop[t] != 0,
            DROP_FACTOR,
            np.where(plan.uplink_corrupt[t] != 0, CORRUPT_FACTOR, 1.0),
        )
        return fleet.with_columns(
            flops=fleet.flops / plan.straggler[t],
            bandwidth=fleet.bandwidth * goodput,
        )

    def system_at(self, slot: int, base: EdgeSystem) -> EdgeSystem:
        """The base environment's system for ``slot``."""
        base_at = getattr(self.base, "system_at", None)
        return base if base_at is None else base_at(slot, base)
