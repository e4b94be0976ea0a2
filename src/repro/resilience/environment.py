"""Fault-plan replay through the slot simulator's environment seam.

:class:`FaultyEnvironment` wraps any base
:class:`~repro.sim.environment.DynamicEnvironment` (including a
:class:`~repro.traces.replay.TraceEnvironment`) and overlays the plan's
fault channels onto the fluid model's per-slot parameters:

* ``uplink_drop`` collapses the device's goodput by ``drop_factor``
  (default 2% — a retransmit-until-success MAC on a failing link): the
  Eq. 8 budget nearly vanishes, constraint-aware policies are forced to
  ``x_i(t) ≈ 0``, and constraint-*unaware* baselines pay the degraded
  serialisation cost in full;
* ``uplink_corrupt`` halves goodput (each byte is on the wire twice —
  the fluid analogue of retransmission);
* ``straggler`` divides the device's compute rate by the slowdown;
* ``edge_down`` collapses the shared edge capacity by
  ``edge_down_factor`` (default 5%, strictly positive to satisfy
  :class:`~repro.core.offloading.EdgeSystem` validation): edge service
  ``c_i(t) ≈ 0``, so ``H_i`` queues back up for the outage and drain
  after it — the signal :func:`~repro.resilience.slo.time_to_recovery`
  measures.

The factors are *fluid* degradation knobs, deliberately not hard zeros:
the analytic cost model has no retry path, so a literal zero would
charge infinite time to transfers a real system simply re-sends later.
The event simulator and live runtime take the plan directly
(``faults=...``) and model drops/crashes discretely instead.

The overlay is pure arithmetic on the plan's pre-realised arrays — no RNG
— so the scalar and vectorized simulator paths stay byte-identical, and
it composes with the base environment's own ``devices_at``/``system_at``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from ..core.offloading import DeviceConfig, EdgeSystem, LiveFleet
from ..sim.environment import DynamicEnvironment, StaticEnvironment
from .faults import FaultPlan


@dataclass
class FaultyEnvironment:
    """Overlay a :class:`~repro.resilience.faults.FaultPlan` on a base
    environment.

    Attributes:
        plan: The realised fault schedule.
        base: The environment supplying the fault-free conditions
            (static by default; pass a trace environment to compose wild
            dynamics with faults).
        drop_factor: Bandwidth multiplier during an uplink drop.
        corrupt_factor: Bandwidth multiplier during corruption
            (retransmission halves goodput).
        edge_down_factor: Edge-capacity multiplier during an outage
            (strictly positive — the system schema requires capacity).
    """

    plan: FaultPlan
    base: DynamicEnvironment = field(default_factory=StaticEnvironment)
    drop_factor: float = 0.02
    corrupt_factor: float = 0.5
    edge_down_factor: float = 0.05

    def __post_init__(self) -> None:
        if not 0 < self.drop_factor <= 1:
            raise ValueError("drop_factor must be in (0, 1]")
        if not 0 < self.corrupt_factor <= 1:
            raise ValueError("corrupt_factor must be in (0, 1]")
        if not 0 < self.edge_down_factor <= 1:
            raise ValueError("edge_down_factor must be in (0, 1]")
        # The columns of the last base fleet seen.
        self._fleet: LiveFleet | None = None
        # Rebuilding an EdgeSystem re-runs validation; cache the degraded
        # system while the live base system is unchanged.
        self._last_base: EdgeSystem | None = None
        self._last_system: EdgeSystem | None = None

    def devices_at(
        self, slot: int, base: Sequence[DeviceConfig], rng: np.random.Generator
    ) -> Sequence[DeviceConfig]:
        devices = self.base.devices_at(slot, base, rng)
        if len(devices) != self.plan.num_devices:
            raise ValueError(
                f"fault plan covers {self.plan.num_devices} devices but the "
                f"system has {len(devices)}"
            )
        if not self.plan.in_range(slot):
            return devices
        plan, t = self.plan, slot
        fleet = self._fleet = LiveFleet.of(devices, self._fleet)
        goodput = np.where(
            plan.uplink_drop[t] != 0,
            self.drop_factor,
            np.where(plan.uplink_corrupt[t] != 0, self.corrupt_factor, 1.0),
        )
        return fleet.with_columns(
            flops=fleet.flops / plan.straggler[t],
            bandwidth=fleet.bandwidth * goodput,
        )

    def edge_down_at(self, slot: int) -> bool:
        """Whether the edge is out during ``slot`` (the fluid simulator
        flushes its QoS warm pool on such slots)."""
        return self.plan.edge_down_at(slot)

    def system_at(self, slot: int, base: EdgeSystem) -> EdgeSystem:
        """The system in effect during ``slot`` (outage-degraded edge)."""
        base_at = getattr(self.base, "system_at", None)
        live = base if base_at is None else base_at(slot, base)
        if not self.edge_down_at(slot):
            return live
        if live is not self._last_base or self._last_system is None:
            self._last_system = replace(
                live, edge_flops=live.edge_flops * self.edge_down_factor
            )
            self._last_base = live
        return self._last_system
