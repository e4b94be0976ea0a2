"""One edge's per-slot control decision, shared by every execution path.

LEIME's online controller (§III-D) is one decision per slot; the overload
and QoS layers add the ladder's rung, each device's class-biased rung,
the warm pool's loads and holds, backpressure on the policy's ratios,
and integral admission.  :class:`SlotController` makes all of them in
one order, from plain picklable state, each step one array expression
over the whole slot.  Each path only realises the plan
on its own data plane: exit thresholds and slice holds (both event
engines), the served system and warm-up jobs (live runtime), degraded
shard systems and share scales (fluid, one controller per shard; the
fluid loop clamps a whole slot in one backpressure call over every
shard's rungs).

The QoS helpers are looked up through their module at call time, so
instrumentation that patches them by name sees every call.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from . import qos as _qos
from .overload import MODE_FULL, AdmissionGate, OverloadControl, OverloadGovernor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.offloading import EdgeSystem


class SlotController:
    """One edge's slot control state: ladder, gate, warm pool, rung log.

    Args:
        num_devices: Devices the rung vector covers (a federation shard
            uses the global numbering, like its QoS state).
        overload: Enables the ladder, backpressure and, with ``gate``,
            integral admission; ``None`` keeps every device at
            :data:`~repro.resilience.overload.MODE_FULL`.
        qos: A :class:`~repro.resilience.qos.QoSState` for class-biased
            rungs and the warm pool; ``None`` plans no holds.
        gate: Build the admission gate (the fluid loop keeps one global
            gate instead).

    Attributes:
        log: The ladder's rung after each observed slot.
        rungs: Per-device rungs of the latest :meth:`plan` (an int
            array).
    """

    def __init__(
        self,
        num_devices: int,
        overload: OverloadControl | None = None,
        qos: "_qos.QoSState | None" = None,
        *,
        gate: bool = True,
    ):
        self.num_devices = num_devices
        self.ladder = None
        self.gate = None
        if overload is not None:
            self.ladder = OverloadGovernor(overload, num_devices)
            if gate:
                self.gate = AdmissionGate(overload, num_devices)
        self.qos = qos
        self.log: list[int] = []
        self.rungs = np.full(num_devices, MODE_FULL)
        self._backlogs: Sequence[float] = ()

    @classmethod
    def for_system(
        cls,
        system: "EdgeSystem",
        seed: int,
        overload: OverloadControl | None,
        qos: "_qos.QoSConfig | None",
    ) -> "SlotController":
        """A fresh controller for one run over a whole system."""
        qstate = None if qos is None else _qos.QoSState(qos, system, seed)
        return cls(system.num_devices, overload, qstate)

    @property
    def mode(self) -> int:
        """The ladder's current global rung."""
        return MODE_FULL if self.ladder is None else self.ladder.mode

    def plan(
        self,
        slot: int,
        w0: float,
        backlogs: Sequence[float] | None,
        expected: Sequence[float],
        edge_down: bool = False,
    ) -> tuple[np.ndarray, list[float] | None]:
        """The slot's per-device rungs (an int array) and warm-pool holds.

        The ladder folds in ``backlogs`` (``Q_i + H_i`` of the devices it
        serves, a list or an array; an empty vector holds the rung, as
        for an unpopulated shard).  An edge outage flushes the warm pool
        and holds nothing; otherwise ``holds[i]`` is the absolute time
        device ``i``'s slice turns warm (``<= w0``: no hold).  ``holds``
        is ``None`` without QoS.
        """
        ladder = self.ladder
        if ladder is not None and backlogs is not None and len(backlogs):
            ladder.observe(slot, backlogs)
            self.log.append(ladder.mode)
            self._backlogs = backlogs
        qstate = self.qos
        if qstate is None:
            # Uniform rungs: rebuilt only when the ladder moves (no
            # caller writes into them).
            if self.rungs[0] != self.mode:
                self.rungs = np.full(self.num_devices, self.mode)
            return self.rungs, None
        self.rungs = rungs = qstate.plan_modes(self.mode, expected)
        if edge_down:
            qstate.flush()
            return rungs, [w0] * self.num_devices
        requested = qstate.requested_mask(expected, rungs)
        return rungs, qstate.on_slot(slot, w0, requested)

    def backpressure(
        self, ratios: Sequence[float], queue_edge: Sequence[float]
    ) -> Sequence[float]:
        """Clamp the policy's ratios by rung and edge watermark, as a
        float64 array (as given when ungoverned)."""
        if self.ladder is None:
            return ratios
        return _qos.apply_backpressure_by_mode(
            ratios, queue_edge, self.ladder.control, self.rungs
        )

    def admit(self, counts: Sequence[int]) -> Sequence[int]:
        """How many of each device's ``counts`` tasks are admitted (as
        given when ungoverned).  Call once per slot with every device's
        count, zeros included: every bucket refills per call."""
        if self.gate is None:
            return counts
        return self.gate.admit_count(counts, self._backlogs, self.rungs)
