"""Overload control: admission, backpressure, and a degradation ladder.

The paper's P1 controller promises an ``O(B/V)`` optimality gap *subject
to queue stability* (Theorem 3) — it has no answer when a flash crowd
pushes arrivals past the joint device+edge+cloud capacity, because then
no offloading ratio ``x_i(t)`` stabilises Eqs. 10-11 and every execution
path in this repo diverges.  This module keeps the system inside its
stability region with three cooperating mechanisms, shared by the fluid
slot paths (scalar + vectorized), both event engines, and the live
runtime so a governed run stays byte-identical across paths:

1. **Admission control / load shedding** (:class:`AdmissionGate`) — a
   per-device token bucket combined with a queue-watermark hysteresis:
   a device starts shedding when its backlog ``Q_i + H_i`` crosses
   ``queue_high`` and stops only once it falls back under ``queue_low``;
   while shedding, admissions are limited to the bucket's token
   allowance.  Shed tasks are terminal and extend the SLO identity to
   ``generated = completed + dropped + shed + in-flight``.
2. **Backpressure** (:func:`apply_backpressure`, plus bounded queues in
   :class:`~repro.runtime.node.RuntimeNode`) — a saturated edge queue
   clamps that device's offloading ratio to 0 so ``x_i(t)`` reacts to
   edge congestion before the fluid model's V-weighted drift term would.
3. **Degradation ladder** (:class:`OverloadGovernor`) — a monitor that
   watches the fleet-mean backlog and steps through graceful modes
   (full three-exit plan → force Second-exit service → First-exit-only
   local inference → shed), each rung trading exit depth for service
   rate, the multi-exit-specific escape hatch.  Rungs are realised by
   degrading the deployed partition's cumulative exit rates
   (:func:`degrade_partition`), so every layer — fluid cost model, event
   engines' exit coins, live runtime — observes the same σ override.
   The governor steps *up* after ``patience`` consecutive hot slots and
   back *down* only after ``cooldown`` consecutive cool slots
   (hysteresis).

:class:`~repro.resilience.control.SlotController` runs the three in one
per-slot order for every path.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..models.multi_exit import PartitionedModel
    from .qos import QoSFlow

#: Ladder rungs, shallow to deep.  Deeper rungs shed more work: each one
#: raises the effective per-task service rate by cutting exit depth, and
#: the last admits nothing at all until the backlog drains.
MODE_FULL = 0  # the deployed three-exit plan, untouched
MODE_SECOND_EXIT = 1  # force every non-First task to exit at the Second
MODE_FIRST_EXIT = 2  # First-exit only, computed locally (x_i forced 0)
MODE_SHED = 3  # admit nothing; serve out the backlog

MODE_NAMES = ("full", "second-exit", "first-exit-local", "shed")


@dataclass(frozen=True)
class OverloadControl:
    """Configuration for the overload-control layer.

    Watermarks are per-device backlogs (``Q_i + H_i`` in tasks): a device
    sheds above ``queue_high`` and recovers below ``queue_low``; the
    governor steps the ladder on the fleet-*mean* backlog against the
    same pair.  The gap between the two watermarks is the hysteresis
    band — inside it, nothing changes state, so a backlog hovering at
    the threshold cannot flap admission on and off every slot.

    Attributes:
        queue_high: Backlog (tasks) above which a device sheds and a
            slot counts as *hot* for the ladder.
        queue_low: Backlog below which shedding stops and a slot counts
            as *cool*; must be below ``queue_high``.
        token_rate: Admission tokens refilled per device per slot while
            shedding — the trickle that keeps latency measurements alive
            under sustained overload.
        bucket_depth: Token-bucket cap (burst allowance).
        queue_capacity: Bound on each fluid/runtime queue (tasks); the
            overflow above it is shed.  ``None`` disables the bound.
        patience: Consecutive hot slots before the ladder steps one
            rung deeper.
        cooldown: Consecutive cool slots before it steps one rung back.
        max_mode: Deepest rung the ladder may reach.
    """

    queue_high: float = 12.0
    queue_low: float = 4.0
    token_rate: float = 1.0
    bucket_depth: float = 4.0
    queue_capacity: float | None = 64.0
    patience: int = 3
    cooldown: int = 8
    max_mode: int = MODE_SHED

    def __post_init__(self) -> None:
        if not 0 <= self.queue_low < self.queue_high:
            raise ValueError("need 0 <= queue_low < queue_high")
        if self.token_rate < 0 or self.bucket_depth < 0:
            raise ValueError("token_rate and bucket_depth must be >= 0")
        if self.queue_capacity is not None and self.queue_capacity <= 0:
            raise ValueError("queue_capacity must be positive (or None)")
        if self.patience < 1 or self.cooldown < 1:
            raise ValueError("patience and cooldown must be >= 1")
        if not MODE_FULL < self.max_mode <= MODE_SHED:
            raise ValueError("max_mode must be a rung deeper than full")


class AdmissionGate:
    """Per-device token-bucket + watermark admission control.

    One instance is stateful for one run: tokens refill once per device
    per slot (every path calls :meth:`admit`/:meth:`admit_count` exactly
    once per device per slot, whether or not tasks arrived), and the
    per-device shedding flag carries the watermark hysteresis.  All
    arithmetic is plain Python floats so the scalar and vectorized fluid
    paths shed bit-identical amounts.
    """

    def __init__(self, control: OverloadControl, num_devices: int):
        if num_devices <= 0:
            raise ValueError("need at least one device")
        self.control = control
        self.num_devices = num_devices
        self.tokens = [control.bucket_depth] * num_devices
        self.shedding = [False] * num_devices

    def _allowance(self, i: int, backlog: float, mode: int) -> float | None:
        """Refill device ``i``'s bucket, advance its hysteresis, and
        return its admission allowance (``None`` = unlimited)."""
        control = self.control
        self.tokens[i] = min(
            control.bucket_depth, self.tokens[i] + control.token_rate
        )
        if mode >= MODE_SHED or backlog > control.queue_high:
            self.shedding[i] = True
        elif backlog < control.queue_low:
            self.shedding[i] = False
        if not self.shedding[i]:
            return None
        if mode >= MODE_SHED:
            return 0.0
        return self.tokens[i]

    def admit(self, i: int, demand: float, backlog: float, mode: int) -> float:
        """Fluid admission: the portion of ``demand`` tasks admitted for
        device ``i`` this slot (the remainder is shed)."""
        allowance = self._allowance(i, backlog, mode)
        if allowance is None:
            return demand
        admitted = demand if demand <= allowance else allowance
        self.tokens[i] -= admitted
        return admitted

    def admit_count(self, i: int, count: int, backlog: float, mode: int) -> int:
        """Integral admission (event engines, live runtime): how many of
        ``count`` whole tasks are admitted for device ``i`` this slot."""
        allowance = self._allowance(i, backlog, mode)
        if allowance is None:
            return count
        admitted = min(count, int(allowance))
        self.tokens[i] -= admitted
        return admitted


@dataclass
class OverloadGovernor:
    """The degradation ladder: backlog-driven graceful modes.

    Observes the per-device backlogs once per slot and steps
    :attr:`mode` through the rungs with hysteresis: ``patience``
    consecutive slots with mean backlog above ``queue_high`` step one
    rung deeper; ``cooldown`` consecutive slots below ``queue_low`` step
    one rung back.  In between, both counters reset — the ladder holds
    its rung.  The ladder only decides; every path realises its rung
    through :class:`~repro.resilience.control.SlotController`.

    Attributes:
        control: The shared watermark/hysteresis configuration.
        num_devices: Fleet size the ladder was built for.
        mode: The current rung.
        transitions: ``(slot, mode)`` per rung change, in order.
    """

    control: OverloadControl
    num_devices: int
    mode: int = field(default=MODE_FULL, init=False)
    transitions: list[tuple[int, int]] = field(default_factory=list, init=False)

    def __post_init__(self) -> None:
        if self.num_devices <= 0:
            raise ValueError("need at least one device")
        self._hot = 0
        self._cool = 0

    def observe(self, slot: int, backlogs: Sequence[float]) -> int:
        """Fold one slot's per-device backlogs in; returns the rung in
        effect for the slot.  The mean is over the backlogs given, so a
        federation shard's ladder follows its current membership.
        Monotone under pressure: while the mean backlog is above
        ``queue_high`` the ladder never steps back (the property harness
        pins this)."""
        mean = sum(backlogs) / len(backlogs)
        control = self.control
        if mean > control.queue_high:
            self._hot += 1
            self._cool = 0
            if self._hot >= control.patience and self.mode < control.max_mode:
                self._step(slot, self.mode + 1)
                self._hot = 0
        elif mean < control.queue_low:
            self._cool += 1
            self._hot = 0
            if self._cool >= control.cooldown and self.mode > MODE_FULL:
                self._step(slot, self.mode - 1)
                self._cool = 0
        else:
            self._hot = 0
            self._cool = 0
        return self.mode

    def _step(self, slot: int, mode: int) -> None:
        self.mode = mode
        self.transitions.append((slot, mode))


def degrade_partition(
    partition: "PartitionedModel", mode: int
) -> "PartitionedModel":
    """The partition a ladder rung deploys: the same cuts with the
    cumulative exit rates pinned so service stops at the rung's exit.

    :data:`MODE_SECOND_EXIT` forces ``σ₂ = 1`` (every task that passes
    the First-exit stops at the Second — no cloud leg); deeper rungs
    force ``σ₁ = 1`` (every task exits at the First).  The degraded
    tuples stay valid cumulative rates, so every consumer of the
    partition — fluid cost model, exit coins, live workers — honours
    the rung without special-casing."""
    if mode <= MODE_FULL:
        return partition
    if mode == MODE_SECOND_EXIT:
        sigma = (partition.sigma1, 1.0, 1.0)
    else:
        sigma = (1.0, 1.0, 1.0)
    return replace(partition, sigma=sigma)


def degraded_exit_params(
    partition: "PartitionedModel", mode: int
) -> tuple[float, float]:
    """``(σ₁, P[exit 2 | past 1])`` under a ladder rung — the pair the
    event engines compare exit coins against."""
    part = degrade_partition(partition, mode)
    sigma1 = part.sigma1
    exit2_given_past1 = (
        (part.sigma2 - sigma1) / (1.0 - sigma1) if sigma1 < 1.0 else 1.0
    )
    return sigma1, exit2_given_past1


def apply_backpressure(
    ratios: Sequence[float],
    queue_edge: Sequence[float],
    control: OverloadControl,
    mode: int,
) -> list[float]:
    """Clamp the policy's offloading ratios against edge saturation.

    A device whose edge queue ``H_i`` is above ``queue_high`` gets
    ``x_i = 0`` — new work stays local until the edge drains — and the
    :data:`MODE_FIRST_EXIT`/:data:`MODE_SHED` rungs force the whole
    fleet local (First-exit-only needs no edge at all)."""
    if mode >= MODE_FIRST_EXIT:
        return [0.0] * len(ratios)
    high = control.queue_high
    return [
        0.0 if queue_edge[i] > high else float(r)
        for i, r in enumerate(ratios)
    ]


def clamp_queues(
    queue_local: list[float],
    queue_edge: list[float],
    capacity: float,
    class_of: Sequence[int] | None = None,
    flow: "QoSFlow | None" = None,
) -> float:
    """Bound the fluid queues in place; returns the total overflow shed.

    The fluid twin of a bounded ``queue.Queue``: whatever Eqs. 10-11
    pushed past ``capacity`` is rejected (shed), never silently stored.
    Devices are clamped left to right, local before edge, so the scalar
    and vectorized paths accumulate the identical float.  With a QoS
    ``flow``, device ``i``'s overflow is also charged to its class
    ``class_of[i]`` as generated *and* shed (the global ``generated =
    arrivals + shed`` convention), keeping the per-class rows summing to
    the global identity."""
    shed = 0.0
    for i in range(len(queue_local)):
        over = queue_local[i] - capacity
        if over > 0.0:
            queue_local[i] = capacity
            shed += over
            if flow is not None:
                flow.generated[class_of[i]] += over
                flow.shed[class_of[i]] += over
        over = queue_edge[i] - capacity
        if over > 0.0:
            queue_edge[i] = capacity
            shed += over
            if flow is not None:
                flow.generated[class_of[i]] += over
                flow.shed[class_of[i]] += over
    return shed
