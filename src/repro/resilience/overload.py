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

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..models.multi_exit import PartitionedModel

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
        # Chained comparisons are False for NaN, so NaN fails too.
        if not 0 <= self.queue_low < self.queue_high < math.inf:
            raise ValueError("need 0 <= queue_low < queue_high < inf")
        if not 0 <= self.token_rate < math.inf:
            raise ValueError("token_rate must be finite and >= 0")
        if not 0 <= self.bucket_depth < math.inf:
            raise ValueError("bucket_depth must be finite and >= 0")
        if self.queue_capacity is not None and not (
            0 < self.queue_capacity < math.inf
        ):
            raise ValueError("queue_capacity must be finite, positive or None")
        if not 1 <= self.patience < math.inf:
            raise ValueError("patience must be finite and >= 1")
        if not 1 <= self.cooldown < math.inf:
            raise ValueError("cooldown must be finite and >= 1")
        if not MODE_FULL < self.max_mode <= MODE_SHED:
            raise ValueError("max_mode must be a rung deeper than full")


class AdmissionGate:
    """Per-device token-bucket + watermark admission control, a whole
    slot per call.

    One instance is stateful for one run: every bucket refills once per
    slot (every path calls :meth:`admit` or :meth:`admit_count` exactly
    once per slot with every device's demand, zeros included), and each
    device's shedding flag carries the watermark hysteresis.  Buckets and
    flags are arrays; each call repeats the per-device steps elementwise
    in float64, so every path sheds the same bits: refill
    ``t ← min(depth, t + rate)``; flag on at
    :data:`MODE_SHED` or a backlog above ``queue_high``, off below
    ``queue_low``; a flagged device admits at most its tokens (nothing at
    :data:`MODE_SHED`) and spends what it admits, an unflagged one
    admits everything.  ``np.minimum(x, y)`` picks ``x`` only where
    ``x < y``, as Python's ``min(y, x)`` does, so the minima match the
    scalar expressions bit for bit.

    Attributes:
        tokens: float64 bucket levels, one per device.
        shedding: Boolean hysteresis flags, one per device.
    """

    def __init__(self, control: OverloadControl, num_devices: int):
        if num_devices <= 0:
            raise ValueError("need at least one device")
        self.control = control
        self.num_devices = num_devices
        self.tokens = np.full(num_devices, control.bucket_depth, dtype=np.float64)
        self.shedding = np.zeros(num_devices, dtype=bool)

    def _open(self, backlogs, modes) -> np.ndarray | None:
        """Refill every bucket and advance every flag; returns each
        device's admission limit (``inf`` unless shedding, then its
        tokens, 0 at :data:`MODE_SHED`), or ``None`` when no device
        sheds."""
        control = self.control
        backlogs = np.asarray(backlogs)
        shed_rung = np.asarray(modes) >= MODE_SHED
        # A flag holds unless the backlog is below queue_low: on bools,
        # ``a > b`` is ``a and not b``.
        self.shedding = shedding = (
            (backlogs > control.queue_high)
            | shed_rung
            | (self.shedding > (backlogs < control.queue_low))
        )
        self.tokens = tokens = np.minimum(
            self.tokens + control.token_rate, control.bucket_depth
        )
        if not np.count_nonzero(shedding):
            return None
        return np.where(shedding, np.where(shed_rung, 0.0, tokens), np.inf)

    def admit(self, demand, backlogs, modes) -> np.ndarray:
        """Fluid admission: the portion of each device's ``demand`` tasks
        admitted this slot (the remainder is shed), given its backlog
        ``Q_i + H_i`` and rung."""
        limit = self._open(backlogs, modes)
        demand = np.asarray(demand, dtype=np.float64)
        if limit is None:
            return demand
        # min(demand, limit) is the demand wherever the limit is inf.
        admitted = np.minimum(limit, demand)
        np.subtract(self.tokens, admitted, out=self.tokens, where=self.shedding)
        return admitted

    def admit_count(self, counts, backlogs, modes) -> np.ndarray:
        """Integral admission (event engines, live runtime): how many of
        each device's ``counts`` whole tasks are admitted this slot."""
        limit = self._open(backlogs, modes)
        counts = np.asarray(counts, dtype=np.int64)
        if limit is None:
            return counts
        # int(allowance) truncates; a shedding device admits
        # min(count, int(allowance)) and spends it as a float.
        capped = np.minimum(np.trunc(limit), counts)
        np.subtract(self.tokens, capped, out=self.tokens, where=self.shedding)
        return np.where(self.shedding, capped.astype(np.int64), counts)


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
        if isinstance(backlogs, np.ndarray):
            backlogs = backlogs.tolist()
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


def clamp_queues(queue_local: np.ndarray, queue_edge: np.ndarray, capacity: float):
    """Bound the fluid queues in place; returns each device's overflow.

    The fluid twin of a bounded ``queue.Queue``: whatever Eqs. 10-11
    pushed past ``capacity`` is rejected (shed), never silently stored.
    The overflow comes back as an ``(N, 2)`` float64 array, one row per
    device, local before edge (``+0.0`` within capacity), or ``None``
    when nothing overflowed.  Callers add it up in row order — a
    left-to-right sum, as the fluid paths always have — per shard, and,
    with QoS, per class as generated *and* shed (the global ``generated
    = arrivals + shed`` convention), keeping the per-class rows summing
    to the global identity."""
    # q - c > 0 exactly when q > c: IEEE subtraction of distinct
    # floats never rounds to zero.
    hit_local = queue_local > capacity
    hit_edge = queue_edge > capacity
    if not (np.count_nonzero(hit_local) or np.count_nonzero(hit_edge)):
        return None
    overflow = np.zeros((len(queue_local), 2))
    np.subtract(queue_local, capacity, out=overflow[:, 0], where=hit_local)
    np.subtract(queue_edge, capacity, out=overflow[:, 1], where=hit_edge)
    np.copyto(queue_local, capacity, where=hit_local)
    np.copyto(queue_edge, capacity, where=hit_edge)
    return overflow
