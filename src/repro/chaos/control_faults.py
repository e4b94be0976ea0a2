"""Control-plane fault injection: telemetry faults + epoch-fenced failover.

The data-plane :class:`~repro.resilience.faults.FaultPlan` breaks links
and edges; this module breaks the *coordinator* — the entity computing
the per-slot offloading allocation.  A seeded
:class:`ControlFaultPlan` schedules five channels over the slot axis:

====================  =======  ==========================================
channel               units    meaning
====================  =======  ==========================================
``ctrl_delay``        slots    telemetry delayed this many slots (0 = fresh)
``ctrl_drop``         bool     the slot's telemetry exchange is lost
``ctrl_dup``          bool     the allocation message is duplicated
``ctrl_skew``         slots    bounded clock skew between edge and coordinator
``ctrl_down``         bool     the coordinator is crashed this slot
====================  =======  ==========================================

Like the data-plane plan, the schedule is *pre-realised data*: healthy
values out of range, generation from per-channel split seeds, and
serialization riding the trace machinery (``ctrl_*`` channels, loud
schema errors).  A control plan composes freely with a ``FaultPlan`` —
they occupy disjoint channels and different layers.

:class:`FencedController` turns the schedule into behaviour.  It wraps
any :class:`~repro.core.offloading.OffloadingPolicy` (like
``ResilientPolicy``, it draws no randomness, so runs mirror
byte-identically across the scalar/vectorized fluid, scalar/fast event,
and live-runtime paths):

* **coordinator down** — the edge serves its *last-good* allocation
  while its age (slots elapsed plus absolute clock skew) stays within
  ``max_staleness``; past the bound it fences to local-only (all ratios
  0, the same safe point ``ResilientPolicy`` uses during an edge
  outage).
* **crash-restart** — when the coordinator comes back, the *epoch*
  increments.  Allocations minted in a dead epoch are rejected (fencing:
  a zombie coordinator's plan must never be applied after failover) and
  the edge re-anchors on a freshly computed allocation.
* **telemetry drop / delay** — the coordinator cannot see fresh queue
  state, so the edge reuses the last-good allocation (bounded staleness
  again; a delay past the bound re-anchors fresh rather than acting on
  fossil state).
* **duplication** — duplicate allocation messages are merged
  idempotently: a counter records them, behaviour does not change (the
  campaign's dup-idempotence oracle pins ``dup``-only plans to the
  healthy run byte-for-byte).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from ..core.offloading import (
    DeviceConfig,
    EdgeSystem,
    LyapunovState,
    OffloadingPolicy,
)
from ..traces.schema import Trace, TraceChannel
from ..traces.serialize import load_trace, save_trace

CONTROL_CHANNEL_PREFIX = "ctrl_"
CONTROL_CHANNELS: dict[str, str] = {
    "delay": "slots",
    "drop": "bool",
    "dup": "bool",
    "skew": "slots",
    "down": "bool",
}
#: Version stamp written into saved control plans; bumped on any layout
#: change so old files fail loudly instead of misparsing.
CONTROL_PLAN_SCHEMA_VERSION = 1
_SCHEMA_KEY = "control_plan_schema_version"


class ControlFaultError(ValueError):
    """A control-fault plan is malformed, mis-versioned, or misused."""


@dataclass(frozen=True)
class ControlFaultSpec:
    """Knobs for :func:`generate_control_fault_plan`.

    Rates are per-slot probabilities except ``down_rate`` (expected
    coordinator crashes per 100 slots, exponential recovery — the same
    convention as the data-plane ``crash_rate``).
    """

    num_slots: int = 160
    delay_prob: float = 0.05
    max_delay: int = 3
    drop_prob: float = 0.05
    dup_prob: float = 0.05
    skew_prob: float = 0.05
    max_skew: float = 1.5
    down_rate: float = 0.5
    down_recovery_mean: float = 6.0
    slot_length: float = 1.0

    def __post_init__(self) -> None:
        if self.num_slots <= 0:
            raise ControlFaultError("num_slots must be positive")
        for name in ("delay_prob", "drop_prob", "dup_prob", "skew_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ControlFaultError(f"{name} must be in [0, 1], got {p}")
        if self.max_delay < 0:
            raise ControlFaultError("max_delay must be non-negative")
        if self.max_skew < 0:
            raise ControlFaultError("max_skew must be non-negative")
        if self.down_rate < 0:
            raise ControlFaultError("down_rate must be non-negative")
        if self.down_recovery_mean <= 0:
            raise ControlFaultError("down_recovery_mean must be positive")
        if self.slot_length <= 0:
            raise ControlFaultError("slot_length must be positive")


@dataclass(frozen=True)
class ControlFaultPlan:
    """A pre-realised control-plane fault schedule (all arrays ``(S,)``).

    Accessors are *healthy out of range*: slots past the schedule (drain
    phases, longer runs) report no faults, mirroring ``FaultPlan``.
    """

    delay: np.ndarray
    drop: np.ndarray
    dup: np.ndarray
    skew: np.ndarray
    down: np.ndarray
    slot_length: float = 1.0
    meta: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in CONTROL_CHANNELS:
            values = np.asarray(getattr(self, name), dtype=np.float64)
            if values.ndim != 1 or values.shape[0] == 0:
                raise ControlFaultError(
                    f"channel {name!r} needs a non-empty (S,) array, "
                    f"got shape {values.shape}"
                )
            object.__setattr__(self, name, values)
        lengths = {getattr(self, name).shape[0] for name in CONTROL_CHANNELS}
        if len(lengths) != 1:
            raise ControlFaultError(
                f"channels disagree on the slot axis: {sorted(lengths)}"
            )
        if self.slot_length <= 0:
            raise ControlFaultError("slot_length must be positive")
        if np.any(self.delay < 0):
            raise ControlFaultError("delay must be non-negative")

    @property
    def num_slots(self) -> int:
        return self.delay.shape[0]

    @classmethod
    def healthy(cls, num_slots: int = 1, slot_length: float = 1.0) -> "ControlFaultPlan":
        """An all-quiet plan (useful as an explicit no-fault baseline)."""
        zeros = np.zeros(num_slots, dtype=np.float64)
        return cls(
            delay=zeros.copy(),
            drop=zeros.copy(),
            dup=zeros.copy(),
            skew=zeros.copy(),
            down=zeros.copy(),
            slot_length=slot_length,
        )

    # -- scalar accessors (healthy out of range) ----------------------------

    def _in_range(self, slot: int) -> bool:
        return 0 <= slot < self.num_slots

    def delay_at(self, slot: int) -> int:
        return int(self.delay[slot]) if self._in_range(slot) else 0

    def drop_at(self, slot: int) -> bool:
        return bool(self.drop[slot]) if self._in_range(slot) else False

    def dup_at(self, slot: int) -> bool:
        return bool(self.dup[slot]) if self._in_range(slot) else False

    def skew_at(self, slot: int) -> float:
        return float(self.skew[slot]) if self._in_range(slot) else 0.0

    def down_at(self, slot: int) -> bool:
        return bool(self.down[slot]) if self._in_range(slot) else False

    # -- views --------------------------------------------------------------

    def window(self, start: int, stop: int) -> "ControlFaultPlan":
        if not 0 <= start < stop <= self.num_slots:
            raise ControlFaultError(
                f"need 0 <= start < stop <= {self.num_slots}, "
                f"got [{start}, {stop})"
            )
        return ControlFaultPlan(
            delay=self.delay[start:stop],
            drop=self.drop[start:stop],
            dup=self.dup[start:stop],
            skew=self.skew[start:stop],
            down=self.down[start:stop],
            slot_length=self.slot_length,
            meta=dict(self.meta),
        )

    def down_windows(self) -> list[tuple[int, int]]:
        """Coordinator outage windows as ``[start, stop)`` pairs."""
        windows: list[tuple[int, int]] = []
        start = None
        for slot in range(self.num_slots):
            if self.down_at(slot) and start is None:
                start = slot
            elif not self.down_at(slot) and start is not None:
                windows.append((start, slot))
                start = None
        if start is not None:
            windows.append((start, self.num_slots))
        return windows

    def describe(self) -> dict[str, object]:
        return {
            "num_slots": self.num_slots,
            "slot_length": self.slot_length,
            "delay_slots": int(np.count_nonzero(self.delay)),
            "max_delay": int(self.delay.max()),
            "drop_slots": int(np.count_nonzero(self.drop)),
            "dup_slots": int(np.count_nonzero(self.dup)),
            "skew_slots": int(np.count_nonzero(self.skew)),
            "max_abs_skew": float(np.abs(self.skew).max()),
            "down_slots": int(np.count_nonzero(self.down)),
            "down_windows": self.down_windows(),
        }

    # -- trace composition ---------------------------------------------------

    def to_trace(self) -> Trace:
        """The plan as a standalone trace of ``ctrl_*`` channels."""
        meta = dict(self.meta)
        meta[_SCHEMA_KEY] = CONTROL_PLAN_SCHEMA_VERSION
        return Trace(
            channels=tuple(
                TraceChannel(
                    CONTROL_CHANNEL_PREFIX + name,
                    getattr(self, name),
                    CONTROL_CHANNELS[name],
                )
                for name in CONTROL_CHANNELS
            ),
            slot_length=self.slot_length,
            meta=meta,
        )

    @classmethod
    def from_trace(cls, trace: Trace) -> "ControlFaultPlan":
        """Recover a plan from a trace carrying ``ctrl_*`` channels.

        A mismatched schema stamp raises loudly — a silently misparsed
        fault schedule is exactly the kind of corruption the chaos layer
        exists to catch.
        """
        meta = dict(trace.meta)
        declared = meta.pop(_SCHEMA_KEY, None)
        if declared is not None and int(declared) != CONTROL_PLAN_SCHEMA_VERSION:
            raise ControlFaultError(
                f"control plan schema v{declared} != supported "
                f"v{CONTROL_PLAN_SCHEMA_VERSION}; refusing to misparse"
            )
        arrays = {}
        for name in CONTROL_CHANNELS:
            channel = trace.get(CONTROL_CHANNEL_PREFIX + name)
            if channel is None:
                raise ControlFaultError(
                    f"trace has no {CONTROL_CHANNEL_PREFIX + name!r} channel; "
                    f"available: {trace.names}"
                )
            arrays[name] = channel.values
        return cls(
            slot_length=trace.slot_length,
            meta={
                k: v
                for k, v in meta.items()
                if not str(k).startswith("trace_")
            },
            **arrays,
        )


def control_plans_equal(a: ControlFaultPlan, b: ControlFaultPlan) -> bool:
    """Byte-level schedule equality."""
    return a.slot_length == b.slot_length and all(
        np.array_equal(getattr(a, name), getattr(b, name))
        for name in CONTROL_CHANNELS
    )


def save_control_fault_plan(plan: ControlFaultPlan, path: str | Path) -> Path:
    """Write a plan as a trace file (``.jsonl`` or ``.npz``), stamped with
    the control-plan schema version."""
    return save_trace(plan.to_trace(), path)


def load_control_fault_plan(path: str | Path) -> ControlFaultPlan:
    """Read a plan written by :func:`save_control_fault_plan`."""
    return ControlFaultPlan.from_trace(load_trace(path))


# -- generation -------------------------------------------------------------


def generate_control_fault_plan(
    spec: ControlFaultSpec, seed: int = 0
) -> ControlFaultPlan:
    """Synthesise a control-fault schedule from ``spec`` under ``seed``.

    One split stream per channel (the ``FaultPlan`` convention), so
    regenerating with one channel's knob changed leaves the other
    schedules bit-identical.
    """
    from ..resilience.faults import exponential_outage_mask

    delay_seq, drop_seq, dup_seq, skew_seq, down_seq = np.random.SeedSequence(
        seed
    ).spawn(5)
    s = spec.num_slots

    delay_rng = np.random.default_rng(delay_seq)
    delayed = delay_rng.random(s) < spec.delay_prob
    delay = np.where(
        delayed, delay_rng.integers(1, spec.max_delay + 1, size=s), 0
    ).astype(np.float64)
    drop = (
        np.random.default_rng(drop_seq).random(s) < spec.drop_prob
    ).astype(np.float64)
    dup = (
        np.random.default_rng(dup_seq).random(s) < spec.dup_prob
    ).astype(np.float64)
    skew_rng = np.random.default_rng(skew_seq)
    skewed = skew_rng.random(s) < spec.skew_prob
    skew = np.where(
        skewed, skew_rng.uniform(-spec.max_skew, spec.max_skew, size=s), 0.0
    )
    down = exponential_outage_mask(
        s,
        spec.down_rate,
        spec.down_recovery_mean,
        np.random.default_rng(down_seq),
    )

    meta: dict[str, object] = {"generator": "control-faults", "seed": seed}
    meta.update(asdict(spec))
    return ControlFaultPlan(
        delay=delay,
        drop=drop,
        dup=dup,
        skew=skew,
        down=down,
        slot_length=spec.slot_length,
        meta=meta,
    )


def canonical_coordinator_outage(
    num_slots: int = 160, seed: int = 0
) -> ControlFaultPlan:
    """The pinned coordinator crash-restart scenario: light background
    telemetry faults from ``seed``, plus one guaranteed coordinator
    outage of ``num_slots // 10`` slots opening at ``num_slots // 3`` —
    so epoch fencing and re-anchoring are exercised against a known
    window regardless of the seed's own draws."""
    spec = ControlFaultSpec(
        num_slots=num_slots,
        delay_prob=0.04,
        max_delay=2,
        drop_prob=0.04,
        dup_prob=0.04,
        skew_prob=0.04,
        max_skew=1.0,
        down_rate=0.0,  # the canonical outage is pinned, not drawn
    )
    plan = generate_control_fault_plan(spec, seed=seed)
    start = num_slots // 3
    stop = start + max(num_slots // 10, 1)
    down = plan.down.copy()
    down[start:stop] = 1.0
    meta = dict(plan.meta)
    meta.update(down_start=start, down_stop=stop)
    return ControlFaultPlan(
        delay=plan.delay,
        drop=plan.drop,
        dup=plan.dup,
        skew=plan.skew,
        down=down,
        slot_length=plan.slot_length,
        meta=meta,
    )


# -- the fenced controller ---------------------------------------------------


@dataclass
class FencedController:
    """Epoch-fenced failover wrapper around any offloading policy.

    Keeps, per fleet (keyed by the device-name tuple, so federated
    shards fence independently), the last allocation computed while the
    control plane was healthy, stamped with the slot and *epoch* it was
    minted in.  Per-slot behaviour under the plan is documented in the
    module docstring; the wrapper consumes no randomness, so wrapped
    runs mirror byte-identically across all execution paths.

    Slot tracking: by default an internal cursor advances once per
    :meth:`decide` call (every single-fleet path consults the policy
    exactly once per slot — the ``ResilientPolicy`` convention).  A
    driver that may call :meth:`decide` several times per slot (the
    shared fluid slot loop, once per edge shard) announces the slot via
    :meth:`begin_slot` instead.

    Attributes:
        inner: The wrapped policy (consulted when the control plane can
            deliver a fresh allocation).
        plan: The control-fault schedule.
        max_staleness: Bound (in slots, skew included) on how old a
            served last-good allocation may be before the edge fences to
            local-only / forces a fresh re-anchor.
    """

    inner: OffloadingPolicy
    plan: ControlFaultPlan
    max_staleness: float = 4.0

    def __post_init__(self) -> None:
        if self.max_staleness < 0:
            raise ControlFaultError("max_staleness must be non-negative")
        self.reset()

    def reset(self) -> None:
        """Rewind to the just-constructed state (cursor, epoch, history,
        counters)."""
        self._cursor = 0
        self._forced: int | None = None
        self._ticked = -1
        self._down_prev = False
        self.epoch = 0
        self.epoch_anchors: list[int] = []
        # key -> (slot minted, epoch minted, ratios)
        self._last_good: dict[tuple[str, ...], tuple[int, int, tuple[float, ...]]] = {}
        self.stale_served = 0
        self.fenced_rejections = 0
        self.drops_reused = 0
        self.delays_reused = 0
        self.dups_deduped = 0
        inner_reset = getattr(self.inner, "reset", None)
        if inner_reset is not None:
            inner_reset()

    def begin_slot(self, slot: int) -> None:
        """Externally announce the slot (drivers calling :meth:`decide`
        more than once per slot)."""
        self._forced = slot

    def _tick(self, slot: int) -> None:
        """Once-per-slot epoch bookkeeping (idempotent under repeated
        calls in the same slot)."""
        if slot == self._ticked:
            return
        self._ticked = slot
        now_down = self.plan.down_at(slot)
        if self._down_prev and not now_down:
            # Crash-restart boundary: the restarted coordinator opens a
            # new epoch; allocations minted before the crash are dead.
            self.epoch += 1
            self.epoch_anchors.append(slot)
        self._down_prev = now_down

    def _entry(
        self, key: tuple[str, ...], n: int
    ) -> tuple[int, int, tuple[float, ...]] | None:
        """The last-good entry for this fleet, with dead-epoch fencing:
        an allocation minted in a previous epoch is rejected and
        forgotten (the restarted coordinator must re-anchor fresh)."""
        entry = self._last_good.get(key)
        if entry is None:
            return None
        if entry[1] != self.epoch:
            del self._last_good[key]
            self.fenced_rejections += 1
            return None
        if len(entry[2]) != n:
            return None
        return entry

    def decide(
        self,
        system: EdgeSystem,
        state: LyapunovState,
        arrivals: Sequence[float],
        devices: Sequence[DeviceConfig] | None = None,
    ) -> list[float]:
        if self._forced is not None:
            slot = self._forced
        else:
            slot = self._cursor
            self._cursor += 1
        self._tick(slot)
        key = tuple(d.name for d in system.devices)
        n = len(devices) if devices is not None else system.num_devices
        if self.plan.dup_at(slot):
            # Duplicate allocation messages merge idempotently: count
            # them, change nothing (pinned by the dup-idempotence oracle).
            self.dups_deduped += 1
        age_penalty = abs(self.plan.skew_at(slot))
        if self.plan.down_at(slot):
            entry = self._entry(key, n)
            if entry is not None:
                age = (slot - entry[0]) + age_penalty
                if age <= self.max_staleness:
                    self.stale_served += 1
                    return list(entry[2])
            # No serviceable last-good allocation: fence to local-only —
            # the same safe point ResilientPolicy uses for a dead edge.
            self.fenced_rejections += 1
            return [0.0] * n
        reuse = None
        if self.plan.drop_at(slot):
            reuse = "drop"
        elif self.plan.delay_at(slot) > 0:
            reuse = "delay"
        if reuse is not None:
            entry = self._entry(key, n)
            if entry is not None:
                age = (slot - entry[0]) + age_penalty
                if age <= self.max_staleness:
                    if reuse == "drop":
                        self.drops_reused += 1
                    else:
                        self.delays_reused += 1
                    return list(entry[2])
            # Telemetry too stale to reuse — fall through and re-anchor
            # on a freshly computed allocation.
        ratios = self.inner.decide(system, state, arrivals, devices)
        self._last_good[key] = (slot, self.epoch, tuple(ratios))
        return ratios
