"""Seeded, replayable fault plans — failures as data.

A :class:`FaultPlan` is the fault-side twin of a
:class:`~repro.traces.schema.Trace`: per-slot, per-device schedules of
*realised* fault events, generated once from a seed and then applied
identically by every execution path (scalar slot simulator, vectorized
slot simulator, event simulator, live threaded runtime).  Replaying the
plan — rather than re-drawing faults inside each engine — is what makes a
chaos run reproducible and lets the differential harness pin the scalar
and vectorized trajectories together byte-for-byte.

Five fault channels model the outages the paper's "wild" deployments
meet (§II-A) but the original testbed never injects:

======================  ==========  =====================================
channel                 shape       meaning
======================  ==========  =====================================
``uplink_drop``         (S, N) 0/1  the device's uplink drops transfers
                                    started during the slot
``uplink_corrupt``      (S, N) 0/1  transfers serialise but arrive
                                    corrupted and must be resent
``edge_down``           (S,)   0/1  the edge server is crashed for the
                                    whole slot (exponential recovery)
``straggler``          (S, N) ≥ 1   first-block compute slowdown factor
``telemetry_stale``     (S,)   0/1  the controller's queue telemetry is
                                    stale/garbage this slot
======================  ==========  =====================================

Generation follows the repo's split-stream RNG discipline
(:mod:`repro.traces.generators`): one ``SeedSequence`` child per channel,
so enabling stragglers cannot perturb the edge-crash schedule drawn from
the same seed.

Plans compose with traces: :func:`attach_faults` embeds a plan into an
existing :class:`~repro.traces.schema.Trace` as ``fault_*`` channels (the
schema allows auxiliary channels), and :func:`extract_faults` recovers
it.  Serialization therefore rides the trace round-trip for free —
:func:`save_fault_plan`/:func:`load_fault_plan` write the same JSONL and
``.npz`` formats ``repro trace`` uses.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from ..traces.schema import Trace, TraceChannel
from ..traces.serialize import load_trace, save_trace

#: Trace-channel prefix used when a plan is embedded in a Trace.
FAULT_CHANNEL_PREFIX = "fault_"

#: The plan's channels, in canonical order, with their trace units.
FAULT_CHANNELS: dict[str, str] = {
    "uplink_drop": "bool",
    "uplink_corrupt": "bool",
    "edge_down": "bool",
    "straggler": "factor",
    "telemetry_stale": "bool",
}

#: Version stamp written into saved fault plans; bumped on any layout
#: change so old files fail loudly instead of misparsing.
FAULT_PLAN_SCHEMA_VERSION = 1
_SCHEMA_KEY = "fault_plan_schema_version"


class FaultPlanError(ValueError):
    """A fault plan (or serialized plan file) violates the schema."""


@dataclass(frozen=True)
class FaultPlanSpec:
    """Knobs for :func:`generate_fault_plan`.

    Probabilities are per slot (and per device for the link/compute
    channels); rates follow the trace generators' per-100-slots
    convention.

    Attributes:
        num_slots: Plan horizon.
        num_devices: Fleet width.
        slot_length: τ in seconds.
        drop_prob: Per-slot per-device probability the uplink drops
            transfers (a hard link outage for that slot).
        corrupt_prob: Per-slot per-device probability transfers arrive
            corrupted (they consume link time, then must be resent).
        crash_rate: Expected edge crashes per 100 slots (0 disables).
        crash_recovery_mean: Mean outage duration in slots; each crash
            draws an exponential recovery time (≥ 1 slot).
        straggler_prob: Per-slot per-device probability of a compute
            straggler episode.
        straggler_slowdown: First-block slowdown factor while straggling.
        stale_prob: Per-slot probability the controller's queue telemetry
            is stale.
    """

    num_slots: int = 200
    num_devices: int = 4
    slot_length: float = 1.0
    drop_prob: float = 0.02
    corrupt_prob: float = 0.01
    crash_rate: float = 1.0
    crash_recovery_mean: float = 10.0
    straggler_prob: float = 0.02
    straggler_slowdown: float = 4.0
    stale_prob: float = 0.02

    def __post_init__(self) -> None:
        # Chained comparisons are False for NaN, so NaN fails too.
        if not (0 < self.num_slots < math.inf and 0 < self.num_devices < math.inf):
            raise FaultPlanError("num_slots and num_devices must be positive")
        if not 0 < self.slot_length < math.inf:
            raise FaultPlanError("slot_length must be finite and positive")
        for name in ("drop_prob", "corrupt_prob", "straggler_prob", "stale_prob"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise FaultPlanError(f"{name} must be a probability")
        if not 0 <= self.crash_rate < math.inf:
            raise FaultPlanError("crash_rate must be finite and non-negative")
        if not 0 < self.crash_recovery_mean < math.inf:
            raise FaultPlanError("crash_recovery_mean must be finite and positive")
        if not 1.0 <= self.straggler_slowdown < math.inf:
            raise FaultPlanError("straggler_slowdown must be finite and >= 1")


@dataclass(frozen=True)
class FaultPlan:
    """A validated, realised fault schedule over one slot axis.

    Attributes:
        uplink_drop: ``(S, N)`` 0/1 — uplink transfer drops.
        uplink_corrupt: ``(S, N)`` 0/1 — corrupted transfers.
        edge_down: ``(S,)`` 0/1 — edge-server outage mask.
        straggler: ``(S, N)`` ≥ 1 — first-block compute slowdown.
        telemetry_stale: ``(S,)`` 0/1 — controller telemetry staleness.
        slot_length: τ in seconds the schedule is sampled at.
        meta: Free-form provenance (generator, seed, spec fields).
    """

    uplink_drop: np.ndarray
    uplink_corrupt: np.ndarray
    edge_down: np.ndarray
    straggler: np.ndarray
    telemetry_stale: np.ndarray
    slot_length: float = 1.0
    meta: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in FAULT_CHANNELS:
            values = np.asarray(getattr(self, name), dtype=np.float64)
            object.__setattr__(self, name, values)
        if self.slot_length <= 0:
            raise FaultPlanError("slot_length must be positive")
        s, n = self.uplink_drop.shape if self.uplink_drop.ndim == 2 else (0, 0)
        if s == 0 or n == 0:
            raise FaultPlanError(
                f"uplink_drop needs a non-empty (S, N) array, got shape "
                f"{self.uplink_drop.shape}"
            )
        for name in ("uplink_corrupt", "straggler"):
            if getattr(self, name).shape != (s, n):
                raise FaultPlanError(
                    f"{name} must have shape {(s, n)}, got "
                    f"{getattr(self, name).shape}"
                )
        for name in ("edge_down", "telemetry_stale"):
            if getattr(self, name).shape != (s,):
                raise FaultPlanError(
                    f"{name} must have shape {(s,)}, got "
                    f"{getattr(self, name).shape}"
                )
        for name in ("uplink_drop", "uplink_corrupt", "edge_down", "telemetry_stale"):
            values = getattr(self, name)
            if np.isnan(values).any() or not np.isin(values, (0.0, 1.0)).all():
                raise FaultPlanError(f"{name} must contain only 0/1")
        if np.isnan(self.straggler).any() or not (self.straggler >= 1.0).all():
            raise FaultPlanError("straggler factors must be >= 1")
        object.__setattr__(self, "meta", dict(self.meta))

    # -- access -------------------------------------------------------------

    @property
    def num_slots(self) -> int:
        return self.uplink_drop.shape[0]

    @property
    def num_devices(self) -> int:
        return self.uplink_drop.shape[1]

    def in_range(self, slot: int) -> bool:
        """Whether ``slot`` falls inside the plan.  Outside the plan the
        world is *healthy*: accessors report no fault, so drain phases
        (and runs longer than the plan) terminate instead of replaying
        the final row forever."""
        return 0 <= slot < self.num_slots

    def drop_at(self, slot: int, device: int) -> bool:
        return self.in_range(slot) and bool(self.uplink_drop[slot, device])

    def corrupt_at(self, slot: int, device: int) -> bool:
        return self.in_range(slot) and bool(self.uplink_corrupt[slot, device])

    def edge_down_at(self, slot: int) -> bool:
        return self.in_range(slot) and bool(self.edge_down[slot])

    def straggler_at(self, slot: int, device: int) -> float:
        if not self.in_range(slot):
            return 1.0
        return float(self.straggler[slot, device])

    def stale_at(self, slot: int) -> bool:
        return self.in_range(slot) and bool(self.telemetry_stale[slot])

    # -- vectorized access ----------------------------------------------------
    #
    # Batched twins of the scalar accessors above, used by the fast event
    # engine (:mod:`repro.sim.fast_events`) to resolve a whole frontier of
    # fault lookups in one shot.  Same out-of-range convention: slots
    # outside the plan report a healthy world.

    def _rows(self, slots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(clipped_slots, in_range_mask)`` for an integer slot array."""
        slots = np.asarray(slots, dtype=np.int64)
        valid = (slots >= 0) & (slots < self.num_slots)
        return np.where(valid, slots, 0), valid

    def drop_rows(self, slots: np.ndarray, devices: np.ndarray) -> np.ndarray:
        """Batched :meth:`drop_at`: a boolean array over parallel
        ``(slot, device)`` pairs."""
        rows, valid = self._rows(slots)
        return valid & (self.uplink_drop[rows, devices] != 0.0)

    def corrupt_rows(self, slots: np.ndarray, devices: np.ndarray) -> np.ndarray:
        """Batched :meth:`corrupt_at`."""
        rows, valid = self._rows(slots)
        return valid & (self.uplink_corrupt[rows, devices] != 0.0)

    def edge_down_rows(self, slots: np.ndarray) -> np.ndarray:
        """Batched :meth:`edge_down_at`."""
        rows, valid = self._rows(slots)
        return valid & (self.edge_down[rows] != 0.0)

    def straggler_rows(self, slots: np.ndarray, devices: np.ndarray) -> np.ndarray:
        """Batched :meth:`straggler_at` (healthy factor 1.0 out of range)."""
        rows, valid = self._rows(slots)
        return np.where(valid, self.straggler[rows, devices], 1.0)

    def outage_windows(self) -> list[tuple[int, int]]:
        """Contiguous ``[start, stop)`` edge-outage windows, in order."""
        windows: list[tuple[int, int]] = []
        down = self.edge_down.astype(bool)
        start: int | None = None
        for t, is_down in enumerate(down):
            if is_down and start is None:
                start = t
            elif not is_down and start is not None:
                windows.append((start, t))
                start = None
        if start is not None:
            windows.append((start, self.num_slots))
        return windows

    def describe(self) -> dict[str, float]:
        """Headline statistics for the ``faults describe`` CLI."""
        windows = self.outage_windows()
        return {
            "drop_fraction": float(self.uplink_drop.mean()),
            "corrupt_fraction": float(self.uplink_corrupt.mean()),
            "edge_down_fraction": float(self.edge_down.mean()),
            "edge_outages": float(len(windows)),
            "longest_outage_slots": float(
                max((stop - start for start, stop in windows), default=0)
            ),
            "straggler_fraction": float((self.straggler > 1.0).mean()),
            "max_slowdown": float(self.straggler.max()),
            "stale_fraction": float(self.telemetry_stale.mean()),
        }

    def window(self, start: int, stop: int) -> "FaultPlan":
        """The sub-plan covering slots ``[start, stop)``."""
        if not 0 <= start < stop <= self.num_slots:
            raise ValueError(
                f"need 0 <= start < stop <= {self.num_slots}, "
                f"got [{start}, {stop})"
            )
        return FaultPlan(
            uplink_drop=self.uplink_drop[start:stop],
            uplink_corrupt=self.uplink_corrupt[start:stop],
            edge_down=self.edge_down[start:stop],
            straggler=self.straggler[start:stop],
            telemetry_stale=self.telemetry_stale[start:stop],
            slot_length=self.slot_length,
            meta=dict(self.meta),
        )

    # -- trace composition ---------------------------------------------------

    def to_trace(self) -> Trace:
        """The plan as a standalone trace of ``fault_*`` channels,
        stamped with the fault-plan schema version."""
        meta = dict(self.meta)
        meta[_SCHEMA_KEY] = FAULT_PLAN_SCHEMA_VERSION
        return Trace(
            channels=tuple(
                TraceChannel(
                    FAULT_CHANNEL_PREFIX + name,
                    getattr(self, name),
                    FAULT_CHANNELS[name],
                )
                for name in FAULT_CHANNELS
            ),
            slot_length=self.slot_length,
            meta=meta,
        )

    @classmethod
    def from_trace(cls, trace: Trace) -> "FaultPlan":
        """Recover a plan from a trace carrying ``fault_*`` channels.

        A mismatched ``fault_plan_schema_version`` stamp raises loudly;
        a trace without the stamp (written before it existed, or a plan
        embedded via :func:`attach_faults`) is read as the current
        layout.
        """
        meta = {
            k: v
            for k, v in dict(trace.meta).items()
            if not str(k).startswith("trace_")
        }
        declared = meta.pop(_SCHEMA_KEY, None)
        if declared is not None and int(declared) != FAULT_PLAN_SCHEMA_VERSION:
            raise FaultPlanError(
                f"fault plan schema v{declared} != supported "
                f"v{FAULT_PLAN_SCHEMA_VERSION}; refusing to misparse"
            )
        arrays = {}
        for name in FAULT_CHANNELS:
            channel = trace.get(FAULT_CHANNEL_PREFIX + name)
            if channel is None:
                raise FaultPlanError(
                    f"trace has no {FAULT_CHANNEL_PREFIX + name!r} channel; "
                    f"available: {trace.names}"
                )
            arrays[name] = channel.values
        return cls(slot_length=trace.slot_length, meta=meta, **arrays)


def plans_equal(a: FaultPlan, b: FaultPlan) -> bool:
    """Byte-level schedule equality (the determinism tests pin this)."""
    return a.slot_length == b.slot_length and all(
        np.array_equal(getattr(a, name), getattr(b, name))
        for name in FAULT_CHANNELS
    )


def attach_faults(trace: Trace, plan: FaultPlan) -> Trace:
    """Embed ``plan`` into ``trace`` as extra ``fault_*`` channels.

    The slot axes must agree; per-device fault channels must match the
    trace's device count.  The composed trace replays through the same
    serializers and simulators as any other trace.
    """
    if trace.num_slots != plan.num_slots:
        raise FaultPlanError(
            f"trace covers {trace.num_slots} slots but the plan covers "
            f"{plan.num_slots}"
        )
    if trace.num_devices != plan.num_devices:
        raise FaultPlanError(
            f"trace covers {trace.num_devices} devices but the plan covers "
            f"{plan.num_devices}"
        )
    meta = dict(trace.meta)
    meta.update(
        {f"fault_{k}": v for k, v in dict(plan.meta).items() if k != "generator"}
    )
    return Trace(
        channels=trace.channels + plan.to_trace().channels,
        slot_length=trace.slot_length,
        meta=meta,
    )


def extract_faults(trace: Trace) -> FaultPlan | None:
    """The embedded plan, or ``None`` when the trace carries no
    ``fault_*`` channels."""
    if trace.get(FAULT_CHANNEL_PREFIX + "uplink_drop") is None:
        return None
    return FaultPlan.from_trace(trace)


def save_fault_plan(plan: FaultPlan, path: str | Path) -> Path:
    """Write a plan as a trace file (``.jsonl`` or ``.npz``)."""
    return save_trace(plan.to_trace(), path)


def load_fault_plan(path: str | Path) -> FaultPlan:
    """Read a plan written by :func:`save_fault_plan` (or embedded in any
    trace file via :func:`attach_faults`)."""
    return FaultPlan.from_trace(load_trace(path))


# -- generation ------------------------------------------------------------------


def exponential_outage_mask(
    num_slots: int,
    crash_rate: float,
    recovery_mean: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """``(S,)`` 0/1 edge-outage mask: crash starts are Bernoulli with mean
    ``crash_rate`` per 100 slots; each crash draws an exponential recovery
    time (ceiled to ≥ 1 slot).  Overlapping crashes merge."""
    down = np.zeros(num_slots, dtype=np.float64)
    if crash_rate <= 0:
        return down
    starts = rng.random(num_slots) < crash_rate / 100.0
    for t in np.flatnonzero(starts):
        duration = max(int(np.ceil(rng.exponential(recovery_mean))), 1)
        down[t : t + duration] = 1.0
    return down


def generate_fault_plan(spec: FaultPlanSpec, seed: int = 0) -> FaultPlan:
    """Synthesise a full fault plan from ``spec`` under ``seed``.

    The seed splits into one independent stream per channel, so
    regenerating with the same seed and a spec that only disables (say)
    stragglers leaves the drop/crash/staleness schedules bit-identical.
    """
    drop_seq, corrupt_seq, crash_seq, straggler_seq, stale_seq = (
        np.random.SeedSequence(seed).spawn(5)
    )
    s, n = spec.num_slots, spec.num_devices

    drop = (
        np.random.default_rng(drop_seq).random((s, n)) < spec.drop_prob
    ).astype(np.float64)
    corrupt = (
        np.random.default_rng(corrupt_seq).random((s, n)) < spec.corrupt_prob
    ).astype(np.float64)
    edge_down = exponential_outage_mask(
        s,
        spec.crash_rate,
        spec.crash_recovery_mean,
        np.random.default_rng(crash_seq),
    )
    straggling = (
        np.random.default_rng(straggler_seq).random((s, n))
        < spec.straggler_prob
    )
    straggler = np.where(straggling, spec.straggler_slowdown, 1.0)
    stale = (
        np.random.default_rng(stale_seq).random(s) < spec.stale_prob
    ).astype(np.float64)

    meta: dict[str, object] = {"generator": "faults", "seed": seed}
    meta.update(asdict(spec))
    return FaultPlan(
        uplink_drop=drop,
        uplink_corrupt=corrupt,
        edge_down=edge_down,
        straggler=straggler,
        telemetry_stale=stale,
        slot_length=spec.slot_length,
        meta=meta,
    )


def canonical_outage_plan(
    num_slots: int = 160, num_devices: int = 4, seed: int = 0
) -> FaultPlan:
    """The repo's canonical edge-outage scenario (``fig_faults``, the
    chaos CI job, and the acceptance tests share it).

    Background faults — sparse uplink drops/corruption, stragglers, stale
    telemetry — are drawn from ``seed``; on top, one *guaranteed*
    deterministic edge outage of ``num_slots // 8`` slots opens at
    ``num_slots // 3``, so time-to-recovery is measured against a known
    window regardless of the seed's own crash draws.
    """
    spec = FaultPlanSpec(
        num_slots=num_slots,
        num_devices=num_devices,
        drop_prob=0.03,
        corrupt_prob=0.02,
        crash_rate=0.0,  # the canonical outage is pinned, not drawn
        straggler_prob=0.03,
        straggler_slowdown=4.0,
        stale_prob=0.03,
    )
    plan = generate_fault_plan(spec, seed=seed)
    start = num_slots // 3
    stop = start + max(num_slots // 8, 1)
    edge_down = plan.edge_down.copy()
    edge_down[start:stop] = 1.0
    meta = dict(plan.meta)
    meta.update(outage_start=start, outage_stop=stop)
    return FaultPlan(
        uplink_drop=plan.uplink_drop,
        uplink_corrupt=plan.uplink_corrupt,
        edge_down=edge_down,
        straggler=plan.straggler,
        telemetry_stale=plan.telemetry_stale,
        slot_length=plan.slot_length,
        meta=meta,
    )
