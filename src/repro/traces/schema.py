"""The trace schema: named per-slot series with churn-aware validation.

A :class:`Trace` is a bundle of :class:`TraceChannel` series sharing one
slot axis.  Five canonical channels describe the wild edge of §II-A:

====================  =========  ======================================
channel               units      meaning
====================  =========  ======================================
``bandwidth``         bytes/s    per-device uplink bandwidth ``B_i^e(t)``
``latency``           s          per-device uplink latency ``L_i^e(t)``
``edge_flops``        FLOPS      shared edge capacity ``F^e(t)`` (1-D)
``arrival_rate``      tasks/slot per-device expected arrivals ``k_i(t)``
``up``                bool       device churn mask (1 = reachable)
====================  =========  ======================================

Churn uses NaN as the explicit "no signal" value: where ``up`` is 0 a
device's bandwidth/latency/arrival-rate samples may be NaN (an offline
device reports nothing), and validation *rejects* NaN and ±inf anywhere
a device is up.  Replay treats a down slot as zero arrivals on the device's
configured baseline link.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping

import numpy as np

#: Canonical channel names and their units.  Extra channels are allowed
#: (a trace may carry auxiliary series); these five are validated.
CHANNEL_UNITS: dict[str, str] = {
    "bandwidth": "bytes/s",
    "latency": "s",
    "edge_flops": "flops",
    "arrival_rate": "tasks/slot",
    "up": "bool",
    "edge_assignment": "edge index",
}

#: Channels that must be strictly positive where the device is up.
_POSITIVE = ("bandwidth", "edge_flops")
#: Channels that must be non-negative where the device is up.
_NON_NEGATIVE = ("latency", "arrival_rate")


class TraceValidationError(ValueError):
    """A trace (or serialized trace file) violates the schema."""


@dataclass(frozen=True)
class TraceChannel:
    """One named series: ``(num_slots,)`` shared or ``(num_slots, N)``
    per-device float64 values."""

    name: str
    values: np.ndarray
    units: str = ""

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim not in (1, 2) or values.shape[0] == 0:
            raise TraceValidationError(
                f"channel {self.name!r} needs a non-empty 1-D or 2-D array, "
                f"got shape {values.shape}"
            )
        object.__setattr__(self, "values", values)
        if not self.name:
            raise TraceValidationError("channel name must be non-empty")
        if not self.units:
            object.__setattr__(
                self, "units", CHANNEL_UNITS.get(self.name, "")
            )

    @property
    def num_slots(self) -> int:
        return self.values.shape[0]

    @property
    def per_device(self) -> bool:
        return self.values.ndim == 2

    def at(self, slot: int) -> np.ndarray | float:
        """The channel's value(s) in ``slot`` (no cycling — callers clamp)."""
        return self.values[slot]


@dataclass(frozen=True)
class Trace:
    """A validated bundle of channels over one slot axis.

    Attributes:
        channels: The series; canonical names get schema validation.
        slot_length: τ in seconds — the slot the series is sampled at.
        meta: Free-form provenance (generator name, seed, spec fields);
            values must be JSON-serializable scalars or strings.
    """

    channels: tuple[TraceChannel, ...]
    slot_length: float = 1.0
    meta: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.channels:
            raise TraceValidationError("a trace needs at least one channel")
        if self.slot_length <= 0:
            raise TraceValidationError("slot_length must be positive")
        names = [c.name for c in self.channels]
        if len(set(names)) != len(names):
            raise TraceValidationError(f"duplicate channel names in {names}")
        slots = {c.num_slots for c in self.channels}
        if len(slots) != 1:
            raise TraceValidationError(
                f"channels disagree on the slot axis: {sorted(slots)}"
            )
        widths = {c.values.shape[1] for c in self.channels if c.per_device}
        if len(widths) > 1:
            raise TraceValidationError(
                f"per-device channels disagree on device count: {sorted(widths)}"
            )
        object.__setattr__(self, "meta", dict(self.meta))
        self._validate_canonical()

    # -- schema checks for the canonical channels ---------------------------

    def _validate_canonical(self) -> None:
        up = self.get("up")
        if up is not None:
            values = up.values
            if np.isnan(values).any() or not np.isin(values, (0.0, 1.0)).all():
                raise TraceValidationError("'up' must contain only 0/1")
        up_mask = self._up_mask_2d()
        for name in _POSITIVE + _NON_NEGATIVE:
            channel = self.get(name)
            if channel is None:
                continue
            values = channel.values
            # Per-device series are only constrained where the device is
            # up (NaN is the legal "offline" value); shared 1-D series
            # (edge capacity) must be valid everywhere.
            live = values[up_mask] if channel.per_device else values
            if np.isnan(live).any():
                raise TraceValidationError(
                    f"channel {name!r} has NaN where devices are up"
                )
            if np.isinf(live).any():
                raise TraceValidationError(
                    f"channel {name!r} has inf where devices are up"
                )
            if name in _POSITIVE and not (live > 0).all():
                raise TraceValidationError(f"channel {name!r} must be positive")
            if name in _NON_NEGATIVE and not (live >= 0).all():
                raise TraceValidationError(
                    f"channel {name!r} must be non-negative"
                )

    def _up_mask_2d(self) -> np.ndarray:
        """The ``(num_slots, num_devices)`` boolean up mask."""
        shape = (self.num_slots, self.num_devices)
        up = self.get("up")
        if up is None:
            return np.ones(shape, dtype=bool)
        mask = up.values.astype(bool)
        if not up.per_device:
            mask = np.broadcast_to(mask[:, None], shape)
        return mask

    # -- access -------------------------------------------------------------

    @property
    def num_slots(self) -> int:
        return self.channels[0].num_slots

    @property
    def num_devices(self) -> int:
        """Device count (1 when no per-device channel is present)."""
        for channel in self.channels:
            if channel.per_device:
                return channel.values.shape[1]
        return 1

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.channels)

    def __iter__(self) -> Iterator[TraceChannel]:
        return iter(self.channels)

    def get(self, name: str) -> TraceChannel | None:
        for channel in self.channels:
            if channel.name == name:
                return channel
        return None

    def channel(self, name: str) -> TraceChannel:
        channel = self.get(name)
        if channel is None:
            raise KeyError(
                f"trace has no channel {name!r}; available: {self.names}"
            )
        return channel

    def up_at(self, slot: int) -> np.ndarray:
        """Boolean device-up mask for ``slot`` (all-up without churn)."""
        up = self.get("up")
        if up is None:
            return np.ones(self.num_devices, dtype=bool)
        row = up.values[slot]
        if up.per_device:
            return row.astype(bool)
        return np.full(self.num_devices, bool(row))

    def window(self, start: int, stop: int) -> "Trace":
        """The sub-trace covering slots ``[start, stop)``."""
        if not 0 <= start < stop <= self.num_slots:
            raise ValueError(
                f"need 0 <= start < stop <= {self.num_slots}, "
                f"got [{start}, {stop})"
            )
        return Trace(
            channels=tuple(
                TraceChannel(c.name, c.values[start:stop], c.units)
                for c in self.channels
            ),
            slot_length=self.slot_length,
            meta=dict(self.meta),
        )

    def describe(self) -> dict[str, dict[str, float]]:
        """NaN-aware per-channel summary stats (the ``trace describe`` CLI)."""
        summary: dict[str, dict[str, float]] = {}
        for channel in self.channels:
            values = channel.values
            finite = values[np.isfinite(values)]
            stats = {
                "min": float(finite.min()) if finite.size else float("nan"),
                "mean": float(finite.mean()) if finite.size else float("nan"),
                "max": float(finite.max()) if finite.size else float("nan"),
                "nan_fraction": float(np.isnan(values).mean()),
            }
            summary[channel.name] = stats
        return summary
