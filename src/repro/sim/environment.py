"""Dynamic network environments (the "wild edge" of §II-A).

The testbed shaped links with COMCAST; we substitute per-slot overrides of
each device's :class:`~repro.hardware.NetworkProfile`.  Environments return
the device configs to use *this slot*; policies and the cost model then see
the live bandwidth/latency while exit setting planned against the averages —
exactly the transient mismatch LEIME's online phase is designed to absorb.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from ..core.offloading import DeviceConfig, LiveFleet


class DynamicEnvironment(Protocol):
    """Per-slot view of the device population's live conditions.

    ``devices_at`` returns the device configs in effect during the slot,
    in one of two forms:

    * ``base`` itself, the same tuple every slot, when the environment
      leaves the devices alone (a consumer may skip its per-slot refresh
      when it gets the object it saw last slot);
    * a :class:`~repro.core.offloading.LiveFleet` when it overrides
      them: the base configs plus the slot's ``flops``, ``bandwidth``
      and ``latency`` as float64 columns, checked as the slot is derived
      (``LiveFleet.with_columns``) with the :class:`DeviceConfig` and
      :class:`~repro.hardware.NetworkProfile` conditions.  Array
      consumers (``FleetParams.from_system``, through which every
      row-separable policy decides, and the fast event engine) read the
      columns; a per-device consumer indexes it and gets a memoised
      config.

    An environment that overrides devices keeps the columns of the last
    base tuple it saw (``LiveFleet.of(base, last)``), so a slot reads no
    config object.
    """

    def devices_at(
        self, slot: int, base: Sequence[DeviceConfig], rng: np.random.Generator
    ) -> Sequence[DeviceConfig]:
        """The device configs in effect during ``slot``."""
        ...


@dataclass(frozen=True)
class StaticEnvironment:
    """No dynamics: every slot sees the configured conditions."""

    def devices_at(
        self, slot: int, base: Sequence[DeviceConfig], rng: np.random.Generator
    ) -> tuple[DeviceConfig, ...]:
        return tuple(base)


@dataclass
class RandomWalkEnvironment:
    """Log-space random walk on each device's bandwidth, clamped to the wild
    range of §II-A (1-30 Mbps by default), with fixed latency.

    The walk is stateful: each call advances every device's multiplicative
    factor by one log-normal step, so conditions drift slowly rather than
    jumping independently each slot — the "changing dramatically and
    unpredictably" regime the paper's §II-B2 conclusion describes.

    Attributes:
        sigma: Per-slot standard deviation of the log-bandwidth step.
        min_bandwidth: Clamp floor (bytes/s).
        max_bandwidth: Clamp ceiling (bytes/s).
    """

    sigma: float = 0.1
    min_bandwidth: float = 1e6 / 8
    max_bandwidth: float = 30e6 / 8

    def __post_init__(self) -> None:
        # Chained comparisons are False for NaN, so NaN fails too.
        if not 0 <= self.sigma < math.inf:
            raise ValueError("sigma must be finite and non-negative")
        if not 0 < self.min_bandwidth <= self.max_bandwidth < math.inf:
            raise ValueError("need 0 < min_bandwidth <= max_bandwidth < inf")
        self._factors: list[float] = []
        self._fleet: LiveFleet | None = None

    def devices_at(
        self, slot: int, base: Sequence[DeviceConfig], rng: np.random.Generator
    ) -> LiveFleet:
        fleet = self._fleet = LiveFleet.of(base, self._fleet)
        if len(self._factors) != len(fleet):
            self._factors = [1.0] * len(fleet)
        factors = self._factors
        walked = []
        for i, configured in enumerate(fleet.bandwidth.tolist()):
            factors[i] *= float(np.exp(rng.normal(0.0, self.sigma)))
            bandwidth = min(
                max(configured * factors[i], self.min_bandwidth),
                self.max_bandwidth,
            )
            # Keep the walk inside the clamp so it cannot drift arbitrarily
            # far beyond the representable range.
            factors[i] = bandwidth / configured
            walked.append(bandwidth)
        return fleet.with_columns(bandwidth=walked)
