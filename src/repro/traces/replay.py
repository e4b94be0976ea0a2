"""Replay adapters: feed one trace to every execution path.

* :func:`arrival_processes` turns the ``arrival_rate`` × ``up`` channels
  into one :class:`~repro.sim.arrivals.TraceArrivals` per device (down
  slots replay as zero arrivals);
* :class:`TraceEnvironment` implements the simulator's
  :class:`~repro.sim.environment.DynamicEnvironment` protocol *plus* the
  ``system_at`` extension: per-slot device links from the
  ``bandwidth``/``latency`` channels and per-slot shared edge capacity
  from ``edge_flops``.  The :class:`~repro.sim.simulator.SlotSimulator`
  applies both on the scalar and the vectorized path identically;
* :func:`replay_trace` is the one-call "run this policy under this
  trace" entry the CLI, the benchmarks, and the README snippet share.

A down device keeps its *configured* baseline link (its trace samples are
NaN — it reports nothing) and contributes zero arrivals; its queues keep
draining, modelling a reboot rather than data loss.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..core.offloading import (
    DeviceConfig,
    EdgeSystem,
    LiveFleet,
    OffloadingPolicy,
)
from ..sim.arrivals import TraceArrivals
from ..sim.metrics import SimulationResult
from .schema import Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.events import EventSimResult


def _channel_matrix(trace: Trace, name: str) -> np.ndarray | None:
    """The channel as an ``(S, num_devices)`` matrix, or ``None``."""
    channel = trace.get(name)
    if channel is None:
        return None
    values = channel.values
    if not channel.per_device:
        values = np.broadcast_to(
            values[:, None], (trace.num_slots, trace.num_devices)
        )
    return values


def arrival_processes(
    trace: Trace, poisson: bool = False, cycle: bool = True
) -> list[TraceArrivals]:
    """One arrival process per trace device.

    The per-slot mean is ``arrival_rate`` gated by the ``up`` churn mask
    (offline → 0); ``poisson=True`` replays the means as Poisson draws
    instead of deterministic counts.
    """
    rates = _channel_matrix(trace, "arrival_rate")
    if rates is None:
        raise ValueError("trace has no 'arrival_rate' channel")
    up = np.stack([trace.up_at(t) for t in range(trace.num_slots)])
    effective = np.where(up, np.nan_to_num(rates, nan=0.0), 0.0)
    return [
        TraceArrivals.from_series(
            effective[:, i], poisson=poisson, cycle=cycle
        )
        for i in range(trace.num_devices)
    ]


@dataclass
class TraceEnvironment:
    """Drive a simulator's per-slot conditions from a trace.

    Implements ``devices_at`` (per-device link overrides where the trace
    carries ``bandwidth``/``latency``, as one
    :class:`~repro.core.offloading.LiveFleet` per slot) and the
    ``system_at`` extension the :class:`~repro.sim.simulator.SlotSimulator`
    probes for (per-slot ``edge_flops``).  The KKT ``shares`` stay as
    deployed — edge capacity scales, the proportional split does not
    re-run per slot.

    Attributes:
        trace: The replayed trace.
        cycle: Past the trace end, wrap around (default) or hold the
            last slot.
    """

    trace: Trace
    cycle: bool = True

    def __post_init__(self) -> None:
        self._bandwidth = _channel_matrix(self.trace, "bandwidth")
        self._latency = _channel_matrix(self.trace, "latency")
        edge = self.trace.get("edge_flops")
        self._edge = None if edge is None else np.ravel(edge.values)
        # The columns of the last base fleet seen.
        self._fleet: LiveFleet | None = None
        # Per-slot caches: rebuilding an EdgeSystem re-runs validation,
        # so reuse the previous object while the base system and the
        # capacity are unchanged.
        self._last_base: EdgeSystem | None = None
        self._last_edge_flops: float | None = None
        self._last_system: EdgeSystem | None = None

    def __deepcopy__(self, memo: dict) -> "TraceEnvironment":
        # A run steps its own copy; the trace is immutable, so the copy
        # shares it and starts with empty caches.
        return type(self)(self.trace, self.cycle)

    def _index(self, slot: int) -> int:
        if self.cycle:
            return slot % self.trace.num_slots
        return min(slot, self.trace.num_slots - 1)

    def devices_at(
        self, slot: int, base: Sequence[DeviceConfig], rng: np.random.Generator
    ) -> Sequence[DeviceConfig]:
        if self._bandwidth is None and self._latency is None:
            return tuple(base)
        if len(base) != self.trace.num_devices:
            raise ValueError(
                f"trace covers {self.trace.num_devices} devices but the "
                f"system has {len(base)}"
            )
        t = self._index(slot)
        fleet = self._fleet = LiveFleet.of(base, self._fleet)
        # Offline devices keep their baseline link and carry zero traffic
        # (the arrival adapter gates the rate with the same mask).
        up = self.trace.up_at(t)
        return fleet.with_columns(
            bandwidth=(
                None
                if self._bandwidth is None
                else np.where(up, self._bandwidth[t], fleet.bandwidth)
            ),
            latency=(
                None
                if self._latency is None
                else np.where(up, self._latency[t], fleet.latency)
            ),
        )

    def system_at(self, slot: int, base: EdgeSystem) -> EdgeSystem:
        """The system in effect during ``slot`` (per-slot edge capacity)."""
        if self._edge is None:
            return base
        edge_flops = float(self._edge[self._index(slot)])
        if edge_flops == base.edge_flops:
            return base
        if base is not self._last_base or edge_flops != self._last_edge_flops:
            self._last_system = replace(base, edge_flops=edge_flops)
            self._last_base, self._last_edge_flops = base, edge_flops
        return self._last_system


def replay_trace(
    system: EdgeSystem,
    trace: Trace,
    policy: OffloadingPolicy,
    num_slots: int | None = None,
    seed: int = 0,
    vectorized: bool | None = None,
    include_tail: bool = True,
    poisson: bool = False,
    events: bool = False,
    engine: str = "scalar",
) -> "SimulationResult | EventSimResult":
    """Run ``policy`` on ``system`` under ``trace`` for ``num_slots``
    (defaults to the trace length) — the 3-line dynamic-environment
    simulation, as one call.

    ``vectorized`` picks the fluid data plane as
    :class:`~repro.sim.simulator.SlotSimulator` does: by fleet size when
    ``None``, forced by ``True``/``False``.

    ``events=True`` replays the trace through the task-level
    :class:`~repro.sim.events.EventSimulator` instead of the fluid slot
    model, returning an :class:`~repro.sim.events.EventSimResult`;
    ``engine`` then picks the scalar reference loop or the array-backed
    fast lane (``"fast"`` — same seeded per-task results, see
    :mod:`repro.sim.fast_events`).  The event path applies the trace's
    per-slot link channels; the ``edge_flops`` channel is a slot-model
    extension and is ignored here.
    """
    if system.num_devices != trace.num_devices:
        raise ValueError(
            f"system has {system.num_devices} devices but the trace covers "
            f"{trace.num_devices}"
        )
    if events:
        from ..sim.events import EventSimulator

        return EventSimulator(
            system=system,
            arrivals=arrival_processes(trace, poisson=poisson),
            environment=TraceEnvironment(trace),
            seed=seed,
        ).run(
            policy,
            num_slots or trace.num_slots,
            drain=include_tail,
            drain_limit_factor=100.0,
            engine=engine,
        )
    from ..sim.simulator import SlotSimulator

    simulator = SlotSimulator(
        system=system,
        arrivals=arrival_processes(trace, poisson=poisson),
        environment=TraceEnvironment(trace),
        include_tail=include_tail,
        seed=seed,
        vectorized=vectorized,
    )
    return simulator.run(policy, num_slots or trace.num_slots)
