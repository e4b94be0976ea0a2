"""Overload — admission, backpressure, and the ladder keep LEIME bounded.

The paper's control loop (§III-B) assumes demand inside the stability
region; a flash crowd pushes it far outside, and the unprotected
Lyapunov recursion simply queues without bound.  This harness replays
the pinned flash crowd
(:func:`~repro.traces.generators.canonical_flash_crowd`: base rate
everywhere, a fleet-wide ``magnitude``× burst over
``[crowd_start, crowd_stop)``) through both execution models, governed
vs ungoverned:

* **task level** (event simulator): LEIME with an
  :class:`~repro.resilience.overload.OverloadControl` — the admission
  gate sheds excess demand, backpressure keeps saturated edge queues
  from growing, and the :class:`~repro.resilience.overload.OverloadGovernor`
  steps the exit ladder — against the identical run with no overload
  layer.  Both engines (scalar closures and the array-backed fast path)
  replay the governed run byte-identically;
* **fluid level** (slot simulator): the same crowd through the analytic
  queue model, measuring backlog boundedness,
  :func:`~repro.resilience.slo.time_to_recovery`, and the ladder's own
  mode recovery — and verifying the scalar and vectorized paths stay
  byte-identical under governance.

Expected outcomes:

* ungoverned backlog grows monotonically throughout the crowd window
  and never recovers within the horizon, with a p99 TCT two orders of
  magnitude above the governed run's;
* the governed run stays bounded (max backlog a small multiple of the
  queue capacity), its ladder steps through degraded rungs and returns
  to :data:`~repro.resilience.overload.MODE_FULL` within a measurable
  number of slots after the crowd passes;
* the extended SLO identity ``generated = completed + dropped + shed +
  in-flight`` holds exactly at the task level, and the fluid twin
  conserves ``generated = admitted arrivals + shed``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..chaos.oracles import (
    event_conservation,
    event_results_close,
    records_equal,
)
from ..core.offloading import DriftPlusPenaltyPolicy
from ..resilience import MODE_FULL, OverloadControl, time_to_recovery
from ..sim.arrivals import TraceArrivals
from ..sim.events import EventSimulator
from ..sim.fast_events import run_fast
from ..sim.metrics import SimulationResult
from ..sim.simulator import SlotSimulator
from ..traces.generators import canonical_flash_crowd
from .common import TestbedConfig, format_rows, leime_scheme

#: Task deadline used for the reported miss rates (seconds of TCT).
DEADLINE_S = 10.0


@dataclass(frozen=True)
class OverloadSchemeRow:
    """One scheme's task-level outcome under the canonical flash crowd."""

    scheme: str
    tasks: int
    completed: int
    shed: int
    dropped: int
    in_flight: int
    mean_tct: float
    p99_tct: float
    deadline_miss_rate: float
    max_mode: int
    identity_holds: bool


@dataclass(frozen=True)
class OverloadFluidRow:
    """One scheme's fluid-level outcome (slot model) under the same crowd."""

    scheme: str
    max_backlog: float
    final_backlog: float
    shed: float
    crowd_monotone: bool
    recovery_slots: float
    mode_recovery_slots: float
    max_mode: int
    crowd_growth: float


@dataclass(frozen=True)
class FigOverloadResult:
    magnitude: float
    crowd_start: int
    crowd_stop: int
    rows: tuple[OverloadSchemeRow, ...]
    fluid_rows: tuple[OverloadFluidRow, ...]
    fluid_paths_identical: bool
    event_engines_identical: bool
    fluid_conservation: bool

    def by_scheme(self, name: str) -> OverloadSchemeRow:
        for row in self.rows:
            if row.scheme == name:
                return row
        raise KeyError(name)

    def fluid_by_scheme(self, name: str) -> OverloadFluidRow:
        for row in self.fluid_rows:
            if row.scheme == name:
                return row
        raise KeyError(name)


def _mode_recovery(modes: np.ndarray, crowd_stop: int) -> float:
    """Slots after ``crowd_stop`` until the rung timeline reads
    :data:`MODE_FULL` again — 0.0 if the ladder never engaged, ``inf``
    if it never returned within the horizon."""
    if not (modes > MODE_FULL).any():
        return 0.0
    for slot in range(min(crowd_stop, len(modes)), len(modes)):
        if modes[slot] == MODE_FULL:
            return float(slot - crowd_stop) if slot > crowd_stop else 0.0
    return math.inf


def run_fig_overload(
    num_slots: int = 160,
    seed: int = 0,
    num_devices: int = 4,
    base_rate: float = 0.3,
    magnitude: float = 80.0,
    crowd_start: int = 30,
    crowd_stop: int = 70,
    control: OverloadControl | None = None,
) -> FigOverloadResult:
    """Replay the canonical flash crowd governed and ungoverned (common
    randomness: the crowd is deterministic, and equal seeds give the
    governed/ungoverned twins identical arrival and exit draws)."""
    config = TestbedConfig(
        model="inception-v3",
        num_devices=num_devices,
        arrival_rate=base_rate,
    )
    scheme = leime_scheme(config)
    system = config.system(scheme.partition)
    if control is None:
        control = OverloadControl()
    rates = canonical_flash_crowd(
        num_slots=num_slots,
        num_devices=num_devices,
        base_rate=base_rate,
        magnitude=magnitude,
        crowd_start=crowd_start,
        crowd_stop=crowd_stop,
    )

    def arrivals() -> list[TraceArrivals]:
        return [
            TraceArrivals.from_series(rates[:, i]) for i in range(num_devices)
        ]

    def policy() -> DriftPlusPenaltyPolicy:
        return DriftPlusPenaltyPolicy(v=config.v)

    # --- Task level: the event simulator realises shedding, bounded
    # queues, and the ladder per task, so the governed/ungoverned gap is
    # visible in per-task counts and tail latency.
    def event_sim(overload: OverloadControl | None) -> EventSimulator:
        return EventSimulator(
            system=system, arrivals=arrivals(), seed=seed, overload=overload
        )

    governed = event_sim(control).run(policy(), num_slots)
    governed_fast = run_fast(event_sim(control), policy(), num_slots)
    ungoverned = event_sim(None).run(policy(), num_slots)

    rows = tuple(
        OverloadSchemeRow(
            scheme=name,
            tasks=len(result.tasks),
            completed=len(result.completed),
            shed=result.shed_count,
            dropped=result.dropped_count,
            in_flight=result.in_flight_count,
            mean_tct=result.mean_tct,
            p99_tct=result.tct_percentile(99.0),
            deadline_miss_rate=result.deadline_miss_rate(DEADLINE_S),
            max_mode=max(result.modes) if result.modes else MODE_FULL,
            identity_holds=not event_conservation(result),
        )
        for name, result in (
            ("LEIME + governor", governed),
            ("LEIME (ungoverned)", ungoverned),
        )
    )

    # --- Fluid level: the analytic queue model shows the stability-region
    # exit directly — the ungoverned Eq. 10-11 recursion grows without
    # bound for the whole crowd window.
    def fluid_run(
        overload: OverloadControl | None, vectorized: bool | None = None
    ) -> SimulationResult:
        return SlotSimulator(
            system=system,
            arrivals=arrivals(),
            seed=seed,
            vectorized=vectorized,
            overload=overload,
        ).run(policy(), num_slots)

    governed_scalar = fluid_run(control, vectorized=False)
    governed_fluid = fluid_run(control, vectorized=True)
    ungoverned_fluid = fluid_run(None)

    def fluid_row(name: str, result: SimulationResult) -> OverloadFluidRow:
        backlog = result.backlog_timeline()
        modes = result.mode_timeline()
        crowd = backlog[crowd_start + 1 : crowd_stop]
        return OverloadFluidRow(
            scheme=name,
            max_backlog=result.max_backlog,
            final_backlog=result.final_backlog,
            shed=result.total_shed,
            crowd_monotone=bool(np.all(np.diff(crowd) > 0)),
            recovery_slots=time_to_recovery(result, crowd_start, crowd_stop),
            mode_recovery_slots=_mode_recovery(modes, crowd_stop),
            max_mode=int(modes.max()) if modes.size else MODE_FULL,
            # Backlog growth per slot across the crowd window — the
            # stability-region story in one number (is_stable's
            # second-half proxy would read "stable" even for the
            # ungoverned run, whose huge backlog merely stops growing
            # once the crowd passes).
            crowd_growth=float(
                (backlog[crowd_stop - 1] - backlog[crowd_start])
                / max(crowd_stop - 1 - crowd_start, 1)
            ),
        )

    fluid_rows = (
        fluid_row("LEIME + governor", governed_fluid),
        fluid_row("LEIME (ungoverned)", ungoverned_fluid),
    )
    conservation = math.isclose(
        governed_fluid.total_generated,
        governed_fluid.total_arrivals + governed_fluid.total_shed,
        rel_tol=1e-12,
        abs_tol=1e-9,
    )
    return FigOverloadResult(
        magnitude=magnitude,
        crowd_start=crowd_start,
        crowd_stop=crowd_stop,
        rows=rows,
        fluid_rows=fluid_rows,
        fluid_paths_identical=records_equal(
            governed_scalar.records, governed_fluid.records
        ),
        event_engines_identical=event_results_close(governed, governed_fast),
        fluid_conservation=conservation,
    )


def main() -> None:
    result = run_fig_overload()
    print(
        "Overload — canonical flash crowd "
        f"({result.magnitude:.0f}x demand over slots "
        f"{result.crowd_start}-{result.crowd_stop})"
    )
    print()
    print("Task level (event simulator):")
    print(
        format_rows(
            (
                "scheme",
                "tasks",
                "completed",
                "shed",
                "dropped",
                "mean TCT (s)",
                "p99 TCT (s)",
                f"miss@{DEADLINE_S:.0f}s",
                "max rung",
            ),
            [
                (
                    row.scheme,
                    row.tasks,
                    row.completed,
                    row.shed,
                    row.dropped,
                    f"{row.mean_tct:.3f}",
                    f"{row.p99_tct:.2f}",
                    f"{row.deadline_miss_rate:.1%}",
                    row.max_mode,
                )
                for row in result.rows
            ],
        )
    )
    print()
    print("Fluid level (slot simulator):")
    print(
        format_rows(
            (
                "scheme",
                "max backlog",
                "final",
                "shed",
                "crowd monotone",
                "recovery (slots)",
                "rung recovery",
                "crowd growth/slot",
            ),
            [
                (
                    row.scheme,
                    f"{row.max_backlog:.1f}",
                    f"{row.final_backlog:.1f}",
                    f"{row.shed:.0f}",
                    str(row.crowd_monotone),
                    "never"
                    if math.isinf(row.recovery_slots)
                    else f"{row.recovery_slots:.0f}",
                    "never"
                    if math.isinf(row.mode_recovery_slots)
                    else f"{row.mode_recovery_slots:.0f}",
                    f"{row.crowd_growth:+.2f}",
                )
                for row in result.fluid_rows
            ],
        )
    )
    print()
    print(
        "fluid paths: "
        + (
            "byte-identical"
            if result.fluid_paths_identical
            else "DIVERGED"
        )
        + " | event engines: "
        + (
            "byte-identical"
            if result.event_engines_identical
            else "DIVERGED"
        )
        + " | fluid conservation: "
        + ("holds" if result.fluid_conservation else "VIOLATED")
    )


if __name__ == "__main__":
    main()
