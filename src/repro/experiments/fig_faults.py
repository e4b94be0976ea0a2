"""Fault injection — recovery keeps LEIME graceful through an outage.

The paper's evaluation assumes the testbed stays up; real edge
deployments lose links and edge servers mid-run.  This harness replays
the canonical seeded outage plan
(:func:`~repro.resilience.faults.canonical_outage_plan`: background
uplink drops/corruption and stragglers, plus one pinned edge outage a
third of the way in) through both execution models:

* **task level** (event simulator): LEIME with the default
  :class:`~repro.resilience.recovery.RecoveryPolicy` (bounded
  exponential-backoff retries, local fallback, dead-edge exclusion,
  telemetry watchdog) against LEIME and a FixedRatio baseline with no
  recovery at all (first fault contact drops the task);
* **fluid level** (slot simulator): the same plan and budget passed as
  ``faults=``/``recovery=`` (:mod:`repro.resilience.environment` says
  how the fluid model reads them), measuring queue boundedness and
  :func:`~repro.resilience.slo.time_to_recovery` after the outage — and
  verifying the scalar and vectorized paths replay the plan
  byte-identically.

Expected outcomes:

* LEIME + recovery completes ≥ 95% of tasks (retries ride out the
  outage; raw-input give-ups fall back to local execution) while the
  no-recovery runs visibly degrade;
* at the fluid level the resilient policy's backlog stays bounded and
  recovers quickly after the outage, while the fixed-ratio baseline
  keeps shipping work into the degraded uplink/edge and queues up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..chaos.oracles import records_equal
from ..core.offloading import DriftPlusPenaltyPolicy, FixedRatioPolicy
from ..resilience import (
    FaultPlan,
    RecoveryPolicy,
    canonical_outage_plan,
    time_to_recovery,
)
from ..sim.events import EventSimulator
from ..sim.metrics import SimulationResult
from ..sim.simulator import SlotSimulator
from .common import TestbedConfig, format_rows, leime_scheme

#: Task deadline used for the reported miss rates (seconds of TCT).
DEADLINE_S = 10.0


@dataclass(frozen=True)
class FaultSchemeRow:
    """One scheme's task-level outcome under the canonical outage plan."""

    scheme: str
    tasks: int
    completion_rate: float
    dropped: int
    retries: int
    mean_tct: float
    deadline_miss_rate: float


@dataclass(frozen=True)
class FaultFluidRow:
    """One policy's fluid-level outcome (slot model) under the same plan."""

    scheme: str
    mean_tct: float
    max_backlog: float
    recovery_slots: float
    stable: bool


@dataclass(frozen=True)
class FigFaultsResult:
    plan: FaultPlan
    rows: tuple[FaultSchemeRow, ...]
    fluid_rows: tuple[FaultFluidRow, ...]
    paths_identical: bool

    def by_scheme(self, name: str) -> FaultSchemeRow:
        for row in self.rows:
            if row.scheme == name:
                return row
        raise KeyError(name)

    def fluid_by_scheme(self, name: str) -> FaultFluidRow:
        for row in self.fluid_rows:
            if row.scheme == name:
                return row
        raise KeyError(name)


def run_fig_faults(
    num_slots: int = 160,
    seed: int = 0,
    num_devices: int = 4,
    arrival_rate: float = 0.3,
) -> FigFaultsResult:
    """Replay the canonical outage plan through every compared scheme
    (common randomness: one plan, and per-level common arrival draws)."""
    config = TestbedConfig(
        model="inception-v3",
        num_devices=num_devices,
        arrival_rate=arrival_rate,
    )
    scheme = leime_scheme(config)
    system = config.system(scheme.partition)
    plan = canonical_outage_plan(
        num_slots=num_slots, num_devices=num_devices, seed=seed
    )

    # --- Task level: the event simulator takes the plan directly and
    # models drops/outages discretely, so recovery-vs-none is visible in
    # completed/dropped counts.
    task_schemes = (
        ("LEIME + recovery", DriftPlusPenaltyPolicy(v=config.v), RecoveryPolicy.default()),
        ("LEIME (no recovery)", DriftPlusPenaltyPolicy(v=config.v), RecoveryPolicy.none()),
        (
            "FixedRatio (no recovery)",
            FixedRatioPolicy(0.5, respect_constraint=False),
            RecoveryPolicy.none(),
        ),
    )
    rows = []
    for name, policy, recovery in task_schemes:
        result = EventSimulator(
            system=system,
            arrivals=config.arrival_processes(),
            seed=seed,
            faults=plan,
            recovery=recovery,
        ).run(policy, num_slots, drain_limit_factor=100.0)
        rows.append(
            FaultSchemeRow(
                scheme=name,
                tasks=len(result.tasks),
                completion_rate=result.completion_rate,
                dropped=result.dropped_count,
                retries=result.total_retries,
                mean_tct=result.mean_tct,
                deadline_miss_rate=result.deadline_miss_rate(DEADLINE_S),
            )
        )

    # --- Fluid level: the same plan overlaid on the analytic queue model,
    # for backlog boundedness and time-to-recovery after the outage.
    outage_start = int(plan.meta["outage_start"])
    outage_stop = int(plan.meta["outage_stop"])

    def fluid_run(policy, recovery=None, vectorized=None) -> SimulationResult:
        return SlotSimulator(
            system=system,
            arrivals=config.arrival_processes(),
            seed=seed,
            vectorized=vectorized,
            faults=plan,
            recovery=recovery,
        ).run(policy, num_slots)

    resilient = RecoveryPolicy.default()
    leime_scalar = fluid_run(DriftPlusPenaltyPolicy(v=config.v), resilient, False)
    leime_fluid = fluid_run(DriftPlusPenaltyPolicy(v=config.v), resilient, True)
    fixed_fluid = fluid_run(FixedRatioPolicy(0.5, respect_constraint=False))
    fluid_rows = tuple(
        FaultFluidRow(
            scheme=name,
            mean_tct=result.mean_tct,
            max_backlog=result.max_backlog,
            recovery_slots=time_to_recovery(result, outage_start, outage_stop),
            stable=result.is_stable(),
        )
        for name, result in (
            ("LEIME + recovery", leime_fluid),
            ("FixedRatio (no recovery)", fixed_fluid),
        )
    )
    return FigFaultsResult(
        plan=plan,
        rows=tuple(rows),
        fluid_rows=fluid_rows,
        paths_identical=records_equal(
            leime_scalar.records, leime_fluid.records
        ),
    )


def main() -> None:
    result = run_fig_faults()
    described = result.plan.describe()
    print(
        "Faults — canonical outage plan "
        f"(edge down slots {result.plan.meta['outage_start']}-"
        f"{result.plan.meta['outage_stop']}, "
        f"uplink drop {described['drop_fraction']:.1%}, "
        f"corrupt {described['corrupt_fraction']:.1%})"
    )
    print()
    print("Task level (event simulator):")
    print(
        format_rows(
            (
                "scheme",
                "tasks",
                "completion",
                "dropped",
                "retries",
                "mean TCT (s)",
                f"miss@{DEADLINE_S:.0f}s",
            ),
            [
                (
                    row.scheme,
                    row.tasks,
                    f"{row.completion_rate:.3f}",
                    row.dropped,
                    row.retries,
                    f"{row.mean_tct:.3f}",
                    f"{row.deadline_miss_rate:.1%}",
                )
                for row in result.rows
            ],
        )
    )
    print()
    print("Fluid level (slot simulator):")
    print(
        format_rows(
            ("scheme", "mean TCT (s)", "max backlog", "recovery (slots)", "stable"),
            [
                (
                    row.scheme,
                    f"{row.mean_tct:.3f}",
                    f"{row.max_backlog:.1f}",
                    "never" if math.isinf(row.recovery_slots) else f"{row.recovery_slots:.0f}",
                    str(row.stable),
                )
                for row in result.fluid_rows
            ],
        )
    )
    print()
    print(
        "paths: "
        + ("byte-identical" if result.paths_identical else "DIVERGED")
    )


if __name__ == "__main__":
    main()
