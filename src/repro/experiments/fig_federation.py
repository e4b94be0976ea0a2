"""Federation — migration-with-failover through a partial edge outage.

The single-edge resilience demo (``fig_faults``) loses the *whole* edge
when the outage hits; in a federation the outage is partial, and the
interesting question is what the orchestrator does with the dead
cluster's devices.  This harness replays the canonical partial outage
(:func:`~repro.federation.faults.canonical_partial_outage`: one pinned
window on the busiest edge, peers healthy) through two assignment plans
over the *same* federation, arrivals, and seeds:

* **failover** — :func:`~repro.federation.assignment.
  build_assignment_plan` with ``migrate=True``: the dead edge's members
  re-home to their nearest alive peer for exactly the outage window and
  return when it lifts;
* **no failover** — ``migrate=False``: the members keep submitting into
  the dead edge and their offloaded work drops on contact (no recovery
  retries, so the loss is undiluted).

Arrivals are deterministic (one task per device per slot), so both
schemes generate identically many tasks and the completion gap is pure
failover effect.  Expected outcome — and the acceptance gate the CLI
demo prints: **failover completes strictly more tasks**, because every
task the dead edge would have dropped completes at a healthy peer
instead.  A fluid stanza shows the same story at the queue level and
verifies the sharded scalar and vectorized coordinators replay the
scenario byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.offloading import FixedRatioPolicy
from ..federation import (
    AssignmentPlan,
    FederatedEventSimulator,
    FederatedSlotSimulator,
    FederationFaultPlan,
    FederationTopology,
    build_assignment_plan,
    canonical_partial_outage,
    federated_slo_summary,
    random_federation,
)
from ..models.multi_exit import MultiExitDNN
from ..models.zoo import build_model
from ..resilience.recovery import RecoveryPolicy
from ..sim.arrivals import ConstantArrivals
from .common import format_rows

#: Offload ratio for the demo policy — high enough that a dead edge
#: visibly hurts, low enough that local execution stays in the picture.
OFFLOAD_RATIO = 0.7


@dataclass(frozen=True)
class FederationSchemeRow:
    """One assignment scheme's task-level outcome under the outage."""

    scheme: str
    generated: int
    completed: int
    dropped: int
    completion_rate: float
    migrations: int


@dataclass(frozen=True)
class FigFederationResult:
    topology: FederationTopology
    faults: FederationFaultPlan
    rows: tuple[FederationSchemeRow, ...]
    #: Per-edge SLO blocks of the failover run (the partial-outage view).
    failover_summary: dict
    #: completed(failover) − completed(no failover); the gate is > 0.
    migration_gain: int
    fluid_backlogs: dict[str, float]
    fluid_paths_identical: bool

    def by_scheme(self, name: str) -> FederationSchemeRow:
        for row in self.rows:
            if row.scheme == name:
                return row
        raise KeyError(name)


def _busiest_edge(topology: FederationTopology) -> int:
    """The home edge with the most members — killing it maximises the
    failover signal and guarantees the outage actually hits someone."""
    homes = topology.home_assignment()
    counts = [0] * topology.num_edges
    for e in homes:
        counts[e] += 1
    return max(range(topology.num_edges), key=lambda e: counts[e])


def run_fig_federation(
    num_slots: int = 96,
    seed: int = 0,
    num_edges: int = 3,
    num_devices: int = 9,
    arrival_rate: float = 1.0,
) -> FigFederationResult:
    """Replay the canonical partial outage with and without failover."""
    partition = MultiExitDNN(build_model("inception-v3")).partition_at(5, 14)
    topology = random_federation(
        seed=seed,
        num_edges=num_edges,
        num_devices=num_devices,
        partition=partition,
    )
    faults = canonical_partial_outage(
        num_slots, num_edges, edge=_busiest_edge(topology), seed=seed
    )
    arrivals = [ConstantArrivals(arrival_rate) for _ in range(num_devices)]
    plans = (
        (
            "failover",
            build_assignment_plan(
                topology, num_slots, seed=seed, outages=faults.edge_down
            ),
        ),
        (
            "no failover",
            build_assignment_plan(
                topology,
                num_slots,
                seed=seed,
                outages=faults.edge_down,
                migrate=False,
            ),
        ),
    )

    def run_events(plan: AssignmentPlan):
        return FederatedEventSimulator(
            topology=topology,
            arrivals=arrivals,
            plan=plan,
            seed=seed,
            faults=faults,
            recovery=RecoveryPolicy.none(),
        ).run(
            FixedRatioPolicy(OFFLOAD_RATIO, respect_constraint=False),
            num_slots,
            drain_limit_factor=100.0,
        )

    rows = []
    results = {}
    for name, plan in plans:
        result = run_events(plan)
        results[name] = result
        merged = result.merged()
        rows.append(
            FederationSchemeRow(
                scheme=name,
                generated=len(merged.tasks),
                completed=len(merged.completed),
                dropped=merged.dropped_count,
                completion_rate=merged.completion_rate,
                migrations=len(plan.migrations()),
            )
        )

    def run_fluid(plan: AssignmentPlan, vectorized: bool | None = None):
        return FederatedSlotSimulator(
            topology=topology,
            arrivals=arrivals,
            plan=plan,
            seed=seed,
            vectorized=vectorized,
            faults=faults,
        ).run(
            FixedRatioPolicy(OFFLOAD_RATIO, respect_constraint=False),
            num_slots,
        )

    # The failover plan runs on both planes (the twin check); the other
    # plan takes the plane its fleet size picks.
    failover = plans[0][1]
    fluid = {
        name: run_fluid(plan, vectorized=True if plan is failover else None)
        for name, plan in plans
    }
    fluid_scalar = run_fluid(failover, vectorized=False)
    fluid_paths_identical = (
        fluid_scalar.global_result.records
        == fluid["failover"].global_result.records
    )

    return FigFederationResult(
        topology=topology,
        faults=faults,
        rows=tuple(rows),
        failover_summary=federated_slo_summary(results["failover"]),
        migration_gain=(
            rows[0].completed - rows[1].completed
        ),
        fluid_backlogs={
            name: result.global_result.max_backlog
            for name, result in fluid.items()
        },
        fluid_paths_identical=fluid_paths_identical,
    )


def main() -> None:
    result = run_fig_federation()
    start = result.faults.meta["outage_start"]
    stop = result.faults.meta["outage_stop"]
    edge = result.faults.meta["edge"]
    print(
        f"Federation — {result.topology.num_edges} edges, "
        f"{result.topology.num_devices} devices; edge {edge} down "
        f"slots {start}-{stop}"
    )
    print()
    print(
        format_rows(
            (
                "scheme",
                "generated",
                "completed",
                "dropped",
                "completion",
                "migrations",
            ),
            [
                (
                    row.scheme,
                    row.generated,
                    row.completed,
                    row.dropped,
                    f"{row.completion_rate:.3f}",
                    row.migrations,
                )
                for row in result.rows
            ],
        )
    )
    print()
    print("Per-edge view (failover run):")
    print(
        format_rows(
            ("edge", "tasks", "completed", "dropped", "completion"),
            [
                (
                    f"edge-{e}",
                    block["tasks"],
                    block["completed"],
                    block["dropped"],
                    f"{block['completion_rate']:.3f}",
                )
                for e, block in enumerate(result.failover_summary["edges"])
            ],
        )
    )
    print()
    print(
        f"migration gain: +{result.migration_gain} completed tasks "
        f"({'strictly more with failover' if result.migration_gain > 0 else 'NO GAIN — unexpected'})"
    )
    print(
        "fluid max backlog: "
        + ", ".join(
            f"{name}={backlog:.1f}"
            for name, backlog in result.fluid_backlogs.items()
        )
    )
    print(
        "fluid paths: "
        + (
            "byte-identical"
            if result.fluid_paths_identical
            else "DIVERGED"
        )
    )


if __name__ == "__main__":
    main()
