"""Property harness for the federation layer.

Pins the structural invariants that make multi-edge results trustworthy:

* **SLO identity, per edge and globally** — every shard satisfies
  ``generated = completed + dropped + shed + in-flight`` and the
  per-edge identities sum to the global one.
* **Migration conservation** — assignment masks partition the slot axis
  (each slot's demand is generated at exactly one edge), so churn and
  failover never lose or duplicate tasks.
* **Seeded failover determinism** — the same seed replays the same
  failover byte-for-byte, identically on the scalar and fast event
  engines and on both fluid paths.
* **Empty-shard NaN convention** — rates over zero tasks are NaN, never
  ``ZeroDivisionError`` or an optimistic 0.0/1.0, through every summary
  aggregation layer.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.offloading import DriftPlusPenaltyPolicy, FixedRatioPolicy
from repro.federation import (
    AssignmentPlan,
    FederatedEventSimulator,
    FederatedSlotSimulator,
    assignment_from_trace,
    build_assignment_plan,
    canonical_partial_outage,
    federated_fluid_summary,
    federated_slo_summary,
)
from repro.resilience.overload import OverloadControl
from repro.resilience.qos import QoSConfig
from repro.runtime.system import RuntimeReport
from repro.sim.arrivals import ConstantArrivals, PoissonArrivals
from repro.sim.events import EventSimResult

from .helpers import random_federation_topology

NUM_SLOTS = 10


def _federation(seed: int, num_edges: int = 3, n: int = 6):
    topology = random_federation_topology(seed, num_edges, n)
    faults = canonical_partial_outage(NUM_SLOTS, num_edges, edge=0, seed=seed)
    plan = build_assignment_plan(
        topology,
        NUM_SLOTS,
        seed=seed,
        churn_per_100=20.0,
        saturation=1.5,
        outages=faults.edge_down,
    )
    arrivals = [PoissonArrivals(0.4) for _ in range(n)]
    return topology, plan, faults, arrivals


# -- SLO identity -----------------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_per_edge_slo_identities_sum_to_global(seed: int) -> None:
    topology, plan, faults, arrivals = _federation(seed)
    result = FederatedEventSimulator(
        topology=topology,
        arrivals=arrivals,
        plan=plan,
        seed=seed,
        faults=faults,
    ).run(FixedRatioPolicy(0.5), NUM_SLOTS, drain_limit_factor=100.0)
    assert result.identity_holds()
    merged = result.merged()
    per_edge = [
        (
            len(r.tasks),
            len(r.completed),
            r.dropped_count,
            r.shed_count,
            r.in_flight_count,
        )
        for r in result.edge_results
    ]
    totals = [sum(col) for col in zip(*per_edge)]
    assert totals[0] == len(merged.tasks)
    assert totals[0] == sum(totals[1:])
    summary = federated_slo_summary(result)
    assert summary["identity_holds"]
    assert summary["global"]["tasks"] == totals[0]
    assert sum(e["tasks"] for e in summary["edges"]) == totals[0]


# -- migration conservation -------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_assignment_masks_partition_the_slot_axis(seed: int) -> None:
    """Each (slot, device) pair belongs to exactly one edge — the no-loss
    / no-duplication half of migration conservation."""
    topology, plan, _, _ = _federation(seed)
    for device in range(topology.num_devices):
        coverage = np.zeros(plan.num_slots, dtype=int)
        for edge in range(plan.num_edges):
            coverage += np.array(plan.slot_mask(edge, device), dtype=int)
        assert (coverage == 1).all()


@pytest.mark.parametrize("seed", range(4))
def test_migration_conserves_generated_tasks(seed: int) -> None:
    """Under deterministic arrivals (one task per device per slot), a
    churning, failing federation generates exactly ``S`` tasks per device
    — migration decides *where* each slot's task is served, never whether
    it exists.  (Poisson fleets can't make this comparison: each shard
    owns its own stream, so realised counts differ by design.)"""
    topology, plan, faults, arrivals = _federation(seed)
    constant = [ConstantArrivals(1.0) for _ in range(topology.num_devices)]
    moving = FederatedEventSimulator(
        topology=topology, arrivals=constant, plan=plan, seed=seed
    ).run(FixedRatioPolicy(0.5), NUM_SLOTS, drain_limit_factor=100.0)
    assert plan.migrations(), "the plan should actually migrate someone"
    # Conservation holds per device, not just in total.
    counts = [0] * topology.num_devices
    for r, members in zip(moving.edge_results, moving.edge_members):
        for t in r.tasks:
            counts[members[t.device]] += 1
    assert counts == [NUM_SLOTS] * topology.num_devices


def test_fluid_migration_conserves_backlog() -> None:
    """Re-assigning a device moves its Lyapunov queues with it: the
    global backlog right after a migration slot equals the sum of the
    per-edge backlogs — nothing is created or destroyed by re-homing."""
    topology, plan, faults, arrivals = _federation(3)
    result = FederatedSlotSimulator(
        topology=topology, arrivals=arrivals, plan=plan, seed=3
    ).run(FixedRatioPolicy(0.5), NUM_SLOTS)
    for slot in range(NUM_SLOTS):
        global_backlog = result.global_result.records[slot].backlog
        edge_backlog = sum(
            result.edge_records[e][slot].backlog
            for e in range(result.num_edges)
        )
        assert edge_backlog == pytest.approx(global_backlog, rel=1e-12)


# -- seeded failover --------------------------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_failover_is_deterministic(seed: int) -> None:
    """Same seed, same federation → byte-identical outcome, twice."""
    def run_once():
        topology, plan, faults, arrivals = _federation(seed)
        return FederatedEventSimulator(
            topology=topology,
            arrivals=arrivals,
            plan=plan,
            seed=seed,
            faults=faults,
        ).run(FixedRatioPolicy(0.5), NUM_SLOTS, drain_limit_factor=100.0)

    a, b = run_once(), run_once()
    assert a.edge_members == b.edge_members
    for ra, rb in zip(a.edge_results, b.edge_results):
        assert ra.tasks == rb.tasks
        assert ra.horizon == rb.horizon


@pytest.mark.parametrize("seed", range(4))
def test_failover_is_path_identical_across_event_engines(seed: int) -> None:
    topology, plan, faults, arrivals = _federation(seed)

    def run(engine: str):
        return FederatedEventSimulator(
            topology=topology,
            arrivals=arrivals,
            plan=plan,
            seed=seed,
            faults=faults,
        ).run(
            FixedRatioPolicy(0.5),
            NUM_SLOTS,
            drain_limit_factor=100.0,
            engine=engine,
        )

    scalar, fast = run("scalar"), run("fast")
    for ra, rb in zip(scalar.edge_results, fast.edge_results):
        assert len(ra.tasks) == len(rb.tasks)
        for ta, tb in zip(ra.tasks, rb.tasks):
            assert (ta.task_id, ta.device, ta.created, ta.offloaded) == (
                tb.task_id,
                tb.device,
                tb.created,
                tb.offloaded,
            )
            assert ta.exit_tier == tb.exit_tier
            assert ta.retries == tb.retries
            assert ta.dropped == tb.dropped
            assert (ta.completed is None) == (tb.completed is None)
            if ta.completed is not None:
                assert ta.completed == pytest.approx(tb.completed, abs=1e-9)


@pytest.mark.parametrize(
    "seed,controlled",
    [pytest.param(s, False, id=str(s)) for s in range(4)]
    + [pytest.param(s, True, id=f"overload-qos-{s}") for s in range(4)],
)
def test_failover_is_path_identical_across_fluid_paths(
    seed: int, controlled: bool
) -> None:
    """Scalar == vectorized under failover; the controlled cases add a
    tight overload ladder, a QoS warm pool and a heavier load, so the
    per-edge ladders, sheds and cold starts all engage."""
    topology, plan, faults, arrivals = _federation(seed)
    control = {}
    if controlled:
        arrivals = [PoissonArrivals(1.5) for _ in arrivals]
        control = dict(
            overload=OverloadControl(
                queue_high=3.0, queue_low=1.0, patience=1, cooldown=2
            ),
            qos=QoSConfig(memory_fraction=0.5),
        )

    def run(vectorized: bool):
        return FederatedSlotSimulator(
            topology=topology,
            arrivals=arrivals,
            plan=plan,
            seed=seed,
            vectorized=vectorized,
            faults=faults,
            **control,
        ).run(DriftPlusPenaltyPolicy(v=20.0), NUM_SLOTS)

    scalar, vectorized = run(False), run(True)
    assert scalar.global_result.records == vectorized.global_result.records
    assert scalar.edge_records == vectorized.edge_records


def test_failover_rewrites_only_outage_slots() -> None:
    """Members of the dead edge point elsewhere for exactly the down
    window and return home on recovery."""
    topology, _, faults, _ = _federation(1)
    start = faults.meta["outage_start"]
    stop = faults.meta["outage_stop"]
    migrated = build_assignment_plan(
        topology, NUM_SLOTS, seed=1, outages=faults.edge_down
    )
    home = build_assignment_plan(topology, NUM_SLOTS, seed=1)
    assert not home.migrations()
    for slot in range(NUM_SLOTS):
        row, home_row = migrated.row(slot), home.row(slot)
        if start <= slot < stop:
            assert not (row == 0).any(), "no one may stay on the dead edge"
        else:
            assert (row == home_row).all()
    # The no-failover baseline leaves assignments untouched.
    stay = build_assignment_plan(
        topology, NUM_SLOTS, seed=1, outages=faults.edge_down, migrate=False
    )
    assert (stay.matrix == home.matrix).all()


# -- empty-shard NaN convention ---------------------------------------------


def test_empty_event_result_rates_are_nan() -> None:
    empty = EventSimResult(tasks=(), horizon=0.0)
    assert math.isnan(empty.completion_rate)
    assert math.isnan(empty.drop_rate)
    assert math.isnan(empty.shed_rate)
    assert math.isnan(empty.mean_tct)
    assert math.isnan(empty.offloaded_fraction())
    assert all(math.isnan(f) for f in empty.exit_fractions())


def test_empty_runtime_report_rates_are_nan() -> None:
    empty = RuntimeReport(tasks=(), virtual_duration=0.0)
    assert math.isnan(empty.completion_rate)
    assert math.isnan(empty.mean_tct)
    assert all(math.isnan(f) for f in empty.exit_fractions())


def test_federated_summary_handles_empty_shards() -> None:
    """A federation with an unpopulated edge summarises without
    ZeroDivisionError: the empty shard's rates are NaN, counters 0."""
    topology, _, _, arrivals = _federation(2)
    # Pin every device to edge 0: edges 1 and 2 stay empty.
    plan = AssignmentPlan(
        matrix=np.zeros((NUM_SLOTS, topology.num_devices), dtype=np.intp),
        num_edges=topology.num_edges,
    )
    result = FederatedEventSimulator(
        topology=topology, arrivals=arrivals, plan=plan, seed=2
    ).run(FixedRatioPolicy(0.5), NUM_SLOTS, drain_limit_factor=100.0)
    summary = federated_slo_summary(result, deadline=10.0)
    for edge in (1, 2):
        block = summary["edges"][edge]
        assert block["tasks"] == 0
        assert block["completed"] == 0
        assert math.isnan(block["completion_rate"])
        assert math.isnan(block["drop_rate"])
        assert math.isnan(block["shed_rate"])
        assert math.isnan(block["mean_tct"])
    assert summary["identity_holds"]
    assert summary["global"]["tasks"] == summary["edges"][0]["tasks"]


def test_federated_fluid_summary_empty_shard_mean_tct_is_nan() -> None:
    topology, _, _, arrivals = _federation(4)
    plan = AssignmentPlan(
        matrix=np.zeros((NUM_SLOTS, topology.num_devices), dtype=np.intp),
        num_edges=topology.num_edges,
    )
    result = FederatedSlotSimulator(
        topology=topology, arrivals=arrivals, plan=plan, seed=4
    ).run(FixedRatioPolicy(0.5), NUM_SLOTS)
    summary = federated_fluid_summary(result)
    assert math.isnan(summary["edges"][1]["mean_tct"])
    assert summary["edges"][1]["arrivals"] == 0.0
    assert summary["global"]["arrivals"] > 0.0
    assert summary["identity_gap"] < 1e-9


# -- assignment plan round-trips --------------------------------------------


def test_assignment_plan_trace_round_trip() -> None:
    topology, plan, _, _ = _federation(5)
    from repro.traces.schema import Trace

    trace = Trace(
        channels=(plan.to_channel(),),
        slot_length=1.0,
        meta={"origin": "test"},
    )
    rebuilt = assignment_from_trace(trace, num_edges=plan.num_edges)
    assert (rebuilt.matrix == plan.matrix).all()
    assert rebuilt.num_edges == plan.num_edges


def test_assignment_plan_row_clamps_past_horizon() -> None:
    plan = AssignmentPlan(
        matrix=np.array([[0, 1], [1, 0]], dtype=np.intp), num_edges=2
    )
    assert (plan.row(99) == plan.row(1)).all()
    with pytest.raises(ValueError):
        plan.row(-1)
    assert plan.member_union(0) == (0, 1)
    assert not plan.static
