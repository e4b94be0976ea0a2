"""Property-based tests of the resilience layer's invariants.

For any seeded fault plan and recovery budget:

* generated plans are well-formed (0/1 masks, slowdowns ≥ 1);
* the fluid overlay never drives a queue negative and never *improves*
  a device's conditions;
* the event simulator's accounting identity holds exactly —
  ``generated = completed + dropped + in-flight`` — and no task ever
  exceeds its retry budget;
* fault handling consumes no randomness: the same seed replays to the
  identical task history.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.offloading import DriftPlusPenaltyPolicy, FixedRatioPolicy
from repro.resilience import FaultPlanSpec, RecoveryPolicy, generate_fault_plan
from repro.resilience.environment import _FaultyEnvironment
from repro.sim import simulator
from repro.sim.arrivals import PoissonArrivals
from repro.sim.environment import StaticEnvironment
from repro.sim.events import EventSimulator
from repro.sim.simulator import SlotSimulator

from tests.helpers import random_fleet


@settings(max_examples=25, deadline=None)
@given(
    num_slots=st.integers(min_value=1, max_value=120),
    num_devices=st.integers(min_value=1, max_value=6),
    drop=st.floats(min_value=0.0, max_value=0.5),
    crash_rate=st.floats(min_value=0.0, max_value=10.0),
    slowdown=st.floats(min_value=1.0, max_value=16.0),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_generated_plans_are_well_formed(
    num_slots, num_devices, drop, crash_rate, slowdown, seed
):
    spec = FaultPlanSpec(
        num_slots=num_slots,
        num_devices=num_devices,
        drop_prob=drop,
        crash_rate=crash_rate,
        straggler_slowdown=slowdown,
    )
    plan = generate_fault_plan(spec, seed=seed)
    for mask in (plan.uplink_drop, plan.uplink_corrupt):
        assert mask.shape == (num_slots, num_devices)
        assert set(np.unique(mask)) <= {0, 1}
    assert set(np.unique(plan.edge_down)) <= {0, 1}
    assert set(np.unique(plan.telemetry_stale)) <= {0, 1}
    assert np.all(plan.straggler >= 1.0)
    # Outage windows tile the edge_down mask exactly.
    covered = np.zeros(num_slots, dtype=bool)
    for start, stop in plan.outage_windows():
        assert 0 <= start < stop <= num_slots
        covered[start:stop] = True
    assert np.array_equal(covered, plan.edge_down.astype(bool))


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    fleet_seed=st.integers(min_value=0, max_value=20),
    plan_seed=st.integers(min_value=0, max_value=100),
    sim_seed=st.integers(min_value=0, max_value=100),
    num_devices=st.integers(min_value=1, max_value=4),
    drop=st.floats(min_value=0.0, max_value=0.3),
    crash_rate=st.floats(min_value=0.0, max_value=5.0),
    vectorized=st.booleans(),
)
def test_fluid_overlay_keeps_queues_non_negative(
    fleet_seed, plan_seed, sim_seed, num_devices, drop, crash_rate, vectorized
):
    system = random_fleet(fleet_seed, num_devices)
    plan = generate_fault_plan(
        FaultPlanSpec(
            num_slots=30,
            num_devices=num_devices,
            drop_prob=drop,
            crash_rate=crash_rate,
        ),
        seed=plan_seed,
    )
    result = SlotSimulator(
        system=system,
        arrivals=[PoissonArrivals(0.4)] * num_devices,
        seed=sim_seed,
        vectorized=vectorized,
        faults=plan,
        recovery=RecoveryPolicy.default(),
    ).run(DriftPlusPenaltyPolicy(v=50.0), 30)
    for record in result.records:
        assert all(q >= 0.0 for q in record.queue_local)
        assert all(q >= 0.0 for q in record.queue_edge)
        assert all(0.0 <= x <= 1.0 for x in record.ratios)
        assert record.total_time >= 0.0


@settings(max_examples=20, deadline=None)
@given(
    fleet_seed=st.integers(min_value=0, max_value=20),
    plan_seed=st.integers(min_value=0, max_value=100),
    slot=st.integers(min_value=0, max_value=29),
    num_devices=st.integers(min_value=1, max_value=4),
)
def test_fluid_overlay_never_improves_conditions(
    fleet_seed, plan_seed, slot, num_devices
):
    system = random_fleet(fleet_seed, num_devices)
    plan = generate_fault_plan(
        FaultPlanSpec(
            num_slots=30, num_devices=num_devices, drop_prob=0.3, corrupt_prob=0.2,
            straggler_prob=0.3,
        ),
        seed=plan_seed,
    )
    env = _FaultyEnvironment(plan, StaticEnvironment())
    devices = env.devices_at(slot, system.devices, np.random.default_rng(0))
    for faulty, healthy in zip(devices, system.devices):
        assert faulty.link.bandwidth <= healthy.link.bandwidth
        assert faulty.flops <= healthy.flops
        assert faulty.link.latency == healthy.link.latency
    _, (shard,) = simulator._WholeFleet(system, None, plan).at(slot, env)
    assert shard.system.edge_flops <= system.edge_flops


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    plan_seed=st.integers(min_value=0, max_value=100),
    sim_seed=st.integers(min_value=0, max_value=100),
    num_devices=st.integers(min_value=1, max_value=3),
    drop=st.floats(min_value=0.0, max_value=0.3),
    crash_rate=st.floats(min_value=0.0, max_value=5.0),
    max_retries=st.integers(min_value=0, max_value=4),
    ratio=st.floats(min_value=0.0, max_value=1.0),
)
def test_event_sim_accounting_and_retry_budget(
    plan_seed, sim_seed, num_devices, drop, crash_rate, max_retries, ratio
):
    """The accounting identity and the retry budget hold for any plan,
    budget, and policy — including budget-zero and crash-heavy corners."""
    system = random_fleet(7, num_devices)
    plan = generate_fault_plan(
        FaultPlanSpec(
            num_slots=25,
            num_devices=num_devices,
            drop_prob=drop,
            corrupt_prob=drop / 2,
            crash_rate=crash_rate,
        ),
        seed=plan_seed,
    )
    recovery = RecoveryPolicy(max_retries=max_retries, backoff_base=0.25)
    result = EventSimulator(
        system=system,
        arrivals=[PoissonArrivals(0.4)] * num_devices,
        seed=sim_seed,
        faults=plan,
        recovery=recovery,
    ).run(FixedRatioPolicy(ratio, respect_constraint=False), 25,
          drain_limit_factor=100.0)
    assert len(result.tasks) == (
        len(result.completed) + result.dropped_count + result.in_flight_count
    )
    for task in result.tasks:
        assert 0 <= task.retries <= max_retries
        assert not (task.dropped and task.done)
    if max_retries == 0:
        assert result.total_retries == 0


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    plan_seed=st.integers(min_value=0, max_value=50),
    sim_seed=st.integers(min_value=0, max_value=50),
    drop=st.floats(min_value=0.0, max_value=0.3),
)
def test_event_sim_fault_replay_is_deterministic(plan_seed, sim_seed, drop):
    """Fault handling draws no randomness: the same seed pair replays to
    the byte-identical task history."""
    system = random_fleet(9, 2)
    plan = generate_fault_plan(
        FaultPlanSpec(num_slots=20, num_devices=2, drop_prob=drop),
        seed=plan_seed,
    )

    def run():
        return EventSimulator(
            system=system,
            arrivals=[PoissonArrivals(0.4)] * 2,
            seed=sim_seed,
            faults=plan,
            recovery=RecoveryPolicy.default(),
        ).run(DriftPlusPenaltyPolicy(v=50.0), 20, drain_limit_factor=100.0)

    assert run().tasks == run().tasks
