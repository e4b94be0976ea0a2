"""Seeded determinism: same seed → same run, different seed → different run.

The simulator promises full byte-identical reproducibility; the threaded
runtime promises it for the *control plane* (arrival counts, task placement
and offload decisions), since worker-thread timing is wall-clock and races
by design — see :class:`repro.runtime.system.LeimeRuntime`'s two-stream
RNG contract.
"""

from __future__ import annotations

import pytest

from repro.core.offloading import (
    DriftPlusPenaltyPolicy,
    FixedRatioPolicy,
)
from repro.runtime import LeimeRuntime
from repro.sim.arrivals import PoissonArrivals
from repro.sim.environment import RandomWalkEnvironment
from repro.sim.simulator import SlotSimulator

from tests.helpers import random_fleet


def _simulate(seed: int, vectorized: bool, system):
    sim = SlotSimulator(
        system=system,
        arrivals=[PoissonArrivals(0.5)] * system.num_devices,
        environment=RandomWalkEnvironment(sigma=0.1),
        seed=seed,
        vectorized=vectorized,
    )
    return sim.run(DriftPlusPenaltyPolicy(v=50.0, vectorized=vectorized), 30)


@pytest.mark.parametrize("vectorized", [False, True])
def test_slot_simulator_same_seed_is_byte_identical(vectorized):
    system = random_fleet(11, 4)
    a = _simulate(7, vectorized, system)
    b = _simulate(7, vectorized, system)
    # Dataclass equality compares every float of every record exactly —
    # byte-identical runs, not approximately-equal runs.
    assert a.records == b.records


@pytest.mark.parametrize("vectorized", [False, True])
def test_slot_simulator_different_seeds_differ(vectorized):
    system = random_fleet(11, 4)
    a = _simulate(7, vectorized, system)
    b = _simulate(8, vectorized, system)
    assert a.records != b.records


def test_slot_simulator_paths_are_byte_identical():
    """Scalar and vectorized runs of the same seed produce *equal* record
    tuples — not just 1e-9-close (the engine mirrors the scalar arithmetic
    operation-for-operation, including accumulation order)."""
    system = random_fleet(11, 4)
    assert _simulate(7, False, system).records == _simulate(7, True, system).records


def _control_plane(report):
    """The discrete decisions the controller made, in creation order.

    Timestamps are wall-clock (the virtual clock maps real time), so only
    the discrete fields are reproducible across runs.
    """
    return [(t.task_id, t.device, t.offloaded) for t in report.tasks]


def _run_runtime(seed: int, system):
    runtime = LeimeRuntime(
        system,
        FixedRatioPolicy(0.5),
        speedup=500.0,
        seed=seed,
    )
    try:
        return runtime.run(
            [PoissonArrivals(1.0)] * system.num_devices,
            num_slots=8,
            drain_timeout=30.0,
        )
    finally:
        runtime.shutdown()


def test_runtime_same_seed_same_control_plane(small_system):
    a = _run_runtime(5, small_system)
    b = _run_runtime(5, small_system)
    assert len(a.tasks) == len(b.tasks) > 0
    assert _control_plane(a) == _control_plane(b)
    # The controller draws each task's exit coins when it creates the
    # task, so an ungoverned, fault-free run reproduces every exit tier.
    assert all(t.done for t in a.tasks + b.tasks)
    assert [t.exit_tier for t in a.tasks] == [t.exit_tier for t in b.tasks]
    assert len({t.exit_tier for t in a.tasks}) > 1


def test_runtime_different_seeds_differ(small_system):
    a = _run_runtime(5, small_system)
    b = _run_runtime(6, small_system)
    assert _control_plane(a) != _control_plane(b)


# -- fault-plan replay ----------------------------------------------------------


def _fault_replay(seed: int, vectorized: bool, system, plan):
    from repro.resilience import RecoveryPolicy

    sim = SlotSimulator(
        system=system,
        arrivals=[PoissonArrivals(0.4)] * system.num_devices,
        seed=seed,
        vectorized=vectorized,
        faults=plan,
        recovery=RecoveryPolicy.default(),
    )
    return sim.run(
        DriftPlusPenaltyPolicy(v=50.0, vectorized=vectorized), plan.num_slots
    )


def test_fault_plan_generation_is_seed_deterministic():
    from repro.resilience import FaultPlanSpec, generate_fault_plan, plans_equal

    spec = FaultPlanSpec(num_slots=50, num_devices=4, drop_prob=0.1)
    assert plans_equal(generate_fault_plan(spec, seed=3), generate_fault_plan(spec, seed=3))
    assert not plans_equal(
        generate_fault_plan(spec, seed=3), generate_fault_plan(spec, seed=4)
    )


def test_fault_replay_same_seed_is_byte_identical():
    from repro.resilience import canonical_outage_plan

    system = random_fleet(11, 4)
    plan = canonical_outage_plan(num_slots=40, num_devices=4, seed=0)
    a = _fault_replay(7, False, system, plan)
    b = _fault_replay(7, False, system, plan)
    assert a.records == b.records


def test_fault_replay_paths_are_byte_identical():
    """The resilient wrapper and the fault overlay add no randomness and
    no path-dependent arithmetic: scalar and vectorized replays of the
    same plan produce *equal* record tuples, down to each number's type
    (a NumPy scalar leaking from the plan would compare equal but print
    differently)."""
    from repro.resilience import canonical_outage_plan

    system = random_fleet(11, 4)
    plan = canonical_outage_plan(num_slots=40, num_devices=4, seed=0)
    scalar = _fault_replay(7, False, system, plan).records
    array = _fault_replay(7, True, system, plan).records
    assert scalar == array
    assert repr(scalar) == repr(array)


def test_runtime_fault_replay_same_seed_same_control_plane(small_system):
    from repro.resilience import RecoveryPolicy, canonical_outage_plan

    plan = canonical_outage_plan(num_slots=8, num_devices=2, seed=0)

    def run(seed):
        runtime = LeimeRuntime(
            small_system, FixedRatioPolicy(0.5), speedup=500.0, seed=seed
        )
        try:
            return runtime.run(
                [PoissonArrivals(1.0)] * 2,
                num_slots=8,
                drain_timeout=30.0,
                faults=plan,
                recovery=RecoveryPolicy.default(),
            )
        finally:
            runtime.shutdown()

    assert _control_plane(run(5)) == _control_plane(run(5))
