"""Cross-path conformance: an E=1 federation IS the single-edge system.

The federation package promises composition over modification: a
single-edge federation must replay the corresponding single-edge run
*byte-identically* on every execution path — fluid scalar, fluid
vectorized, scalar event engine, fast array event engine, and the live
runtime's reproducible control plane.  This harness pins that contract
over ≥25 seeded random fleets (the
``test_fast_events_differential.py`` idiom: fresh simulator and fresh
policy per side, seeded configurations spanning policies, arrival
mixes, overload governors, and lifted fault plans).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.offloading import (
    BalanceOffloadingPolicy,
    DriftPlusPenaltyPolicy,
    FixedRatioPolicy,
)
from repro.federation import (
    FederatedEventSimulator,
    FederatedRuntime,
    FederatedSlotSimulator,
    build_assignment_plan,
    lift_fault_plan,
    single_edge_topology,
)
from repro.resilience.faults import (
    FaultPlan,
    FaultPlanSpec,
    canonical_outage_plan,
    generate_fault_plan,
)
from repro.resilience.overload import OverloadControl
from repro.resilience.qos import QoSConfig
from repro.resilience.recovery import RecoveryPolicy
from repro.runtime.system import LeimeRuntime
from repro.sim.arrivals import PoissonArrivals
from repro.sim.events import EventSimulator
from repro.sim.simulator import SlotSimulator

from .helpers import random_fleet

#: ≥ 25 seeded fleets, as the acceptance criteria demand.
SEEDS = tuple(range(26))
#: Fluid-only extra fleets with QoS on and an outage-only fault plan: the
#: warm pool must flush on the outage slots on both sides.
QOS_OUTAGE_SEEDS = tuple(range(6))
#: Fluid-only extra fleets whose fault plan drops, corrupts and slows
#: devices: the federation must overlay the lifted plan's device
#: channels exactly as the single-edge run overlays its own.
DEVICE_FAULT_SEEDS = tuple(range(6))

NUM_DEVICES = 3
NUM_SLOTS = 8


def _policy(seed: int):
    """Seed-varied policies: the paper's drift-plus-penalty optimiser,
    the balance heuristic, and fixed ratios."""
    if seed % 3 == 0:
        return DriftPlusPenaltyPolicy(v=10.0 + seed)
    if seed % 3 == 1:
        return BalanceOffloadingPolicy()
    return FixedRatioPolicy(0.2 + 0.1 * (seed % 5))


def _fixture(seed: int):
    """One seeded E=1 configuration: the fleet, its federation wrapper,
    and the static single-edge plan."""
    system = random_fleet(100 + seed, NUM_DEVICES, heterogeneous=(seed % 4 == 0))
    topology = single_edge_topology(system)
    plan = build_assignment_plan(topology, NUM_SLOTS)
    arrivals = [
        PoissonArrivals(0.3 + 0.05 * (seed % 5)) for _ in range(NUM_DEVICES)
    ]
    overload = OverloadControl(queue_high=6.0, queue_low=2.0) if seed % 5 == 2 else None
    return system, topology, plan, arrivals, overload


def _assert_fluid_equal(single, federated, tag: str) -> None:
    """SlotRecord-for-SlotRecord equality (dataclass ``==`` covers every
    field: arrivals, total_time, ratios, both queues, shed, mode)."""
    assert len(single.records) == len(federated.records), tag
    for a, b in zip(single.records, federated.records):
        assert a == b, f"{tag} slot {a.slot}: {a} != {b}"


def _assert_tasks_equal(single, federated, tag: str) -> None:
    assert len(single.tasks) == len(federated.tasks), tag
    assert single.horizon == pytest.approx(federated.horizon, abs=1e-9), tag
    for ta, tb in zip(single.tasks, federated.tasks):
        ctx = f"{tag} task {ta.task_id}"
        assert ta.task_id == tb.task_id, ctx
        assert ta.device == tb.device, ctx
        assert ta.created == tb.created, ctx
        assert ta.offloaded == tb.offloaded, ctx
        assert ta.exit_tier == tb.exit_tier, ctx
        assert ta.retries == tb.retries, ctx
        assert ta.dropped == tb.dropped, ctx
        assert ta.shed == tb.shed, ctx
        assert (ta.completed is None) == (tb.completed is None), ctx
        if ta.completed is not None:
            assert ta.completed == pytest.approx(tb.completed, abs=1e-9), ctx


def _qos_outage_fixture(seed: int):
    """An E=1 configuration with QoS on and an outage-only fault plan
    (slots 8-11 down, no per-device channels), as ``(system, topology,
    plan, arrivals, overload, num_slots, single_kw, federated_kw)``."""
    n, num_slots = 6, 24
    system = random_fleet(seed, n)
    topology = single_edge_topology(system)
    plan = build_assignment_plan(topology, num_slots)
    down = np.zeros(num_slots, dtype=np.int8)
    down[8:12] = 1
    faults = FaultPlan(
        uplink_drop=np.zeros((num_slots, n), dtype=np.int8),
        uplink_corrupt=np.zeros((num_slots, n), dtype=np.int8),
        edge_down=down,
        straggler=np.ones((num_slots, n)),
        telemetry_stale=np.zeros(num_slots, dtype=np.int8),
    )
    qos = QoSConfig(memory_fraction=0.5, cold_start_seconds=0.25)
    arrivals = [PoissonArrivals(0.6) for _ in range(n)]
    overload = OverloadControl(queue_high=6.0, queue_low=2.0) if seed % 2 else None
    return (
        system,
        topology,
        plan,
        arrivals,
        overload,
        num_slots,
        dict(faults=faults, qos=qos),
        dict(faults=lift_fault_plan(faults, 1), qos=qos),
    )


def _device_fault_fixture(seed: int):
    """An E=1 configuration whose fault plan has every per-device channel
    (drops, corruption, stragglers) and no edge crash, in the shape of
    :func:`_qos_outage_fixture`."""
    n, num_slots = 4, 20
    system = random_fleet(seed, n, max_arrivals=1.0)
    topology = single_edge_topology(system)
    plan = build_assignment_plan(topology, num_slots)
    faults = generate_fault_plan(
        FaultPlanSpec(
            num_slots=num_slots,
            num_devices=n,
            drop_prob=0.2,
            corrupt_prob=0.1,
            straggler_prob=0.3,
            crash_rate=0.0,
        ),
        seed=seed,
    )
    arrivals = [PoissonArrivals(0.5) for _ in range(n)]
    return (
        system,
        topology,
        plan,
        arrivals,
        None,
        num_slots,
        dict(faults=faults),
        dict(faults=lift_fault_plan(faults, 1)),
    )


@pytest.mark.parametrize(
    "seed,case",
    [pytest.param(s, None, id=str(s)) for s in SEEDS]
    + [
        pytest.param(s, _qos_outage_fixture, id=f"qos-outage-{s}")
        for s in QOS_OUTAGE_SEEDS
    ]
    + [
        pytest.param(s, _device_fault_fixture, id=f"device-faults-{s}")
        for s in DEVICE_FAULT_SEEDS
    ],
)
@pytest.mark.parametrize("vectorized", (False, True), ids=("scalar", "vectorized"))
def test_fluid_path_conformance(seed: int, case, vectorized: bool) -> None:
    if case is not None:
        (system, topology, plan, arrivals, overload, num_slots, single_kw,
         federated_kw) = case(seed)
    else:
        system, topology, plan, arrivals, overload = _fixture(seed)
        num_slots, single_kw, federated_kw = NUM_SLOTS, {}, {}
    single = SlotSimulator(
        system=system,
        arrivals=arrivals,
        seed=seed,
        vectorized=vectorized,
        overload=overload,
        **single_kw,
    ).run(_policy(seed), num_slots)
    federated = FederatedSlotSimulator(
        topology=topology,
        arrivals=arrivals,
        plan=plan,
        seed=seed,
        vectorized=vectorized,
        overload=overload,
        **federated_kw,
    ).run(_policy(seed), num_slots)
    kind = "plain" if case is None else case.__name__
    tag = f"fluid/{'vec' if vectorized else 'scalar'}/seed={seed}/{kind}"
    _assert_fluid_equal(single, federated.global_result, tag)
    # The single shard's per-edge records are the global records verbatim.
    _assert_fluid_equal(single, federated.edge_result(0), tag + "/edge0")


@pytest.mark.parametrize("width", (1, 2, 6))
def test_fault_plan_width_checked_at_construction(width: int) -> None:
    """A base plan narrower or wider than the fleet is refused by both
    federated simulators before any slot runs."""
    n = 4
    topology = single_edge_topology(random_fleet(0, n))
    plan = build_assignment_plan(topology, NUM_SLOTS)
    arrivals = [PoissonArrivals(0.5) for _ in range(n)]
    faults = lift_fault_plan(
        generate_fault_plan(
            FaultPlanSpec(num_slots=NUM_SLOTS, num_devices=width), seed=0
        ),
        1,
    )
    for simulator in (FederatedSlotSimulator, FederatedEventSimulator):
        with pytest.raises(ValueError, match="covers"):
            simulator(topology=topology, arrivals=arrivals, plan=plan, faults=faults)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("engine", ("scalar", "fast"))
def test_event_path_conformance(seed: int, engine: str) -> None:
    system, topology, plan, arrivals, overload = _fixture(seed)
    faults = recovery = None
    if seed % 4 == 2:
        faults = canonical_outage_plan(
            num_slots=NUM_SLOTS, num_devices=NUM_DEVICES, seed=seed
        )
        recovery = RecoveryPolicy.default()
    single = EventSimulator(
        system=system,
        arrivals=arrivals,
        seed=seed,
        spread_arrivals=(seed % 2 == 0),
        faults=faults,
        recovery=recovery,
        overload=overload,
    ).run(_policy(seed), NUM_SLOTS, drain_limit_factor=100.0, engine=engine)
    federated = FederatedEventSimulator(
        topology=topology,
        arrivals=arrivals,
        plan=plan,
        seed=seed,
        spread_arrivals=(seed % 2 == 0),
        faults=lift_fault_plan(faults, 1) if faults is not None else None,
        recovery=recovery,
        overload=overload,
    ).run(_policy(seed), NUM_SLOTS, drain_limit_factor=100.0, engine=engine)
    tag = f"events/{engine}/seed={seed}"
    assert federated.num_edges == 1
    _assert_tasks_equal(single, federated.edge_results[0], tag)
    # Merging a single shard re-keys device-locally — a no-op at E=1.
    merged = federated.merged()
    assert [(t.device, t.created) for t in merged.tasks] == [
        (t.device, t.created) for t in single.tasks
    ], tag


#: The live path is wall-clock bound, so a spread of seeds (not the full
#: sweep) keeps the suite fast while still crossing fleets and rates.
RUNTIME_SEEDS = (0, 1, 2, 7, 13)


@pytest.mark.parametrize("seed", RUNTIME_SEEDS)
def test_runtime_path_conformance(seed: int) -> None:
    system, topology, plan, arrivals, _ = _fixture(seed)
    # The live controller feeds *real* queue occupancies to the policy,
    # so queue-sensitive policies (Balance, DPP) can flip a decision
    # under thread-scheduling jitter.  A fixed ratio makes the control
    # plane purely seed-driven — what this test is allowed to pin.
    policy = FixedRatioPolicy(0.2 + 0.1 * (seed % 5))
    runtime = LeimeRuntime(system, policy, speedup=1000.0, seed=seed)
    try:
        single = runtime.run(arrivals, num_slots=NUM_SLOTS, drain_timeout=30.0)
    finally:
        runtime.shutdown()
    federated = FederatedRuntime(
        topology, policy, plan, speedup=1000.0, seed=seed
    )
    try:
        report = federated.run(arrivals, num_slots=NUM_SLOTS, drain_timeout=30.0)
    finally:
        federated.shutdown()
    # Only the control plane is reproducible on live threads (timestamps
    # are wall-clock): task identity, owning device, offload decision.
    single_plane = [(t.task_id, t.device, t.offloaded) for t in single.tasks]
    federated_plane = [
        (t.task_id, t.device, t.offloaded) for t in report.merged().tasks
    ]
    assert single_plane == federated_plane, f"runtime/seed={seed}"


def test_single_edge_topology_reconstructs_system() -> None:
    """The anchor: ``build_shard`` over all devices rebuilds the wrapped
    system field-for-field, KKT shares included."""
    system = random_fleet(7, 4)
    topology = single_edge_topology(system)
    shard = topology.build_shard(0, range(system.num_devices))
    assert shard == system
