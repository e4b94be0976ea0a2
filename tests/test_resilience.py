"""The resilience layer: fault plans, recovery, SLO accounting.

Covers the :mod:`repro.resilience` package end to end: seeded plan
generation and serialisation, trace composition, the fluid overlay, the
control-plane wrapper, the event simulator's discrete fault handling,
the live runtime's fault path, the empty-fleet NaN convention, and the
worker-leak warning.
"""

from __future__ import annotations

import dataclasses
import math
import pickle

import numpy as np
import pytest

from repro.chaos.oracles import event_conservation
from repro.core.offloading import (
    DriftPlusPenaltyPolicy,
    FixedRatioPolicy,
    LyapunovState,
)
from repro.resilience import (
    FaultPlan,
    FaultPlanError,
    FaultPlanSpec,
    OverloadControl,
    QoSConfig,
    RecoveryPolicy,
    ResilientPolicy,
    attach_faults,
    canonical_outage_plan,
    extract_faults,
    generate_fault_plan,
    load_fault_plan,
    plans_equal,
    save_fault_plan,
    slo_summary,
    time_to_recovery,
)
from repro.resilience.environment import (
    DROP_FACTOR,
    EDGE_DOWN_FACTOR,
    _FaultyEnvironment,
)
from repro.runtime import LeimeRuntime, RuntimeNode, VirtualClock
from repro.sim import simulator
from repro.sim.arrivals import ConstantArrivals, PoissonArrivals
from repro.sim.environment import RandomWalkEnvironment, StaticEnvironment
from repro.sim.events import EventSimResult, EventSimulator
from repro.sim.simulator import SlotSimulator
from repro.traces import TraceEnvironment
from repro.traces.generators import WildTraceSpec, generate_trace

from tests.helpers import random_fleet


# -- plan generation ------------------------------------------------------------


def test_generate_same_seed_is_identical():
    spec = FaultPlanSpec(num_slots=60, num_devices=3)
    assert plans_equal(generate_fault_plan(spec, seed=5), generate_fault_plan(spec, seed=5))


def test_generate_different_seeds_differ():
    spec = FaultPlanSpec(num_slots=120, num_devices=3, drop_prob=0.1)
    assert not plans_equal(
        generate_fault_plan(spec, seed=5), generate_fault_plan(spec, seed=6)
    )


def test_spec_validation():
    with pytest.raises(FaultPlanError):
        FaultPlanSpec(num_slots=0)
    with pytest.raises(FaultPlanError):
        FaultPlanSpec(drop_prob=1.5)
    with pytest.raises(FaultPlanError):
        FaultPlanSpec(crash_rate=-1.0)
    with pytest.raises(FaultPlanError):
        FaultPlanSpec(straggler_slowdown=0.5)


def test_canonical_outage_plan_pins_the_outage():
    plan = canonical_outage_plan(num_slots=90, num_devices=4, seed=0)
    start, stop = int(plan.meta["outage_start"]), int(plan.meta["outage_stop"])
    assert (start, stop) == (30, 41)
    assert plan.outage_windows() == [(start, stop)]
    assert all(plan.edge_down_at(t) for t in range(start, stop))
    assert not plan.edge_down_at(start - 1) and not plan.edge_down_at(stop)


def test_accessors_report_healthy_world_outside_the_plan():
    plan = canonical_outage_plan(num_slots=30, num_devices=2, seed=1)
    for slot in (-1, 30, 10_000):
        assert not plan.in_range(slot)
        assert not plan.drop_at(slot, 0)
        assert not plan.corrupt_at(slot, 1)
        assert not plan.edge_down_at(slot)
        assert not plan.stale_at(slot)
        assert plan.straggler_at(slot, 0) == 1.0


def test_window_slices_the_schedule():
    plan = generate_fault_plan(FaultPlanSpec(num_slots=50, num_devices=2), seed=2)
    window = plan.window(10, 30)
    assert window.num_slots == 20
    assert np.array_equal(window.uplink_drop, plan.uplink_drop[10:30])
    assert np.array_equal(window.edge_down, plan.edge_down[10:30])


# -- serialisation and trace composition ----------------------------------------


@pytest.mark.parametrize("suffix", [".npz", ".jsonl"])
def test_save_load_round_trip(tmp_path, suffix):
    plan = generate_fault_plan(
        FaultPlanSpec(num_slots=40, num_devices=3, drop_prob=0.1), seed=9
    )
    path = save_fault_plan(plan, tmp_path / f"plan{suffix}")
    loaded = load_fault_plan(path)
    assert plans_equal(plan, loaded)
    assert loaded.meta["seed"] == 9


def test_trace_round_trip_preserves_the_plan():
    plan = generate_fault_plan(FaultPlanSpec(num_slots=25, num_devices=2), seed=3)
    assert plans_equal(FaultPlan.from_trace(plan.to_trace()), plan)


def test_attach_and_extract_faults_compose_with_wild_traces():
    trace = generate_trace(WildTraceSpec(num_slots=30, num_devices=2), seed=0)
    plan = generate_fault_plan(FaultPlanSpec(num_slots=30, num_devices=2), seed=4)
    combined = attach_faults(trace, plan)
    # The wild channels survive and the plan round-trips out.
    for name in trace.names:
        assert name in combined.names
    recovered = extract_faults(combined)
    assert recovered is not None and plans_equal(recovered, plan)
    assert extract_faults(trace) is None


def test_attach_faults_rejects_mismatched_shapes():
    trace = generate_trace(WildTraceSpec(num_slots=30, num_devices=2), seed=0)
    plan = generate_fault_plan(FaultPlanSpec(num_slots=30, num_devices=3), seed=0)
    with pytest.raises(FaultPlanError):
        attach_faults(trace, plan)


# -- recovery policy ------------------------------------------------------------


def test_backoff_schedule_is_exponential():
    recovery = RecoveryPolicy(max_retries=3, backoff_base=0.5, backoff_factor=2.0)
    assert [recovery.backoff(k) for k in range(3)] == [0.5, 1.0, 2.0]
    assert recovery.backoff_span() == pytest.approx(3.5)


def test_default_budget_outlasts_the_canonical_outage():
    plan = canonical_outage_plan(num_slots=160, num_devices=4, seed=0)
    longest = plan.describe()["longest_outage_slots"] * plan.slot_length
    assert RecoveryPolicy.default().backoff_span() > longest


def test_recovery_validation():
    with pytest.raises(ValueError):
        RecoveryPolicy(deadline=0.0)
    with pytest.raises(ValueError):
        RecoveryPolicy(max_retries=-1)
    with pytest.raises(ValueError):
        RecoveryPolicy(backoff_factor=0.9)


def test_resilient_policy_excludes_dead_edge_and_pins_stale_slots():
    system = random_fleet(0, 2)
    state = LyapunovState.zeros(2)
    plan = FaultPlan(
        uplink_drop=np.zeros((4, 2), dtype=np.int8),
        uplink_corrupt=np.zeros((4, 2), dtype=np.int8),
        edge_down=np.array([0, 1, 0, 0], dtype=np.int8),
        straggler=np.ones((4, 2)),
        telemetry_stale=np.array([0, 0, 1, 0], dtype=np.int8),
        slot_length=1.0,
    )
    policy = ResilientPolicy(FixedRatioPolicy(0.7, respect_constraint=False), plan)
    healthy = policy.decide(system, state, [0.5, 0.5])
    assert healthy == [0.7, 0.7]
    # Slot 1: edge down — forced device-only.
    assert policy.decide(system, state, [0.5, 0.5]) == [0.0, 0.0]
    # Slot 2: stale telemetry — last-known-good repeated, not recomputed.
    assert policy.decide(system, state, [0.5, 0.5]) == healthy
    # reset() rewinds the cursor.
    policy.reset()
    assert policy.decide(system, state, [0.5, 0.5]) == healthy


# -- fluid overlay --------------------------------------------------------------


def _drop_only_plan(num_slots: int, num_devices: int) -> FaultPlan:
    drop = np.zeros((num_slots, num_devices), dtype=np.int8)
    drop[0, 0] = 1
    return FaultPlan(
        uplink_drop=drop,
        uplink_corrupt=np.zeros_like(drop),
        edge_down=np.zeros(num_slots, dtype=np.int8),
        straggler=np.ones((num_slots, num_devices)),
        telemetry_stale=np.zeros(num_slots, dtype=np.int8),
        slot_length=1.0,
    )


def test_faulty_environment_degrades_only_flagged_slots():
    system = random_fleet(1, 2)
    env = _FaultyEnvironment(_drop_only_plan(5, 2), StaticEnvironment())
    rng = np.random.default_rng(0)
    hit = env.devices_at(0, system.devices, rng)
    assert hit[0].link.bandwidth == pytest.approx(
        system.devices[0].link.bandwidth * DROP_FACTOR
    )
    # The unflagged device and the unflagged slot pass through untouched.
    assert hit[1] is system.devices[1]
    assert env.devices_at(1, system.devices, rng) == tuple(system.devices)
    # Out of range: the healthy world, not a replay of the last row.
    assert env.devices_at(99, system.devices, rng) == tuple(system.devices)


def test_faulty_environment_rejects_wrong_fleet_width():
    """A plan of the wrong width fails when the simulator is built."""
    system = random_fleet(1, 2)
    with pytest.raises(ValueError, match="covers 3 devices"):
        SlotSimulator(
            system=system,
            arrivals=[PoissonArrivals(0.3)] * 2,
            faults=_drop_only_plan(5, 3),
        )


def test_faulty_environment_outage_degrades_the_edge():
    """The single-edge shard provider reads outages from the plan."""
    plan = canonical_outage_plan(num_slots=60, num_devices=2, seed=0)
    system = random_fleet(1, 2)
    start = int(plan.meta["outage_start"])
    shards = simulator._WholeFleet(system, None, plan)
    _, (degraded,) = shards.at(start, StaticEnvironment())
    assert degraded.edge_down
    assert degraded.system.edge_flops == pytest.approx(
        system.edge_flops * EDGE_DOWN_FACTOR
    )
    _, (healthy,) = shards.at(0, StaticEnvironment())
    assert not healthy.edge_down and healthy.system is system


def test_time_to_recovery_bounds():
    plan = canonical_outage_plan(num_slots=80, num_devices=4, seed=0)
    system = random_fleet(3, 4)
    start, stop = int(plan.meta["outage_start"]), int(plan.meta["outage_stop"])
    result = SlotSimulator(
        system=system,
        arrivals=[PoissonArrivals(0.3)] * 4,
        seed=3,
        vectorized=True,
        faults=plan,
        recovery=RecoveryPolicy.default(),
    ).run(DriftPlusPenaltyPolicy(v=50.0), 80)
    ttr = time_to_recovery(result, start, stop)
    assert ttr == 0.0 or ttr > 0.0  # finite: the resilient policy recovers
    assert not math.isinf(ttr)
    with pytest.raises(ValueError):
        time_to_recovery(result, 10, 10)


# -- the fluid seam: SlotSimulator(faults=, recovery=) ---------------------------

SEAM_SLOTS = 24


class _ReferenceOverlay(_FaultyEnvironment):
    """The hand-built composition ``faults=`` replaced: the device
    overlay plus the edge outage, collapsed in ``system_at`` and flagged
    through an ``edge_down_at`` extension."""

    def edge_down_at(self, slot):
        return self.plan.edge_down_at(slot)

    def system_at(self, slot, base):
        live = super().system_at(slot, base)
        if not self.edge_down_at(slot):
            return live
        return dataclasses.replace(live, edge_flops=live.edge_flops * 0.05)


class _ReferenceFleet(simulator._WholeFleet):
    """A whole-fleet shard provider that reads outages off the
    environment's ``edge_down_at``."""

    def at(self, slot, environment):
        owner, (shard,) = super().at(slot, environment)
        return owner, (shard._replace(edge_down=environment.edge_down_at(slot)),)


def _seam_plan(num_devices: int) -> FaultPlan:
    plan = generate_fault_plan(
        FaultPlanSpec(
            num_slots=SEAM_SLOTS,
            num_devices=num_devices,
            drop_prob=0.15,
            corrupt_prob=0.15,
            crash_rate=12.0,
            crash_recovery_mean=3.0,
            straggler_prob=0.2,
            stale_prob=0.2,
        ),
        seed=4,
    )
    assert plan.edge_down.any() and plan.telemetry_stale.any()
    return plan


def _seam_base(name: str, num_devices: int):
    if name == "static":
        return StaticEnvironment()
    if name == "trace":
        return TraceEnvironment(
            generate_trace(
                WildTraceSpec(num_slots=SEAM_SLOTS, num_devices=num_devices),
                seed=2,
            )
        )
    return RandomWalkEnvironment(sigma=0.3)


def _fluid_outcome(result):
    return result.records, pickle.dumps((result.stream, result.class_flow))


@pytest.mark.parametrize("metrics", ["records", "streaming"])
@pytest.mark.parametrize("control", ["plain", "overload-qos"])
@pytest.mark.parametrize("base", ["static", "trace", "random-walk"])
@pytest.mark.parametrize("recovery", [None, RecoveryPolicy.default()], ids=["none", "default"])
@pytest.mark.parametrize("vectorized", [False, True], ids=["scalar", "array"])
def test_fault_seam_equals_the_composition_by_hand(
    vectorized, recovery, base, control, metrics
):
    """``SlotSimulator(faults=plan, recovery=R)`` replays exactly what
    the overlay environment plus a hand-wrapped ``ResilientPolicy``
    did: device channels, outage collapse and warm-pool flush, and the
    control-plane budget."""
    n = 4
    system = random_fleet(6, n, max_arrivals=1.0)
    plan = _seam_plan(n)
    settings = dict(
        system=system,
        arrivals=[PoissonArrivals(0.6)] * n,
        seed=5,
        vectorized=vectorized,
    )
    if control == "overload-qos":
        settings.update(
            overload=OverloadControl(queue_high=6.0, queue_low=2.0),
            qos=QoSConfig(memory_fraction=0.5, cold_start_seconds=0.25),
        )
    seam = SlotSimulator(
        environment=_seam_base(base, n), faults=plan, recovery=recovery, **settings
    ).run(DriftPlusPenaltyPolicy(v=50.0), SEAM_SLOTS, metrics=metrics)
    by_hand = SlotSimulator(
        environment=_ReferenceOverlay(plan, _seam_base(base, n)), **settings
    )
    policy = DriftPlusPenaltyPolicy(v=50.0)
    if recovery is not None:
        policy = ResilientPolicy(policy, plan, recovery)
    reference = simulator.run_fluid(
        by_hand, _ReferenceFleet(system, vectorized, None), policy, SEAM_SLOTS,
        None, metrics, None, None, None, path="fluid",
    )[0]
    assert _fluid_outcome(seam) == _fluid_outcome(reference)


def test_fault_seam_checks_at_construction_and_wraps_per_run():
    system = random_fleet(1, 2)
    arrivals = [PoissonArrivals(0.5)] * 2
    with pytest.raises(ValueError, match="requires a fault plan"):
        SlotSimulator(system, arrivals, recovery=RecoveryPolicy.default())
    plan = canonical_outage_plan(num_slots=30, num_devices=2, seed=1)
    policy = FixedRatioPolicy(0.7, respect_constraint=False)
    resilient = SlotSimulator(
        system, arrivals, faults=plan, recovery=RecoveryPolicy.default()
    )
    # Each run wraps a fresh ResilientPolicy: no cursor carries over.
    first = resilient.run(policy, 30).records
    assert resilient.run(policy, 30).records == first
    # No budget means RecoveryPolicy.none(), which wraps nothing.
    naive = SlotSimulator(system, arrivals, faults=plan).run(policy, 30).records
    assert naive == SlotSimulator(
        system, arrivals, faults=plan, recovery=RecoveryPolicy.none()
    ).run(policy, 30).records
    assert naive != first


# -- event simulator ------------------------------------------------------------


def test_event_sim_recovery_beats_no_recovery():
    """The acceptance contrast: under the canonical outage the recovered
    run completes ≥ 95% while the naive run visibly degrades."""
    system = random_fleet(5, 4, max_arrivals=1.0)
    plan = canonical_outage_plan(num_slots=80, num_devices=4, seed=0)
    results = {}
    for name, recovery in (
        ("recovery", RecoveryPolicy.default()),
        ("none", RecoveryPolicy.none()),
    ):
        results[name] = EventSimulator(
            system=system,
            arrivals=[PoissonArrivals(0.3)] * 4,
            seed=3,
            faults=plan,
            recovery=recovery,
        ).run(DriftPlusPenaltyPolicy(v=50.0), 80, drain_limit_factor=100.0)
    assert results["recovery"].completion_rate >= 0.95
    assert results["none"].completion_rate < results["recovery"].completion_rate
    assert results["recovery"].total_retries > 0
    assert results["none"].total_retries == 0
    summary = slo_summary(results["recovery"], deadline=10.0)
    assert summary["tasks"] == summary["completed"] + summary["dropped"] + summary["in_flight"]
    assert 0.0 <= summary["deadline_miss_rate"] <= 1.0


def test_event_sim_same_seed_fault_runs_are_identical():
    system = random_fleet(5, 2)
    plan = canonical_outage_plan(num_slots=40, num_devices=2, seed=1)

    def run():
        return EventSimulator(
            system=system,
            arrivals=[PoissonArrivals(0.4)] * 2,
            seed=7,
            faults=plan,
            recovery=RecoveryPolicy.default(),
        ).run(DriftPlusPenaltyPolicy(v=50.0), 40, drain_limit_factor=100.0)

    assert run().tasks == run().tasks


def test_event_sim_recovery_requires_faults():
    system = random_fleet(5, 2)
    with pytest.raises(ValueError):
        EventSimulator(
            system=system,
            arrivals=[PoissonArrivals(0.4)] * 2,
            recovery=RecoveryPolicy.default(),
        )


def test_event_sim_rejects_mismatched_plan_width():
    system = random_fleet(5, 2)
    plan = canonical_outage_plan(num_slots=40, num_devices=3, seed=1)
    with pytest.raises(ValueError):
        EventSimulator(
            system=system, arrivals=[PoissonArrivals(0.4)] * 2, faults=plan
        )


# -- live runtime ---------------------------------------------------------------


def test_runtime_replays_faults_with_recovery(small_system):
    plan = canonical_outage_plan(num_slots=12, num_devices=2, seed=0)
    runtime = LeimeRuntime(
        small_system, DriftPlusPenaltyPolicy(v=50.0), speedup=500.0, seed=0
    )
    try:
        report = runtime.run(
            [ConstantArrivals(1.0)] * 2,
            num_slots=12,
            drain_timeout=30.0,
            faults=plan,
            recovery=RecoveryPolicy.default(),
        )
    finally:
        runtime.shutdown()
    assert len(report.tasks) == 24
    assert event_conservation(report) == []
    assert report.completion_rate >= 0.9


def test_runtime_recovery_requires_faults(small_system):
    runtime = LeimeRuntime(small_system, FixedRatioPolicy(0.0), speedup=500.0)
    try:
        with pytest.raises(ValueError):
            runtime.run(
                [ConstantArrivals(1.0)] * 2,
                num_slots=2,
                recovery=RecoveryPolicy.default(),
            )
    finally:
        runtime.shutdown()


# -- empty-fleet NaN convention -------------------------------------------------


def test_event_sim_result_empty_statistics_are_nan():
    empty = EventSimResult(tasks=(), horizon=0.0)
    assert math.isnan(empty.completion_rate)
    assert math.isnan(empty.mean_tct)
    assert math.isnan(empty.drop_rate)
    assert math.isnan(empty.deadline_hit_rate(1.0))


def test_runtime_report_empty_statistics_are_nan(small_system):
    """A live run under faults and recovery that generates nothing
    reports NaN statistics, never an optimistic number."""
    plan = canonical_outage_plan(num_slots=12, num_devices=2, seed=0)
    runtime = LeimeRuntime(
        small_system, FixedRatioPolicy(0.0), speedup=1000.0, seed=0
    )
    try:
        empty = runtime.run(
            [ConstantArrivals(0.0)] * 2,
            num_slots=12,
            drain_timeout=1.0,
            faults=plan,
            recovery=RecoveryPolicy.default(),
        )
    finally:
        runtime.shutdown()
    assert empty.generated_count == 0
    assert math.isnan(empty.completion_rate)
    assert math.isnan(empty.mean_tct)
    assert math.isnan(empty.drop_rate)
    assert math.isnan(empty.deadline_hit_rate(1.0))


# -- worker-leak warning --------------------------------------------------------


def test_node_shutdown_warns_on_wedged_worker():
    clock = VirtualClock(speedup=1000.0)
    node = RuntimeNode("wedged", flops=1e9, clock=clock)
    import threading

    never = threading.Event()
    node.submit(1.0, lambda _t: never.wait())  # callback blocks forever
    with pytest.warns(RuntimeWarning, match="wedged"):
        assert node.shutdown(join_timeout=0.3) is False
    never.set()  # release the thread so the test process exits cleanly


def test_link_shutdown_warns_on_wedged_courier():
    from repro.hardware import NetworkProfile
    from repro.runtime.node import RuntimeLink

    clock = VirtualClock(speedup=1000.0)
    link = RuntimeLink("wedged", NetworkProfile(bandwidth=1e9, latency=1.0), clock)
    import threading

    never = threading.Event()
    link.transmit(1.0, lambda _t: never.wait())  # delivery blocks forever
    with pytest.warns(RuntimeWarning, match="courier.*wedged"):
        assert link.shutdown(join_timeout=0.3) is False
    never.set()  # release the thread so the test process exits cleanly


def test_node_shutdown_clean_returns_true():
    clock = VirtualClock(speedup=1000.0)
    node = RuntimeNode("clean", flops=1e9, clock=clock)
    node.submit(1.0, lambda _t: None)
    assert node.shutdown() is True
