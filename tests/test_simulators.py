"""Slot and event simulators: conservation, stability, agreement."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro.chaos.campaign import ChaosSpec
from repro.chaos.control_faults import (
    ControlFaultSpec,
    FencedController,
    canonical_coordinator_outage,
)
from repro.core.offloading import (
    BalanceOffloadingPolicy,
    DriftPlusPenaltyPolicy,
    FixedRatioPolicy,
    LyapunovState,
)
from repro.resilience.faults import FaultPlanSpec, generate_fault_plan
from repro.resilience.overload import OverloadControl
from repro.resilience.qos import DEFAULT_CLASSES, QoSConfig
from repro.resilience.recovery import RecoveryPolicy
from repro.sim.arrivals import (
    ConstantArrivals,
    PiecewiseRateArrivals,
    PoissonArrivals,
    SinusoidalRateArrivals,
    UniformArrivals,
)
from repro.sim.environment import RandomWalkEnvironment, StaticEnvironment
from repro.federation import (
    EdgeSite,
    FederatedEventSimulator,
    FederatedRuntime,
    FederatedSlotSimulator,
    single_edge_topology,
)
from repro.runtime import LeimeRuntime
from repro.sim.events import EventSimulator
from repro.sim.fast_events import run_fast
from repro.sim.metrics import SimulationResult, SlotRecord, summarize
from repro.sim.simulator import SlotSimulator
from repro.hardware import INTERNET_EDGE_CLOUD, NetworkProfile
from repro.traces import TraceEnvironment, WildTraceSpec
from repro.tournament import TournamentSpec
from repro.units import mbps, ms

from .helpers import (
    profile_trace,
    random_federation_topology,
    random_fleet,
    static_home_plan,
)


# -- slot simulator ------------------------------------------------------------


def test_slot_simulator_record_count(small_system):
    sim = SlotSimulator(system=small_system, arrivals=[PoissonArrivals(0.5)] * 2)
    result = sim.run(FixedRatioPolicy(0.5), 40)
    assert result.num_slots == 40
    assert result.total_arrivals > 0


def test_slot_simulator_needs_matching_arrivals(small_system):
    with pytest.raises(ValueError):
        SlotSimulator(system=small_system, arrivals=[PoissonArrivals(0.5)])


def test_slot_simulator_rejects_zero_slots(small_system):
    sim = SlotSimulator(system=small_system, arrivals=[PoissonArrivals(0.5)] * 2)
    with pytest.raises(ValueError):
        sim.run(FixedRatioPolicy(0.5), 0)


def test_slot_simulator_is_deterministic_per_seed(small_system):
    def run(seed):
        sim = SlotSimulator(
            system=small_system, arrivals=[PoissonArrivals(0.5)] * 2, seed=seed
        )
        return sim.run(DriftPlusPenaltyPolicy(v=50), 30)

    assert run(3).mean_tct == run(3).mean_tct
    assert run(3).mean_tct != run(4).mean_tct


def test_slot_simulator_warm_state_continues(small_system):
    sim = SlotSimulator(system=small_system, arrivals=[ConstantArrivals(0.5)] * 2)
    state = LyapunovState.zeros(2)
    sim.run(FixedRatioPolicy(0.0), 20, state=state)
    # The caller's state reflects the run.
    assert state.total_backlog() >= 0.0


def test_stable_policy_keeps_queues_bounded(small_system):
    sim = SlotSimulator(system=small_system, arrivals=[PoissonArrivals(0.4)] * 2)
    result = sim.run(DriftPlusPenaltyPolicy(v=50), 200)
    assert result.is_stable()
    assert result.final_backlog < 20


def test_overload_is_detected_as_unstable(small_system):
    """Arrivals far beyond device capacity with a forced-local policy must
    blow the local queues up."""
    sim = SlotSimulator(system=small_system, arrivals=[ConstantArrivals(20.0)] * 2)
    result = sim.run(FixedRatioPolicy(0.0, respect_constraint=False), 150)
    assert not result.is_stable()
    assert result.final_backlog > 100


def test_compare_uses_common_randomness(small_system):
    sim = SlotSimulator(
        system=small_system, arrivals=[PoissonArrivals(0.5)] * 2, seed=9
    )
    results = sim.compare(
        [("a", FixedRatioPolicy(1.0)), ("b", FixedRatioPolicy(1.0))], 30
    )
    assert results[0][1].mean_tct == pytest.approx(results[1][1].mean_tct)


# -- metrics -------------------------------------------------------------------


def test_simulation_result_percentile_and_timeline(small_system):
    sim = SlotSimulator(system=small_system, arrivals=[PoissonArrivals(0.5)] * 2)
    result = sim.run(FixedRatioPolicy(0.5), 50)
    timeline = result.tct_timeline()
    assert timeline.shape == (50,)
    assert result.tct_percentile(95) >= result.tct_percentile(50)


def test_simulation_result_requires_records():
    with pytest.raises(ValueError):
        SimulationResult(records=())


def test_slot_record_mean_tct_zero_when_empty():
    record = SlotRecord(
        slot=0,
        arrivals=0.0,
        total_time=0.0,
        ratios=(0.0,),
        queue_local=(0.0,),
        queue_edge=(0.0,),
    )
    assert record.mean_tct == 0.0


def test_summarize_formats_all_schemes(small_system):
    sim = SlotSimulator(system=small_system, arrivals=[PoissonArrivals(0.5)] * 2)
    result = sim.run(FixedRatioPolicy(0.5), 20)
    text = summarize([("mine", result)])
    assert "mine" in text and "mean TCT" in text


# -- environments --------------------------------------------------------------


def test_static_environment_passthrough(small_system):
    rng = np.random.default_rng(0)
    devices = StaticEnvironment().devices_at(0, small_system.devices, rng)
    assert devices == small_system.devices


def test_trace_environment_overrides_link(small_system):
    profiles = (NetworkProfile(mbps(1), ms(5)), NetworkProfile(mbps(2), ms(5)))
    env = TraceEnvironment(profile_trace(profiles, small_system.num_devices))
    rng = np.random.default_rng(0)
    slot0 = env.devices_at(0, small_system.devices, rng)
    slot1 = env.devices_at(1, small_system.devices, rng)
    slot2 = env.devices_at(2, small_system.devices, rng)
    assert slot0[0].link.bandwidth == mbps(1)
    assert slot1[0].link.bandwidth == mbps(2)
    assert slot2[0].link.bandwidth == mbps(1)  # cycles


def test_random_walk_environment_clamps(small_system):
    env = RandomWalkEnvironment(sigma=2.0)
    rng = np.random.default_rng(0)
    for slot in range(50):
        devices = env.devices_at(slot, small_system.devices, rng)
        for device in devices:
            assert env.min_bandwidth <= device.link.bandwidth <= env.max_bandwidth


def test_random_walk_environment_is_a_walk(small_system):
    """Consecutive factors must be correlated (it's a walk, not jitter)."""
    env = RandomWalkEnvironment(sigma=0.05)
    rng = np.random.default_rng(1)
    series = [
        env.devices_at(t, small_system.devices, rng)[0].link.bandwidth
        for t in range(100)
    ]
    steps = np.abs(np.diff(series)) / np.array(series[:-1])
    # Single steps are small even though the walk wanders far.
    assert np.median(steps) < 0.2
    assert max(series) / min(series) > 1.1


# -- event simulator -----------------------------------------------------------


def test_event_sim_conservation(small_system):
    """Every generated task is either completed (after drain) or absent."""
    sim = EventSimulator(
        system=small_system, arrivals=[PoissonArrivals(0.4)] * 2, seed=0
    )
    result = sim.run(DriftPlusPenaltyPolicy(v=50), 50)
    assert result.completion_rate == 1.0
    assert all(t.done for t in result.tasks)
    assert all(t.tct > 0 for t in result.tasks)


def test_event_sim_exit_fractions_match_sigma(small_system):
    sim = EventSimulator(
        system=small_system, arrivals=[ConstantArrivals(2.0)] * 2, seed=1
    )
    result = sim.run(FixedRatioPolicy(0.5), 300)
    tier1, tier2, tier3 = result.exit_fractions()
    sigma1 = small_system.partition.sigma1
    sigma2 = small_system.partition.sigma2
    assert tier1 == pytest.approx(sigma1, abs=0.05)
    assert tier1 + tier2 == pytest.approx(sigma2, abs=0.05)
    assert tier1 + tier2 + tier3 == pytest.approx(1.0)


def test_event_sim_offloaded_fraction_tracks_ratio(small_system):
    sim = EventSimulator(
        system=small_system, arrivals=[ConstantArrivals(2.0)] * 2, seed=2
    )
    result = sim.run(FixedRatioPolicy(0.7), 200)
    assert result.offloaded_fraction() == pytest.approx(0.7, abs=0.06)


#: One fault channel switched on at a time (every other one quiet).
SINGLE_CHANNEL_FAULTS = {
    "corrupt": dict(corrupt_prob=0.3),
    "drop": dict(drop_prob=0.3),
    "outage": dict(crash_rate=15.0, crash_recovery_mean=2.0),
    "straggler": dict(straggler_prob=0.3),
}


def _single_channel_plan(channel: str, num_slots: int, num_devices: int):
    quiet = dict(
        drop_prob=0.0,
        corrupt_prob=0.0,
        crash_rate=0.0,
        straggler_prob=0.0,
        stale_prob=0.0,
    )
    spec = FaultPlanSpec(
        num_slots=num_slots,
        num_devices=num_devices,
        **{**quiet, **SINGLE_CHANNEL_FAULTS[channel]},
    )
    return generate_fault_plan(spec, seed=3)


def _assert_split_adds_up(result, tag: str) -> None:
    assert result.completed, tag
    for task in result.completed:
        parts = task.compute_time + task.transfer_time + task.queue_time
        assert parts == pytest.approx(task.tct, rel=1e-6, abs=1e-9), (
            f"{tag}: task {task.task_id}"
        )


def test_event_sim_task_time_decomposition(small_system):
    """A completed task's compute + transfer + queue is its TCT: on both
    engines under each fault channel and retry budget (corrupted
    attempts and fallbacks to the device included), and live."""
    sim = EventSimulator(
        system=small_system, arrivals=[PoissonArrivals(0.3)] * 2, seed=3
    )
    _assert_split_adds_up(sim.run(FixedRatioPolicy(0.0), 30), "fault-free")
    budgets = {
        "default": RecoveryPolicy.default(),
        "1-retry": RecoveryPolicy(
            max_retries=1, exclude_dead_edge=False, watchdog=False
        ),
    }
    for channel in SINGLE_CHANNEL_FAULTS:
        plan = _single_channel_plan(channel, 30, 2)
        for name, recovery in budgets.items():
            for engine in ("scalar", "fast"):
                result = EventSimulator(
                    system=small_system,
                    arrivals=[PoissonArrivals(0.5)] * 2,
                    seed=3,
                    faults=plan,
                    recovery=recovery,
                ).run(
                    FixedRatioPolicy(0.6),
                    30,
                    drain_limit_factor=100.0,
                    engine=engine,
                )
                _assert_split_adds_up(result, f"{channel}/{name}/{engine}")
    from repro.runtime import LeimeRuntime

    live_faults = _single_channel_plan("drop", 8, 2)
    for faults, recovery in ((None, None), (live_faults, budgets["1-retry"])):
        runtime = LeimeRuntime(
            small_system, FixedRatioPolicy(0.6), speedup=500.0, seed=3
        )
        try:
            live = runtime.run(
                [ConstantArrivals(1.0)] * 2,
                num_slots=8,
                drain_timeout=30.0,
                faults=faults,
                recovery=recovery,
            )
        finally:
            runtime.shutdown()
        _assert_split_adds_up(live, f"live/faults={faults is not None}")


def test_event_sim_unstable_drain_raises(small_system):
    sim = EventSimulator(
        system=small_system, arrivals=[ConstantArrivals(50.0)] * 2, seed=4
    )
    with pytest.raises(RuntimeError, match="unstable"):
        sim.run(
            FixedRatioPolicy(0.0, respect_constraint=False),
            50,
            drain_limit_factor=2.0,
        )


class _CountingPolicy:
    """``FixedRatioPolicy(0.5)`` that counts its decisions."""

    def __init__(self):
        self.calls = 0

    def decide(self, system, state, arrivals, devices=None):
        self.calls += 1
        return FixedRatioPolicy(0.5).decide(system, state, arrivals, devices)


def _drain_probe() -> EventSimulator:
    return EventSimulator(
        system=random_fleet(0, 3), arrivals=[PoissonArrivals(0.5)] * 3, seed=0
    )


@pytest.mark.parametrize("factor", [float("nan"), 0.5, -1.0])
@pytest.mark.parametrize("entry", ["scalar", "fast", "run_fast"])
def test_event_sim_rejects_bad_drain_limit(entry, factor):
    """NaN would switch the unstable-system guard off and a factor below
    1 would trip it on a system that drains: both are refused before
    the first slot runs, on both engines and through ``run_fast``."""
    policy = _CountingPolicy()
    with pytest.raises(ValueError, match="drain_limit_factor"):
        if entry == "run_fast":
            run_fast(_drain_probe(), policy, 10, drain_limit_factor=factor)
        else:
            _drain_probe().run(
                policy, 10, drain_limit_factor=factor, engine=entry
            )
    assert policy.calls == 0


@pytest.mark.parametrize("factor", [float("nan"), 0.5, -1.0])
def test_federated_event_sim_rejects_bad_drain_limit(factor):
    topology = random_federation_topology(0, 2, 4)
    sim = FederatedEventSimulator(
        topology=topology,
        arrivals=[PoissonArrivals(0.5)] * 4,
        plan=static_home_plan(topology, 10),
    )
    policy = _CountingPolicy()
    with pytest.raises(ValueError, match="drain_limit_factor"):
        sim.run(policy, 10, drain_limit_factor=factor)
    assert policy.calls == 0


@pytest.mark.parametrize("engine", ["scalar", "fast"])
def test_event_sim_infinite_drain_limit_means_no_bound(engine):
    bounded = _drain_probe().run(
        FixedRatioPolicy(0.5), 10, drain_limit_factor=100.0, engine=engine
    )
    unbounded = _drain_probe().run(
        FixedRatioPolicy(0.5), 10, drain_limit_factor=math.inf, engine=engine
    )
    assert bounded.tasks and all(t.done for t in bounded.tasks)
    assert unbounded.tasks == bounded.tasks


def test_event_sim_no_drain_counts_inflight(small_system):
    sim = EventSimulator(
        system=small_system, arrivals=[ConstantArrivals(5.0)] * 2, seed=5
    )
    result = sim.run(
        FixedRatioPolicy(0.0, respect_constraint=False), 30, drain=False
    )
    assert result.completion_rate < 1.0
    assert len(result.tasks) == 2 * 5 * 30


def test_event_sim_percentiles_ordered(small_system):
    sim = EventSimulator(
        system=small_system, arrivals=[PoissonArrivals(0.5)] * 2, seed=6
    )
    result = sim.run(DriftPlusPenaltyPolicy(v=50), 60)
    assert result.tct_percentile(50) <= result.tct_percentile(95)
    assert result.mean_tct > 0


def test_event_sim_timeline_by_creation_slot(small_system):
    sim = EventSimulator(
        system=small_system, arrivals=[ConstantArrivals(1.0)] * 2, seed=7
    )
    result = sim.run(FixedRatioPolicy(0.5), 20)
    timeline = result.tct_by_creation_slot(1.0, 20)
    assert timeline.shape == (20,)
    assert (timeline >= 0).all()
    assert timeline.max() > 0


def test_slot_and_event_simulators_agree_when_underloaded(small_system):
    """At light load both simulators should report TCTs of the same
    magnitude (the slot model is the analytic expectation of the event
    model, modulo its intra-slot FIFO approximations)."""
    arrivals = [ConstantArrivals(0.3)] * 2
    slot = SlotSimulator(system=small_system, arrivals=arrivals, seed=8).run(
        FixedRatioPolicy(1.0), 150
    )
    event = EventSimulator(system=small_system, arrivals=arrivals, seed=8).run(
        FixedRatioPolicy(1.0), 150
    )
    assert event.mean_tct == pytest.approx(slot.mean_tct, rel=0.6)


def test_event_sim_deadline_hit_rate(small_system):
    sim = EventSimulator(
        system=small_system, arrivals=[PoissonArrivals(0.4)] * 2, seed=9
    )
    result = sim.run(DriftPlusPenaltyPolicy(v=50), 60)
    generous = result.deadline_hit_rate(1e6)
    strict = result.deadline_hit_rate(1e-6)
    assert generous == 1.0
    assert strict == 0.0
    mid = result.deadline_hit_rate(result.tct_percentile(50))
    assert 0.3 <= mid <= 0.7
    with pytest.raises(ValueError):
        result.deadline_hit_rate(0.0)


def test_event_sim_deadline_counts_inflight_as_misses(small_system):
    sim = EventSimulator(
        system=small_system, arrivals=[ConstantArrivals(5.0)] * 2, seed=10
    )
    result = sim.run(
        FixedRatioPolicy(0.0, respect_constraint=False), 30, drain=False
    )
    assert result.completion_rate < 1.0
    assert result.deadline_hit_rate(1e6) < 1.0


def test_event_sim_per_device_mean_tct(small_system):
    sim = EventSimulator(
        system=small_system, arrivals=[PoissonArrivals(0.5)] * 2, seed=11
    )
    result = sim.run(FixedRatioPolicy(0.5), 60)
    per_device = result.per_device_mean_tct(2)
    assert len(per_device) == 2
    assert all(v > 0 for v in per_device)


def test_shared_uplink_contention_hurts(small_system):
    """A shared WiFi medium serialises all devices' uploads, so TCT can
    only get worse than with independent links of the same bandwidth."""
    arrivals = [ConstantArrivals(1.0)] * 2
    independent = EventSimulator(
        system=small_system, arrivals=arrivals, seed=12
    ).run(FixedRatioPolicy(1.0), 120)
    shared = EventSimulator(
        system=small_system, arrivals=arrivals, seed=12, shared_uplink=True
    ).run(FixedRatioPolicy(1.0), 120)
    assert shared.mean_tct >= independent.mean_tct * 0.99


def test_shared_uplink_single_device_equivalent(small_system):
    """With one device there is nothing to contend with."""
    from dataclasses import replace

    single = replace(
        small_system,
        devices=small_system.devices[:1],
        shares=(1.0,),
    )
    arrivals = [ConstantArrivals(0.5)]
    a = EventSimulator(system=single, arrivals=arrivals, seed=13).run(
        FixedRatioPolicy(1.0), 60
    )
    b = EventSimulator(
        system=single, arrivals=arrivals, seed=13, shared_uplink=True
    ).run(FixedRatioPolicy(1.0), 60)
    assert a.mean_tct == pytest.approx(b.mean_tct)


# -- construction-time checks ---------------------------------------------------


@pytest.mark.parametrize(
    "build",
    [
        lambda system: PoissonArrivals(float("nan")),
        lambda system: ConstantArrivals(float("nan")),
        lambda system: ConstantArrivals(float("inf")),
        lambda system: PiecewiseRateArrivals(((10, float("nan")),)),
        lambda system: PiecewiseRateArrivals(((10, float("inf")),)),
        lambda system: PiecewiseRateArrivals(((float("nan"), 1.0),)),
        lambda system: PiecewiseRateArrivals(((float("inf"), 1.0),)),
        lambda system: SinusoidalRateArrivals(float("nan"), 1.0, 10),
        lambda system: SinusoidalRateArrivals(1.0, float("inf"), 10),
        lambda system: SinusoidalRateArrivals(1.0, 1.0, float("nan")),
        lambda system: UniformArrivals(0.0, float("inf")),
        lambda system: dataclasses.replace(system, edge_flops=float("nan")),
        lambda system: dataclasses.replace(system, cloud_flops=float("inf")),
        lambda system: EventSimulator(
            system=system, arrivals=[ConstantArrivals(1.0)] * 2, seed=-1
        ),
        lambda system: SlotSimulator(
            system=system, arrivals=[ConstantArrivals(1.0)] * 2, seed=-1
        ),
        lambda system: FederatedSlotSimulator(
            topology=single_edge_topology(system),
            arrivals=[ConstantArrivals(1.0)] * 2,
            plan=static_home_plan(single_edge_topology(system), 4),
            seed=-1,
        ),
        lambda system: FederatedEventSimulator(
            topology=single_edge_topology(system),
            arrivals=[ConstantArrivals(1.0)] * 2,
            plan=static_home_plan(single_edge_topology(system), 4),
            seed=-1,
        ),
        lambda system: LeimeRuntime(system, FixedRatioPolicy(0.5), seed=-1),
        lambda system: LeimeRuntime(system, FixedRatioPolicy(0.5), speedup=math.nan),
        lambda system: LeimeRuntime(system, FixedRatioPolicy(0.5), speedup=math.inf),
        lambda system: FederatedRuntime(
            single_edge_topology(system),
            FixedRatioPolicy(0.5),
            static_home_plan(single_edge_topology(system), 4),
            seed=-1,
        ),
        *(
            lambda system, speedup=speedup: FederatedRuntime(
                single_edge_topology(system),
                FixedRatioPolicy(0.5),
                static_home_plan(single_edge_topology(system), 4),
                speedup=speedup,
            )
            for speedup in (0.0, -5.0, math.nan, math.inf)
        ),
    ],
    ids=[
        "poisson-nan",
        "constant-nan",
        "constant-inf",
        "piecewise-rate-nan",
        "piecewise-rate-inf",
        "piecewise-duration-nan",
        "piecewise-duration-inf",
        "sinusoidal-base-nan",
        "sinusoidal-amplitude-inf",
        "sinusoidal-period-nan",
        "uniform-high-inf",
        "edge-flops-nan",
        "cloud-flops-inf",
        "event-seed",
        "slot-seed",
        "federated-slot-seed",
        "federated-event-seed",
        "runtime-seed",
        "runtime-speedup-nan",
        "runtime-speedup-inf",
        "federated-runtime-seed",
        "federated-runtime-speedup-zero",
        "federated-runtime-speedup-negative",
        "federated-runtime-speedup-nan",
        "federated-runtime-speedup-inf",
    ],
)
def test_bad_inputs_fail_at_construction(small_system, build):
    with pytest.raises(ValueError):
        build(small_system)


def _run_configurations():
    """One valid instance of each run configuration class, every
    optional number set (``None`` means unbounded)."""
    system = random_fleet(0, 2)
    control_plan = canonical_coordinator_outage(20, seed=0)
    return (
        system.devices[0],
        system.devices[0].link,
        system,
        DEFAULT_CLASSES[0],
        QoSConfig(shed_budget=10.0),
        OverloadControl(),
        RecoveryPolicy(deadline=30.0),
        DriftPlusPenaltyPolicy(v=50.0),
        BalanceOffloadingPolicy(),
        RandomWalkEnvironment(),
        PoissonArrivals(0.5, maximum=4.0),
        EdgeSite("edge-0", 4e10, INTERNET_EDGE_CLOUD, backhaul_latency=0.01),
        FaultPlanSpec(),
        WildTraceSpec(),
        ControlFaultSpec(),
        control_plan,
        FencedController(FixedRatioPolicy(0.5), control_plan),
        ChaosSpec(),
        TournamentSpec(),
    )


def _numeric_fields():
    for config in _run_configurations():
        for field in dataclasses.fields(config):
            value = getattr(config, field.name)
            if isinstance(value, tuple) and value:
                value = value[0]  # a per-device column, e.g. shares
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                yield config, field.name


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize(
    "config,name",
    list(_numeric_fields()),
    ids=[f"{type(c).__name__}.{name}" for c, name in _numeric_fields()],
)
def test_non_finite_numbers_fail_at_construction(config, name, bad):
    value = getattr(config, name)
    if isinstance(value, tuple):
        value = (bad, *value[1:])
    else:
        value = bad
    with pytest.raises(ValueError):
        dataclasses.replace(config, **{name: value})


#: Numeric fields whose negative values are legal: a site's planar
#: coordinates and a QoS class's rung bias (gold's is -1).
_SIGNED = {("EdgeSite", "position"), ("QoSClass", "rung_bias")}


def _non_negative_fields():
    for config, name in _numeric_fields():
        if (type(config).__name__, name) not in _SIGNED:
            yield config, name


@pytest.mark.parametrize(
    "config,name",
    list(_non_negative_fields()),
    ids=[f"{type(c).__name__}.{name}" for c, name in _non_negative_fields()],
)
def test_negative_numbers_fail_at_construction(config, name):
    value = getattr(config, name)
    if isinstance(value, tuple):
        value = (-1.0, *value[1:])
    else:
        value = -1.0
    with pytest.raises(ValueError):
        dataclasses.replace(config, **{name: value})


def test_qos_class_share_is_a_relative_weight():
    assert dataclasses.replace(DEFAULT_CLASSES[0], share=1.5).share == 1.5
