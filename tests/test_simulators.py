"""Slot and event simulators: conservation, stability, agreement."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.offloading import (
    DriftPlusPenaltyPolicy,
    FixedRatioPolicy,
    LyapunovState,
)
from repro.resilience.faults import FaultPlanSpec, generate_fault_plan
from repro.resilience.recovery import RecoveryPolicy
from repro.sim.arrivals import (
    ConstantArrivals,
    PiecewiseRateArrivals,
    PoissonArrivals,
    SinusoidalRateArrivals,
    UniformArrivals,
)
from repro.sim.environment import (
    RandomWalkEnvironment,
    StaticEnvironment,
    TraceEnvironment,
)
from repro.sim.events import EventSimulator
from repro.sim.metrics import SimulationResult, SlotRecord, summarize
from repro.sim.simulator import SlotSimulator
from repro.hardware import NetworkProfile
from repro.units import mbps, ms


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
    trace = (NetworkProfile(mbps(1), ms(5)), NetworkProfile(mbps(2), ms(5)))
    env = TraceEnvironment(trace)
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
    ],
)
def test_bad_inputs_fail_at_construction(small_system, build):
    with pytest.raises(ValueError):
        build(small_system)
