"""Trace replay across the scalar, vectorized, and runtime paths."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.adaptation import AdaptiveExitController
from repro.core.exit_setting import AverageEnvironment
from repro.core.offloading import DriftPlusPenaltyPolicy
from repro.hardware import (
    CLOUD_V100,
    EDGE_I7_3770,
    INTERNET_EDGE_CLOUD,
    RASPBERRY_PI_3B,
    WIFI_DEVICE_EDGE,
)
from repro.models.zoo import build_model
from repro.runtime import LeimeRuntime
from repro.sim.arrivals import ConstantArrivals
from repro.sim.simulator import SlotSimulator
from repro.traces.drift import BandwidthDriftMonitor
from repro.traces.generators import WildTraceSpec, generate_trace
from repro.traces.replay import TraceEnvironment, arrival_processes, replay_trace
from repro.traces.schema import Trace, TraceChannel

from tests.helpers import make_system, random_fleet


def _wild_trace(num_slots: int, num_devices: int, seed: int) -> Trace:
    """All four dynamics on, with enough churn to exercise the NaN path."""
    return generate_trace(
        WildTraceSpec(
            num_slots=num_slots,
            num_devices=num_devices,
            churn_down=0.05,
            churn_up=0.3,
        ),
        seed=seed,
    )


def _records_identical(a, b) -> bool:
    return len(a.records) == len(b.records) and all(
        ra.queue_local == rb.queue_local
        and ra.queue_edge == rb.queue_edge
        and ra.arrivals == rb.arrivals
        and ra.ratios == rb.ratios
        and ra.total_time == rb.total_time
        for ra, rb in zip(a.records, b.records)
    )


# -- the acceptance differential ------------------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_scalar_and_vectorized_replay_byte_identical(seed):
    """ISSUE acceptance: the same seed and the same trace through the
    scalar SlotSimulator and the VectorizedSlotEngine produce byte-identical
    queue/cost trajectories."""
    system = random_fleet(seed, 3)
    trace = _wild_trace(40, 3, seed)
    policy = DriftPlusPenaltyPolicy(v=50.0)
    scalar = replay_trace(system, trace, policy, seed=seed, vectorized=False)
    fast = replay_trace(system, trace, policy, seed=seed, vectorized=True)
    assert _records_identical(scalar, fast)


def test_replay_is_deterministic():
    system = random_fleet(7, 2)
    trace = _wild_trace(30, 2, 7)
    policy = DriftPlusPenaltyPolicy(v=50.0)
    first = replay_trace(system, trace, policy, seed=1)
    second = replay_trace(system, trace, policy, seed=1)
    assert _records_identical(first, second)


def test_replay_cycles_past_trace_end():
    system = random_fleet(2, 2)
    trace = _wild_trace(10, 2, 2)
    policy = DriftPlusPenaltyPolicy(v=50.0)
    long = replay_trace(system, trace, policy, num_slots=25, seed=0)
    assert len(long.records) == 25
    fast = replay_trace(
        system, trace, policy, num_slots=25, seed=0, vectorized=True
    )
    assert _records_identical(long, fast)


def test_replay_rejects_device_count_mismatch():
    system = make_system()  # 2 devices
    trace = _wild_trace(10, 3, 0)
    with pytest.raises(ValueError):
        replay_trace(system, trace, DriftPlusPenaltyPolicy(v=50.0))


# -- arrival gating --------------------------------------------------------------


def test_arrivals_gated_by_churn_mask():
    trace = generate_trace(
        WildTraceSpec(num_slots=120, num_devices=3, churn_down=0.15), seed=4
    )
    processes = arrival_processes(trace)
    assert len(processes) == 3
    down_seen = 0
    for t in range(trace.num_slots):
        up = trace.up_at(t)
        for i, process in enumerate(processes):
            if not up[i]:
                assert process.mean(t) == 0.0
                down_seen += 1
            else:
                assert process.mean(t) > 0.0
    assert down_seen > 0, "fixture should contain down slots"


def test_arrival_processes_require_rate_channel():
    trace = Trace(channels=(TraceChannel("bandwidth", np.full((4, 2), 1e6)),))
    with pytest.raises(ValueError):
        arrival_processes(trace)


# -- TraceEnvironment ------------------------------------------------------------


def test_devices_at_overrides_links_only_while_up():
    up = np.ones((3, 2))
    up[1, 0] = 0.0
    bandwidth = np.full((3, 2), 2e6)
    bandwidth[1, 0] = np.nan
    trace = Trace(
        channels=(
            TraceChannel("bandwidth", bandwidth),
            TraceChannel("up", up),
        )
    )
    environment = TraceEnvironment(trace)
    system = make_system()
    rng = np.random.default_rng(0)
    live = environment.devices_at(0, system.devices, rng)
    assert all(d.link.bandwidth == 2e6 for d in live)
    assert all(
        d.link.latency == base.link.latency
        for d, base in zip(live, system.devices)
    )
    # Slot 1: device 0 is down and keeps its configured baseline link.
    live = environment.devices_at(1, system.devices, rng)
    assert live[0] is system.devices[0]
    assert live[1].link.bandwidth == 2e6


def test_devices_at_rejects_width_mismatch():
    trace = _wild_trace(5, 3, 0)
    environment = TraceEnvironment(trace)
    system = make_system()  # 2 devices
    with pytest.raises(ValueError):
        environment.devices_at(0, system.devices, np.random.default_rng(0))


def test_system_at_scales_edge_capacity():
    system = make_system()
    flops = np.array([system.edge_flops, system.edge_flops / 2.0, 1e9])
    trace = Trace(channels=(TraceChannel("edge_flops", flops),))
    environment = TraceEnvironment(trace)
    # Unchanged capacity: the very same object back (no re-validation).
    assert environment.system_at(0, system) is system
    halved = environment.system_at(1, system)
    assert halved.edge_flops == system.edge_flops / 2.0
    assert halved.shares == system.shares
    # Cycle semantics wrap the slot index.
    assert environment.system_at(4, system).edge_flops == halved.edge_flops


def test_edge_capacity_changes_the_simulation():
    """Halving edge capacity mid-trace must show up in the trajectories —
    proof the simulator actually consumes ``system_at``."""
    system = make_system()
    num_slots = 12
    constant = np.full(num_slots, system.edge_flops)
    choked = constant.copy()
    choked[num_slots // 2 :] = system.edge_flops / 20.0
    policy = DriftPlusPenaltyPolicy(v=50.0)

    def run(edge_series):
        trace = Trace(channels=(TraceChannel("edge_flops", edge_series),))
        return SlotSimulator(
            system=system,
            arrivals=[ConstantArrivals(1.0)] * 2,
            environment=TraceEnvironment(trace),
            seed=0,
        ).run(policy, num_slots)

    baseline = run(constant)
    degraded = run(choked)
    # Identical until the choke point, different after.
    half = num_slots // 2
    assert _records_identical_prefix(baseline, degraded, half)
    assert degraded.mean_tct > baseline.mean_tct


def _records_identical_prefix(a, b, n: int) -> bool:
    return all(
        ra.total_time == rb.total_time and ra.ratios == rb.ratios
        for ra, rb in zip(a.records[:n], b.records[:n])
    )


# -- drift-driven re-planning ----------------------------------------------------


@pytest.fixture(scope="module")
def planner_environment():
    return AverageEnvironment.from_platforms(
        RASPBERRY_PI_3B,
        EDGE_I7_3770,
        CLOUD_V100,
        WIFI_DEVICE_EDGE,
        INTERNET_EDGE_CLOUD,
        edge_share=0.25,
    )


def _step_trace(planned_bandwidth: float, factor: float, num_slots: int = 20):
    """Bandwidth at the planned level, then dropped to ``factor`` of it."""
    bandwidth = np.full((num_slots, 2), planned_bandwidth)
    bandwidth[num_slots // 2 :] = planned_bandwidth * factor
    return Trace(channels=(TraceChannel("bandwidth", bandwidth),))


def test_monitor_replans_on_sustained_drift(planner_environment):
    controller = AdaptiveExitController(
        profile=build_model("inception-v3"), environment=planner_environment
    )
    planned = planner_environment.device_edge.bandwidth
    monitor = BandwidthDriftMonitor(
        trace=_step_trace(planned, 0.3),
        controller=controller,
        threshold=0.3,
        window=2,
        cooldown=5,
    )
    fired = [slot for slot in range(20) if monitor.on_slot(slot)]
    assert fired, "a 70% bandwidth drop must trigger a re-plan"
    assert monitor.replan_count == len(fired) == len(monitor.replanned_slots)
    assert all(slot >= 10 for slot in fired)
    assert controller.replan_count == len(fired)
    # Cooldown hysteresis: consecutive firings are spaced apart.
    assert all(b - a > 5 for a, b in zip(fired, fired[1:]))
    # The controller now plans against the drifted bandwidth.
    assert controller.environment.device_edge.bandwidth == pytest.approx(
        planned * 0.3
    )


def test_monitor_quiet_without_drift(planner_environment):
    controller = AdaptiveExitController(
        profile=build_model("inception-v3"), environment=planner_environment
    )
    planned = planner_environment.device_edge.bandwidth
    monitor = BandwidthDriftMonitor(
        trace=_step_trace(planned, 1.0),
        controller=controller,
        threshold=0.3,
        window=2,
        cooldown=0,
    )
    assert not any(monitor.on_slot(slot) for slot in range(20))
    assert monitor.replan_count == 0
    assert controller.replan_count == 0


def test_monitor_validation(planner_environment):
    controller = AdaptiveExitController(
        profile=build_model("inception-v3"), environment=planner_environment
    )
    planned = planner_environment.device_edge.bandwidth
    trace = _step_trace(planned, 0.5)
    with pytest.raises(ValueError):
        BandwidthDriftMonitor(trace=trace, controller=controller, threshold=0.0)
    with pytest.raises(ValueError):
        BandwidthDriftMonitor(trace=trace, controller=controller, window=0)
    no_bandwidth = Trace(
        channels=(TraceChannel("arrival_rate", np.ones((4, 2))),)
    )
    with pytest.raises(ValueError):
        BandwidthDriftMonitor(trace=no_bandwidth, controller=controller)


def test_replan_for_environment_swaps_plan(planner_environment):
    controller = AdaptiveExitController(
        profile=build_model("inception-v3"), environment=planner_environment
    )
    before = controller.plan
    from dataclasses import replace

    from repro.hardware import NetworkProfile

    slow = replace(
        planner_environment,
        device_edge=NetworkProfile(
            planner_environment.device_edge.bandwidth * 0.1,
            planner_environment.device_edge.latency,
        ),
    )
    plan = controller.replan_for_environment(slow)
    assert controller.replan_count == 1
    assert controller.plan is plan
    assert controller.environment is slow
    assert plan is not before


def test_drift_monitor_hot_swaps_runtime_partition(planner_environment):
    """End to end across the runtime path: the slot hook fires mid-run and
    the re-planned partition is live on the runtime afterwards."""
    controller = AdaptiveExitController(
        profile=build_model("inception-v3"), environment=planner_environment
    )
    planned = planner_environment.device_edge.bandwidth
    system = make_system(partition=controller.plan.partition)
    runtime = LeimeRuntime(
        system, DriftPlusPenaltyPolicy(v=50.0), speedup=2000.0, seed=0
    )
    monitor = BandwidthDriftMonitor(
        trace=_step_trace(planned, 0.2, num_slots=8),
        controller=controller,
        runtime=runtime,
        threshold=0.3,
        window=2,
        cooldown=0,
    )
    try:
        report = runtime.run(
            [ConstantArrivals(1.0)] * 2,
            num_slots=8,
            drain_timeout=30.0,
            slot_hook=monitor.on_slot,
        )
    finally:
        runtime.shutdown()
    assert report.completion_rate == 1.0
    assert monitor.replan_count >= 1
    assert runtime.system.partition is controller.plan.partition
    assert runtime.system.device_partitions == ()
