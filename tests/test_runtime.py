"""The live threaded runtime prototype."""

from __future__ import annotations

import math
import sys

import pytest

from repro.chaos.oracles import event_conservation
from repro.core.offloading import DriftPlusPenaltyPolicy, FixedRatioPolicy
from repro.runtime import LeimeRuntime, RuntimeLink, RuntimeNode, VirtualClock
from repro.hardware import NetworkProfile
from repro.resilience.slo import slo_summary
from repro.sim.arrivals import ConstantArrivals
from repro.sim.events import EventSimResult


# -- clock ---------------------------------------------------------------------


def test_virtual_clock_scales():
    clock = VirtualClock(speedup=1000.0)
    before = clock.now()
    clock.sleep(1.0)  # 1 virtual second = 1 ms wall
    after = clock.now()
    assert after - before >= 1.0
    assert after - before < 500.0  # far less than 500 virtual seconds


def test_virtual_clock_validation():
    with pytest.raises(ValueError):
        VirtualClock(speedup=0.0)
    clock = VirtualClock()
    with pytest.raises(ValueError):
        clock.sleep(-1.0)


# -- nodes ----------------------------------------------------------------------


def test_runtime_node_processes_fifo():
    clock = VirtualClock(speedup=2000.0)
    node = RuntimeNode("worker", flops=1e9, clock=clock)
    finished = []
    try:
        node.submit(1e9, lambda t: finished.append(("a", t)))  # 1 virtual s
        node.submit(1e9, lambda t: finished.append(("b", t)))
        node.shutdown()
    finally:
        pass
    assert [name for name, _ in finished] == ["a", "b"]
    assert finished[1][1] > finished[0][1]
    assert node.jobs_done == 2


def test_runtime_node_validation():
    clock = VirtualClock(speedup=1000.0)
    with pytest.raises(ValueError):
        RuntimeNode("bad", flops=0.0, clock=clock)
    node = RuntimeNode("ok", flops=1e9, clock=clock)
    with pytest.raises(ValueError):
        node.submit(-1.0, lambda t: None)
    node.shutdown()


def test_runtime_node_capacity_rejects_when_full():
    """A bounded node refuses submissions past its capacity instead of
    queueing without limit; accepted work still completes."""
    clock = VirtualClock(speedup=1000.0)
    node = RuntimeNode("bounded", flops=1e9, clock=clock, capacity=1)
    outcomes = []
    try:
        # Each job runs ~0.3 s wall, so the flood below lands while the
        # worker is busy and the single queue slot fills immediately.
        outcomes = [node.submit(3e11, lambda t: None) for _ in range(5)]
    finally:
        node.shutdown(join_timeout=10.0)
    accepted = sum(outcomes)
    assert accepted + node.jobs_rejected == 5
    # The worker can steal at most one job off the queue mid-flood.
    assert accepted <= 2
    assert node.jobs_rejected >= 3
    assert node.jobs_done == accepted


def test_runtime_node_capacity_validation():
    clock = VirtualClock(speedup=1000.0)
    with pytest.raises(ValueError):
        RuntimeNode("bad", flops=1e9, clock=clock, capacity=0)


def test_runtime_link_shutdown_drains_propagation_timers():
    """shutdown() drains the link's courier: every transmitted payload
    has been delivered by the time it returns, and the return value
    reports a clean stop."""
    clock = VirtualClock(speedup=1000.0)
    link = RuntimeLink(
        "hop", NetworkProfile(bandwidth=1e9, latency=2.0), clock
    )
    deliveries = []
    for _ in range(3):
        assert link.transmit(1e3, deliveries.append)
    clean = link.shutdown()
    assert clean
    # No sleeping: the drain happened inside shutdown, not after it.
    assert len(deliveries) == 3


def test_empty_runtime_report_rates_are_nan(small_system):
    """A live run that generates nothing returns the event simulator's
    result with NaN statistics, never an optimistic number — including
    the overload layer's shed_rate — and honest zero counters."""
    runtime = LeimeRuntime(
        small_system, FixedRatioPolicy(0.5), speedup=1000.0, seed=0
    )
    try:
        live = runtime.run(
            [ConstantArrivals(0.0)] * 2, num_slots=2, drain_timeout=1.0
        )
    finally:
        runtime.shutdown()
    assert isinstance(live, EventSimResult)
    rates = (
        live.completion_rate,
        live.mean_tct,
        live.drop_rate,
        live.shed_rate,
        live.deadline_hit_rate(1.0),
        live.offloaded_fraction(),
        *live.exit_fractions(),
    )
    assert all(math.isnan(rate) for rate in rates)
    counters = (
        live.generated_count,
        live.completed_count,
        live.dropped_count,
        live.shed_count,
        live.in_flight_count,
        live.total_retries,
    )
    assert counters == (0, 0, 0, 0, 0, 0)


def test_runtime_link_delivers_after_latency():
    clock = VirtualClock(speedup=2000.0)
    link = RuntimeLink(
        "hop", NetworkProfile(bandwidth=1e6, latency=1.0), clock
    )
    deliveries = []
    link.transmit(1e6, lambda t: deliveries.append(t))  # 1 s serialise + 1 s prop
    link.shutdown()
    import time

    deadline = time.monotonic() + 5.0
    while not deliveries and time.monotonic() < deadline:
        time.sleep(0.005)
    assert deliveries, "delivery never arrived"
    assert deliveries[0] >= 2.0 * 0.9  # ~2 virtual seconds, loose bound


# -- full runtime -----------------------------------------------------------------


@pytest.mark.parametrize(
    "policy", [FixedRatioPolicy(0.5), DriftPlusPenaltyPolicy(v=50.0)],
    ids=["fixed", "leime"],
)
def test_runtime_completes_all_tasks(small_system, policy):
    runtime = LeimeRuntime(small_system, policy, speedup=500.0, seed=0)
    try:
        report = runtime.run(
            [ConstantArrivals(1.0)] * 2, num_slots=8, drain_timeout=30.0
        )
    finally:
        runtime.shutdown()
    assert len(report.tasks) == 16
    assert report.completion_rate == 1.0
    assert report.mean_tct > 0
    tier1, tier2, tier3 = report.exit_fractions()
    assert tier1 + tier2 + tier3 == pytest.approx(1.0)


def test_drained_live_run_leaves_no_exit_coin(small_system):
    """The controller adds each launched task's exit coins while the
    workers remove the finished ones: with a short switch interval, a
    drained run — tasks completed or lost — leaves none behind."""
    from repro.resilience import (
        FaultPlanSpec,
        RecoveryPolicy,
        generate_fault_plan,
    )

    # Every uplink transfer drops, so every task that needs one is lost.
    plan = generate_fault_plan(
        FaultPlanSpec(
            num_slots=8,
            num_devices=2,
            drop_prob=1.0,
            corrupt_prob=0.0,
            crash_rate=0.0,
            straggler_prob=0.0,
            stale_prob=0.0,
        )
    )
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for faults, recovery in (
            (None, None),
            (plan, RecoveryPolicy.none()),
        ):
            runtime = LeimeRuntime(
                small_system, FixedRatioPolicy(0.5), speedup=500.0, seed=4
            )
            try:
                live = runtime.run(
                    [ConstantArrivals(2.0)] * 2,
                    num_slots=8,
                    drain_timeout=30.0,
                    faults=faults,
                    recovery=recovery,
                )
            finally:
                runtime.shutdown()
            assert live.in_flight_count == 0
            assert (live.dropped_count > 0) == (faults is not None)
            assert runtime._pipeline.exit_coins == {}
    finally:
        sys.setswitchinterval(interval)


def test_runtime_latency_compatible_with_event_sim(small_system):
    """The live threads and the event simulator describe the same system:
    their mean TCTs agree within a loose factor (thread scheduling adds
    jitter; the expectation must not)."""
    from repro.sim.events import EventSimulator

    arrivals = [ConstantArrivals(1.0)] * 2
    simulated = EventSimulator(
        system=small_system, arrivals=arrivals, seed=3
    ).run(FixedRatioPolicy(1.0), 20)
    # Moderate speedup: at high factors, millisecond thread-scheduling
    # jitter is magnified into whole virtual seconds and distorts latency.
    runtime = LeimeRuntime(
        small_system, FixedRatioPolicy(1.0), speedup=40.0, seed=3
    )
    try:
        live = runtime.run(arrivals, num_slots=20, drain_timeout=30.0)
    finally:
        runtime.shutdown()
    assert live.completion_rate == 1.0
    assert live.mean_tct == pytest.approx(simulated.mean_tct, rel=0.5)


def test_runtime_arrival_count_validation(small_system):
    runtime = LeimeRuntime(small_system, FixedRatioPolicy(0.0), speedup=500.0)
    try:
        with pytest.raises(ValueError):
            runtime.run([ConstantArrivals(1.0)], num_slots=2)
    finally:
        runtime.shutdown()


def test_live_result_has_the_event_result_accessors(small_system):
    """A live run answers every accessor of the event result: the SLO
    block with a deadline-miss rate, the rung log and the horizon."""
    runtime = LeimeRuntime(
        small_system, FixedRatioPolicy(0.5), speedup=500.0, seed=1
    )
    try:
        live = runtime.run(
            [ConstantArrivals(1.0)] * 2, num_slots=4, drain_timeout=30.0
        )
    finally:
        runtime.shutdown()
    summary = slo_summary(live, deadline=2.0)
    assert summary["tasks"] == 8
    assert summary["deadline_miss_rate"] == live.deadline_miss_rate(2.0)
    assert 0.0 <= summary["deadline_miss_rate"] <= 1.0
    assert live.modes == ()  # ungoverned: no ladder, no rungs
    assert live.horizon >= 4.0
    assert event_conservation(live) == []


def test_live_records_result_is_cut_at_return(small_system):
    """A records-mode result is a snapshot taken when ``run`` returns:
    tasks the workers finish after a drain timeout change neither its
    records nor its counts."""
    runtime = LeimeRuntime(
        small_system, FixedRatioPolicy(0.5), speedup=500.0, seed=2
    )
    try:
        live = runtime.run(
            [ConstantArrivals(15.0)] * 2, num_slots=2, drain_timeout=0.01
        )
        cut = [
            (t.completed, t.exit_tier, t.dropped) for t in live.tasks
        ]
        counts = (live.completed_count, live.in_flight_count)
    finally:
        # Stopping drains every queued job, finishing the tasks that
        # were in flight at the cut.
        runtime.shutdown()
    assert counts[1] > 0, "fixture needs tasks in flight at the cut"
    assert [(t.completed, t.exit_tier, t.dropped) for t in live.tasks] == cut
    assert (live.completed_count, live.in_flight_count) == counts
    assert event_conservation(live) == []


def test_live_streaming_cut_holds_identities_under_contention(small_system):
    """Workers fold terminal events into the books while the controller
    cuts them: with a short switch interval and the cut racing a full
    pipeline, the global and per-class identities hold at the cut, and
    the returned aggregates stay put while the workers drain."""
    from repro.resilience.qos import QoSConfig

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    runtime = LeimeRuntime(
        small_system, FixedRatioPolicy(0.5), speedup=500.0, seed=3
    )
    try:
        live = runtime.run(
            [ConstantArrivals(15.0)] * 2,
            num_slots=2,
            drain_timeout=0.01,
            qos=QoSConfig(),
            metrics="streaming",
        )
        cut = (live.completed_count, live.in_flight_count)
    finally:
        runtime.shutdown()
        sys.setswitchinterval(interval)
    assert cut[1] > 0, "fixture needs tasks in flight at the cut"
    assert live.stats.identity_gap == 0
    assert set(live.class_identity_gaps().values()) == {0}
    assert (live.completed_count, live.in_flight_count) == cut
