"""The slot cost model, Lyapunov queues, and offloading policies."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.offloading import (
    BalanceOffloadingPolicy,
    CapabilityBasedPolicy,
    DeviceConfig,
    DriftPlusPenaltyPolicy,
    EdgeSystem,
    FixedRatioPolicy,
    LyapunovState,
    drift_plus_penalty,
    edge_compute_split,
    feasible_ratio_interval,
    slot_cost,
)
from repro.hardware import (
    EDGE_I7_3770,
    INTERNET_EDGE_CLOUD,
    RASPBERRY_PI_3B,
    WIFI_DEVICE_EDGE,
)

from tests.helpers import inception_partition, make_device, make_system


@pytest.fixture(scope="module")
def partition():
    return inception_partition()


def _device(bandwidth=10.0, latency=20.0, arrivals=0.5) -> DeviceConfig:
    return make_device(
        bandwidth_mbps=bandwidth, latency_ms=latency, arrivals=arrivals
    )


def _system(partition, devices=None) -> EdgeSystem:
    return make_system(partition=partition, devices=devices)


# -- DeviceConfig / EdgeSystem validation ------------------------------------


def test_device_config_validation():
    with pytest.raises(ValueError):
        DeviceConfig("x", 0.0, WIFI_DEVICE_EDGE, 1.0)
    with pytest.raises(ValueError):
        DeviceConfig("x", 1e9, WIFI_DEVICE_EDGE, -1.0)
    with pytest.raises(ValueError):
        DeviceConfig("x", 1e9, WIFI_DEVICE_EDGE, 1.0, overhead=-0.1)


def test_device_from_platform_copies_overhead():
    device = DeviceConfig.from_platform(RASPBERRY_PI_3B, WIFI_DEVICE_EDGE, 1.0)
    assert device.overhead == RASPBERRY_PI_3B.per_task_overhead
    assert device.flops == RASPBERRY_PI_3B.flops


def test_edge_system_default_shares_sum_to_one(partition):
    system = _system(partition)
    assert sum(system.shares) == pytest.approx(1.0)
    assert len(system.shares) == system.num_devices


def test_edge_system_validation(partition):
    with pytest.raises(ValueError):
        EdgeSystem(
            devices=(),
            edge_flops=1e9,
            cloud_flops=1e9,
            edge_cloud=INTERNET_EDGE_CLOUD,
            partition=partition,
        )
    with pytest.raises(ValueError):
        EdgeSystem(
            devices=(_device(),),
            edge_flops=1e9,
            cloud_flops=1e9,
            edge_cloud=INTERNET_EDGE_CLOUD,
            partition=partition,
            shares=(0.5, 0.5),
        )
    with pytest.raises(ValueError):
        EdgeSystem(
            devices=(_device(),),
            edge_flops=1e9,
            cloud_flops=1e9,
            edge_cloud=INTERNET_EDGE_CLOUD,
            partition=partition,
            shares=(0.7,),
        )


# -- Eq. 9 split --------------------------------------------------------------


def test_edge_compute_split_conserves_slice(partition):
    f1, f2 = edge_compute_split(0.5, 0.25, EDGE_I7_3770.flops, partition)
    assert f1 + f2 == pytest.approx(0.25 * EDGE_I7_3770.flops)
    assert f1 > 0 and f2 > 0


def test_edge_compute_split_eq9_ratio(partition):
    x, share = 0.3, 0.25
    f1, f2 = edge_compute_split(x, share, EDGE_I7_3770.flops, partition)
    expected_ratio = (x * partition.mu1) / ((1 - partition.sigma1) * partition.mu2)
    assert f1 / f2 == pytest.approx(expected_ratio)


def test_edge_compute_split_zero_offloading(partition):
    f1, f2 = edge_compute_split(0.0, 0.25, EDGE_I7_3770.flops, partition)
    assert f1 == 0.0
    assert f2 == pytest.approx(0.25 * EDGE_I7_3770.flops)


# -- Eq. 8 feasibility ---------------------------------------------------------


def test_feasible_interval_unconstrained(partition):
    device = _device(bandwidth=1000.0)
    assert feasible_ratio_interval(device, partition, 1.0, 1.0) == (0.0, 1.0)


def test_feasible_interval_zero_arrivals(partition):
    assert feasible_ratio_interval(_device(), partition, 1.0, 0.0) == (0.0, 1.0)


def test_feasible_interval_latency_eats_slot(partition):
    device = _device(latency=1500.0)  # longer than the 1 s slot
    assert feasible_ratio_interval(device, partition, 1.0, 1.0) == (0.0, 0.0)


def test_feasible_interval_heavy_intermediates_force_offloading(partition):
    """When intermediate uploads (x=0) exceed the slot budget but raw-input
    uploads (x=1) fit, the interval must exclude low ratios."""
    device = _device(bandwidth=4.0, arrivals=2.0)
    lo, hi = feasible_ratio_interval(device, partition, 1.0, 2.0)
    assert lo > 0.0
    assert hi == 1.0


def test_feasible_interval_respects_constraint_inside(partition):
    device = _device(bandwidth=4.0, arrivals=2.0)
    lo, hi = feasible_ratio_interval(device, partition, 1.0, 2.0)
    budget = device.link.bandwidth * (1.0 - device.link.latency)
    for x in (lo, (lo + hi) / 2, hi):
        load = (
            x * 2.0 * partition.d0
            + (1 - x) * 2.0 * (1 - partition.sigma1) * partition.d1
        )
        assert load <= budget * (1 + 1e-9)


def test_feasible_interval_rejects_negative_arrivals(partition):
    with pytest.raises(ValueError):
        feasible_ratio_interval(_device(), partition, 1.0, -1.0)


# -- slot cost -----------------------------------------------------------------


def test_slot_cost_zero_arrivals(partition):
    system = _system(partition)
    cost = slot_cost(system.devices[0], system, 0.5, 0.0, 0.0, 0.0, 0.5)
    assert cost.y == 0.0
    assert cost.tail == 0.0
    assert cost.mean_tct == 0.0


def test_slot_cost_all_local_has_no_edge_terms(partition):
    system = _system(partition)
    cost = slot_cost(system.devices[0], system, 0.0, 2.0, 0.0, 0.0, 0.5)
    assert cost.t_edge == 0.0
    assert cost.offloaded_tasks == 0.0
    assert cost.t_device > 0.0


def test_slot_cost_all_offloaded_has_no_local_terms(partition):
    system = _system(partition)
    cost = slot_cost(system.devices[0], system, 1.0, 2.0, 0.0, 0.0, 0.5)
    assert cost.t_device == 0.0
    assert cost.local_tasks == 0.0
    assert cost.t_edge > 0.0


def test_slot_cost_queue_backlog_increases_cost(partition):
    system = _system(partition)
    empty = slot_cost(system.devices[0], system, 0.0, 2.0, 0.0, 0.0, 0.5)
    backed = slot_cost(system.devices[0], system, 0.0, 2.0, 5.0, 0.0, 0.5)
    assert backed.y > empty.y


def test_slot_cost_tail_is_policy_independent(partition):
    system = _system(partition)
    a = slot_cost(system.devices[0], system, 0.0, 2.0, 0.0, 0.0, 0.5)
    b = slot_cost(system.devices[0], system, 1.0, 2.0, 0.0, 0.0, 0.5)
    # Same arrivals → same number of survivors → similar tail; the second
    # block share differs with x (Eq. 9), so only the cloud part is equal.
    assert a.tail > 0 and b.tail > 0


def test_slot_cost_validation(partition):
    system = _system(partition)
    with pytest.raises(ValueError):
        slot_cost(system.devices[0], system, 1.5, 1.0, 0.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        slot_cost(system.devices[0], system, 0.5, -1.0, 0.0, 0.0, 0.5)


def test_slot_cost_includes_overheads(partition):
    base_device = _device()
    slow_device = DeviceConfig(
        name="pi-slow",
        flops=base_device.flops,
        link=base_device.link,
        mean_arrivals=base_device.mean_arrivals,
        overhead=base_device.overhead + 0.5,
    )
    system = _system(partition, devices=(base_device, _device()))
    fast = slot_cost(base_device, system, 0.0, 1.0, 0.0, 0.0, 0.5)
    slow = slot_cost(slow_device, system, 0.0, 1.0, 0.0, 0.0, 0.5)
    assert slow.y > fast.y
    assert slow.service_local < fast.service_local


# -- Lyapunov state ------------------------------------------------------------


def test_lyapunov_update_matches_eq10_11(partition):
    system = _system(partition)
    state = LyapunovState.zeros(2)
    cost = slot_cost(system.devices[0], system, 0.4, 3.0, 0.0, 0.0, 0.5)
    state.update(0, cost)
    assert state.queue_local[0] == pytest.approx(
        max(0.0 - cost.service_local, 0.0) + cost.local_tasks
    )
    assert state.queue_edge[0] == pytest.approx(
        max(0.0 - cost.service_edge, 0.0) + cost.offloaded_tasks
    )


def test_lyapunov_value_and_backlog():
    state = LyapunovState(queue_local=[3.0, 4.0], queue_edge=[0.0, 2.0])
    assert state.lyapunov_value() == pytest.approx(0.5 * (9 + 16 + 0 + 4))
    assert state.total_backlog() == pytest.approx(9.0)


def test_queues_never_negative(partition):
    system = _system(partition)
    state = LyapunovState.zeros(2)
    for slot in range(50):
        for i in range(2):
            cost = slot_cost(
                system.devices[i],
                system,
                0.5,
                float(slot % 3),
                state.queue_local[i],
                state.queue_edge[i],
                system.shares[i],
            )
            state.update(i, cost)
            assert state.queue_local[i] >= 0.0
            assert state.queue_edge[i] >= 0.0


# -- policies ------------------------------------------------------------------


def test_policies_return_feasible_ratios(partition):
    system = _system(partition)
    state = LyapunovState.zeros(2)
    arrivals = [1.5, 0.5]
    for policy in (
        DriftPlusPenaltyPolicy(v=50),
        BalanceOffloadingPolicy(),
        FixedRatioPolicy(0.7),
        CapabilityBasedPolicy(),
    ):
        ratios = policy.decide(system, state, arrivals)
        assert len(ratios) == 2
        for i, x in enumerate(ratios):
            lo, hi = feasible_ratio_interval(
                system.devices[i], partition, 1.0, arrivals[i]
            )
            assert lo - 1e-9 <= x <= hi + 1e-9


def test_unconstrained_fixed_policy_ignores_feasibility(partition):
    system = _system(partition)
    state = LyapunovState.zeros(2)
    policy = FixedRatioPolicy(0.0, respect_constraint=False)
    assert policy.decide(system, state, [100.0, 100.0]) == [0.0, 0.0]


@pytest.mark.parametrize("heterogeneous", [False, True])
def test_fixed_policy_batch_clamps_mixed_rungs_like_the_loop(heterogeneous):
    """At serving scale the fixed policy clamps a whole fleet at once.
    On a mixed-rung deployment (per-device partitions, several devices
    sharing each degraded one) its ratios are the per-device Eq. 8
    clamp's, for configs and for a live fleet's columns alike."""
    from repro.core.offloading import LiveFleet
    from repro.resilience.qos import degrade_system_by_modes

    from tests.helpers import random_fleet

    n = 200
    rng = np.random.default_rng(7)
    system = degrade_system_by_modes(
        random_fleet(3, n, heterogeneous=heterogeneous), rng.integers(0, 4, n)
    )
    assert len(system.device_partitions) == n
    arrivals = np.where(rng.random(n) < 0.1, 0.0, rng.uniform(0.0, 40.0, n)).tolist()
    policy = FixedRatioPolicy(0.5)
    want = []
    for i, device in enumerate(system.devices):
        lo, hi = feasible_ratio_interval(
            device, system.partition_for(i), system.slot_length, arrivals[i]
        )
        want.append(min(max(0.5, lo), hi))
    assert len(set(want)) > 2  # the clamp binds both ways somewhere
    state = LyapunovState.zeros(n)
    for devices in (None, LiveFleet.of(system.devices)):
        assert policy.decide(system, state, arrivals, devices) == want


def test_fixed_policy_validation():
    with pytest.raises(ValueError):
        FixedRatioPolicy(1.5)


def test_dpp_policy_validation():
    with pytest.raises(ValueError):
        DriftPlusPenaltyPolicy(v=-1.0)


def test_dpp_minimises_objective_on_grid(partition):
    """The policy's choice must (weakly) beat every grid ratio under the
    Eq. 19 objective."""
    system = _system(partition)
    state = LyapunovState(queue_local=[2.0, 0.0], queue_edge=[1.0, 0.0])
    policy = DriftPlusPenaltyPolicy(v=50)
    arrivals = [1.0, 1.0]
    ratios = policy.decide(system, state, arrivals)

    def objective(x: float) -> float:
        cost = slot_cost(
            system.devices[0],
            system,
            x,
            arrivals[0],
            state.queue_local[0],
            state.queue_edge[0],
            system.shares[0],
            include_tail=False,
        )
        return drift_plus_penalty(cost, 2.0, 1.0, 50)

    lo, hi = feasible_ratio_interval(system.devices[0], partition, 1.0, 1.0)
    best_grid = min(
        objective(lo + (hi - lo) * i / 100) for i in range(101)
    )
    assert objective(ratios[0]) <= best_grid + 1e-6 * (1 + abs(best_grid))


def test_grid_refine_handles_degenerate_interval():
    """A collapsed bracket returns exactly ``lo``: the scalar reference
    search skips the zero-width grid (regression: ``lo == hi`` used to feed
    ``step == 0`` into the refinement rounds), and the batched search
    returns the same bits row by row — including a one-ulp bracket that
    round-off collapses during refinement."""
    from repro.core.vectorized import _grid_refine_minimum_batch

    from tests.test_vectorized_differential import _grid_refine_minimum

    calls = []

    def objective(x: float) -> float:
        calls.append(x)
        return (x - 0.3) ** 2

    assert _grid_refine_minimum(objective, 0.0, 0.0) == 0.0
    assert _grid_refine_minimum(objective, 0.7, 0.7) == 0.7
    assert calls == []  # degenerate brackets short-circuit entirely
    # A non-degenerate bracket still refines toward the true minimum.
    assert _grid_refine_minimum(objective, 0.0, 1.0) == pytest.approx(
        0.3, abs=1e-3
    )

    lo = np.array([0.0, 0.7, 1.0, 0.0])
    hi = np.array([0.0, 0.7, np.nextafter(1.0, 2.0), 1.0])
    got = _grid_refine_minimum_batch(lambda xs: (xs - 0.3) ** 2, lo, hi)
    assert got[0] == 0.0 and got[1] == 0.7 and got[2] == 1.0
    assert got.tolist() == [
        _grid_refine_minimum(objective, a, b) for a, b in zip(lo, hi)
    ]


def test_saturated_uplink_forces_full_local(partition):
    """A hop whose latency eats the whole slot admits only x = 0 (Eq. 8's
    degenerate case); DPP must return exactly 0.0 under either value of
    its ``vectorized`` flag rather than probe an empty interval."""
    # slot_length is 1.0 s; a 1500 ms latency makes the budget negative.
    saturated = _device(bandwidth=10.0, latency=1500.0, arrivals=1.0)
    system = _system(partition, devices=(saturated, _device()))
    lo, hi = feasible_ratio_interval(saturated, partition, 1.0, 1.0)
    assert (lo, hi) == (0.0, 0.0)
    state = LyapunovState(queue_local=[5.0, 1.0], queue_edge=[2.0, 1.0])
    for vectorized in (False, True):
        policy = DriftPlusPenaltyPolicy(v=50, vectorized=vectorized)
        ratios = policy.decide(system, state, [1.0, 0.5])
        assert ratios[0] == 0.0
        assert 0.0 <= ratios[1] <= 1.0


def test_balance_policy_balances_costs(partition):
    """At the balance point, T^d ≈ T^e (unless clamped at a boundary)."""
    system = _system(partition)
    state = LyapunovState.zeros(2)
    policy = BalanceOffloadingPolicy()
    arrivals = [2.0, 2.0]
    ratios = policy.decide(system, state, arrivals)
    x = ratios[0]
    lo, hi = feasible_ratio_interval(system.devices[0], partition, 1.0, 2.0)
    cost = slot_cost(
        system.devices[0], system, x, 2.0, 0.0, 0.0, system.shares[0],
        include_tail=False,
    )
    if lo < x < hi:
        assert cost.t_device == pytest.approx(cost.t_edge, rel=1e-3)


def test_balance_policy_zero_arrivals_stays_local(partition):
    system = _system(partition)
    state = LyapunovState.zeros(2)
    ratios = BalanceOffloadingPolicy().decide(system, state, [0.0, 0.0])
    assert ratios == [0.0, 0.0]


def test_capability_policy_prefers_edge_for_weak_device(partition):
    system = _system(partition)
    state = LyapunovState.zeros(2)
    ratios = CapabilityBasedPolicy().decide(system, state, [0.5, 0.5])
    # The edge slice is far faster than a Pi, so the static rule offloads
    # most tasks.
    assert ratios[0] > 0.5


@settings(max_examples=30, deadline=None)
@given(
    x=st.floats(min_value=0.0, max_value=1.0),
    arrivals=st.floats(min_value=0.0, max_value=10.0),
    q=st.floats(min_value=0.0, max_value=50.0),
    h=st.floats(min_value=0.0, max_value=50.0),
)
def test_slot_cost_always_finite_and_nonnegative(x, arrivals, q, h, partition):
    system = _system(partition)
    cost = slot_cost(system.devices[0], system, x, arrivals, q, h, 0.5)
    assert cost.y >= 0.0
    assert cost.tail >= 0.0
    assert cost.total_time < float("inf")
    assert cost.service_local >= 0.0
    assert cost.service_edge >= 0.0
