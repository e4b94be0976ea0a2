"""Appendix B edge-share allocation: KKT optimality and feasibility."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.resource_allocation import (
    floored_edge_allocation,
    kkt_edge_allocation,
    mean_processing_time,
    proportional_allocation,
    uniform_allocation,
)
from repro.units import gflops


def test_interior_solution_matches_eq27():
    """With homogeneous devices Eq. 27 reduces to shares ∝ √k_i."""
    device_flops = [gflops(4)] * 3
    rates = [1.0, 4.0, 9.0]
    shares = kkt_edge_allocation(device_flops, rates, gflops(60))
    # √k = 1, 2, 3 → relative edge help grows in that order after the
    # -F_d/F_e offset, which is equal across devices here.
    sqrt_k = [1.0, 2.0, 3.0]
    diffs = [s + device_flops[i] / gflops(60) for i, s in enumerate(shares)]
    assert diffs[1] / diffs[0] == pytest.approx(sqrt_k[1] / sqrt_k[0], rel=1e-6)
    assert diffs[2] / diffs[0] == pytest.approx(sqrt_k[2] / sqrt_k[0], rel=1e-6)


def test_shares_sum_to_one_and_nonnegative():
    shares = kkt_edge_allocation(
        [gflops(3.6), gflops(30), gflops(3.6)], [2.0, 0.5, 1.0], gflops(60)
    )
    assert sum(shares) == pytest.approx(1.0)
    assert all(s >= 0 for s in shares)


def test_fast_idle_device_gets_pinned_to_zero():
    """A very fast device with few tasks would get a negative Eq. 27 share;
    the active-set step must pin it to zero instead."""
    shares = kkt_edge_allocation(
        [gflops(1000), gflops(1)], [0.01, 10.0], gflops(10)
    )
    assert shares[0] == pytest.approx(0.0, abs=1e-9)
    assert shares[1] == pytest.approx(1.0)


def test_zero_demand_devices_can_get_zero():
    shares = kkt_edge_allocation([gflops(4), gflops(4)], [0.0, 3.0], gflops(60))
    assert shares[0] == 0.0
    assert shares[1] == pytest.approx(1.0)


def test_all_zero_demand_falls_back_to_uniform():
    shares = kkt_edge_allocation([gflops(4)] * 4, [0.0] * 4, gflops(60))
    assert shares == [0.25] * 4


def test_validation():
    with pytest.raises(ValueError):
        kkt_edge_allocation([], [], gflops(60))
    with pytest.raises(ValueError):
        kkt_edge_allocation([gflops(1)], [1.0, 2.0], gflops(60))
    with pytest.raises(ValueError):
        kkt_edge_allocation([gflops(1)], [1.0], 0.0)
    with pytest.raises(ValueError):
        kkt_edge_allocation([0.0], [1.0], gflops(60))
    with pytest.raises(ValueError):
        kkt_edge_allocation([gflops(1)], [-1.0], gflops(60))


def _reference_floored(device_flops, arrival_rates, edge_flops, min_share=0.01):
    """The floored allocation as first written: it solves the KKT problem
    even when the floors then discard the result for a uniform split."""
    if not 0.0 <= min_share < 1.0:
        raise ValueError("min_share must be in [0, 1)")
    shares = kkt_edge_allocation(device_flops, arrival_rates, edge_flops)
    if min_share == 0.0:
        return shares
    active = [i for i, k in enumerate(arrival_rates) if k > 0]
    if not active or len(active) * min_share >= 1.0:
        n = len(shares)
        return [1.0 / n] * n
    floored = [
        max(s, min_share) if i in set(active) else s
        for i, s in enumerate(shares)
    ]
    total = sum(floored)
    return [s / total for s in floored]


@pytest.mark.parametrize("idle", [False, True], ids=["all-active", "some-idle"])
@pytest.mark.parametrize("min_share", [0.0, 0.01, 0.05])
@pytest.mark.parametrize("n", [1, 99, 100, 101, 250])
def test_floored_allocation_matches_reference(n, min_share, idle):
    """Skipping the discarded KKT solve leaves every share's bits alone,
    on both sides of the ``active · min_share ≥ 1`` threshold."""
    rng = np.random.default_rng(n)
    flops = [float(f) for f in rng.uniform(gflops(1), gflops(100), n)]
    rates = [float(k) for k in rng.uniform(0.1, 3.0, n)]
    if idle:
        rates[::7] = [0.0] * len(rates[::7])
    edge = gflops(60) * (1 + n // 10)
    want = _reference_floored(flops, rates, edge, min_share)
    assert floored_edge_allocation(flops, rates, edge, min_share) == want


def test_floored_allocation_validates_before_uniform_split():
    """150 active devices fill a 1 % floor budget, so no solve runs — the
    inputs are still checked."""
    flops, rates, edge = [gflops(4)] * 150, [1.0] * 150, gflops(60)
    assert floored_edge_allocation(flops, rates, edge) == [1 / 150] * 150
    bad_inputs = [
        ([0.0] + flops[1:], rates, edge),
        (flops, [-1.0] + rates[1:], edge),
        (flops, rates, 0.0),
        (flops, rates[1:], edge),
        ([], [], edge),
    ]
    for args in bad_inputs:
        with pytest.raises(ValueError):
            floored_edge_allocation(*args)
    with pytest.raises(ValueError):
        floored_edge_allocation(flops, rates, edge, min_share=1.0)


def test_proportional_and_uniform_baselines():
    device_flops = [gflops(4)] * 3
    rates = [1.0, 2.0, 1.0]
    prop = proportional_allocation(device_flops, rates, gflops(60))
    assert prop == pytest.approx([0.25, 0.5, 0.25])
    uni = uniform_allocation(device_flops, rates, gflops(60))
    assert uni == pytest.approx([1 / 3] * 3)
    assert proportional_allocation(device_flops, [0.0] * 3, gflops(60)) == (
        pytest.approx([1 / 3] * 3)
    )


def test_mean_processing_time_zero_demand():
    assert (
        mean_processing_time([1.0], [gflops(1)], [0.0], gflops(10), 1e9) == 0.0
    )


def test_mean_processing_time_length_check():
    with pytest.raises(ValueError):
        mean_processing_time([0.5], [gflops(1), gflops(2)], [1.0, 1.0], gflops(10), 1e9)


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=8),
    data=st.data(),
)
def test_kkt_beats_uniform_and_proportional(n, data):
    """The KKT allocation minimises Eq. 26, so it can never lose to the
    baseline allocations on the same instance."""
    device_flops = [
        data.draw(st.floats(min_value=gflops(0.5), max_value=gflops(50)))
        for _ in range(n)
    ]
    rates = [
        data.draw(st.floats(min_value=0.1, max_value=20.0)) for _ in range(n)
    ]
    edge = data.draw(st.floats(min_value=gflops(5), max_value=gflops(500)))
    work = 2e9
    kkt = kkt_edge_allocation(device_flops, rates, edge)
    assert sum(kkt) == pytest.approx(1.0, abs=1e-6)
    assert all(s >= -1e-9 for s in kkt)
    objective_kkt = mean_processing_time(kkt, device_flops, rates, edge, work)
    for baseline in (uniform_allocation, proportional_allocation):
        shares = baseline(device_flops, rates, edge)
        objective_base = mean_processing_time(
            shares, device_flops, rates, edge, work
        )
        assert objective_kkt <= objective_base + 1e-9
