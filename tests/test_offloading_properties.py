"""Property tests for the paper's offloading invariants.

Where the differential harness checks that the two implementations agree,
this file checks that *both* satisfy what the paper proves or assumes:

* Eq. 8 — every policy decision respects the transmission constraint;
* Eqs. 10-11 — queues are never negative and stay bounded under a load
  the system can actually carry (the Theorem 3 stability regime);
* Eq. 20 — the device-side cost ``T^d`` is non-increasing and the
  edge-side cost ``T^e`` non-decreasing in ``x``, which is what makes the
  balance rule's bisection sound;
* Eq. 9 — the compute split conserves the device's slice.

Deterministic seeds parametrize the fleet sweeps (failures name the seed);
hypothesis drives the pointwise numeric invariants.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.offloading import (
    BalanceOffloadingPolicy,
    DriftPlusPenaltyPolicy,
    LyapunovState,
    feasible_ratio_interval,
    slot_cost,
)
from repro.core.vectorized import (
    FleetParams,
    FleetState,
    VectorizedSlotEngine,
    balance_decide,
    dpp_decide,
    feasible_ratio_intervals,
)

from tests.helpers import (
    make_device,
    make_system,
    random_arrivals,
    random_fleet,
    random_queue_state,
)

SEEDS = range(60)


def _load(seed: int):
    n = 1 + seed % 10
    system = random_fleet(seed, n)
    state = random_queue_state(seed + 1, n)
    arrivals = random_arrivals(seed + 2, n)
    return system, state, arrivals


def _assert_feasible(system, arrivals, ratios):
    """Eq. 8: each decided ratio lies in its device's feasible interval."""
    for i, device in enumerate(system.devices):
        lo, hi = feasible_ratio_interval(
            device, system.partition_for(i), system.slot_length, arrivals[i]
        )
        assert lo - 1e-9 <= ratios[i] <= hi + 1e-9, (
            f"device {i}: x={ratios[i]} outside [{lo}, {hi}]"
        )


# -- Eq. 8 feasibility of policy outputs ---------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_dpp_decisions_are_transmission_feasible(seed):
    system, state, arrivals = _load(seed)
    for vectorized in (False, True):
        policy = DriftPlusPenaltyPolicy(v=50.0, vectorized=vectorized)
        _assert_feasible(system, arrivals, policy.decide(system, state, arrivals))


@pytest.mark.parametrize("seed", SEEDS)
def test_balance_decisions_are_transmission_feasible(seed):
    system, state, arrivals = _load(seed)
    policy = BalanceOffloadingPolicy()
    _assert_feasible(system, arrivals, policy.decide(system, state, arrivals))


@pytest.mark.parametrize("seed", SEEDS)
def test_feasible_interval_endpoints_satisfy_constraint(seed):
    """The interval's own endpoints carry no more traffic than the budget
    (when the interval is non-degenerate the constraint truly holds)."""
    system, _, arrivals = _load(seed)
    params = FleetParams.from_system(system)
    lo, hi = feasible_ratio_intervals(
        params, system.slot_length, np.array(arrivals)
    )
    assert np.all(0.0 <= lo) and np.all(hi <= 1.0) and np.all(lo <= hi)
    for i in range(system.num_devices):
        part = system.partition_for(i)
        device = system.devices[i]
        budget = device.link.bandwidth * (
            system.slot_length - device.link.latency
        )
        if budget <= 0 or arrivals[i] == 0 or lo[i] == hi[i]:
            continue  # degenerate/best-effort cases carry no guarantee
        for x in (lo[i], hi[i]):
            load = arrivals[i] * x * part.d0 + arrivals[i] * (1.0 - x) * (
                1.0 - part.sigma1
            ) * part.d1
            assert load <= budget * (1 + 1e-9)


# -- queue dynamics ------------------------------------------------------------


def _advance(engine, fleet, arrivals):
    """One array-plane slot, as the fluid loop runs it: decide Eq. 19 on
    the current queues, price the slot, apply Eqs. 10-11."""
    state = LyapunovState(fleet.queue_local.tolist(), fleet.queue_edge.tolist())
    ratios = dpp_decide(engine.system, state, arrivals, v=50.0)
    fleet.update(engine.slot_costs(engine.columns(None), ratios, arrivals, fleet))


@pytest.mark.parametrize("seed", range(20))
def test_queues_never_go_negative(seed):
    system, state, _ = _load(seed)
    fleet = FleetState.from_lyapunov(state)
    engine = VectorizedSlotEngine(system)
    for step in range(30):
        arrivals = random_arrivals(seed * 100 + step, system.num_devices)
        _advance(engine, fleet, arrivals)
        assert np.all(fleet.queue_local >= 0.0)
        assert np.all(fleet.queue_edge >= 0.0)


@pytest.mark.parametrize("seed", range(8))
def test_queue_stability_under_feasible_light_load(seed):
    """Theorem 3 regime: arrivals well inside capacity keep E[backlog]
    bounded — the time-averaged backlog must not grow with the horizon."""
    system = random_fleet(seed, 4, max_arrivals=0.3)
    engine = VectorizedSlotEngine(system)
    fleet = FleetState.from_lyapunov(LyapunovState.zeros(4))
    backlogs = []
    for step in range(300):
        arrivals = random_arrivals(seed * 1000 + step, 4, high=0.3)
        _advance(engine, fleet, arrivals)
        backlogs.append(float(fleet.queue_local.sum() + fleet.queue_edge.sum()))
    early = np.mean(backlogs[50:150])
    late = np.mean(backlogs[200:300])
    assert late <= max(2.0 * early, 10.0), "backlog keeps growing under light load"
    assert max(backlogs) < 1000.0


# -- Eq. 20 monotonicity -------------------------------------------------------


@pytest.mark.parametrize("seed", range(30))
def test_device_cost_decreases_and_edge_cost_increases_in_x(seed):
    """``T^d`` non-increasing, ``T^e`` non-decreasing in the offloading
    ratio — the single-crossing structure behind the balance rule."""
    system, state, arrivals = _load(seed)
    xs = np.linspace(0.0, 1.0, 21)
    for i, device in enumerate(system.devices):
        if arrivals[i] <= 0:
            continue
        costs = [
            slot_cost(
                device,
                system,
                float(x),
                arrivals[i],
                state.queue_local[i],
                state.queue_edge[i],
                system.shares[i],
                partition=system.partition_for(i),
            )
            for x in xs
        ]
        t_dev = [c.t_device for c in costs]
        t_edge = [c.t_edge for c in costs]
        assert all(
            a >= b - 1e-9 for a, b in zip(t_dev, t_dev[1:])
        ), f"T^d not non-increasing for device {i}, seed {seed}"
        assert all(
            a <= b + 1e-9 for a, b in zip(t_edge, t_edge[1:])
        ), f"T^e not non-decreasing for device {i}, seed {seed}"


@pytest.mark.parametrize("seed", range(20))
def test_balance_point_balances(seed):
    """An interior balance decision really equalises the two sides."""
    system, state, arrivals = _load(seed)
    ratios = balance_decide(system, state, arrivals, tolerance=1e-9)
    for i, device in enumerate(system.devices):
        lo, hi = feasible_ratio_interval(
            device, system.partition_for(i), system.slot_length, arrivals[i]
        )
        x = ratios[i]
        if arrivals[i] <= 0 or x <= lo + 1e-6 or x >= hi - 1e-6:
            continue  # clamped at an endpoint: no interior crossing exists
        cost = slot_cost(
            device,
            system,
            x,
            arrivals[i],
            state.queue_local[i],
            state.queue_edge[i],
            system.shares[i],
            partition=system.partition_for(i),
        )
        scale = max(cost.t_device, cost.t_edge, 1.0)
        assert abs(cost.t_device - cost.t_edge) <= 1e-3 * scale, (
            f"device {i}: T^d={cost.t_device} vs T^e={cost.t_edge}"
        )


# -- optimality of the DPP grid search -----------------------------------------


@pytest.mark.parametrize("seed", range(15))
def test_dpp_choice_beats_dense_grid(seed):
    """The refined-grid minimiser is no worse than a dense reference sweep
    of the same objective (within refinement resolution)."""
    from repro.core.offloading import drift_plus_penalty

    system, state, arrivals = _load(seed)
    ratios = dpp_decide(system, state, arrivals, v=50.0)

    def objective(i, x):
        cost = slot_cost(
            system.devices[i],
            system,
            x,
            arrivals[i],
            state.queue_local[i],
            state.queue_edge[i],
            system.shares[i],
            include_tail=False,
            partition=system.partition_for(i),
        )
        return drift_plus_penalty(
            cost, state.queue_local[i], state.queue_edge[i], 50.0
        )

    for i, device in enumerate(system.devices):
        lo, hi = feasible_ratio_interval(
            device, system.partition_for(i), system.slot_length, arrivals[i]
        )
        dense = np.linspace(lo, hi, 2001)
        best_dense = min(float(objective(i, x)) for x in dense)
        chosen = float(objective(i, ratios[i]))
        assert chosen <= best_dense + 1e-6 * max(abs(best_dense), 1.0)


# -- pointwise numeric invariants (hypothesis) ---------------------------------


@settings(max_examples=60, deadline=None)
@given(
    x=st.floats(0.0, 1.0),
    arrivals=st.floats(0.0, 5.0),
    q=st.floats(0.0, 50.0),
    h=st.floats(0.0, 50.0),
    bandwidth=st.floats(1.0, 30.0),
)
def test_slot_cost_components_are_finite_and_nonnegative(
    x, arrivals, q, h, bandwidth
):
    system = make_system(
        devices=(make_device(bandwidth_mbps=bandwidth), make_device())
    )
    cost = slot_cost(
        system.devices[0], system, x, arrivals, q, h, system.shares[0]
    )
    for value in (
        cost.wait_local,
        cost.proc_local,
        cost.trans_local,
        cost.trans_edge,
        cost.wait_edge,
        cost.proc_edge,
        cost.tail,
        cost.total_time,
    ):
        assert np.isfinite(value) and value >= 0.0
    assert cost.local_tasks + cost.offloaded_tasks == pytest.approx(arrivals)


@settings(max_examples=60, deadline=None)
@given(
    arrivals=st.floats(0.0, 10.0),
    bandwidth=st.floats(0.5, 50.0),
    latency=st.floats(0.0, 2000.0),
)
def test_feasible_interval_is_well_formed(arrivals, bandwidth, latency):
    system = make_system(
        devices=(
            make_device(bandwidth_mbps=bandwidth, latency_ms=latency),
            make_device(),
        )
    )
    lo, hi = feasible_ratio_interval(
        system.devices[0], system.partition, system.slot_length, arrivals
    )
    assert 0.0 <= lo <= hi <= 1.0
