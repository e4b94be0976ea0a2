"""Differential harness: the vectorized engine vs the scalar oracle.

Every test here sweeps seeded random fleets (the seed appears in the test
ID, so a failure names the instance that broke) and asserts that
``repro.core.vectorized`` agrees with the scalar implementations in
``repro.core.offloading`` / ``repro.core.resource_allocation`` to 1e-9 —
in practice the two paths are bit-identical because the batched formulas
mirror the scalar arithmetic operation-for-operation.

``DriftPlusPenaltyPolicy`` decides through ``dpp_decide`` alone, so its
oracle is the per-device scalar loop kept here
(:func:`_reference_dpp_decide`), and those checks demand exact equality:
both event engines compare each ratio against an offload coin, so a
last-bit change would move tasks.
"""

from __future__ import annotations

from dataclasses import fields, replace

import numpy as np
import pytest

from repro.core.offloading import (
    BalanceOffloadingPolicy,
    DriftPlusPenaltyPolicy,
    LyapunovState,
    drift_plus_penalty,
    edge_compute_split,
    feasible_ratio_interval,
    slot_cost,
)
from repro.core.resource_allocation import (
    floored_edge_allocation,
    kkt_edge_allocation,
)
from repro.core.vectorized import (
    FleetParams,
    FleetState,
    VectorizedSlotEngine,
    balance_decide,
    dpp_decide,
    drift_plus_penalty_batch,
    edge_compute_split_batch,
    feasible_ratio_intervals,
    floored_edge_allocation_batch,
    kkt_edge_allocation_batch,
    slot_cost_batch,
)
from repro.hardware import NetworkProfile
from repro.sim.arrivals import PoissonArrivals
from repro.sim.environment import RandomWalkEnvironment
from repro.sim.simulator import SlotSimulator

from tests.helpers import random_arrivals, random_fleet, random_queue_state

TOL = 1e-9
# ≥100 randomized fleets, as the acceptance criteria demand.
SEEDS = range(120)


def _fleet_size(seed: int) -> int:
    return 1 + seed % 12


def _instance(seed: int, heterogeneous: bool = False):
    """One random differential instance: fleet, backlog, arrivals, ratios."""
    n = _fleet_size(seed)
    system = random_fleet(seed, n, heterogeneous=heterogeneous)
    state = random_queue_state(seed + 1, n)
    arrivals = random_arrivals(seed + 2, n)
    ratios = [float(v) for v in np.random.default_rng(seed + 3).uniform(0, 1, n)]
    return system, state, arrivals, ratios


def _grid_refine_minimum(objective, lo: float, hi: float, grid: int = 33) -> float:
    """Minimise a smooth scalar objective on ``[lo, hi]``: coarse grid, then
    two rounds of local grid refinement around the best point.  Robust to
    the mild non-convexity the Eq. 19 objective can exhibit near x=0.

    A degenerate interval (``lo == hi``, e.g. the Eq. 8 feasible set of a
    saturated uplink collapsing to ``x = 0``) returns ``lo`` directly —
    there is nothing to search and a zero-width grid must never be built.
    The same holds mid-refinement if round-off collapses the bracket.
    """
    if hi <= lo:
        return lo
    best = lo
    for _ in range(3):
        step = (hi - lo) / (grid - 1)
        if step <= 0.0:  # bracket collapsed to a point during refinement
            break
        xs = [lo + i * step for i in range(grid)]
        best = min(xs, key=objective)
        lo, hi = max(lo, best - step), min(hi, best + step)
    return best


def _reference_dpp_decide(system, state, arrivals, devices=None, v=50.0):
    """The per-device scalar DPP loop, kept as the oracle for
    ``dpp_decide``: one ``slot_cost`` call per candidate ratio, each
    device minimising Eq. 19 over its own Eq. 8 interval."""
    devs = tuple(devices) if devices is not None else system.devices
    ratios: list[float] = []
    for i, device in enumerate(devs):
        partition = system.partition_for(i)
        lo, hi = feasible_ratio_interval(
            device, partition, system.slot_length, arrivals[i]
        )
        q, h = state.queue_local[i], state.queue_edge[i]

        def objective(
            x: float, _i=i, _dev=device, _q=q, _h=h, _part=partition
        ) -> float:
            cost = slot_cost(
                _dev,
                system,
                x,
                arrivals[_i],
                _q,
                _h,
                system.shares[_i],
                include_tail=False,
                partition=_part,
            )
            return drift_plus_penalty(cost, _q, _h, v)

        ratios.append(_grid_refine_minimum(objective, lo, hi))
    return ratios


def _scalar_costs(system, state, ratios, arrivals, include_tail=True):
    return [
        slot_cost(
            system.devices[i],
            system,
            ratios[i],
            arrivals[i],
            state.queue_local[i],
            state.queue_edge[i],
            system.shares[i],
            include_tail=include_tail,
            partition=system.partition_for(i),
        )
        for i in range(system.num_devices)
    ]


# -- per-formula agreement -----------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_slot_cost_batch_matches_scalar_componentwise(seed):
    """Every Eq. 12-14 component agrees device-by-device."""
    system, state, arrivals, ratios = _instance(seed)
    params = FleetParams.from_system(system)
    batch = slot_cost_batch(
        params,
        system,
        np.array(ratios),
        np.array(arrivals),
        np.array(state.queue_local),
        np.array(state.queue_edge),
    )
    scalars = _scalar_costs(system, state, ratios, arrivals)
    for name in (f.name for f in fields(batch)):
        got = getattr(batch, name)
        want = np.array([getattr(c, name) for c in scalars])
        np.testing.assert_allclose(
            got, want, rtol=TOL, atol=TOL, err_msg=f"field {name!r}, seed {seed}"
        )
    for prop in ("t_device", "t_edge", "y", "total_time"):
        got = getattr(batch, prop)
        want = np.array([getattr(c, prop) for c in scalars])
        np.testing.assert_allclose(
            got, want, rtol=TOL, atol=TOL, err_msg=f"property {prop!r}, seed {seed}"
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_feasible_intervals_match_scalar(seed):
    system, _, arrivals, _ = _instance(seed)
    params = FleetParams.from_system(system)
    lo, hi = feasible_ratio_intervals(
        params, system.slot_length, np.array(arrivals)
    )
    for i, device in enumerate(system.devices):
        want_lo, want_hi = feasible_ratio_interval(
            device, system.partition_for(i), system.slot_length, arrivals[i]
        )
        assert lo[i] == pytest.approx(want_lo, abs=TOL), f"lo[{i}], seed {seed}"
        assert hi[i] == pytest.approx(want_hi, abs=TOL), f"hi[{i}], seed {seed}"


@pytest.mark.parametrize("seed", SEEDS)
def test_edge_compute_split_matches_scalar(seed):
    system, _, _, ratios = _instance(seed)
    params = FleetParams.from_system(system)
    f1, f2 = edge_compute_split_batch(
        np.array(ratios), params, system.edge_flops
    )
    for i in range(system.num_devices):
        want = edge_compute_split(
            ratios[i], system.shares[i], system.edge_flops, system.partition_for(i)
        )
        assert f1[i] == pytest.approx(want[0], rel=TOL, abs=TOL), f"seed {seed}"
        assert f2[i] == pytest.approx(want[1], rel=TOL, abs=TOL), f"seed {seed}"


@pytest.mark.parametrize("seed", SEEDS)
def test_drift_plus_penalty_matches_scalar(seed):
    system, state, arrivals, ratios = _instance(seed)
    params = FleetParams.from_system(system)
    q = np.array(state.queue_local)
    h = np.array(state.queue_edge)
    batch = slot_cost_batch(
        params, system, np.array(ratios), np.array(arrivals), q, h,
        include_tail=False,
    )
    got = drift_plus_penalty_batch(batch, q, h, v=50.0)
    scalars = _scalar_costs(system, state, ratios, arrivals, include_tail=False)
    want = [
        drift_plus_penalty(c, state.queue_local[i], state.queue_edge[i], 50.0)
        for i, c in enumerate(scalars)
    ]
    np.testing.assert_allclose(got, want, rtol=TOL, atol=TOL, err_msg=f"seed {seed}")


@pytest.mark.parametrize("seed", SEEDS)
def test_kkt_allocation_matches_scalar(seed):
    rng = np.random.default_rng(seed)
    n = _fleet_size(seed)
    flops = rng.uniform(1e9, 1e11, n)
    rates = rng.uniform(0.0, 3.0, n)
    if seed % 5 == 0:  # exercise the zero-demand branches too
        rates[: max(1, n // 2)] = 0.0
    edge = float(rng.uniform(1e10, 1e12))
    got = kkt_edge_allocation_batch(flops, rates, edge)
    want = kkt_edge_allocation(list(flops), list(rates), edge)
    np.testing.assert_allclose(got, want, rtol=TOL, atol=TOL, err_msg=f"seed {seed}")
    got_floored = floored_edge_allocation_batch(flops, rates, edge, min_share=0.05)
    want_floored = floored_edge_allocation(list(flops), list(rates), edge, 0.05)
    np.testing.assert_allclose(
        got_floored, want_floored, rtol=TOL, atol=TOL, err_msg=f"seed {seed}"
    )


# -- policy decisions ----------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_dpp_decide_matches_scalar_policy(seed):
    system, state, arrivals, _ = _instance(seed)
    want = _reference_dpp_decide(system, state, arrivals, v=50.0)
    assert dpp_decide(system, state, arrivals, v=50.0) == want, f"seed {seed}"


def _probe_instance(seed: int):
    """A harder DPP instance: up to 39 devices, heterogeneous on odd
    seeds, some zero queues and zero arrivals, and on every third seed a
    per-slot link override whose bandwidth spans 0.01-2x the device's own
    and whose latency (1.5 s or 0.9 s of a 1 s slot) leaves no or almost
    no uplink budget."""
    rng = np.random.default_rng(10_000 + seed)
    n = 1 + seed % 39
    system = random_fleet(seed, n, heterogeneous=seed % 2 == 1)
    state = random_queue_state(seed + 1, n)
    arrivals = random_arrivals(seed + 2, n)
    for i in range(n):
        if rng.random() < 0.2:
            state.queue_local[i] = 0.0
        if rng.random() < 0.2:
            state.queue_edge[i] = 0.0
        if rng.random() < 0.15:
            arrivals[i] = 0.0
    devices = None
    if seed % 3 == 0:
        devices = tuple(
            replace(
                device,
                link=NetworkProfile(
                    device.link.bandwidth * float(rng.uniform(0.01, 2.0)),
                    1.5 if rng.random() < 0.5 else 0.9,
                ),
            )
            for device in system.devices
        )
    return system, state, arrivals, devices


@pytest.mark.parametrize("seed", range(60))
def test_dpp_decide_matches_reference_bitwise(seed):
    """The policy returns the reference loop's exact bits on dead and
    near-dead links, idle devices and every ``V`` regime."""
    system, state, arrivals, devices = _probe_instance(seed)
    for v in (0.0, 1.0, 50.0, 1e4):
        want = _reference_dpp_decide(system, state, arrivals, devices, v=v)
        got = DriftPlusPenaltyPolicy(v=v).decide(system, state, arrivals, devices)
        assert got == want, (seed, v)


@pytest.mark.parametrize("seed", SEEDS)
def test_balance_decide_matches_scalar_policy(seed):
    system, state, arrivals, _ = _instance(seed)
    want = BalanceOffloadingPolicy().decide(system, state, arrivals)
    got = balance_decide(system, state, arrivals)
    np.testing.assert_allclose(got, want, rtol=TOL, atol=TOL, err_msg=f"seed {seed}")


@pytest.mark.parametrize("seed", range(0, 40))
def test_policies_agree_on_heterogeneous_partitions(seed):
    """Per-device exit settings flow through ``partition_for`` identically."""
    system, state, arrivals, ratios = _instance(seed, heterogeneous=True)
    assert dpp_decide(system, state, arrivals, v=50.0) == _reference_dpp_decide(
        system, state, arrivals, v=50.0
    ), f"seed {seed}"
    params = FleetParams.from_system(system)
    batch = slot_cost_batch(
        params,
        system,
        np.array(ratios),
        np.array(arrivals),
        np.array(state.queue_local),
        np.array(state.queue_edge),
    )
    want = [c.total_time for c in _scalar_costs(system, state, ratios, arrivals)]
    np.testing.assert_allclose(
        batch.total_time, want, rtol=TOL, atol=TOL, err_msg=f"seed {seed}"
    )


@pytest.mark.parametrize("seed", range(0, 20))
def test_vectorized_policy_flag_is_a_drop_in(seed):
    """Either value of the DPP ``vectorized`` flag returns the reference
    answer, and Balance's flag returns its scalar answer."""
    system, state, arrivals, _ = _instance(seed)
    want = _reference_dpp_decide(system, state, arrivals, v=25.0)
    for vectorized in (False, True):
        policy = DriftPlusPenaltyPolicy(v=25.0, vectorized=vectorized)
        assert policy.decide(system, state, arrivals) == want
    scalar_b = BalanceOffloadingPolicy().decide(system, state, arrivals)
    fast_b = BalanceOffloadingPolicy(vectorized=True).decide(
        system, state, arrivals
    )
    np.testing.assert_allclose(fast_b, scalar_b, rtol=TOL, atol=TOL)


# -- queue recursions and whole simulations ------------------------------------


@pytest.mark.parametrize("seed", range(0, 30))
def test_fleet_state_update_matches_lyapunov(seed):
    """Eqs. 10-11 advance identically through both state containers."""
    system, state, arrivals, ratios = _instance(seed)
    fleet = FleetState.from_lyapunov(state)
    engine = VectorizedSlotEngine(system)
    for step in range(5):
        step_arrivals = random_arrivals(seed + 100 + step, system.num_devices)
        costs = _scalar_costs(system, state, ratios, step_arrivals)
        for i, cost in enumerate(costs):
            state.update(i, cost)
        batch = engine.slot_costs(None, ratios, step_arrivals, fleet)
        fleet.update(batch)
        np.testing.assert_allclose(
            fleet.queue_local, state.queue_local, rtol=TOL, atol=TOL
        )
        np.testing.assert_allclose(
            fleet.queue_edge, state.queue_edge, rtol=TOL, atol=TOL
        )
    assert fleet.lyapunov_value() == pytest.approx(
        state.lyapunov_value(), rel=TOL
    )
    assert fleet.total_backlog() == pytest.approx(state.total_backlog(), rel=TOL)


@pytest.mark.parametrize("seed", range(0, 10))
@pytest.mark.parametrize("policy_name", ["dpp", "balance"])
def test_whole_simulation_matches_scalar(seed, policy_name):
    """Scalar and vectorized ``SlotSimulator`` runs produce the same records
    slot-for-slot (same seed → same arrivals/environment by construction)."""
    n = 3 + seed % 4
    system = random_fleet(seed, n, max_arrivals=1.0)
    arrivals = [
        PoissonArrivals(rate=d.mean_arrivals) for d in system.devices
    ]
    policy = (
        DriftPlusPenaltyPolicy(v=50.0)
        if policy_name == "dpp"
        else BalanceOffloadingPolicy()
    )

    def run(vectorized):
        sim = SlotSimulator(
            system=system,
            arrivals=arrivals,
            environment=RandomWalkEnvironment(sigma=0.1),
            seed=seed,
            vectorized=vectorized,
        )
        return sim.run(policy, 40)

    scalar, fast = run(False), run(True)
    for a, b in zip(scalar.records, fast.records):
        assert a.slot == b.slot
        assert b.arrivals == pytest.approx(a.arrivals, rel=TOL, abs=TOL)
        assert b.total_time == pytest.approx(a.total_time, rel=TOL, abs=TOL)
        np.testing.assert_allclose(b.ratios, a.ratios, rtol=TOL, atol=TOL)
        np.testing.assert_allclose(b.queue_local, a.queue_local, rtol=TOL, atol=TOL)
        np.testing.assert_allclose(b.queue_edge, a.queue_edge, rtol=TOL, atol=TOL)
    assert fast.mean_tct == pytest.approx(scalar.mean_tct, rel=TOL)


def test_engine_step_advances_like_simulator():
    """``VectorizedSlotEngine.step`` = decide + cost + queue update."""
    system, state, arrivals, _ = _instance(7)
    fleet = FleetState.from_lyapunov(state)
    engine = VectorizedSlotEngine(system)
    policy = DriftPlusPenaltyPolicy(v=50.0)
    ratios, cost = engine.step(policy, fleet, arrivals, arrivals)
    want_ratios = _reference_dpp_decide(system, state, arrivals, v=50.0)
    assert ratios == want_ratios
    costs = _scalar_costs(system, state, want_ratios, arrivals)
    for i, c in enumerate(costs):
        state.update(i, c)
    np.testing.assert_allclose(fleet.queue_local, state.queue_local, rtol=TOL)
    np.testing.assert_allclose(fleet.queue_edge, state.queue_edge, rtol=TOL)
    assert cost.total_time.shape == (system.num_devices,)
