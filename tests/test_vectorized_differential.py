"""Differential harness: the vectorized engine vs the scalar oracle.

Every test here sweeps seeded random fleets (the seed appears in the test
ID, so a failure names the instance that broke) and asserts that
``repro.core.vectorized`` agrees with the scalar implementations in
``repro.core.offloading`` / ``repro.core.resource_allocation`` to 1e-9 —
in practice the two paths are bit-identical because the batched formulas
mirror the scalar arithmetic operation-for-operation.

``DriftPlusPenaltyPolicy``, ``BalanceOffloadingPolicy`` and
``FixedRatioPolicy`` decide through the array core alone, so their
oracles are the per-device scalar loops kept here
(:func:`_reference_dpp_decide`, :func:`_reference_balance_decide`,
:func:`_reference_fixed_decide`), and those checks demand exact
equality: both event engines compare each ratio against an offload
coin, so a last-bit change would move tasks.  The Eq. 27 allocation has
no batched twin in ``src``; its array formulation lives here as the
scalar allocator's oracle (:func:`_kkt_allocation_array`).
"""

from __future__ import annotations

import pickle
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.offloading import (
    _EPS,
    BalanceOffloadingPolicy,
    DriftPlusPenaltyPolicy,
    FixedRatioPolicy,
    LiveFleet,
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
    _grid_refine_minimum_batch,
    _SlotKernel,
    balance_decide,
    dpp_decide,
    feasible_ratio_intervals,
    slot_cost_batch,
)
from repro.hardware import NetworkProfile
from repro.resilience.environment import edge_down_system
from repro.resilience.overload import MODE_FIRST_EXIT, MODE_FULL
from repro.resilience.qos import degrade_system_by_modes
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


def _balance(
    system, device, partition, share, arrivals, q, h, lo, hi, tolerance, max_iterations
):
    """One device's bisection on ``T_i^d − T_i^e`` over ``[lo, hi]``."""

    def gap(x: float) -> float:
        cost = slot_cost(
            device, system, x, arrivals, q, h, share,
            include_tail=False, partition=partition,
        )
        return cost.t_device - cost.t_edge

    if gap(lo) <= 0:  # even full-local is device-cheap → stay local
        return lo
    if gap(hi) >= 0:  # even full-offload is edge-cheap → go remote
        return hi
    for _ in range(max_iterations):
        mid = 0.5 * (lo + hi)
        if hi - lo < tolerance:
            return mid
        if gap(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _reference_balance_decide(
    system, state, arrivals, devices=None, tolerance=1e-6, max_iterations=60
):
    """The per-device Balance loop, kept as the oracle for
    ``balance_decide``: each device bisects its own Eq. 8 interval with
    one ``slot_cost`` call per step."""
    devs = tuple(devices) if devices is not None else system.devices
    ratios: list[float] = []
    for i, device in enumerate(devs):
        if arrivals[i] <= 0:
            ratios.append(0.0)
            continue
        partition = system.partition_for(i)
        lo, hi = feasible_ratio_interval(
            device, partition, system.slot_length, arrivals[i]
        )
        ratios.append(
            _balance(
                system, device, partition, system.shares[i], arrivals[i],
                state.queue_local[i], state.queue_edge[i], lo, hi,
                tolerance, max_iterations,
            )
        )
    return ratios


def _reference_fixed_decide(ratio, system, arrivals, devices=None):
    """The per-device constraint-aware FixedRatio loop: the constant
    clamped into each device's scalar Eq. 8 interval."""
    devs = tuple(devices) if devices is not None else system.devices
    ratios: list[float] = []
    for i, device in enumerate(devs):
        lo, hi = feasible_ratio_interval(
            device, system.partition_for(i), system.slot_length, arrivals[i]
        )
        ratios.append(min(max(ratio, lo), hi))
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
    """Every Eq. 12-14 component is the scalar component's bits,
    device by device, with and without the tail."""
    system, state, arrivals, ratios = _instance(seed)
    params = FleetParams.from_system(system)
    for include_tail in (True, False):
        batch = slot_cost_batch(
            params,
            system,
            np.array(ratios),
            np.array(arrivals),
            np.array(state.queue_local),
            np.array(state.queue_edge),
            include_tail=include_tail,
        )
        scalars = _scalar_costs(system, state, ratios, arrivals, include_tail)
        names = [f.name for f in fields(batch)]
        for name in names + ["t_device", "t_edge", "y", "total_time"]:
            got = getattr(batch, name).tolist()
            want = [getattr(c, name) for c in scalars]
            assert got == want, (name, include_tail, seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_feasible_intervals_match_scalar(seed):
    system, _, arrivals, _ = _instance(seed)
    params = FleetParams.from_system(system)
    lo, hi = feasible_ratio_intervals(
        params, system.slot_length, np.array(arrivals)
    )
    want = [
        feasible_ratio_interval(
            device, system.partition_for(i), system.slot_length, arrivals[i]
        )
        for i, device in enumerate(system.devices)
    ]
    assert list(zip(lo.tolist(), hi.tolist())) == want, f"seed {seed}"


def _eq8_fleet(rng, tau: float):
    """Random Eq. 8 columns built to reach every branch of the scalar
    interval: exactly flat slopes (``σ₁ = 0, d₀ = d₁``), slopes within
    a few ``ε`` of zero either way, dead links (latency at or past τ),
    idle devices, and budgets that put the boundary below 0, inside
    ``[0, 1]`` or above 1, or (with τ = 1) exactly at 0: ``budget ==
    base``, where a falling slope divides into ``-0.0``.  Returns the
    columns, the arrivals and per-device stand-ins for the scalar
    function."""
    n = int(rng.integers(1, 41))
    arrivals = np.where(rng.random(n) < 0.15, 0.0, rng.uniform(0.0, 5.0, n))
    arrivals[rng.random(n) < 0.3] = rng.integers(1, 4)
    sigma1 = np.where(rng.random(n) < 0.2, 0.0, rng.uniform(0.0, 1.0, n))
    sigma1[rng.random(n) < 0.1] = 1.0
    d1 = rng.uniform(1e3, 1e6, n)
    kind = rng.integers(0, 4, n)
    d0 = np.where(kind == 0, d1, rng.uniform(1e3, 1e6, n))
    base = arrivals * (1.0 - sigma1) * d1
    # Kind 1: a slope of about ±3ε.
    nudge = rng.uniform(-3.0, 3.0, n) * _EPS / np.maximum(arrivals, 1.0)
    d0 = np.where(kind == 1, base / np.maximum(arrivals, 1e-300) + nudge, d0)
    slope = arrivals * d0 - base
    latency = rng.uniform(0.0, 0.9 * tau, n)
    latency[rng.random(n) < 0.1] = tau
    latency[rng.random(n) < 0.1] = 1.5 * tau
    # Kinds 2 and 3: a budget that puts the boundary near a target.
    budget = base + rng.choice([-0.5, 0.0, 0.4, 1.0, 1.7], n) * slope
    tuned = (kind >= 2) & (budget > 0)
    bandwidth = np.where(tuned, budget / tau, rng.uniform(1e3, 1e7, n))
    tie = (kind == 3) & (base > 0) & (tau == 1.0)
    bandwidth = np.where(tie, base, bandwidth)
    latency = np.where(tie, 0.0, latency)
    zeros = np.zeros(n)
    params = FleetParams(
        flops=zeros, bandwidth=bandwidth, latency=latency, overhead=zeros,
        shares=zeros, mu1=zeros, mu2=zeros, mu3=zeros, d0=d0, d1=d1,
        d2=zeros, sigma1=sigma1, sigma2=zeros,
    )
    # Stand-ins carrying only what the scalar Eq. 8 reads.
    devices = [
        SimpleNamespace(link=NetworkProfile(b, lat))
        for b, lat in zip(bandwidth.tolist(), latency.tolist())
    ]
    partitions = [
        SimpleNamespace(d0=a, d1=b, sigma1=c)
        for a, b, c in zip(d0.tolist(), d1.tolist(), sigma1.tolist())
    ]
    return params, arrivals, devices, partitions


def test_feasible_intervals_equal_scalar_on_every_branch():
    """The batched Eq. 8 interval equals the scalar one device by device
    (``==``, so a zero of either sign matches) on 3,000 random fleets
    reaching every branch; each branch is hit, and negative arrivals
    raise."""
    rng = np.random.default_rng(2026)
    seen = set()
    for fleet in range(3000):
        tau = 1.0 if fleet % 2 else float(rng.uniform(0.2, 3.0))
        params, arrivals, devices, parts = _eq8_fleet(rng, tau)
        lo, hi = feasible_ratio_intervals(params, tau, arrivals)
        want = [
            feasible_ratio_interval(device, part, tau, m)
            for device, part, m in zip(devices, parts, arrivals.tolist())
        ]
        assert list(zip(lo.tolist(), hi.tolist())) == want, fleet
        budget = params.bandwidth * (tau - params.latency)
        base = arrivals * (1.0 - params.sigma1) * params.d1
        slope = arrivals * params.d0 - base
        live = (budget > 0) & (arrivals > 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            boundary = (budget - base) / slope
        for name, hit in (
            ("dead", budget <= 0),
            ("idle", (budget > 0) & (arrivals == 0)),
            ("flat", live & (slope == 0)),
            ("near-flat", live & (slope != 0) & (np.abs(slope) < _EPS)),
            ("rising, boundary < 0", live & (slope >= _EPS) & (boundary < 0)),
            ("rising, inside", live & (slope >= _EPS) & (boundary > 0) & (boundary < 1)),
            ("rising, boundary > 1", live & (slope >= _EPS) & (boundary > 1)),
            ("falling, boundary -0.0", live & (slope <= -_EPS) & (boundary == 0)),
            ("falling, inside", live & (slope <= -_EPS) & (boundary > 0) & (boundary < 1)),
            ("falling, boundary > 1", live & (slope <= -_EPS) & (boundary > 1)),
        ):
            if hit.any():
                seen.add(name)
    assert len(seen) == 10, seen
    with pytest.raises(ValueError, match="non-negative"):
        feasible_ratio_intervals(params, 1.0, np.full(params.num_devices, -1.0))


@pytest.mark.parametrize("seed", SEEDS)
def test_edge_compute_split_matches_scalar(seed):
    """The kernel's Eq. 9 split is the scalar split's bits."""
    system, state, arrivals, ratios = _instance(seed)
    batch = slot_cost_batch(
        FleetParams.from_system(system),
        system,
        np.array(ratios),
        np.array(arrivals),
        np.array(state.queue_local),
        np.array(state.queue_edge),
    )
    for i in range(system.num_devices):
        want = edge_compute_split(
            ratios[i], system.shares[i], system.edge_flops, system.partition_for(i)
        )
        got = (batch.edge_first_flops[i], batch.edge_second_flops[i])
        assert got == want, f"seed {seed}"


def _kernel_objective(system, state, arrivals, xs, v, devices=None):
    """The kernel's Eq. 19 at ratios ``xs`` (``(N,)`` or ``(N, G)``)."""
    xs = np.asarray(xs, dtype=np.float64)
    kernel = _SlotKernel(
        FleetParams.from_system(system, devices),
        system,
        np.array(arrivals, dtype=np.float64),
        np.array(state.queue_local, dtype=np.float64),
        np.array(state.queue_edge, dtype=np.float64),
        grid=xs.shape[1] if xs.ndim == 2 else 1,
    )
    kernel.load(xs)
    return kernel.drift_plus_penalty(v, np.empty(kernel.x.shape)).reshape(xs.shape)


@pytest.mark.parametrize("seed", SEEDS)
def test_drift_plus_penalty_matches_scalar(seed):
    """The kernel's Eq. 19 is the scalar objective's bits."""
    system, state, arrivals, ratios = _instance(seed)
    got = _kernel_objective(system, state, arrivals, ratios, v=50.0)
    scalars = _scalar_costs(system, state, ratios, arrivals, include_tail=False)
    want = [
        drift_plus_penalty(c, state.queue_local[i], state.queue_edge[i], 50.0)
        for i, c in enumerate(scalars)
    ]
    assert got.tolist() == want, f"seed {seed}"


def _kkt_allocation_array(f: np.ndarray, k: np.ndarray, edge: float) -> np.ndarray:
    """Eq. 27's active-set KKT water-filling as array expressions: an
    independent formulation of ``kkt_edge_allocation``."""
    n = f.size
    if not np.any(k > 0):
        return np.full(n, 1.0 / n)
    active = k > 0
    sqrt_k = np.sqrt(k)
    while True:
        level = (f[active].sum() + edge) / (edge * sqrt_k[active].sum())
        candidate = np.where(active, sqrt_k * level - f / edge, 0.0)
        negative = active & (candidate < 0)
        if not np.any(negative):
            shares = np.where(active, candidate, 0.0)
            return shares / shares.sum()
        active = active & ~negative
        if not np.any(active):
            shares = np.zeros(n)
            shares[int(np.argmin(f))] = 1.0
            return shares


def _floored_allocation_array(f, k, edge, min_share):
    """The floored variant: uniform when the floors leave no room."""
    shares = _kkt_allocation_array(f, k, edge)
    active = k > 0
    if not np.any(active) or active.sum() * min_share >= 1.0:
        return np.full(shares.size, 1.0 / shares.size)
    floored = np.where(active, np.maximum(shares, min_share), shares)
    return floored / floored.sum()


@pytest.mark.parametrize("seed", SEEDS)
def test_kkt_allocation_matches_scalar(seed):
    rng = np.random.default_rng(seed)
    n = _fleet_size(seed)
    flops = rng.uniform(1e9, 1e11, n)
    rates = rng.uniform(0.0, 3.0, n)
    if seed % 5 == 0:  # exercise the zero-demand branches too
        rates[: max(1, n // 2)] = 0.0
    edge = float(rng.uniform(1e10, 1e12))
    want = _kkt_allocation_array(flops, rates, edge)
    got = kkt_edge_allocation(list(flops), list(rates), edge)
    np.testing.assert_allclose(got, want, rtol=TOL, atol=TOL, err_msg=f"seed {seed}")
    want_floored = _floored_allocation_array(flops, rates, edge, 0.05)
    got_floored = floored_edge_allocation(list(flops), list(rates), edge, 0.05)
    np.testing.assert_allclose(
        got_floored, want_floored, rtol=TOL, atol=TOL, err_msg=f"seed {seed}"
    )


# -- policy decisions ----------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_dpp_decide_matches_scalar_policy(seed):
    system, state, arrivals, _ = _instance(seed)
    want = _reference_dpp_decide(system, state, arrivals, v=50.0)
    assert dpp_decide(system, state, arrivals, v=50.0) == want, f"seed {seed}"


def _probe_instance(seed: int, max_devices: int = 39):
    """A harder decision instance: up to ``max_devices`` devices (one on
    seeds 0 and ``max_devices``), heterogeneous on odd seeds, some zero
    queues and zero arrivals, and on every third seed a per-slot link
    override whose bandwidth spans 0.01-2x the device's own and whose
    latency (1.5 s or 0.9 s of a 1 s slot) leaves no or almost no uplink
    budget (``lo == hi`` rows).

    Degraded rungs (:func:`degrade_system_by_modes`) ride on top: mixed
    per-device rungs on seeds ``4k + 1``, the first-exit rung fleet-wide
    on seeds ``4k + 2`` (``σ₁ = 1`` leaves Eq. 9 nothing to split at
    ``x = 0``).  Seeds ``5k + 3`` take the edge down and give device 0 a
    slice below the ``F_1`` floor and, with three or more devices,
    device 1 no slice at all."""
    rng = np.random.default_rng(10_000 + seed)
    n = 1 + seed % max_devices
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
    if seed % 4 == 1:
        modes = rng.integers(MODE_FULL, MODE_FIRST_EXIT + 1, n).tolist()
        system = degrade_system_by_modes(system, modes)
    elif seed % 4 == 2:
        system = degrade_system_by_modes(system, [MODE_FIRST_EXIT] * n)
    if seed % 5 == 3:
        system = edge_down_system(system)
        if n > 1:
            shares = list(system.shares)
            starved = [1e-3 * _EPS] + ([0.0] if n > 2 else [])
            for i, share in enumerate(starved):
                shares[-1] += shares[i] - share
                shares[i] = share
            system = replace(system, shares=tuple(shares))
    return system, state, arrivals, devices


@pytest.mark.parametrize("seed", range(60))
def test_dpp_decide_matches_reference_bitwise(seed):
    """The policy returns the reference loop's exact bits on dead and
    near-dead links, idle devices, degraded rungs, starved slices and
    every ``V`` regime."""
    system, state, arrivals, devices = _probe_instance(seed)
    for v in (0.0, 1.0, 50.0, 1e4):
        want = _reference_dpp_decide(system, state, arrivals, devices, v=v)
        got = DriftPlusPenaltyPolicy(v=v).decide(system, state, arrivals, devices)
        assert got == want, (seed, v)


def test_probe_instances_reach_every_kernel_branch():
    """The bitwise probes above exercise each special case of the
    kernel, so a regression in any of them fails a seed."""
    seen = set()
    for seed in range(60):
        system, state, arrivals, devices = _probe_instance(seed)
        params = FleetParams.from_system(system, devices)
        m = np.array(arrivals)
        lo, hi = feasible_ratio_intervals(params, system.slot_length, m)
        busy = (m > 0) & (hi > lo)
        slices = params.shares * system.edge_flops
        if system.num_devices == 1:
            seen.add("one device")
        if np.any(m > 0) and np.any((m > 0) & (lo == hi)):
            seen.add("lo == hi")
        if np.any(m == 0):
            seen.add("zero arrivals")
        if np.any(((1.0 - params.sigma1) * params.mu2 <= 0) & (lo == 0) & busy):
            seen.add("moot Eq. 9 split")
        if np.any((slices > 0) & (slices < _EPS * system.edge_flops) & busy):
            seen.add("F_1 under the floor")
        if np.any((slices == 0) & busy):
            seen.add("no slice")
        if len({(p.sigma1, p.sigma2) for p in system.device_partitions}) > 2 and (
            np.any(params.sigma1 == 1.0)
        ):
            seen.add("degraded heterogeneous rungs")
    assert seen == {
        "one device",
        "lo == hi",
        "zero arrivals",
        "moot Eq. 9 split",
        "F_1 under the floor",
        "no slice",
        "degraded heterogeneous rungs",
    }


def test_dpp_search_returns_unclipped_grid_points():
    """Grid points past 1.0 are clipped in the kernel's own buffer: the
    search returns the unclipped point, as the scalar reference does."""
    system, state, arrivals, _ = _instance(11)
    n = system.num_devices
    state = LyapunovState([50.0] * n, [0.0] * n)  # offloading pays
    arrivals = [max(a, 0.5) for a in arrivals]
    lo = np.linspace(0.2, 0.8, n)
    hi = np.full(n, np.nextafter(1.0, 2.0))
    q, h = state.queue_local, state.queue_edge

    def scalar(x: float, i: int) -> float:
        cost = slot_cost(
            system.devices[i], system, x, arrivals[i], q[i], h[i],
            system.shares[i], include_tail=False,
            partition=system.partition_for(i),
        )
        return drift_plus_penalty(cost, q[i], h[i], 0.0)

    want = [
        _grid_refine_minimum(lambda x, _i=i: scalar(x, _i), lo[i], hi[i])
        for i in range(n)
    ]
    kernel = _SlotKernel(
        FleetParams.from_system(system),
        system,
        np.array(arrivals),
        np.array(state.queue_local),
        np.array(state.queue_edge),
        grid=33,
    )
    values = np.empty(kernel.x.shape)

    def objective(xs):
        kernel.load(xs)
        return kernel.drift_plus_penalty(0.0, values)

    got = _grid_refine_minimum_batch(objective, lo, hi).tolist()
    assert max(got) > 1.0
    assert got == want


def test_decisions_leave_caller_arrays_untouched():
    """``np.asarray`` hands the kernel the caller's own float64 queues
    and arrivals; the solvers only read them."""
    system, state, arrivals, devices = _probe_instance(7)
    q = np.array(state.queue_local)
    h = np.array(state.queue_edge)
    m = np.array(arrivals)
    owned = LyapunovState(q, h)
    before = [a.tobytes() for a in (q, h, m)]
    dpp_decide(system, owned, m, devices)
    balance_decide(system, owned, m, devices)
    slot_cost_batch(
        FleetParams.from_system(system, devices), system, np.full((q.size, 5), 0.5),
        m, q, h,
    )
    assert [a.tobytes() for a in (q, h, m)] == before


def test_back_to_back_decisions_share_no_state():
    """Buffers live for one decision: a decision in between changes
    nothing, and the policy object carries no kernel state."""
    first_instance, other = _probe_instance(5), _probe_instance(22)
    policy = DriftPlusPenaltyPolicy(v=50.0)
    pickled = pickle.dumps(policy)
    first = policy.decide(*first_instance)
    policy.decide(*other)
    assert policy.decide(*first_instance) == first
    assert first == _reference_dpp_decide(*first_instance, v=50.0)
    assert pickle.dumps(policy) == pickled


@pytest.mark.parametrize("seed", SEEDS)
def test_balance_decide_matches_scalar_policy(seed):
    """Balance's batched bisection returns the per-device loop's bits on
    1-64 devices, heterogeneous partitions, dead and near-dead links,
    idle devices and ``devices`` overrides, through the solver and
    through the policy."""
    system, state, arrivals, devices = _probe_instance(seed, max_devices=64)
    want = _reference_balance_decide(system, state, arrivals, devices)
    assert balance_decide(system, state, arrivals, devices) == want, seed
    policy = BalanceOffloadingPolicy()
    assert policy.decide(system, state, arrivals, devices) == want, seed


@pytest.mark.parametrize("seed", SEEDS)
def test_fixed_ratio_decide_matches_scalar_policy(seed):
    """A constraint-aware FixedRatio decision is the per-device clamp's
    bits on the same sweep, handed a system, a live fleet, a config list
    or the slot's columns."""
    system, state, arrivals, devices = _probe_instance(seed, max_devices=64)
    devs = system.devices if devices is None else devices
    columns = VectorizedSlotEngine(system).columns(devs)
    for ratio in (0.0, 0.35, 1.0):
        policy = FixedRatioPolicy(ratio)
        want = _reference_fixed_decide(ratio, system, arrivals, devices)
        assert policy.decide(system, state, arrivals, devices) == want, seed
        assert policy.decide(system, state, arrivals, LiveFleet.of(devs)) == want
        assert policy.decide(system, state, arrivals, list(devs)) == want
        assert policy.decide(columns, state, np.array(arrivals), None) == want


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
    answer."""
    system, state, arrivals, _ = _instance(seed)
    want = _reference_dpp_decide(system, state, arrivals, v=25.0)
    for vectorized in (False, True):
        policy = DriftPlusPenaltyPolicy(v=25.0, vectorized=vectorized)
        assert policy.decide(system, state, arrivals) == want


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
        batch = engine.slot_costs(engine.columns(None), ratios, step_arrivals, fleet)
        fleet.update(batch)
        np.testing.assert_allclose(
            fleet.queue_local, state.queue_local, rtol=TOL, atol=TOL
        )
        np.testing.assert_allclose(
            fleet.queue_edge, state.queue_edge, rtol=TOL, atol=TOL
        )


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
