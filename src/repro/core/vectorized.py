"""The fleet-scale fast path: NumPy-batched slot engine (§III-D, Eqs. 8-20).

The scalar implementations in :mod:`repro.core.offloading` evaluate the
paper's cost model one device and one candidate ratio at a time, which is
the right reference semantics but scales linearly in pure-Python overhead.
This module re-implements the same quantities as array expressions over
**device × ratio-grid matrices**, so a whole fleet's slot — feasibility
intervals (Eq. 8), the edge compute split (Eq. 9), the slot cost (Eqs.
12-14), the drift-plus-penalty objective (Eq. 19), and the queue updates
(Eqs. 10-11) — is evaluated in a handful of vectorized calls.

Design contract: **the scalar path is the oracle.**  Every formula below
mirrors the scalar code's arithmetic operation-for-operation (same
associativity, same conditional structure via masks), so the two paths
agree to IEEE round-off — the differential harness in
``tests/test_vectorized_differential.py`` pins them together at 1e-9 on
randomized fleets.  Any behavioural change must land in the scalar code
first and be mirrored here.

Entry points:

* :class:`FleetParams` — per-device arrays extracted from an
  :class:`~repro.core.offloading.EdgeSystem` (heterogeneous per-device
  partitions included);
* :func:`feasible_ratio_intervals` / :func:`edge_compute_split_batch` /
  :func:`slot_cost_batch` / :func:`drift_plus_penalty_batch` — the batched
  equivalents of the scalar functions of the same names;
* :func:`kkt_edge_allocation_batch` / :func:`floored_edge_allocation_batch`
  — the Eq. 27 KKT edge allocation over arrays;
* :func:`dpp_decide` — the only solver of
  :class:`~repro.core.offloading.DriftPlusPenaltyPolicy` (its per-device
  scalar loop survives only as the test suite's reference);
* :func:`balance_decide` — the batched solver behind the
  ``vectorized=True`` flag of
  :class:`~repro.core.offloading.BalanceOffloadingPolicy`;
* :class:`FleetState` + :class:`VectorizedSlotEngine` — array-backed
  ``Q_i``/``H_i`` queues and a one-call whole-slot step, used by
  :class:`~repro.sim.simulator.SlotSimulator` when ``vectorized=True``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .offloading import (
    _EPS,
    DeviceConfig,
    EdgeSystem,
    LyapunovState,
)

__all__ = [
    "FleetParams",
    "FleetState",
    "BatchSlotCost",
    "VectorizedSlotEngine",
    "feasible_ratio_intervals",
    "edge_compute_split_batch",
    "slot_cost_batch",
    "drift_plus_penalty_batch",
    "kkt_edge_allocation_batch",
    "floored_edge_allocation_batch",
    "dpp_decide",
    "balance_decide",
    "vectorized_equivalent",
    "service_times_batch",
    "fifo_schedule_batch",
]


@dataclass(frozen=True)
class FleetParams:
    """Per-device parameter arrays for one slot's evaluation.

    Everything the scalar :func:`~repro.core.offloading.slot_cost` reads
    from ``DeviceConfig``/``PartitionedModel``/``EdgeSystem.shares``,
    flattened into ``(N,)`` float arrays so a fleet evaluates in one shot.
    Heterogeneous deployments are handled naturally: each device's row
    carries its own partition's ``μ``/``d``/``σ``.
    """

    flops: np.ndarray
    bandwidth: np.ndarray
    latency: np.ndarray
    overhead: np.ndarray
    shares: np.ndarray
    mu1: np.ndarray
    mu2: np.ndarray
    mu3: np.ndarray
    d0: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    sigma1: np.ndarray
    sigma2: np.ndarray

    @property
    def num_devices(self) -> int:
        return self.flops.shape[0]

    @classmethod
    def from_system(
        cls,
        system: EdgeSystem,
        devices: Sequence[DeviceConfig] | None = None,
    ) -> "FleetParams":
        """Extract arrays from ``system`` (and this slot's live ``devices``,
        which a dynamic environment may have substituted)."""
        devs = tuple(devices) if devices is not None else system.devices
        parts = [system.partition_for(i) for i in range(len(devs))]
        as_array = lambda values: np.array(values, dtype=np.float64)
        return cls(
            flops=as_array([d.flops for d in devs]),
            bandwidth=as_array([d.link.bandwidth for d in devs]),
            latency=as_array([d.link.latency for d in devs]),
            overhead=as_array([d.overhead for d in devs]),
            shares=as_array(system.shares[: len(devs)]),
            mu1=as_array([p.mu1 for p in parts]),
            mu2=as_array([p.mu2 for p in parts]),
            mu3=as_array([p.mu3 for p in parts]),
            d0=as_array([p.d0 for p in parts]),
            d1=as_array([p.d1 for p in parts]),
            d2=as_array([p.d2 for p in parts]),
            sigma1=as_array([p.sigma1 for p in parts]),
            sigma2=as_array([p.sigma2 for p in parts]),
        )

    def column(self, values: np.ndarray, like: np.ndarray) -> np.ndarray:
        """Broadcast a ``(N,)`` parameter against ``like`` — ``(N,)`` stays
        as-is, ``(N, G)`` grids get a trailing axis."""
        if like.ndim == 2:
            return values[:, None]
        return values


def feasible_ratio_intervals(
    params: FleetParams, slot_length: float, arrivals: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Batched Eq. 8 feasibility: per-device ``(lo, hi)`` arrays, mirroring
    :func:`~repro.core.offloading.feasible_ratio_interval` case-for-case."""
    return feasible_ratio_intervals_arrays(
        params.bandwidth,
        params.latency,
        params.d0,
        params.d1,
        params.sigma1,
        slot_length,
        arrivals,
    )


def feasible_ratio_intervals_arrays(
    bandwidth: np.ndarray,
    latency: np.ndarray,
    d0: np.ndarray | float,
    d1: np.ndarray | float,
    sigma1: np.ndarray | float,
    slot_length: float,
    arrivals: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Array core of :func:`feasible_ratio_intervals` over plain columns
    (partition parameters may be scalars for the homogeneous-deployment
    common case — broadcasting evaluates the identical elementwise IEEE
    expressions, so results match the scalar loop bitwise)."""
    arrivals = np.asarray(arrivals, dtype=np.float64)
    if np.any(arrivals < 0):
        raise ValueError("arrivals must be non-negative")
    budget = bandwidth * (slot_length - latency)
    base = arrivals * (1.0 - sigma1) * d1
    slope = arrivals * d0 - base
    # Interior boundary of the affine constraint; guarded against the flat
    # case (the mask below never selects the guarded value).
    safe_slope = np.where(np.abs(slope) < _EPS, 1.0, slope)
    boundary = (budget - base) / safe_slope

    lo = np.zeros_like(arrivals)
    hi = np.ones_like(arrivals)
    flat = np.abs(slope) < _EPS
    # slope ~ 0: feasible everywhere if the x-independent load fits.
    hi = np.where(flat & (base > budget), 0.0, hi)
    # slope > 0: offloading raw inputs is the heavier direction.
    up = ~flat & (slope > 0)
    hi = np.where(up, np.where(boundary < 0, 0.0, np.minimum(1.0, boundary)), hi)
    # slope < 0: keeping tasks local is heavier.
    down = ~flat & (slope < 0)
    lo = np.where(down, np.where(boundary > 1, 1.0, np.maximum(0.0, boundary)), lo)
    hi = np.where(down & (boundary > 1), 1.0, hi)
    # Zero arrivals: unconstrained.
    lo = np.where(arrivals == 0, 0.0, lo)
    hi = np.where(arrivals == 0, 1.0, hi)
    # Latency eats the whole slot: only full-local is defensible.
    dead = budget <= 0
    lo = np.where(dead, 0.0, lo)
    hi = np.where(dead, 0.0, hi)
    return lo, hi


def edge_compute_split_batch(
    x: np.ndarray, params: FleetParams, edge_flops: float
) -> tuple[np.ndarray, np.ndarray]:
    """Batched Eq. 9 split; ``x`` may be ``(N,)`` or ``(N, G)``."""
    col = lambda v: params.column(v, x)
    slice_flops = col(params.shares * edge_flops)
    first_weight = x * col(params.mu1)
    second_weight = col((1.0 - params.sigma1) * params.mu2)
    total = first_weight + second_weight
    moot = total <= 0.0
    safe_total = np.where(moot, 1.0, total)
    f1 = np.where(moot, 0.0, slice_flops * first_weight / safe_total)
    return f1, slice_flops - f1


@dataclass(frozen=True)
class BatchSlotCost:
    """Array-valued mirror of :class:`~repro.core.offloading.DeviceSlotCost`.

    Every field has the shape of the evaluated ``x`` (``(N,)`` for one
    ratio per device, ``(N, G)`` for a per-device candidate grid).
    """

    x: np.ndarray
    arrivals: np.ndarray
    local_tasks: np.ndarray
    offloaded_tasks: np.ndarray
    wait_local: np.ndarray
    proc_local: np.ndarray
    trans_local: np.ndarray
    trans_edge: np.ndarray
    wait_edge: np.ndarray
    proc_edge: np.ndarray
    tail: np.ndarray
    service_local: np.ndarray
    service_edge: np.ndarray
    edge_first_flops: np.ndarray
    edge_second_flops: np.ndarray

    @property
    def t_device(self) -> np.ndarray:
        """``T_i^d`` (Eq. 12)."""
        return self.wait_local + self.proc_local + self.trans_local

    @property
    def t_edge(self) -> np.ndarray:
        """``T_i^e`` (Eq. 13)."""
        return self.trans_edge + self.wait_edge + self.proc_edge

    @property
    def y(self) -> np.ndarray:
        """``Y_i`` (Eq. 14)."""
        return self.t_device + self.t_edge

    @property
    def total_time(self) -> np.ndarray:
        return self.y + self.tail


def slot_cost_batch(
    params: FleetParams,
    system: EdgeSystem,
    x: np.ndarray,
    arrivals: np.ndarray,
    queue_local: np.ndarray,
    queue_edge: np.ndarray,
    include_tail: bool = True,
) -> BatchSlotCost:
    """Batched Eqs. 12-14 — the vectorized twin of
    :func:`~repro.core.offloading.slot_cost`.

    ``x`` is ``(N,)`` (one ratio per device) or ``(N, G)`` (a candidate
    grid per device); ``arrivals``/``queue_local``/``queue_edge`` are
    ``(N,)`` and broadcast across the grid axis.
    """
    x = np.clip(np.asarray(x, dtype=np.float64), 0.0, 1.0)
    arrivals = np.asarray(arrivals, dtype=np.float64)
    queue_local = np.asarray(queue_local, dtype=np.float64)
    queue_edge = np.asarray(queue_edge, dtype=np.float64)
    if np.any(arrivals < 0) or np.any(queue_local < 0) or np.any(queue_edge < 0):
        raise ValueError("arrivals and queue lengths must be non-negative")
    col = lambda v: params.column(v, x)
    tau = system.slot_length
    m = col(arrivals)
    a_i = (1.0 - x) * m
    d_i = x * m
    f1, f2 = edge_compute_split_batch(x, params, system.edge_flops)

    unit_local = col(params.mu1 / params.flops + params.overhead)

    # Device side (Eq. 12).
    wait_local = a_i * col(queue_local) * unit_local
    proc_local = a_i * unit_local + a_i * np.maximum(a_i - 1.0, 0.0) / 2.0 * unit_local
    # transfer_time(d1) with its zero-payload short-circuit.
    tt1 = np.where(params.d1 == 0, 0.0, params.d1 / params.bandwidth + params.latency)
    trans_local = np.where(a_i > 0, col(1.0 - params.sigma1) * a_i * col(tt1), 0.0)

    # Edge side (Eq. 13).
    tt0 = np.where(params.d0 == 0, 0.0, params.d0 / params.bandwidth + params.latency)
    trans_edge = np.where(d_i > 0, d_i * col(tt0), 0.0)
    f1_safe = np.maximum(f1, _EPS * system.edge_flops)
    unit_edge = col(params.mu1) / f1_safe + system.edge_overhead
    offloading = d_i > 0
    wait_edge = np.where(offloading, d_i * col(queue_edge) * unit_edge, 0.0)
    proc_edge = np.where(
        offloading,
        d_i * unit_edge + d_i * np.maximum(d_i - 1.0, 0.0) / 2.0 * unit_edge,
        0.0,
    )

    # Service rates (Eqs. 10-11 drains).
    service_local = tau / unit_local
    served = f1 > 0
    safe_f1 = np.where(served, f1, 1.0)
    service_edge = np.where(
        served, tau / (col(params.mu1) / safe_f1 + system.edge_overhead), 0.0
    )

    if include_tail:
        surviving_first = col((1.0 - params.sigma1) * arrivals)
        f2_safe = np.maximum(f2, _EPS * system.edge_flops)
        tail = np.where(
            (surviving_first > 0) & (col(params.mu2) > 0),
            surviving_first * (col(params.mu2) / f2_safe + system.edge_overhead),
            0.0,
        )
        tt2 = np.where(
            params.d2 == 0,
            0.0,
            params.d2 / system.edge_cloud.bandwidth + system.edge_cloud.latency,
        )
        surviving_second = col((1.0 - params.sigma2) * arrivals)
        tail = tail + np.where(
            surviving_second > 0,
            surviving_second
            * (
                col(tt2)
                + col(params.mu3) / system.cloud_flops
                + system.cloud_overhead
            ),
            0.0,
        )
    else:
        tail = np.zeros_like(x)

    return BatchSlotCost(
        x=x,
        arrivals=m * np.ones_like(x),
        local_tasks=a_i,
        offloaded_tasks=d_i,
        wait_local=wait_local,
        proc_local=proc_local,
        trans_local=trans_local,
        trans_edge=trans_edge,
        wait_edge=wait_edge,
        proc_edge=proc_edge,
        tail=tail,
        service_local=service_local * np.ones_like(x),
        service_edge=service_edge,
        edge_first_flops=f1,
        edge_second_flops=f2,
    )


def drift_plus_penalty_batch(
    cost: BatchSlotCost,
    queue_local: np.ndarray,
    queue_edge: np.ndarray,
    v: float,
) -> np.ndarray:
    """Batched Eq. 19 objective, matching
    :func:`~repro.core.offloading.drift_plus_penalty` term-for-term."""
    q = queue_local[:, None] if cost.x.ndim == 2 else queue_local
    h = queue_edge[:, None] if cost.x.ndim == 2 else queue_edge
    return (
        v * cost.y
        + q * (cost.local_tasks - cost.service_local)
        + h * (cost.offloaded_tasks - cost.service_edge)
    )


# -- Eq. 27 KKT edge allocation ------------------------------------------------


def kkt_edge_allocation_batch(
    device_flops: np.ndarray, arrival_rates: np.ndarray, edge_flops: float
) -> np.ndarray:
    """Array implementation of Eq. 27's active-set KKT water-filling —
    the twin of :func:`~repro.core.resource_allocation.kkt_edge_allocation`.

    The active-set loop survives (it shrinks the support, at most N
    rounds in theory and 2-3 in practice) but every round is one array
    expression instead of N scalar evaluations.
    """
    f = np.asarray(device_flops, dtype=np.float64)
    k = np.asarray(arrival_rates, dtype=np.float64)
    if f.shape != k.shape or f.ndim != 1 or f.size == 0:
        raise ValueError("need matching 1-D device_flops and arrival_rates")
    if np.any(f <= 0):
        raise ValueError("device FLOPS must be positive")
    if np.any(k < 0):
        raise ValueError("arrival rates must be non-negative")
    if edge_flops <= 0:
        raise ValueError("edge FLOPS must be positive")
    n = f.size
    if not np.any(k > 0):
        return np.full(n, 1.0 / n)
    active = k > 0
    sqrt_k = np.sqrt(k)
    while True:
        level = (f[active].sum() + edge_flops) / (edge_flops * sqrt_k[active].sum())
        candidate = np.where(active, sqrt_k * level - f / edge_flops, 0.0)
        negative = active & (candidate < 0)
        if not np.any(negative):
            shares = np.where(active, candidate, 0.0)
            break
        active = active & ~negative
        if not np.any(active):
            shares = np.zeros(n)
            shares[int(np.argmin(f))] = 1.0
            return shares
    return shares / shares.sum()


def floored_edge_allocation_batch(
    device_flops: np.ndarray,
    arrival_rates: np.ndarray,
    edge_flops: float,
    min_share: float = 0.01,
) -> np.ndarray:
    """Array twin of
    :func:`~repro.core.resource_allocation.floored_edge_allocation`."""
    if not 0.0 <= min_share < 1.0:
        raise ValueError("min_share must be in [0, 1)")
    shares = kkt_edge_allocation_batch(device_flops, arrival_rates, edge_flops)
    if min_share == 0.0:
        return shares
    k = np.asarray(arrival_rates, dtype=np.float64)
    active = k > 0
    if not np.any(active) or active.sum() * min_share >= 1.0:
        return np.full(shares.size, 1.0 / shares.size)
    floored = np.where(active, np.maximum(shares, min_share), shares)
    return floored / floored.sum()


# -- batched policy solvers ----------------------------------------------------


def _grid_refine_minimum_batch(
    objective: Callable[[np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    grid: int = 33,
) -> np.ndarray:
    """Minimise a smooth objective on every row's ``[lo, hi]`` at once: a
    coarse grid, then two rounds of local grid refinement around the best
    point.  Robust to the mild non-convexity the Eq. 19 objective can
    exhibit near x=0.

    Grid points are ``lo + i·step`` and ties resolve to the first grid
    index (``np.argmin`` keeps the earliest minimum), so a row returns the
    same bits as the per-device scalar search kept in the test suite as
    the reference.  A degenerate row (``lo == hi``, e.g. the Eq. 8
    feasible set of a saturated uplink collapsing to ``x = 0``) returns
    exactly ``lo``; so does a bracket that round-off collapses
    mid-refinement.
    """
    lo = lo.astype(np.float64).copy()
    hi = hi.astype(np.float64).copy()
    degenerate = hi <= lo
    frozen_lo = lo.copy()
    idx = np.arange(grid, dtype=np.float64)
    rows = np.arange(lo.shape[0])
    best = lo.copy()
    for _ in range(3):
        step = (hi - lo) / (grid - 1)
        xs = lo[:, None] + idx[None, :] * step[:, None]
        values = objective(xs)
        best = xs[rows, np.argmin(values, axis=1)]
        lo = np.maximum(lo, best - step)
        hi = np.minimum(hi, best + step)
    return np.where(degenerate, frozen_lo, best)


def dpp_decide(
    system: EdgeSystem,
    state: LyapunovState,
    arrivals: Sequence[float],
    devices: Sequence[DeviceConfig] | None = None,
    v: float = 50.0,
    grid: int = 33,
) -> list[float]:
    """The :class:`~repro.core.offloading.DriftPlusPenaltyPolicy`
    decision: minimise Eq. 19 for every device over a shared ratio grid."""
    params = FleetParams.from_system(system, devices)
    arrivals_arr = np.asarray(arrivals, dtype=np.float64)
    q = np.asarray(state.queue_local, dtype=np.float64)
    h = np.asarray(state.queue_edge, dtype=np.float64)
    lo, hi = feasible_ratio_intervals(params, system.slot_length, arrivals_arr)

    def objective(xs: np.ndarray) -> np.ndarray:
        cost = slot_cost_batch(
            params, system, xs, arrivals_arr, q, h, include_tail=False
        )
        return drift_plus_penalty_batch(cost, q, h, v)

    return _grid_refine_minimum_batch(objective, lo, hi, grid=grid).tolist()


def balance_decide(
    system: EdgeSystem,
    state: LyapunovState,
    arrivals: Sequence[float],
    devices: Sequence[DeviceConfig] | None = None,
    tolerance: float = 1e-6,
    max_iterations: int = 60,
) -> list[float]:
    """Vectorized :class:`~repro.core.offloading.BalanceOffloadingPolicy`
    decision: a batched bisection on ``T_i^d(x) − T_i^e(x)``.

    Rows converge independently — a converged or endpoint-clamped device is
    frozen while the rest keep bisecting, reproducing the scalar per-device
    loop exactly.
    """
    params = FleetParams.from_system(system, devices)
    arrivals_arr = np.asarray(arrivals, dtype=np.float64)
    q = np.asarray(state.queue_local, dtype=np.float64)
    h = np.asarray(state.queue_edge, dtype=np.float64)
    lo, hi = feasible_ratio_intervals(params, system.slot_length, arrivals_arr)

    def gap(xs: np.ndarray) -> np.ndarray:
        cost = slot_cost_batch(
            params, system, xs, arrivals_arr, q, h, include_tail=False
        )
        return cost.t_device - cost.t_edge

    result = np.zeros_like(arrivals_arr)
    idle = arrivals_arr <= 0
    gap_lo, gap_hi = gap(lo), gap(hi)
    stay_local = ~idle & (gap_lo <= 0)  # even full-local is device-cheap
    go_remote = ~idle & ~stay_local & (gap_hi >= 0)  # full-offload is edge-cheap
    result = np.where(stay_local, lo, result)
    result = np.where(go_remote, hi, result)
    active = ~(idle | stay_local | go_remote)
    lo_b, hi_b = lo.copy(), hi.copy()
    for _ in range(max_iterations):
        if not np.any(active):
            break
        mid = 0.5 * (lo_b + hi_b)
        converged = active & ((hi_b - lo_b) < tolerance)
        result = np.where(converged, mid, result)
        active = active & ~converged
        if not np.any(active):
            break
        positive = gap(mid) > 0
        lo_b = np.where(active & positive, mid, lo_b)
        hi_b = np.where(active & ~positive, mid, hi_b)
    # Iteration budget exhausted: the scalar path returns the midpoint.
    result = np.where(active, 0.5 * (lo_b + hi_b), result)
    return result.tolist()


def vectorized_equivalent(policy):
    """The batched drop-in for ``policy``, or ``None`` when no fast path
    exists (the caller then keeps the scalar policy).

    A :class:`~repro.core.offloading.DriftPlusPenaltyPolicy` always
    decides through :func:`dpp_decide`, so it comes back unchanged.
    """
    from .offloading import BalanceOffloadingPolicy, DriftPlusPenaltyPolicy

    if isinstance(policy, DriftPlusPenaltyPolicy):
        return policy
    if isinstance(policy, BalanceOffloadingPolicy):
        if policy.vectorized:
            return policy
        return replace(policy, vectorized=True)
    # Imported lazily: repro.resilience depends on repro.core, not the
    # other way around.
    from ..resilience.recovery import ResilientPolicy

    if isinstance(policy, ResilientPolicy):
        inner = vectorized_equivalent(policy.inner)
        if inner is None:
            return None
        # replace() re-runs __post_init__, so the copy starts with a
        # fresh slot cursor — callers swap policies before running.
        return replace(policy, inner=inner)
    return None


# -- fleet state and whole-slot stepping ---------------------------------------


@dataclass
class FleetState:
    """Array-backed ``Θ(t) = [Q(t), H(t)]`` — the fleet twin of
    :class:`~repro.core.offloading.LyapunovState`, advancing every device's
    Eq. 10-11 recursion in one call."""

    queue_local: np.ndarray
    queue_edge: np.ndarray

    @classmethod
    def zeros(cls, num_devices: int) -> "FleetState":
        return cls(
            queue_local=np.zeros(num_devices), queue_edge=np.zeros(num_devices)
        )

    @classmethod
    def from_lyapunov(cls, state: LyapunovState) -> "FleetState":
        return cls(
            queue_local=np.asarray(state.queue_local, dtype=np.float64).copy(),
            queue_edge=np.asarray(state.queue_edge, dtype=np.float64).copy(),
        )

    def to_lyapunov(self) -> LyapunovState:
        return LyapunovState(
            queue_local=self.queue_local.tolist(),
            queue_edge=self.queue_edge.tolist(),
        )

    def sync_to(self, state: LyapunovState) -> None:
        """Write the array queues back into a scalar ``LyapunovState`` (the
        simulator keeps the caller-owned scalar state authoritative)."""
        state.queue_local[:] = self.queue_local.tolist()
        state.queue_edge[:] = self.queue_edge.tolist()

    def update(self, cost: BatchSlotCost) -> None:
        """Whole-fleet Eqs. 10-11: ``Q ← max(Q − b, 0) + A`` and
        ``H ← max(H − c, 0) + D`` as two array expressions."""
        self.queue_local = (
            np.maximum(self.queue_local - cost.service_local, 0.0)
            + cost.local_tasks
        )
        self.queue_edge = (
            np.maximum(self.queue_edge - cost.service_edge, 0.0)
            + cost.offloaded_tasks
        )

    def shard(self, indices: "Sequence[int] | np.ndarray") -> "FleetState":
        """Gather-copy the sub-state of the devices in ``indices``.

        The federation layer steps each edge's member devices through its
        own :class:`VectorizedSlotEngine`; a shard is an independent copy
        (fancy indexing copies), so per-edge updates cannot alias the
        global arrays.  Scatter the result back with :meth:`absorb`.
        """
        idx = np.asarray(indices, dtype=np.intp)
        return FleetState(
            queue_local=self.queue_local[idx],
            queue_edge=self.queue_edge[idx],
        )

    def absorb(
        self, indices: "Sequence[int] | np.ndarray", shard: "FleetState"
    ) -> None:
        """Scatter a shard's queues back into the global state.

        Element-wise float64 assignment — the values written are the
        shard's bytes unchanged, so a single-shard round-trip
        (``absorb(idx, shard(idx))`` after an update) is byte-identical
        to updating the global arrays directly.  Mutates in place.
        """
        idx = np.asarray(indices, dtype=np.intp)
        if idx.shape[0] != shard.queue_local.shape[0]:
            raise ValueError(
                f"shard width {shard.queue_local.shape[0]} does not match "
                f"{idx.shape[0]} indices"
            )
        self.queue_local[idx] = shard.queue_local
        self.queue_edge[idx] = shard.queue_edge

    def lyapunov_value(self) -> float:
        """``L(Θ) = ½·Σ (Q_i² + H_i²)``."""
        return 0.5 * float(
            np.dot(self.queue_local, self.queue_local)
            + np.dot(self.queue_edge, self.queue_edge)
        )

    def total_backlog(self) -> float:
        return float(self.queue_local.sum() + self.queue_edge.sum())


class VectorizedSlotEngine:
    """One-call-per-slot evaluation of a whole fleet.

    Precomputes the static :class:`FleetParams` once; a dynamic environment
    that substitutes per-slot device configs triggers an O(N) re-extraction
    (still negligible next to the scalar path's O(N·grid) cost closures).
    """

    def __init__(self, system: EdgeSystem):
        self.system = system
        self._static_params = FleetParams.from_system(system)

    def params_for(
        self, devices: Sequence[DeviceConfig] | None
    ) -> FleetParams:
        if devices is None or tuple(devices) == self.system.devices:
            return self._static_params
        return FleetParams.from_system(self.system, devices)

    def slot_costs(
        self,
        devices: Sequence[DeviceConfig] | None,
        ratios: Sequence[float],
        arrivals: Sequence[float],
        state: FleetState,
        include_tail: bool = True,
        system: EdgeSystem | None = None,
        share_scale: "Sequence[float] | np.ndarray | None" = None,
    ) -> BatchSlotCost:
        """Eqs. 12-14 for the whole fleet at the chosen ratios.

        ``system`` overrides the deployed system for this slot — a trace
        environment varies shared parameters (edge capacity) per slot,
        and the overload ladder swaps in degraded partitions.  Shared
        overrides (edge capacity) leave the precomputed per-device
        :class:`FleetParams` valid; partition overrides change the
        ``μ``/``d``/``σ`` rows, so those trigger an O(N) re-extraction
        from the live system — exactly what the scalar loop reads via
        ``live_system.partition_for(i)``.

        ``share_scale`` discounts each device's container-slice share for
        this slot (a cold model load occupying part of the slot; see
        :meth:`repro.resilience.qos.QoSState.share_scales`).  Applied as
        ``shares * scale`` after params resolution — elementwise, the
        same two multiplications the scalar loop performs when it passes
        ``shares[i] * scale[i]`` as ``slot_cost``'s explicit share — so
        the byte-identity contract holds with cold starts active.
        """
        live = self.system if system is None else system
        if live is not self.system and (
            live.partition is not self.system.partition
            or live.device_partitions != self.system.device_partitions
        ):
            params = FleetParams.from_system(live, devices)
        else:
            params = self.params_for(devices)
        if share_scale is not None:
            params = replace(
                params,
                shares=params.shares
                * np.asarray(share_scale, dtype=np.float64),
            )
        return slot_cost_batch(
            params,
            live,
            np.asarray(ratios, dtype=np.float64),
            np.asarray(arrivals, dtype=np.float64),
            state.queue_local,
            state.queue_edge,
            include_tail=include_tail,
        )

    def step(
        self,
        policy,
        state: FleetState,
        expected: Sequence[float],
        realised: Sequence[float],
        devices: Sequence[DeviceConfig] | None = None,
        include_tail: bool = True,
        system: EdgeSystem | None = None,
    ) -> tuple[list[float], BatchSlotCost]:
        """Advance the fleet one slot: decide ratios, evaluate the slot
        cost at the realised arrivals, and apply the queue recursions."""
        live_system = self.system if system is None else system
        scalar_state = state.to_lyapunov()
        ratios = policy.decide(live_system, scalar_state, expected, devices)
        cost = self.slot_costs(
            devices, ratios, realised, state, include_tail, system=live_system
        )
        state.update(cost)
        return ratios, cost


# -- event-path kernels -----------------------------------------------------
#
# Shared seams for the array-backed event engine
# (:mod:`repro.sim.fast_events`).  Same design contract as the slot kernels
# above, with a stricter bar: the scalar :class:`repro.sim.nodes.FifoServer`
# is the oracle, and every arithmetic step here replays its operations
# exactly — service priced at start of service as ``demand / rate +
# overhead``, ``finish = start + service`` — so per-task schedules agree
# *bitwise*, not merely to round-off.


def service_times_batch(
    demand: np.ndarray, rate: np.ndarray, overhead: np.ndarray
) -> np.ndarray:
    """The Eq. 1-3 service kernel, elementwise: ``demand / rate +
    overhead`` — the exact expression ``FifoServer._start_next`` evaluates
    for one job."""
    return demand / rate + overhead


def fifo_schedule_batch(
    server: np.ndarray,
    submit: np.ndarray,
    service: np.ndarray,
    free_at: np.ndarray,
    cutoff: float = np.inf,
    inclusive: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """FIFO start/finish schedules for many servers at once.

    Args:
        server: ``(J,)`` integer server ids.  Rows must be sorted by
            ``(server, queue order)`` — each server's jobs contiguous, in
            the order they joined its queue.
        submit: ``(J,)`` submission times.
        service: ``(J,)`` service times (a :func:`service_times_batch`
            output).
        free_at: ``(J,)`` — per job, the owning server's in-service finish
            time at the window start (``-inf`` when idle), i.e.
            ``free_at_per_server[server]``.
        cutoff: jobs whose service would *start* at or past the cutoff are
            not served (a slot boundary may change the server's rate, so
            their service must be priced later); ``inclusive=True`` also
            serves jobs starting exactly at the cutoff (the ``drain=False``
            horizon edge).

    Returns:
        ``(start, finish, served)`` per-job arrays; unserved entries of
        ``start``/``finish`` are meaningless.

    The Lindley recursion ``start_j = max(submit_j, finish_{j-1})``,
    ``finish_j = start_j + service_j`` is evaluated column-wise —
    vectorized *across* servers, sequential *within* each server — so
    every finish is produced by the same two IEEE operations the scalar
    server performs, in the same order.  A single column sweep padded to
    the longest queue would make every short queue pay for one deep
    queue (the shared cloud link under a fleet), so segments are grouped
    into power-of-two width classes and each class is swept at its own
    width (padding waste bounded at 2x).  A class with too few segments
    to amortize the padded columns — e.g. the one cloud-link megaqueue —
    falls back to a per-segment scalar loop: same two IEEE operations,
    cheaper than ``width`` vectorized passes over one row.
    """
    count = server.shape[0]
    if count == 0:
        empty = np.empty(0, dtype=np.float64)
        return empty, empty.copy(), np.empty(0, dtype=bool)
    breaks = np.empty(count, dtype=np.bool_)
    breaks[0] = True
    np.not_equal(server[1:], server[:-1], out=breaks[1:])
    seg_start = np.flatnonzero(breaks)
    bounds = np.empty(seg_start.shape[0] + 1, dtype=np.int64)
    bounds[:-1] = seg_start
    bounds[-1] = count
    seg_len = np.diff(bounds)
    start = np.empty(count, dtype=np.float64)
    finish = np.empty(count, dtype=np.float64)
    # Width class: 0 for len <= 8, then one class per power of two.
    classes = np.zeros(seg_len.shape[0], dtype=np.int64)
    big = seg_len > 8
    if big.any():
        classes[big] = np.ceil(np.log2(seg_len[big])).astype(np.int64)
    sweep_min_segs = 16
    scalar_segs: list[np.ndarray] = []
    for cls in np.unique(classes):
        sel = classes == cls
        s_start = seg_start[sel]
        s_len = seg_len[sel]
        if cls > 3 and s_start.shape[0] < sweep_min_segs:
            scalar_segs.append(np.flatnonzero(sel))
            continue
        num_seg = s_start.shape[0]
        width = int(s_len.max())
        seg_of = np.repeat(np.arange(num_seg), s_len)
        idx = np.arange(s_len.sum()) - np.repeat(
            np.cumsum(s_len) - s_len, s_len
        )
        rows = s_start[seg_of] + idx
        submit2 = np.full((num_seg, width), np.inf)
        service2 = np.zeros((num_seg, width))
        submit2[seg_of, idx] = submit[rows]
        service2[seg_of, idx] = service[rows]
        start2 = np.empty((num_seg, width))
        finish2 = np.empty((num_seg, width))
        prev = free_at[s_start]
        for j in range(width):
            started = np.maximum(submit2[:, j], prev)
            finished = started + service2[:, j]
            start2[:, j] = started
            finish2[:, j] = finished
            prev = finished
        start[rows] = start2[seg_of, idx]
        finish[rows] = finish2[seg_of, idx]
    if scalar_segs:
        for s in np.concatenate(scalar_segs).tolist():
            i0 = int(seg_start[s])
            i1 = i0 + int(seg_len[s])
            submits = submit[i0:i1].tolist()
            services = service[i0:i1].tolist()
            prev_t = float(free_at[i0])
            for j, sub_j in enumerate(submits):
                started_t = sub_j if sub_j > prev_t else prev_t
                prev_t = started_t + services[j]
                start[i0 + j] = started_t
                finish[i0 + j] = prev_t
    served = (start <= cutoff) if inclusive else (start < cutoff)
    return start, finish, served
