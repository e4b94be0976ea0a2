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
* :func:`feasible_ratio_intervals` / :func:`slot_cost_batch` — the
  batched equivalents of the scalar functions of the same names;
* :class:`_SlotKernel` — the one implementation of the Eq. 9 and Eq.
  12-13 per-element formulas, evaluated in place into preallocated
  buffers; :func:`slot_cost_batch`, the Eq. 19 objective and Balance's
  gap all read it;
* :func:`dpp_decide` — the only solver of
  :class:`~repro.core.offloading.DriftPlusPenaltyPolicy` (its per-device
  scalar loop survives only as the test suite's reference);
* :func:`balance_decide` — the solver
  :class:`~repro.core.offloading.BalanceOffloadingPolicy` takes on
  fleets of ``_BALANCE_BATCH_MIN`` devices or more;
* :class:`FleetState` + :class:`VectorizedSlotEngine` — array-backed
  ``Q_i``/``H_i`` queues and one-call whole-fleet slot costs: the
  fluid simulators' array plane (see
  :func:`~repro.sim.simulator.resolve_plane`); a federation's slot is
  one call too, its shards' values arriving as a :class:`ShardedSlot`;
* :meth:`VectorizedSlotEngine.columns` — one slot's per-device
  columns (a :class:`~repro.core.offloading.SlotColumns`), derived once:
  a row-separable policy decides the whole slot from them (both solvers
  above take them in place of a system), and the engine prices the slot
  from the same columns.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .offloading import (
    _EPS,
    DeviceConfig,
    EdgeSystem,
    LiveFleet,
    LyapunovState,
    SlotColumns,
)

__all__ = [
    "FleetParams",
    "FleetState",
    "BatchSlotCost",
    "ShardedSlot",
    "SiteColumns",
    "SlotColumns",
    "VectorizedSlotEngine",
    "feasible_ratio_intervals",
    "slot_cost_batch",
    "dpp_decide",
    "balance_decide",
    "service_times_batch",
    "fifo_schedule_batch",
]


#: The :class:`FleetParams` columns read off each device's partition.
_PARTITION_COLUMNS = ("mu1", "mu2", "mu3", "d0", "d1", "d2", "sigma1", "sigma2")


def partition_table(system, n: int) -> np.ndarray:
    """The ``(8, n)`` partition columns (``μ₁..μ₃``, ``d₀..d₂``, ``σ₁``,
    ``σ₂``) of the first ``n`` devices of ``system`` — anything with a
    ``partition`` and ``device_partitions``, such as an
    :class:`~repro.core.offloading.EdgeSystem` or a federation topology;
    a homogeneous deployment repeats its one partition's values.  Each
    distinct partition object is read once (a rung-degraded deployment
    shares one object per partition and rung)."""
    parts = system.device_partitions[:n] or (system.partition,)
    codes: dict[int, int] = {}
    column = [codes.setdefault(id(p), len(codes)) for p in parts]
    distinct = list({id(p): p for p in parts}.values())
    table = np.array(
        [[getattr(p, name) for p in distinct] for name in _PARTITION_COLUMNS],
        dtype=np.float64,
    )
    if len(parts) < n:
        return np.repeat(table, n, axis=1)
    return table if len(distinct) == n else table[:, column]


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
        which a dynamic environment may have substituted).  A
        :class:`~repro.core.offloading.LiveFleet` hands over its columns
        without building a config."""
        fleet = LiveFleet.of(system.devices if devices is None else devices)
        n = len(fleet)
        return cls(
            flops=fleet.flops,
            bandwidth=fleet.bandwidth,
            latency=fleet.latency,
            overhead=fleet.overhead,
            shares=np.array(system.shares[:n], dtype=np.float64),
            **dict(zip(_PARTITION_COLUMNS, partition_table(system, n))),
        )

    @classmethod
    def from_topology(cls, topology) -> "FleetParams":
        """A federation topology's fleet-wide params: its cached device
        columns and partition table.  A topology deploys no shares of its
        own, so they are zero: each slot brings its shards' shares in a
        :class:`ShardedSlot`."""
        fleet = topology.fleet
        n = len(fleet)
        return cls(
            flops=fleet.flops,
            bandwidth=fleet.bandwidth,
            latency=fleet.latency,
            overhead=fleet.overhead,
            shares=np.zeros(n),
            **dict(zip(_PARTITION_COLUMNS, partition_table(topology, n))),
        )

    def with_devices(self, fleet: LiveFleet) -> "FleetParams":
        """These params with a live fleet's device columns (the shares
        and partition columns kept); themselves when the fleet's columns
        are theirs."""
        if (
            fleet.flops is self.flops
            and fleet.bandwidth is self.bandwidth
            and fleet.latency is self.latency
            and fleet.overhead is self.overhead
        ):
            return self
        return replace(
            self,
            flops=fleet.flops,
            bandwidth=fleet.bandwidth,
            latency=fleet.latency,
            overhead=fleet.overhead,
        )


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


class SiteColumns(NamedTuple):
    """The edge-site values of a sharded slot as ``(N,)`` columns: row
    ``i`` holds the value of the site serving device ``i`` this slot.
    A single edge passes its system's scalars instead."""

    edge_flops: np.ndarray  # F^e, after any outage collapse
    edge_overhead: np.ndarray
    cloud_bandwidth: np.ndarray  # the edge→cloud hop
    cloud_latency: np.ndarray


def _columns_of(
    system: "EdgeSystem | SlotColumns", devices: Sequence[DeviceConfig] | None
) -> "tuple[FleetParams, SiteColumns | None, EdgeSystem]":
    """``(params, sites, system)``: a slot's columns as they are, or the
    columns read off ``system`` and this slot's live ``devices``."""
    if isinstance(system, SlotColumns):
        return system
    return FleetParams.from_system(system, devices), None, system


def _transfer_times(
    payload: np.ndarray, bandwidth: np.ndarray, latency: np.ndarray
) -> np.ndarray:
    """``NetworkProfile.transfer_time`` per device, with its zero-payload
    short-circuit."""
    return np.where(payload == 0, 0.0, payload / bandwidth + latency)


class _SlotKernel:
    """Eq. 9 and Eqs. 12-13 for one fleet, evaluated in place: the one
    implementation of the per-element cost formulas behind
    :func:`slot_cost_batch`, the Eq. 19 objective of :func:`dpp_decide`
    and the gap :func:`balance_decide` bisects.

    The constructor reads each per-device column once as ``(N, 1)`` and
    allocates ``(N, grid)`` buffers; :meth:`load` and the term methods
    then write through ``out=`` ufuncs, so a search round allocates
    nothing.  Each expression keeps the scalar
    :func:`~repro.core.offloading.slot_cost`'s association, and a
    ``where(c, e, 0.0)`` is an overwrite with ``+0.0``, so the results
    are its bits.  The caller's ratios, arrivals and queues are only
    read: ratios are clipped into the kernel's own buffer.

    The edge FLOPS and overhead are ``system``'s scalars, or with
    ``sites`` each device's serving site's as ``(N, 1)`` columns: the
    same elementwise operations either way, so a sharded slot's rows
    are the bits of pricing each shard on its own.
    """

    def __init__(
        self,
        params: FleetParams,
        system: EdgeSystem,
        arrivals: np.ndarray,
        queue_local: np.ndarray,
        queue_edge: np.ndarray,
        grid: int = 1,
        sites: SiteColumns | None = None,
    ):
        if (arrivals < 0).any() or (queue_local < 0).any() or (queue_edge < 0).any():
            raise ValueError("arrivals and queue lengths must be non-negative")
        self.slot_length = system.slot_length
        if sites is None:
            edge_flops, self.edge_overhead = system.edge_flops, system.edge_overhead
        else:
            edge_flops = sites.edge_flops[:, None]
            self.edge_overhead = sites.edge_overhead[:, None]
        # ε·F^e floors either block's edge FLOPS.
        self.flops_floor = _EPS * edge_flops
        self.arrivals = arrivals[:, None]
        self.queue_local = queue_local[:, None]
        self.queue_edge = queue_edge[:, None]
        self.mu1 = params.mu1[:, None]
        self.survive_first = (1.0 - params.sigma1)[:, None]
        self.second_weight = ((1.0 - params.sigma1) * params.mu2)[:, None]
        self.slice_flops = params.shares[:, None] * edge_flops
        self.unit_local = (params.mu1 / params.flops + params.overhead)[:, None]
        self.service_local = self.slot_length / self.unit_local
        link = params.bandwidth, params.latency
        self.tt0 = _transfer_times(params.d0, *link)[:, None]
        self.tt1 = _transfer_times(params.d1, *link)[:, None]
        shape = (params.num_devices, grid)
        # One allocation: loaded ratios, task split, Eq. 9 slice and
        # first-block edge unit, then three scratch buffers.
        buffers = np.empty((8, *shape))
        self.x, self.a, self.d, self.f1, self.unit_edge = buffers[:5]
        self._term, self._scratch, self._edge = buffers[5:]
        # Where the local / offloaded / edge-served terms are zero.
        self.idle_local, self.idle_edge, self.unserved = np.empty(
            (3, *shape), dtype=bool
        )

    def load(self, x: np.ndarray) -> None:
        """Evaluate the Eq. 9 split and ``A_i``/``D_i`` at ratios ``x`` —
        ``(N,)`` or ``(N, grid)`` — clipped into ``[0, 1]``."""
        xs, a, d, f1 = self.x, self.a, self.d, self.f1
        np.clip(np.reshape(x, xs.shape), 0.0, 1.0, out=xs)
        np.subtract(1.0, xs, out=a)
        a *= self.arrivals
        np.multiply(xs, self.arrivals, out=d)
        # Eq. 9: F_1 = p·F^e · x·μ₁ / (x·μ₁ + (1 − σ₁)·μ₂); a moot split
        # (no work of either kind) gives the first block nothing.
        weight, total, moot = self._term, self._scratch, self.unserved
        np.multiply(xs, self.mu1, out=weight)
        np.add(weight, self.second_weight, out=total)
        np.multiply(self.slice_flops, weight, out=f1)
        np.less_equal(total, 0.0, out=moot)
        np.copyto(total, 1.0, where=moot)
        f1 /= total
        np.copyto(f1, 0.0, where=moot)
        for values, idle in (
            (a, self.idle_local),
            (d, self.idle_edge),
            (f1, self.unserved),
        ):
            np.logical_not(np.greater(values, 0.0, out=idle), out=idle)
        unit = self.unit_edge
        np.maximum(f1, self.flops_floor, out=unit)
        np.divide(self.mu1, unit, out=unit)
        unit += self.edge_overhead

    def _processing(self, tasks: np.ndarray, unit: np.ndarray, out: np.ndarray) -> None:
        """``n·u + n·max(n − 1, 0)/2·u``: processing plus intra-slot
        queueing of ``n`` tasks at ``u`` seconds each."""
        queued = self._scratch
        np.subtract(tasks, 1.0, out=queued)
        np.maximum(queued, 0.0, out=queued)
        np.multiply(tasks, queued, out=queued)
        queued /= 2.0
        queued *= unit
        np.multiply(tasks, unit, out=out)
        out += queued

    def wait_local(self, out: np.ndarray) -> np.ndarray:
        """``C_{i,1}^d``: drain the device backlog ``Q_i``."""
        np.multiply(self.a, self.queue_local, out=out)
        out *= self.unit_local
        return out

    def proc_local(self, out: np.ndarray) -> np.ndarray:
        """``C_{i,2}^d``."""
        self._processing(self.a, self.unit_local, out)
        return out

    def trans_local(self, out: np.ndarray) -> np.ndarray:
        """``C_{i,3}^d``: intermediate uploads of non-exited tasks."""
        np.multiply(self.survive_first, self.a, out=out)
        out *= self.tt1
        np.copyto(out, 0.0, where=self.idle_local)
        return out

    def trans_edge(self, out: np.ndarray) -> np.ndarray:
        """``C_{i,1}^e``: raw input uploads of offloaded tasks."""
        np.multiply(self.d, self.tt0, out=out)
        np.copyto(out, 0.0, where=self.idle_edge)
        return out

    def wait_edge(self, out: np.ndarray) -> np.ndarray:
        """``C_{i,2}^e``: drain the edge backlog ``H_i``."""
        np.multiply(self.d, self.queue_edge, out=out)
        out *= self.unit_edge
        np.copyto(out, 0.0, where=self.idle_edge)
        return out

    def proc_edge(self, out: np.ndarray) -> np.ndarray:
        """``C_{i,3}^e``."""
        self._processing(self.d, self.unit_edge, out)
        np.copyto(out, 0.0, where=self.idle_edge)
        return out

    def service_edge(self, out: np.ndarray) -> np.ndarray:
        """``c_i(t)``: the edge's first-block capacity per slot."""
        np.copyto(out, self.f1)
        np.copyto(out, 1.0, where=self.unserved)
        np.divide(self.mu1, out, out=out)
        out += self.edge_overhead
        np.divide(self.slot_length, out, out=out)
        np.copyto(out, 0.0, where=self.unserved)
        return out

    def device_time(self, out: np.ndarray) -> np.ndarray:
        """``T_i^d`` (Eq. 12)."""
        term = self._term
        self.wait_local(out)
        out += self.proc_local(term)
        out += self.trans_local(term)
        return out

    def edge_time(self, out: np.ndarray) -> np.ndarray:
        """``T_i^e`` (Eq. 13)."""
        term = self._term
        self.trans_edge(out)
        out += self.wait_edge(term)
        out += self.proc_edge(term)
        return out

    def delay_gap(self, out: np.ndarray) -> np.ndarray:
        """``T_i^d − T_i^e``, the gap Balance drives to zero."""
        self.device_time(out)
        out -= self.edge_time(self._edge)
        return out

    def drift_plus_penalty(self, v: float, out: np.ndarray) -> np.ndarray:
        """Eq. 19, ``V·Y_i + Q_i·(A_i − b_i) + H_i·(D_i − c_i)``, matching
        :func:`~repro.core.offloading.drift_plus_penalty` term for term."""
        self.device_time(out)
        out += self.edge_time(self._edge)
        out *= v
        term = self._term
        np.subtract(self.a, self.service_local, out=term)
        term *= self.queue_local
        out += term
        self.service_edge(term)
        np.subtract(self.d, term, out=term)
        term *= self.queue_edge
        out += term
        return out


def slot_cost_batch(
    params: FleetParams,
    system: EdgeSystem,
    x: np.ndarray,
    arrivals: np.ndarray,
    queue_local: np.ndarray,
    queue_edge: np.ndarray,
    include_tail: bool = True,
    sites: SiteColumns | None = None,
) -> BatchSlotCost:
    """Batched Eqs. 12-14 — the vectorized twin of
    :func:`~repro.core.offloading.slot_cost`.

    ``x`` is ``(N,)`` (one ratio per device) or ``(N, G)`` (a candidate
    grid per device); ``arrivals``/``queue_local``/``queue_edge`` are
    ``(N,)`` and broadcast across the grid axis.  ``sites`` prices each
    device at its own serving site (edge FLOPS and overhead, edge→cloud
    hop) instead of ``system``'s; the slot length and the cloud are
    ``system``'s either way.
    """
    x = np.asarray(x, dtype=np.float64)
    arrivals = np.asarray(arrivals, dtype=np.float64)
    kernel = _SlotKernel(
        params,
        system,
        arrivals,
        np.asarray(queue_local, dtype=np.float64),
        np.asarray(queue_edge, dtype=np.float64),
        grid=x.shape[1] if x.ndim == 2 else 1,
        sites=sites,
    )
    kernel.load(x)
    grid = kernel.x.shape
    fields = iter(np.empty((7, *grid)))
    term = lambda method: method(next(fields)).reshape(x.shape)
    spread = lambda column: (column * np.ones(grid)).reshape(x.shape)
    f2 = kernel.slice_flops - kernel.f1

    if include_tail:
        surviving_first = ((1.0 - params.sigma1) * arrivals)[:, None]
        mu2 = params.mu2[:, None]
        f2_safe = np.maximum(f2, kernel.flops_floor)
        tail = np.where(
            (surviving_first > 0) & (mu2 > 0),
            surviving_first * (mu2 / f2_safe + kernel.edge_overhead),
            0.0,
        )
        if sites is None:
            cloud = system.edge_cloud.bandwidth, system.edge_cloud.latency
        else:
            cloud = sites.cloud_bandwidth, sites.cloud_latency
        tt2 = _transfer_times(params.d2, *cloud)
        surviving_second = ((1.0 - params.sigma2) * arrivals)[:, None]
        tail = tail + np.where(
            surviving_second > 0,
            surviving_second
            * (
                tt2[:, None]
                + params.mu3[:, None] / system.cloud_flops
                + system.cloud_overhead
            ),
            0.0,
        )
    else:
        tail = np.zeros(grid)

    return BatchSlotCost(
        x=kernel.x.reshape(x.shape),
        arrivals=spread(kernel.arrivals),
        local_tasks=kernel.a.reshape(x.shape),
        offloaded_tasks=kernel.d.reshape(x.shape),
        wait_local=term(kernel.wait_local),
        proc_local=term(kernel.proc_local),
        trans_local=term(kernel.trans_local),
        trans_edge=term(kernel.trans_edge),
        wait_edge=term(kernel.wait_edge),
        proc_edge=term(kernel.proc_edge),
        tail=tail.reshape(x.shape),
        service_local=spread(kernel.service_local),
        service_edge=term(kernel.service_edge),
        edge_first_flops=kernel.f1.reshape(x.shape),
        edge_second_flops=f2.reshape(x.shape),
    )


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
    mid-refinement.  Every round writes its grid into one buffer, which
    ``objective`` must only read.
    """
    lo = lo.astype(np.float64).copy()
    hi = hi.astype(np.float64).copy()
    degenerate = hi <= lo
    frozen_lo = lo.copy()
    idx = np.arange(grid, dtype=np.float64)
    rows = np.arange(lo.shape[0])
    xs = np.empty((lo.shape[0], grid))
    best = lo.copy()
    for _ in range(3):
        step = (hi - lo) / (grid - 1)
        np.multiply(idx, step[:, None], out=xs)
        np.add(lo[:, None], xs, out=xs)
        values = objective(xs)
        best = xs[rows, np.argmin(values, axis=1)]
        lo = np.maximum(lo, best - step)
        hi = np.minimum(hi, best + step)
    return np.where(degenerate, frozen_lo, best)


def dpp_decide(
    system: "EdgeSystem | SlotColumns",
    state: "LyapunovState | FleetState",
    arrivals: Sequence[float],
    devices: Sequence[DeviceConfig] | None = None,
    v: float = 50.0,
    grid: int = 33,
) -> list[float]:
    """The :class:`~repro.core.offloading.DriftPlusPenaltyPolicy`
    decision: minimise Eq. 19 for every device over a shared ratio grid.

    ``system`` is a system (with this slot's ``devices``) or a slot's
    :class:`SlotColumns`; every row is solved from its own columns, so
    deciding a sharded slot at once returns each shard's own bits.  One
    :class:`_SlotKernel` serves the three search rounds, so the
    per-device columns are read once and every round evaluates the
    objective into the same buffers."""
    params, sites, system = _columns_of(system, devices)
    arrivals_arr = np.asarray(arrivals, dtype=np.float64)
    q = np.asarray(state.queue_local, dtype=np.float64)
    h = np.asarray(state.queue_edge, dtype=np.float64)
    lo, hi = feasible_ratio_intervals(params, system.slot_length, arrivals_arr)
    kernel = _SlotKernel(
        params, system, arrivals_arr, q, h, grid=grid, sites=sites
    )
    values = np.empty(kernel.x.shape)

    def objective(xs: np.ndarray) -> np.ndarray:
        kernel.load(xs)
        return kernel.drift_plus_penalty(v, values)

    return _grid_refine_minimum_batch(objective, lo, hi, grid=grid).tolist()


def balance_decide(
    system: "EdgeSystem | SlotColumns",
    state: "LyapunovState | FleetState",
    arrivals: Sequence[float],
    devices: Sequence[DeviceConfig] | None = None,
    tolerance: float = 1e-6,
    max_iterations: int = 60,
) -> list[float]:
    """Vectorized :class:`~repro.core.offloading.BalanceOffloadingPolicy`
    decision: a batched bisection on ``T_i^d(x) − T_i^e(x)``, from a
    system or a slot's :class:`SlotColumns` (as :func:`dpp_decide`).

    Rows converge independently — a converged or endpoint-clamped device is
    frozen while the rest keep bisecting, reproducing the scalar per-device
    loop exactly.
    """
    params, sites, system = _columns_of(system, devices)
    arrivals_arr = np.asarray(arrivals, dtype=np.float64)
    q = np.asarray(state.queue_local, dtype=np.float64)
    h = np.asarray(state.queue_edge, dtype=np.float64)
    lo, hi = feasible_ratio_intervals(params, system.slot_length, arrivals_arr)
    kernel = _SlotKernel(params, system, arrivals_arr, q, h, sites=sites)
    gaps = np.empty(kernel.x.shape)

    def gap(xs: np.ndarray) -> np.ndarray:
        kernel.load(xs)
        return kernel.delay_gap(gaps)[:, 0]

    result = np.zeros_like(arrivals_arr)
    idle = arrivals_arr <= 0
    stay_local = ~idle & (gap(lo) <= 0)  # even full-local is device-cheap
    go_remote = ~idle & ~stay_local & (gap(hi) >= 0)  # full-offload is edge-cheap
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


# -- fleet state and whole-slot stepping ---------------------------------------


@dataclass
class FleetState:
    """Array-backed ``Θ(t) = [Q(t), H(t)]`` — the fleet twin of
    :class:`~repro.core.offloading.LyapunovState`, advancing every device's
    Eq. 10-11 recursion in one call."""

    queue_local: np.ndarray
    queue_edge: np.ndarray

    @classmethod
    def from_lyapunov(cls, state: LyapunovState) -> "FleetState":
        return cls(
            queue_local=np.asarray(state.queue_local, dtype=np.float64).copy(),
            queue_edge=np.asarray(state.queue_edge, dtype=np.float64).copy(),
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

        The copy is independent (fancy indexing copies), so updating it
        cannot alias the global arrays; scatter it back with
        :meth:`absorb`.  ``benchmarks/suite/tracing.py`` wraps this pair
        by name.
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


class ShardedSlot(NamedTuple):
    """One slot of a sharded fleet (a federation) as the ``system`` of
    one :meth:`VectorizedSlotEngine.slot_costs` call over every device.

    ``owner[i]`` is the shard serving device ``i``.  ``shards[e]`` is
    ``None`` for a shard with no members, else ``(members, system,
    deployed)``: its ascending member indices, its live system (after
    any outage collapse and rung degradation), and whether that system
    runs the deployed partitions (no rung replaced them)."""

    owner: np.ndarray
    shards: Sequence["tuple[np.ndarray, EdgeSystem, bool] | None"]


class VectorizedSlotEngine:
    """One-call-per-slot evaluation of a whole fleet.

    Holds the static :class:`FleetParams` — read off the system's
    configs, or handed over already gathered.  A slot's
    :class:`~repro.core.offloading.LiveFleet` swaps in its device
    columns; a fleet whose columns are the static ones (a slot that
    changed no device) reuses the params as they are.  So no slot reads
    a config object.

    ``system`` is an :class:`~repro.core.offloading.EdgeSystem`, or a
    federation's topology (:meth:`FleetParams.from_topology`), whose
    slots arrive as :class:`ShardedSlot`: a federation's slot is one
    set of columns, each device under its shard's share, partition and
    site.  :meth:`columns` derives a slot's :class:`SlotColumns` once;
    a row-separable policy decides the slot from them and
    :meth:`slot_costs` prices it from them.
    """

    def __init__(self, system: EdgeSystem, params: FleetParams | None = None):
        self.system = system
        self._static_params = (
            FleetParams.from_system(system) if params is None else params
        )
        # Per shard, its latest shares tuple and that tuple as a column.
        self._share_columns: dict[int, tuple[tuple, np.ndarray]] = {}

    def params_for(
        self, devices: Sequence[DeviceConfig] | None
    ) -> FleetParams:
        if devices is None or devices is self.system.devices:
            return self._static_params
        if isinstance(devices, LiveFleet):
            return self._static_params.with_devices(devices)
        return FleetParams.from_system(self.system, devices)

    def columns(
        self,
        devices: Sequence[DeviceConfig] | None,
        system: "EdgeSystem | ShardedSlot | None" = None,
    ) -> SlotColumns:
        """The slot's per-device columns over this slot's live
        ``devices``.

        ``system`` overrides the deployed system for this slot — a trace
        environment varies shared parameters (edge capacity) per slot,
        and the overload ladder swaps in degraded partitions.  Shared
        overrides (edge capacity) leave the precomputed per-device
        :class:`FleetParams` valid; partition (or share) overrides change
        rows, so those re-read the shares and partition columns from the
        live system — exactly what the scalar loop reads via
        ``live_system.partition_for(i)`` — next to the device columns.

        A :class:`ShardedSlot` is a federation's slot: each device takes
        its shard's share, its partition row from its shard's live system
        where a rung replaced the deployed one (read once per distinct
        partition and rung, as :func:`partition_table` does), and its
        serving site's edge FLOPS, overhead and edge→cloud hop as
        :class:`SiteColumns` gathered through ``owner``.  Every row is
        its shard's own system's row.
        """
        live = self.system if system is None else system
        params = self.params_for(devices)
        if isinstance(live, ShardedSlot):
            return SlotColumns(*self._shard_params(params, live), self.system)
        if live is not self.system and (
            live.partition is not self.system.partition
            or live.shares is not self.system.shares
            or live.device_partitions != self.system.device_partitions
        ):
            n = params.num_devices
            params = replace(
                params,
                shares=np.array(live.shares[:n], dtype=np.float64),
                **dict(zip(_PARTITION_COLUMNS, partition_table(live, n))),
            )
        return SlotColumns(params, None, live)

    def slot_costs(
        self,
        devices: Sequence[DeviceConfig] | None,
        ratios: Sequence[float],
        arrivals: Sequence[float],
        state: FleetState,
        include_tail: bool = True,
        system: "EdgeSystem | ShardedSlot | SlotColumns | None" = None,
        share_scale: "Sequence[float] | np.ndarray | None" = None,
    ) -> BatchSlotCost:
        """Eqs. 12-14 for the whole fleet at the chosen ratios.

        The slot's columns are ``columns(devices, system)``, or
        ``system`` itself when it is the slot's :class:`SlotColumns`
        already (``devices`` is then not read).  A sharded slot's every
        row is the bits of pricing its shard on its own.

        ``share_scale`` discounts each device's container-slice share for
        this slot (a cold model load occupying part of the slot; see
        :meth:`repro.resilience.qos.QoSState.share_scales`).  Applied as
        ``shares * scale`` after params resolution — elementwise, the
        same two multiplications the scalar loop performs when it passes
        ``shares[i] * scale[i]`` as ``slot_cost``'s explicit share — so
        the byte-identity contract holds with cold starts active.
        """
        columns = (
            system
            if isinstance(system, SlotColumns)
            else self.columns(devices, system)
        )
        params = columns.params
        if share_scale is not None:
            params = replace(
                params,
                shares=params.shares
                * np.asarray(share_scale, dtype=np.float64),
            )
        return slot_cost_batch(
            params,
            columns.system,
            np.asarray(ratios, dtype=np.float64),
            np.asarray(arrivals, dtype=np.float64),
            state.queue_local,
            state.queue_edge,
            include_tail=include_tail,
            sites=columns.sites,
        )

    def _shard_params(
        self, params: FleetParams, slot: ShardedSlot
    ) -> tuple[FleetParams, SiteColumns]:
        """``params`` with each shard's shares and degraded partition
        rows scattered over its members, and the slot's site columns.
        A shard's shares become a column once per shares tuple, i.e.
        once per member set."""
        shares = np.empty(params.num_devices)
        values = np.zeros((4, len(slot.shards)))
        table = None
        for e, shard in enumerate(slot.shards):
            if shard is None:
                continue
            members, live, deployed = shard
            column = self._share_columns.get(e)
            if column is None or column[0] is not live.shares:
                column = self._share_columns[e] = (live.shares, np.array(live.shares))
            shares[members] = column[1]
            values[:, e] = (
                live.edge_flops,
                live.edge_overhead,
                live.edge_cloud.bandwidth,
                live.edge_cloud.latency,
            )
            if not deployed:
                if table is None:
                    table = np.array(
                        [getattr(params, name) for name in _PARTITION_COLUMNS]
                    )
                table[:, members] = partition_table(live, len(members))
        partitions = {} if table is None else dict(zip(_PARTITION_COLUMNS, table))
        return (
            replace(params, shares=shares, **partitions),
            SiteColumns(*values[:, slot.owner]),
        )


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
