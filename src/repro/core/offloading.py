"""Online task offloading: slot cost model, Lyapunov queues, policies (§III-D).

Per time slot of length τ, device ``i`` receives ``M_i(t)`` tasks and picks
an offloading ratio ``x_i(t)``: a ``D_i = x_i·M_i`` share starts its
first-block inference on the edge, the remaining ``A_i = (1−x_i)·M_i`` start
locally.  Second and third blocks always run on edge and cloud (Fig. 4).

The module implements, in the paper's notation:

* the transmission feasibility constraint (Eq. 8) —
  :func:`feasible_ratio_interval`;
* the edge compute split between first- and second-block work (Eq. 9);
* the task-queue recursions ``Q_i`` / ``H_i`` (Eqs. 10-11) —
  :class:`LyapunovState`;
* the per-slot delay cost ``Y_i = T_i^d + T_i^e`` (Eqs. 12-14) —
  :func:`slot_cost`;
* the drift-plus-penalty objective of P1' (Eq. 18) and its per-device
  decentralized solvers, each batched over the fleet —
  :class:`DriftPlusPenaltyPolicy` (grid-and-refine minimisation) and
  :class:`BalanceOffloadingPolicy` (the paper's Cauchy-Schwarz balance rule
  ``T_i^d ≈ T_i^e``, Eq. 20);
* the fixed-ratio and capability-based baselines of Test Case 4.

Tasks are fluid (fractional counts), matching the paper's continuous
relaxation ``0 ≤ x_i(t) ≤ 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple, Protocol, Sequence, runtime_checkable

import numpy as np

from ..hardware import NetworkProfile, Platform
from ..models.multi_exit import PartitionedModel
from .resource_allocation import floored_edge_allocation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .vectorized import FleetParams, SiteColumns

#: Numerical floor used when a denominator is a compute share that the
#: corresponding numerator guarantees is only reached with zero work.
_EPS = 1e-12


@dataclass(frozen=True)
class DeviceConfig:
    """One end device attached to the edge server.

    Attributes:
        name: Device name (for reports).
        flops: ``F_i^d`` — device throughput.
        link: ``(B_i^e, L_i^e)`` — the device↔edge hop.
        mean_arrivals: ``k_i`` — expected tasks per slot, used by the
            resource allocator and the policies; realised arrivals come from
            the simulator's arrival process.
        overhead: Per-task framework overhead in seconds (see
            :class:`repro.hardware.Platform.per_task_overhead`).
    """

    name: str
    flops: float
    link: NetworkProfile
    mean_arrivals: float
    overhead: float = 0.0

    def __post_init__(self) -> None:
        # A chained comparison is False for NaN, so NaN fails too.
        if not 0 < self.flops < math.inf:
            raise ValueError(f"device {self.name!r} needs finite FLOPS > 0")
        if not 0 <= self.mean_arrivals < math.inf:
            raise ValueError("mean arrivals must be finite and non-negative")
        if not 0 <= self.overhead < math.inf:
            raise ValueError("overhead must be finite and non-negative")

    @classmethod
    def from_platform(
        cls,
        platform: Platform,
        link: NetworkProfile,
        mean_arrivals: float,
        name: str | None = None,
    ) -> "DeviceConfig":
        return cls(
            name=name if name is not None else platform.name,
            flops=platform.flops,
            link=link,
            mean_arrivals=mean_arrivals,
            overhead=platform.per_task_overhead,
        )


def _column(values) -> np.ndarray:
    """A read-only float64 copy of ``values``."""
    column = np.array(values, dtype=np.float64)
    column.flags.writeable = False
    return column


class LiveFleet(Sequence[DeviceConfig]):
    """One slot's device configs, held as columns.

    A dynamic environment's ``devices_at`` returns one of these: the
    deployed ``base`` configs plus read-only float64 ``flops``,
    ``bandwidth`` and ``latency`` columns for the slot (and the base
    ``overhead`` column).  Array consumers read the columns.  Indexing
    builds the :class:`DeviceConfig` a per-device consumer sees, once
    per device: the base config itself where the slot leaves it
    unchanged, otherwise a copy with the live values as Python floats.
    A fleet compares equal to the tuple of configs it builds.

    :meth:`of` reads a fleet off valid configs; :meth:`with_columns`
    derives a slot's fleet from it and checks the columns with the
    conditions of :class:`DeviceConfig` and
    :class:`~repro.hardware.NetworkProfile`: the first failing device
    raises the error its constructor raises.
    """

    __slots__ = ("base", "flops", "bandwidth", "latency", "overhead", "_built")

    def __init__(
        self,
        base: Sequence[DeviceConfig],
        flops,
        bandwidth,
        latency,
        overhead,
    ):
        self.base = tuple(base)
        self.flops = _column(flops)
        self.bandwidth = _column(bandwidth)
        self.latency = _column(latency)
        self.overhead = _column(overhead)
        self._built: list[DeviceConfig | None] = [None] * len(self.base)
        shape = (len(self.base),)
        if not (
            self.flops.shape
            == self.bandwidth.shape
            == self.latency.shape
            == self.overhead.shape
            == shape
        ):
            raise ValueError(f"a live fleet needs {shape[0]} values per column")

    @classmethod
    def of(
        cls, devices: Sequence[DeviceConfig], last: "LiveFleet | None" = None
    ) -> "LiveFleet":
        """``devices`` as a live fleet: itself when it is one, ``last``
        when ``last`` was read off this very tuple, else the configs'
        columns."""
        if isinstance(devices, LiveFleet):
            return devices
        if last is not None and last.base is devices:
            return last
        return cls(
            devices,
            [d.flops for d in devices],
            [d.link.bandwidth for d in devices],
            [d.link.latency for d in devices],
            [d.overhead for d in devices],
        )

    def with_columns(
        self, *, flops=None, bandwidth=None, latency=None
    ) -> "LiveFleet":
        """A fleet over the same base with the given columns replaced,
        checked."""
        fleet = LiveFleet(
            self.base,
            self.flops if flops is None else flops,
            self.bandwidth if bandwidth is None else bandwidth,
            self.latency if latency is None else latency,
            self.overhead,
        )
        # A comparison is False for NaN, so NaN fails too.
        ok = (
            (fleet.flops > 0)
            & (fleet.flops < math.inf)
            & (fleet.bandwidth > 0)
            & (fleet.bandwidth < math.inf)
            & (fleet.latency >= 0)
            & (fleet.latency < math.inf)
        )
        if not ok.all():
            fleet[int(np.argmin(ok))]  # raises the device's own error
        return fleet

    def take(self, members: Sequence[int]) -> "LiveFleet":
        """The sub-fleet of ``members`` (a sequence or an integer array),
        in their order."""
        idx = np.asarray(members, dtype=np.intp)
        base = self.base
        return LiveFleet(
            [base[i] for i in idx.tolist()],
            self.flops[idx],
            self.bandwidth[idx],
            self.latency[idx],
            self.overhead[idx],
        )

    def __len__(self) -> int:
        return len(self.base)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(len(self.base))[index])
        device = self._built[index]
        if device is None:
            device = self._built[index] = self._build(index)
        return device

    def _build(self, i: int) -> DeviceConfig:
        base = self.base[i]
        link = base.link
        flops = self.flops[i].item()
        bandwidth = self.bandwidth[i].item()
        latency = self.latency[i].item()
        same_link = bandwidth == link.bandwidth and latency == link.latency
        if flops == base.flops:
            if same_link:
                return base
            flops = base.flops
        return replace(
            base,
            flops=flops,
            link=link if same_link else NetworkProfile(bandwidth, latency),
        )

    def __iter__(self):
        if None not in self._built:  # every config built already
            return iter(self._built)
        return map(self.__getitem__, range(len(self.base)))

    def __eq__(self, other) -> bool:
        if isinstance(other, (LiveFleet, tuple)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"LiveFleet({tuple(self)!r})"


@dataclass(frozen=True)
class EdgeSystem:
    """The device/edge/cloud system the offloading policies control.

    Attributes:
        devices: The connected end devices.
        edge_flops: ``F^e`` — total edge throughput, shared via ``shares``.
        cloud_flops: ``F^c``.
        edge_cloud: ``(B_av^c, L_av^c)`` hop.
        partition: The deployed ME-DNN partition (the paper's setting: one
            ME-DNN shared by every device).
        slot_length: τ in seconds.
        shares: Per-device edge shares ``p_i``; default is the KKT
            allocation of Appendix B.
        edge_overhead: Per-task framework overhead on the edge, seconds.
        cloud_overhead: Per-task framework overhead on the cloud, seconds.
        device_partitions: Optional per-device partitions — the
            heterogeneous-deployment *extension* (see
            :mod:`repro.core.heterogeneous`): each device class can run its
            own exit triple of the same backbone.  Empty means every device
            uses ``partition``.
    """

    devices: tuple[DeviceConfig, ...]
    edge_flops: float
    cloud_flops: float
    edge_cloud: NetworkProfile
    partition: PartitionedModel
    slot_length: float = 1.0
    shares: tuple[float, ...] = field(default=())
    edge_overhead: float = 0.0
    cloud_overhead: float = 0.0
    device_partitions: tuple[PartitionedModel, ...] = ()

    def __post_init__(self) -> None:
        if not self.devices:
            raise ValueError("need at least one device")
        # A chained comparison is False for NaN, so NaN fails too.
        if not (
            0 < self.edge_flops < math.inf and 0 < self.cloud_flops < math.inf
        ):
            raise ValueError("edge and cloud FLOPS must be finite and positive")
        if not 0 < self.slot_length < math.inf:
            raise ValueError("slot length must be finite and positive")
        if not self.shares:
            shares = floored_edge_allocation(
                [d.flops for d in self.devices],
                [d.mean_arrivals for d in self.devices],
                self.edge_flops,
            )
            object.__setattr__(self, "shares", tuple(shares))
        if len(self.shares) != len(self.devices):
            raise ValueError("shares must match devices")
        if min(self.shares) < -1e-9:
            raise ValueError("shares must be non-negative")
        # Negated, so that a NaN or infinite share fails too.
        if not abs(sum(self.shares) - 1.0) <= 1e-6:
            raise ValueError("shares must be finite and sum to 1")
        if not (
            0 <= self.edge_overhead < math.inf
            and 0 <= self.cloud_overhead < math.inf
        ):
            raise ValueError("overheads must be finite and non-negative")
        if self.device_partitions and len(self.device_partitions) != len(
            self.devices
        ):
            raise ValueError("device_partitions must match devices")

    @property
    def num_devices(self) -> int:
        return len(self.devices)

    @cached_property
    def fleet(self) -> LiveFleet:
        """The devices' FLOPS, link and overhead columns, read once per
        deployment: a decision handed this system with its own devices
        reads these.  Not a field, so ``dataclasses.replace`` gives a new
        system a fresh one and checkpoint fingerprints ignore it."""
        return LiveFleet.of(self.devices)

    def partition_for(self, index: int) -> PartitionedModel:
        """The partition device ``index`` runs (per-device override or the
        shared deployment)."""
        if self.device_partitions:
            return self.device_partitions[index]
        return self.partition


def edge_compute_split(
    x: float, share: float, edge_flops: float, partition: PartitionedModel
) -> tuple[float, float]:
    """Split device ``i``'s edge slice between first- and second-block work.

    Eq. 9: ``F_{i,1}^e / F_{i,2}^e = x·μ₁ / ((1−σ₁)·μ₂)`` with
    ``F_{i,1}^e + F_{i,2}^e = p_i·F^e``.

    Returns:
        ``(F_{i,1}^e, F_{i,2}^e)``.
    """
    slice_flops = share * edge_flops
    first_weight = x * partition.mu1
    second_weight = (1.0 - partition.sigma1) * partition.mu2
    total = first_weight + second_weight
    if total <= 0.0:
        # No work of either kind heads to the edge; the split is moot.
        return 0.0, slice_flops
    f1 = slice_flops * first_weight / total
    return f1, slice_flops - f1


def feasible_ratio_interval(
    device: DeviceConfig,
    partition: PartitionedModel,
    slot_length: float,
    arrivals: float,
) -> tuple[float, float]:
    """The interval of ``x`` satisfying the transmission constraint (Eq. 8):

        D_i·d₀ + A_i·(1−σ₁)·d₁ ≤ B_i^e·(τ − L_i^e).

    The left side is affine in ``x``, so the feasible set is an interval
    intersected with ``[0, 1]``.  When no ``x`` is feasible (the slot cannot
    carry even the best-case traffic), the least-violating endpoint is
    returned as a degenerate interval — the best-effort choice a real
    system would make.
    """
    if arrivals < 0:
        raise ValueError("arrivals must be non-negative")
    budget = device.link.bandwidth * (slot_length - device.link.latency)
    if budget <= 0:
        # The hop's latency eats the whole slot: nothing can be sent, so the
        # only defensible ratio is full-local.
        return (0.0, 0.0)
    if arrivals == 0:
        return (0.0, 1.0)
    base = arrivals * (1.0 - partition.sigma1) * partition.d1  # x = 0 load
    slope = arrivals * partition.d0 - base  # load(x) = base + slope·x
    if abs(slope) < _EPS:
        return (0.0, 1.0) if base <= budget else (0.0, 0.0)
    boundary = (budget - base) / slope
    if slope > 0:
        # Offloading raw inputs is the heavier direction.
        if boundary < 0:
            return (0.0, 0.0)
        return (0.0, min(1.0, boundary))
    # slope < 0: keeping tasks local (intermediate uploads) is heavier.
    if boundary > 1:
        return (1.0, 1.0)
    return (max(0.0, boundary), 1.0)


@dataclass(frozen=True)
class DeviceSlotCost:
    """All Eq. 12-14 components for one device in one slot.

    Times are *summed over the slot's arriving tasks* (the paper's ``Y_i``
    convention), so dividing by ``arrivals`` gives the slot's mean TCT.
    """

    x: float
    arrivals: float
    local_tasks: float  # A_i(t)
    offloaded_tasks: float  # D_i(t)
    wait_local: float  # C_{i,1}^d — drain the device backlog Q_i
    proc_local: float  # C_{i,2}^d — processing + intra-slot queueing
    trans_local: float  # C_{i,3}^d — intermediate uploads of non-exited tasks
    trans_edge: float  # C_{i,1}^e — raw input uploads of offloaded tasks
    wait_edge: float  # C_{i,2}^e — drain the edge backlog H_i
    proc_edge: float  # C_{i,3}^e — processing + intra-slot queueing
    tail: float  # second/third-block time of non-exited tasks
    service_local: float  # b_i(t) — device first-block capacity per slot
    service_edge: float  # c_i(t) — edge first-block capacity per slot
    edge_first_flops: float  # F_{i,1}^e
    edge_second_flops: float  # F_{i,2}^e

    @property
    def t_device(self) -> float:
        """``T_i^d`` (Eq. 12)."""
        return self.wait_local + self.proc_local + self.trans_local

    @property
    def t_edge(self) -> float:
        """``T_i^e`` (Eq. 13)."""
        return self.trans_edge + self.wait_edge + self.proc_edge

    @property
    def y(self) -> float:
        """``Y_i`` (Eq. 14) — the paper's per-slot cost."""
        return self.t_device + self.t_edge

    @property
    def total_time(self) -> float:
        """End-to-end summed latency including the edge/cloud tail."""
        return self.y + self.tail

    @property
    def mean_tct(self) -> float:
        """Mean task completion time of this slot's arrivals."""
        if self.arrivals <= 0:
            return 0.0
        return self.total_time / self.arrivals


def slot_cost(
    device: DeviceConfig,
    system: EdgeSystem,
    x: float,
    arrivals: float,
    queue_local: float,
    queue_edge: float,
    share: float,
    include_tail: bool = True,
    partition: PartitionedModel | None = None,
) -> DeviceSlotCost:
    """Evaluate Eqs. 12-14 for one device and one candidate ratio ``x``.

    Args:
        device: The device's configuration (uses its *current* link, which a
            dynamic environment may have overridden for this slot).
        system: The shared system (edge/cloud capacity, partition, τ).
        x: Offloading ratio to evaluate.
        arrivals: ``M_i(t)`` — tasks arriving this slot.
        queue_local: ``Q_i(t)`` backlog at the device.
        queue_edge: ``H_i(t)`` backlog of this device's tasks at the edge.
        share: ``p_i`` — this device's edge slice.
        include_tail: Add the policy-independent second/third-block latency
            of non-exited tasks (the paper's figures report full TCT; the
            Lyapunov objective itself uses only ``Y_i``).
        partition: Per-device partition override (heterogeneous extension);
            defaults to the system's shared deployment.
    """
    if not -1e-9 <= x <= 1.0 + 1e-9:
        raise ValueError(f"offloading ratio {x} out of [0, 1]")
    x = min(max(x, 0.0), 1.0)  # absorb float round-off from grid arithmetic
    if arrivals < 0 or queue_local < 0 or queue_edge < 0:
        raise ValueError("arrivals and queue lengths must be non-negative")
    part = partition if partition is not None else system.partition
    tau = system.slot_length
    a_i = (1.0 - x) * arrivals
    d_i = x * arrivals
    f1, f2 = edge_compute_split(x, share, system.edge_flops, part)

    # Per-task first-block service times (compute + framework overhead).
    unit_local = part.mu1 / device.flops + device.overhead

    # Device side (Eq. 12).
    wait_local = a_i * queue_local * unit_local
    proc_local = a_i * unit_local + a_i * max(a_i - 1.0, 0.0) / 2.0 * unit_local
    trans_local = (
        (1.0 - part.sigma1) * a_i * device.link.transfer_time(part.d1)
        if a_i > 0
        else 0.0
    )

    # Edge side (Eq. 13).  All terms carry a D_i factor, so a zero F_{i,1}^e
    # only matters when D_i > 0 (the policy should not offload into a zero
    # slice; if it does, the cost is rightly enormous but finite).
    trans_edge = d_i * device.link.transfer_time(part.d0) if d_i > 0 else 0.0
    if d_i > 0:
        f1_safe = max(f1, _EPS * system.edge_flops)
        unit_edge = part.mu1 / f1_safe + system.edge_overhead
        wait_edge = d_i * queue_edge * unit_edge
        proc_edge = d_i * unit_edge + d_i * max(d_i - 1.0, 0.0) / 2.0 * unit_edge
    else:
        wait_edge = 0.0
        proc_edge = 0.0

    # Service rates (tasks per slot) for the queue recursions.
    service_local = tau / unit_local
    service_edge = (
        tau / (part.mu1 / f1 + system.edge_overhead) if f1 > 0 else 0.0
    )

    tail = 0.0
    if include_tail:
        surviving_first = (1.0 - part.sigma1) * arrivals
        if surviving_first > 0 and part.mu2 > 0:
            f2_safe = max(f2, _EPS * system.edge_flops)
            tail += surviving_first * (
                part.mu2 / f2_safe + system.edge_overhead
            )
        surviving_second = (1.0 - part.sigma2) * arrivals
        if surviving_second > 0:
            tail += surviving_second * (
                system.edge_cloud.transfer_time(part.d2)
                + part.mu3 / system.cloud_flops
                + system.cloud_overhead
            )

    return DeviceSlotCost(
        x=x,
        arrivals=arrivals,
        local_tasks=a_i,
        offloaded_tasks=d_i,
        wait_local=wait_local,
        proc_local=proc_local,
        trans_local=trans_local,
        trans_edge=trans_edge,
        wait_edge=wait_edge,
        proc_edge=proc_edge,
        tail=tail,
        service_local=service_local,
        service_edge=service_edge,
        edge_first_flops=f1,
        edge_second_flops=f2,
    )


@dataclass
class LyapunovState:
    """The backlog vector ``Θ(t) = [Q(t), H(t)]`` with the Eq. 10-11 updates."""

    queue_local: list[float]
    queue_edge: list[float]

    @classmethod
    def zeros(cls, num_devices: int) -> "LyapunovState":
        return cls(
            queue_local=[0.0] * num_devices, queue_edge=[0.0] * num_devices
        )

    def update(self, index: int, cost: DeviceSlotCost) -> None:
        """Advance device ``index``'s queues one slot:
        ``Q ← max(Q − b, 0) + A`` and ``H ← max(H − c, 0) + D``."""
        self.queue_local[index] = (
            max(self.queue_local[index] - cost.service_local, 0.0)
            + cost.local_tasks
        )
        self.queue_edge[index] = (
            max(self.queue_edge[index] - cost.service_edge, 0.0)
            + cost.offloaded_tasks
        )

    def lyapunov_value(self) -> float:
        """``L(Θ) = ½·Σ (Q_i² + H_i²)``."""
        return 0.5 * (
            sum(q * q for q in self.queue_local)
            + sum(h * h for h in self.queue_edge)
        )

    def total_backlog(self) -> float:
        return sum(self.queue_local) + sum(self.queue_edge)


def drift_plus_penalty(
    cost: DeviceSlotCost, queue_local: float, queue_edge: float, v: float
) -> float:
    """The per-device P1' objective (Eq. 19):
    ``V·Y_i + Q_i·(A_i − b_i) + H_i·(D_i − c_i)``.

    Note the penalty uses ``Y_i`` only (the Lyapunov development covers the
    first-block queues); the tail is policy-independent and excluded.
    """
    return (
        v * cost.y
        + queue_local * (cost.local_tasks - cost.service_local)
        + queue_edge * (cost.offloaded_tasks - cost.service_edge)
    )


class SlotColumns(NamedTuple):
    """One slot's per-device columns: what a row-separable policy decides
    from, and what :meth:`~repro.core.vectorized.VectorizedSlotEngine.
    slot_costs` prices the slot with (see :meth:`~repro.core.vectorized.
    VectorizedSlotEngine.columns`).

    ``params`` holds each device's live columns, its deployed share (no
    cold-start scale) and its partition row under its rung; ``sites``
    its serving site's values, or ``None`` where ``system``'s scalars
    apply (a single edge); ``system`` supplies the slot length and the
    cloud either way."""

    params: "FleetParams"
    sites: "SiteColumns | None"
    system: EdgeSystem


@runtime_checkable
class OffloadingPolicy(Protocol):
    """Chooses per-device offloading ratios for the coming slot.

    The protocol is ``runtime_checkable`` so the policy registry
    (:mod:`repro.policies`) can reject objects that do not implement the
    ``decide`` seam before a tournament spends wall-clock on them.  A
    policy *may* additionally expose ``reset()`` to rewind internal
    state (slot cursors, learned tables, RNG streams) to its
    just-constructed value; stateless policies simply omit it.

    A policy may also declare ``row_separable = True`` at class level:
    each device's ratio is a function of its own row of the slot's
    columns alone (its device, share, partition, site, queues and
    expected arrivals), with no state carried between calls, so one
    call over a whole federation equals one call per shard.  The fluid
    array plane then consults it once per slot, passing the slot's
    :class:`SlotColumns` as ``system`` (the
    columns the slot is priced with, shares not discounted by cold
    starts), the array-backed :class:`~repro.core.vectorized.FleetState`
    as ``state``, the expected arrivals as a float64 column and no
    ``devices``.  Anything else — stateful, learning, fenced, resilient
    or centralized policies, and every call on the scalar plane, the
    event engines and the live runtime — receives an
    :class:`EdgeSystem` per shard.  The declaration is read from the
    object, so a subclass that changes ``decide`` must redeclare it.

    The row-separable policies here (:class:`DriftPlusPenaltyPolicy`,
    :class:`BalanceOffloadingPolicy`, :class:`FixedRatioPolicy`) decide
    through one array path either way: a system is turned into its
    slot's columns first, read from :attr:`EdgeSystem.fleet` when the
    slot's devices are the deployed ones.
    """

    def decide(
        self,
        system: EdgeSystem,
        state: LyapunovState,
        arrivals: Sequence[float],
        devices: Sequence[DeviceConfig] | None = None,
    ) -> list[float]:
        """Return ``x_i(t)`` for every device.

        ``devices`` overrides the system's device configs for this slot
        (the dynamic environment substitutes per-slot links this way);
        ``arrivals`` are the *expected* arrivals the policy plans against.
        A row-separable policy may receive a slot's :class:`SlotColumns`
        as ``system``.
        """
        ...


@dataclass
class DriftPlusPenaltyPolicy:
    """Decentralized exact minimisation of the P1' objective (Eq. 18).

    Each device independently minimises ``V·Y_i + Q_i·(A_i−b_i) +
    H_i·(D_i−c_i)`` over its feasible ratio interval — the per-slot problem
    is separable across devices once the shares ``p_i`` are fixed, so the
    decentralized solution is also the centralized optimum of P1'.

    Every decision is one call to :func:`repro.core.vectorized.dpp_decide`,
    which runs the grid-and-refine search (33 ratios, two refinement
    rounds) for all devices at once — at any fleet size, one device
    included, from a system or a slot's columns (row-separable).  The
    test suite keeps the per-device scalar loop it replaced as a bitwise
    reference.

    Attributes:
        v: The Lyapunov trade-off parameter ``V`` (larger → lower delay,
            larger queues; Theorem 3's ``O(B/V)`` gap).
        vectorized: Accepted for compatibility with callers that still
            pass it; it selects nothing, since there is only one solver.
    """

    v: float = 50.0
    vectorized: bool = False

    row_separable = True

    def __post_init__(self) -> None:
        # A chained comparison is False for NaN, so NaN fails too.
        if not 0 <= self.v < math.inf:
            raise ValueError("V must be finite and non-negative")

    def decide(
        self,
        system: EdgeSystem,
        state: LyapunovState,
        arrivals: Sequence[float],
        devices: Sequence[DeviceConfig] | None = None,
    ) -> list[float]:
        from .vectorized import dpp_decide

        return dpp_decide(system, state, arrivals, devices, v=self.v)


@dataclass
class BalanceOffloadingPolicy:
    """The paper's closed decentralized rule (Eq. 20 discussion): pick the
    ``x`` where the device-side and edge-side costs balance,
    ``T_i^d(x) = T_i^e(x)``, within the feasible interval.

    ``T_i^d`` falls monotonically from its ``x=0`` value to 0 at ``x=1``
    while ``T_i^e`` rises from 0, so a bisection on their difference finds
    the balance point; the Cauchy-Schwarz argument in §III-D4 shows this
    minimises the large-``V`` limit of the Eq. 19 objective.

    Every decision is one call to
    :func:`repro.core.vectorized.balance_decide`, which bisects every
    device at once — at any fleet size, from a system or a slot's columns
    (row-separable).  The test suite keeps the per-device loop it
    replaced as an exact (``==``) reference.
    """

    tolerance: float = 1e-6
    max_iterations: int = 60

    row_separable = True

    def __post_init__(self) -> None:
        # Chained comparisons are False for NaN, so NaN fails too.
        if not 0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be finite and positive")
        if not 1 <= self.max_iterations < math.inf:
            raise ValueError("max_iterations must be finite and at least 1")

    def decide(
        self,
        system: EdgeSystem,
        state: LyapunovState,
        arrivals: Sequence[float],
        devices: Sequence[DeviceConfig] | None = None,
    ) -> list[float]:
        from .vectorized import balance_decide

        return balance_decide(
            system,
            state,
            arrivals,
            devices,
            tolerance=self.tolerance,
            max_iterations=self.max_iterations,
        )


@dataclass(frozen=True)
class FixedRatioPolicy:
    """A constant offloading ratio — D-only (0), E-only (1), and the fixed
    ratios of the benchmark systems (the paper fixes its benchmarks at 0).

    A constraint-aware decision is one Eq. 8 clamp over the slot's
    columns (:func:`repro.core.vectorized.feasible_ratio_intervals`), at
    any fleet size, from a system or a slot's columns (row-separable);
    the test suite keeps the per-device loop as an exact (``==``)
    reference.

    Attributes:
        ratio: The constant ``x``.
        respect_constraint: If true (default), clamp into the Eq. 8
            feasible interval — a constraint-aware fixed policy.  The
            paper's benchmark systems are *not* aware of Eq. 8 (they simply
            saturate their uplinks), so the benchmark schemes disable this.
    """

    ratio: float
    respect_constraint: bool = True

    row_separable = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.ratio <= 1.0:
            raise ValueError("ratio must be in [0, 1]")

    def decide(
        self,
        system: EdgeSystem,
        state: LyapunovState,
        arrivals: Sequence[float],
        devices: Sequence[DeviceConfig] | None = None,
    ) -> list[float]:
        if not self.respect_constraint:
            if isinstance(system, SlotColumns):
                return [self.ratio] * system.params.num_devices
            return [self.ratio] * len(system.devices if devices is None else devices)
        from .vectorized import _columns_of, feasible_ratio_intervals

        params, _, system = _columns_of(system, devices)
        lo, hi = feasible_ratio_intervals(params, system.slot_length, arrivals)
        return np.minimum(np.maximum(self.ratio, lo), hi).tolist()


@dataclass(frozen=True)
class CapabilityBasedPolicy:
    """Test Case 4's *cap_based* baseline: offload in proportion to where
    the compute sits, ``x_i = p_i·F^e / (F_i^d + p_i·F^e)`` — static, so it
    cannot react to queue state or arrival bursts."""

    def decide(
        self,
        system: EdgeSystem,
        state: LyapunovState,
        arrivals: Sequence[float],
        devices: Sequence[DeviceConfig] | None = None,
    ) -> list[float]:
        devs = tuple(devices) if devices is not None else system.devices
        ratios: list[float] = []
        for i, device in enumerate(devs):
            slice_flops = system.shares[i] * system.edge_flops
            want = slice_flops / (device.flops + slice_flops)
            lo, hi = feasible_ratio_interval(
                device, system.partition_for(i), system.slot_length, arrivals[i]
            )
            ratios.append(min(max(want, lo), hi))
        return ratios
