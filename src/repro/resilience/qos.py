"""QoS-class serving realism: classes, model memory, and cold starts.

The paper's runtime assumes an always-warm edge with unbounded model
memory and a single traffic class.  This module is the robustness layer
that drops those idealisations, in three pieces:

* **QoS classes** — every device (and so every task it generates) gets a
  seeded class (``gold`` / ``standard`` / ``batch`` by default) with a
  weight, a deadline, and a serving cost.  The class drives admission,
  the degradation ladder, and per-class SLO accounting.
* **Model memory + cold starts** — each edge has a memory budget over
  the resident partition footprints (derived from the model profiles'
  FLOP counts).  A partition that is not resident pays a seeded load
  latency before its slice serves: a hold on the edge-slice frontier in
  the event engines, a capacity discount in the fluid paths, and a
  warm-up job on the live slice.  Eviction is utility-weighted LRU, so
  under pressure the batch-class slices thrash while gold stays warm.
* **Class- and cost-aware degradation** — the PR 5 governor ladder gains
  per-class rung biases (gold degrades one rung later, batch one rung
  earlier) and an optional per-run shed *budget*: devices the ladder
  would shed are processed lowest-utility-per-cost first, and once the
  budget is spent the remainder fall back to first-exit-only service
  instead of shedding (hourly-budget enforcement a la
  faas-offloading-sim).

Determinism contract: everything here runs at slot boundaries, consumes
**no draws** from the engines' control or exit RNG streams (class
assignment and load jitter come from dedicated
:class:`numpy.random.SeedSequence` children of the run seed, drawn once
at construction), and is shared verbatim by all five execution paths —
so the fluid scalar/vectorized and event scalar/fast identity contracts
survive with QoS active.  The per-device steps are elementwise float64
array expressions that repeat the scalar operations in their order, and
every order-sensitive sum (the shed budget, the residency total, the
per-class flow) stays sequential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .overload import (
    MODE_FIRST_EXIT,
    MODE_FULL,
    MODE_SHED,
    degrade_partition,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.offloading import EdgeSystem
    from ..models.multi_exit import PartitionedModel
    from ..sim.streaming import StreamingTaskStats
    from ..sim.tasks import TaskRecord

# Dedicated SeedSequence salts: class assignment and load jitter draw
# from their own streams so QoS can never shift the engines' control or
# exit sequences (the governed-vs-ungoverned draw-parity argument from
# PR 5 extends unchanged).
_CLASS_SALT = 0x51A5C1
_JITTER_SALT = 0x51A5C2

#: Resident-footprint proxy: ~2 bytes of weights per block FLOP (one
#: multiply-accumulate per parameter, float16 weights).  Only *relative*
#: footprints matter — budgets are expressed as a fraction of the
#: fleet's total footprint.
_BYTES_PER_FLOP = 2.0


@dataclass(frozen=True)
class QoSClass:
    """One traffic class.

    Attributes:
        name: Class label carried on tasks and metrics keys.
        share: Relative weight of the devices assigned to this class
            (normalised over the configured classes by the seeded
            assignment, so any finite positive value is legal).
        weight: Utility per unit of demand — orders admission under a
            shed budget and protects the class's warm-pool residency.
        deadline: Per-class SLO deadline in virtual seconds.
        rung_bias: Ladder offset while the governor is degraded: a
            negative bias degrades later (gold), a positive one earlier
            (batch).  Applied only when the global rung is past
            :data:`~repro.resilience.overload.MODE_FULL`.
        cost: Serving cost per unit demand; budget shedding drops the
            lowest ``weight / cost`` first.
    """

    name: str
    share: float
    weight: float
    deadline: float
    rung_bias: int = 0
    cost: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("class name must be non-empty")
        # Chained comparisons are False for NaN, so NaN fails too.
        if not 0 < self.share < math.inf:
            raise ValueError("class share must be finite and positive")
        if not 0 < self.weight < math.inf:
            raise ValueError("class weight must be finite and positive")
        if not 0 < self.deadline < math.inf:
            raise ValueError("class deadline must be finite and positive")
        if not -math.inf < self.rung_bias < math.inf:
            raise ValueError("class rung_bias must be finite")
        if not 0 < self.cost < math.inf:
            raise ValueError("class cost must be finite and positive")

    @property
    def utility_per_cost(self) -> float:
        return self.weight / self.cost


#: The default three-class mix: a small latency-critical gold tier, the
#: standard bulk, and a deadline-tolerant batch tier that absorbs
#: degradation first.
DEFAULT_CLASSES = (
    QoSClass("gold", share=0.2, weight=4.0, deadline=1.0, rung_bias=-1),
    QoSClass("standard", share=0.5, weight=2.0, deadline=3.0, rung_bias=0),
    QoSClass("batch", share=0.3, weight=1.0, deadline=10.0, rung_bias=1),
)


@dataclass(frozen=True)
class QoSConfig:
    """Immutable QoS layer configuration.

    Attributes:
        classes: The traffic classes.  Order matters: class indices (and
            per-class metric rows) follow this tuple.
        memory_fraction: Edge memory budget as a fraction of the sum of
            all member footprints.  ``1.0`` fits the whole fleet (cold
            starts only at time zero and after outages); smaller values
            force utility-weighted eviction and re-load thrash.
        cold_start_seconds: Base partition load latency.
        cold_start_jitter: Per-device load latency spread: device ``i``
            loads in ``cold_start_seconds * (1 + jitter * u_i)`` with
            ``u_i`` a dedicated seeded uniform drawn once per run.
        shed_budget: Optional per-run budget, in ``weight x expected
            demand`` units, on how much utility the ladder may shed.
            ``None`` reproduces PR 5's unlimited uniform shedding.
        class_map: Explicit per-device class indices, overriding the
            seeded assignment — the federation wrappers use this to hand
            each shard its members' *global* classes.
    """

    classes: tuple[QoSClass, ...] = DEFAULT_CLASSES
    memory_fraction: float = 1.0
    cold_start_seconds: float = 0.25
    cold_start_jitter: float = 0.5
    shed_budget: float | None = None
    class_map: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if not self.classes:
            raise ValueError("need at least one QoS class")
        names = [c.name for c in self.classes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate class names: {names}")
        if not 0 < self.memory_fraction < math.inf:
            raise ValueError("memory_fraction must be finite and positive")
        if not 0 <= self.cold_start_seconds < math.inf:
            raise ValueError("cold_start_seconds must be finite and >= 0")
        if not 0 <= self.cold_start_jitter < math.inf:
            raise ValueError("cold_start_jitter must be finite and >= 0")
        if self.shed_budget is not None and not (
            0 <= self.shed_budget < math.inf
        ):
            raise ValueError("shed_budget must be finite and >= 0 (or None)")
        if self.class_map is not None:
            k = len(self.classes)
            for c in self.class_map:
                if not 0 <= c < k:
                    raise ValueError(
                        f"class_map index {c} out of range for {k} classes"
                    )

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.classes)



def assign_classes(
    config: QoSConfig, num_devices: int, seed: int
) -> tuple[int, ...]:
    """Seeded per-device class assignment (indices into
    ``config.classes``).

    Draws from a dedicated SeedSequence child of ``seed`` — independent
    of the engines' control and exit streams, so the same seed yields
    the same assignment on every execution path.  An explicit
    ``class_map`` short-circuits the draw (federation shards pass their
    members' global classes through it).
    """
    if config.class_map is not None:
        if len(config.class_map) != num_devices:
            raise ValueError(
                f"class_map covers {len(config.class_map)} devices, "
                f"system has {num_devices}"
            )
        return tuple(int(c) for c in config.class_map)
    shares = np.array([c.share for c in config.classes], dtype=np.float64)
    cumulative = np.cumsum(shares / shares.sum())
    rng = np.random.default_rng(np.random.SeedSequence([seed, _CLASS_SALT]))
    draws = rng.random(num_devices)
    idx = np.searchsorted(cumulative, draws, side="right")
    return tuple(int(min(i, len(config.classes) - 1)) for i in idx)


def partition_footprint(partition: "PartitionedModel") -> float:
    """Edge-resident memory footprint of a partition, in proxy bytes.

    The edge hosts blocks 1 and 2 (device offload target and the
    Second-exit block), so the footprint scales with ``mu1 + mu2`` —
    derived from the model profiles' FLOP counts, as the profile layer
    carries no explicit weight sizes.
    """
    return _BYTES_PER_FLOP * (partition.mu1 + partition.mu2)


class QoSState:
    """Per-run QoS control plane: classes, warm pool, and shed budget.

    One instance per execution path (or per federation shard), built
    from the run's seed and system.  All methods run at slot boundaries
    on plain Python and NumPy state and are pickle-able, so the fast and
    fluid engines checkpoint the instance directly.

    Warm-pool mechanics (slot granularity, all paths identical):

    * A device's slice is **requested** when it expects demand and its
      rung still uses the edge (below
      :data:`~repro.resilience.overload.MODE_FIRST_EXIT`).
    * Requested partitions are processed highest-weight first.  A
      non-resident one loads: unpinned residents are evicted lowest
      ``(weight, last-used, device)`` first until it fits.  When the
      already-pinned set fills the budget, the load is *transient* —
      the slice serves cold this slot and holds no residency, so an
      over-subscribed edge thrashes its lowest classes every slot.
    * A loading slice becomes warm at ``ready_at = w0 + load_i`` with
      ``load_i`` the device's pre-drawn seeded latency.  Event engines
      hold the slice frontier until then; fluid paths discount the
      slice's share by the cold overlap; the live runtime enqueues a
      warm-up job.
    * An edge outage flushes the pool — PR 6 failovers and PR 8
      restarts land cold and must re-warm.
    * One slot costs O(N log N) for N devices: one sort of the requested
      devices, at most one sort of the unpinned residents (walked with a
      cursor across every load of the slot), and a running residency
      total.  The total matches a fresh re-sum bit for bit because every
      footprint is an integer-valued float (``2·(μ₁+μ₂)`` FLOPs, at most
      ~2.1e10 for the zoo models), so each partial sum is exact below
      2**53 whatever the order.
    """

    def __init__(
        self,
        config: QoSConfig,
        system: "EdgeSystem",
        seed: int,
        *,
        num_devices: int | None = None,
        footprints: Sequence[float] | None = None,
        budget: float | None = None,
    ):
        self.config = config
        n = system.num_devices if num_devices is None else int(num_devices)
        self.num_devices = n
        self.class_of = assign_classes(config, n, seed)
        if footprints is None:
            footprints = [
                partition_footprint(system.partition_for(i)) for i in range(n)
            ]
        self.footprints = [float(f) for f in footprints]
        if budget is None:
            budget = config.memory_fraction * sum(self.footprints)
        self.budget = float(budget)
        jitter_rng = np.random.default_rng(
            np.random.SeedSequence([seed, _JITTER_SALT])
        )
        draws = jitter_rng.random(n)
        self.load_seconds = [
            config.cold_start_seconds
            * (1.0 + config.cold_start_jitter * float(draws[i]))
            for i in range(n)
        ]
        classes = config.classes
        index = np.asarray(self.class_of, dtype=np.intp)
        #: Each device's class weight and rung bias, for the array steps.
        self.device_weights = np.array([c.weight for c in classes])[index]
        self.device_biases = np.array([c.rung_bias for c in classes])[index]
        # device -> last-used slot (membership == residency) and
        # device -> absolute warm time for loads still in progress.
        self.resident: dict[int, int] = {}
        self.ready_at: dict[int, float] = {}
        # Loads that *began* on the most recent on_slot call, as
        # (device, duration) pairs.
        self.loads_this_slot: list[tuple[int, float]] = []
        self.shed_spent = 0.0
        self.cold_hits = 0
        self.evictions = 0

    # -- class helpers -------------------------------------------------------

    def class_at(self, device: int) -> QoSClass:
        return self.config.classes[self.class_of[device]]

    @property
    def class_names(self) -> tuple[str, ...]:
        return self.config.names

    # -- degradation plan ----------------------------------------------------

    def plan_modes(
        self, global_mode: int, expected: Sequence[float]
    ) -> np.ndarray:
        """Per-device ladder rungs for this slot.

        Starts from the governor's global rung, applies each class's
        bias (only while degraded — a healthy fleet is not pushed into
        degradation by a positive bias), then enforces the shed budget:
        devices at :data:`~repro.resilience.overload.MODE_SHED` are
        charged ``weight x expected`` in ascending utility-per-cost
        order, and once the budget is exhausted the rest are clamped to
        first-exit-only service instead of shedding.
        """
        if global_mode <= MODE_FULL:
            return np.full(self.num_devices, MODE_FULL)
        modes = np.clip(global_mode + self.device_biases, MODE_FULL, MODE_SHED)
        budget = self.config.shed_budget
        if budget is not None:
            candidates = np.flatnonzero(modes >= MODE_SHED)
            classes = self.config.classes
            class_of = self.class_of
            upc = np.array([c.utility_per_cost for c in classes])
            # Ascending (utility per cost, device): a stable sort of the
            # ascending candidates by their class's ratio.
            order = np.argsort(
                upc[np.asarray(class_of)[candidates]], kind="stable"
            )
            for i in candidates[order].tolist():
                spend = classes[class_of[i]].weight * float(expected[i])
                if self.shed_spent + spend <= budget + 1e-12:
                    self.shed_spent += spend
                else:
                    modes[i] = MODE_FIRST_EXIT
        return modes

    # -- warm pool -----------------------------------------------------------

    def requested_mask(
        self, expected: Sequence[float], modes: Sequence[int]
    ) -> np.ndarray:
        """Devices whose edge slice is needed this slot (a boolean
        array): they expect demand and their rung still routes work
        through the edge."""
        return (np.asarray(expected, dtype=np.float64) > 0.0) & (
            np.asarray(modes) < MODE_FIRST_EXIT
        )

    def on_slot(
        self, slot: int, w0: float, requested: Sequence[bool]
    ) -> list[float]:
        """Advance the warm pool one slot; return per-device absolute
        warm times (``<= w0`` means already warm — no hold)."""
        holds = [w0] * self.num_devices
        self.loads_this_slot = []
        weights = [c.weight for c in self.config.classes]
        class_of = self.class_of
        # Requested devices, highest weight first, ascending within a
        # weight: a stable sort of the ascending indices.
        order = np.flatnonzero(requested)
        order = order[
            np.argsort(-self.device_weights[order], kind="stable")
        ].tolist()
        resident, ready_at = self.resident, self.ready_at
        footprints, load_seconds = self.footprints, self.load_seconds
        limit = self.budget + 1e-9
        # Running residency total: exact in any order, because the
        # footprints are integer-valued FLOP counts (see the class
        # docstring).
        used = sum(footprints[j] for j in resident)
        pinned: set[int] = set()
        # Eviction order, built at the first load that does not fit.
        # An unpinned resident's key is fixed for the whole slot and
        # new residents are pinned, so one sorted pass serves every
        # later load: entries behind the cursor are evicted, entries
        # pinned since are skipped.
        victims: list[int] | None = None
        cursor = 0
        for i in order:
            if i in resident:
                resident[i] = slot
                pinned.add(i)
                holds[i] = ready_at.get(i, w0)
                continue
            need = footprints[i]
            if used + need > limit:
                if victims is None:
                    victims = sorted(
                        (j for j in resident if j not in pinned),
                        key=lambda j: (weights[class_of[j]], resident[j], j),
                    )
                while used + need > limit and cursor < len(victims):
                    j = victims[cursor]
                    cursor += 1
                    if j in pinned:
                        continue
                    del resident[j]
                    ready_at.pop(j, None)
                    used -= footprints[j]
                    self.evictions += 1
            self.cold_hits += 1
            warm_time = w0 + load_seconds[i]
            self.loads_this_slot.append((i, load_seconds[i]))
            holds[i] = warm_time
            if used + need > limit and pinned:
                # The pinned (higher-priority) set fills the budget: a
                # transient load — serve cold, retain nothing.
                continue
            resident[i] = slot
            ready_at[i] = warm_time
            used += need
            pinned.add(i)
        return holds

    def flush(self) -> None:
        """An edge outage or restart drops every resident partition:
        the next request per device serves cold."""
        self.resident.clear()
        self.ready_at.clear()
        self.loads_this_slot = []

    def share_scales(
        self, holds: Sequence[float], w0: float, tau: float
    ) -> np.ndarray:
        """Fluid cold-start realisation: the fraction of the slot each
        slice is warm for (floored at ``1e-9`` — a fully cold slot
        serves at epsilon capacity, never a division by zero), as a
        float64 array: ``max((τ - min(max(h - w0, 0), τ)) / τ, 1e-9)``
        elementwise, each extremum picking as the scalar one does (see
        :class:`~repro.resilience.overload.AdmissionGate`)."""
        late = np.asarray(holds, dtype=np.float64) - w0
        overlap = np.minimum(tau, np.maximum(0.0, late))
        return np.maximum(1e-9, (tau - overlap) / tau)


def apply_backpressure_by_mode(
    ratios: Sequence[float],
    queue_edge: Sequence[float],
    control,
    modes: Sequence[int],
) -> list[float]:
    """Per-device-rung twin of
    :func:`~repro.resilience.overload.apply_backpressure`: a device at
    first-exit-only or deeper goes fully local; otherwise its edge
    watermark clamps it individually.  Returns a float64 array; with a
    uniform mode vector it holds the global function's values."""
    local = (np.asarray(modes) >= MODE_FIRST_EXIT) | (
        np.asarray(queue_edge) > control.queue_high
    )
    return np.where(local, 0.0, np.asarray(ratios, dtype=np.float64))


def drain_stranded_edge_by_mode(
    queue_edge: np.ndarray,
    ratios,
    service,
    queue_high: float,
    modes,
) -> np.ndarray:
    """Drain fluid edge backlog stranded by a zero offloading ratio.

    Eq. 11's edge service ``c_i(t)`` is offload-driven (Eq. 9 gives
    ``F_{i,1}^e = 0`` at ``x_i = 0``), so backlog that made backpressure
    clamp a ratio to zero could never drain and the governor would
    deadlock at its deepest rung; the event engines' work-conserving
    FIFOs need no equivalent.  Every zero-ratio device with edge backlog
    at first-exit-only or deeper, or above ``queue_high``, drains at its
    idle slice's full first-block rate ``τ / (μ₁ / (p_i·F^e) + o^e)``,
    floored at zero.  ``service`` is a callable returning those rates,
    called only when some device is stranded.  Returns the new edge
    queues (``queue_edge`` itself when nothing drains).
    """
    stranded = (
        (queue_edge > 0.0)
        & (np.asarray(ratios) == 0.0)
        & ((np.asarray(modes) >= MODE_FIRST_EXIT) | (queue_edge > queue_high))
    )
    if not np.count_nonzero(stranded):
        return queue_edge
    # max(q - s, 0.0), picking as the scalar max does.
    drained = np.maximum(0.0, queue_edge - service())
    return np.where(stranded, drained, queue_edge)


def degrade_system_by_modes(
    system: "EdgeSystem", modes: Sequence[int]
) -> "EdgeSystem":
    """The system a per-device rung vector deploys.  A uniform vector
    degrades every partition, fleet-wide and per-device, to its rung
    (:data:`~repro.resilience.overload.MODE_FULL` returns ``system``
    itself); a mixed one pins per-device partitions to each rung,
    degrading each distinct (partition, rung) pair once and sharing the
    result between the devices that deploy it."""
    modes = np.asarray(modes)
    mode = modes[0]
    if np.count_nonzero(modes != mode):
        rungs = modes.tolist()
        degraded: dict[tuple[int, int], "PartitionedModel"] = {}
        parts = []
        for part, m in zip(
            system.device_partitions or (system.partition,) * len(rungs), rungs
        ):
            key = (id(part), m)
            if key not in degraded:
                degraded[key] = degrade_partition(part, m)
            parts.append(degraded[key])
        return replace(system, device_partitions=tuple(parts))
    if mode <= MODE_FULL:
        return system
    return replace(
        system,
        partition=degrade_partition(system.partition, mode),
        device_partitions=tuple(
            degrade_partition(p, mode) for p in system.device_partitions
        ),
    )


class QoSFlow:
    """Per-class fluid flow accounting — the fluid paths' analogue of the
    event engines' per-class task counters.

    Tracks, per class, the *generated* demand (pre-admission arrivals
    plus bounded-queue overflow), the *admitted* demand, the *shed*
    demand (gate rejections plus overflow), and the total latency of the
    admitted flow, as lists of Python floats.  A slot's contributions
    arrive in one :meth:`add` call that keeps every per-class total a
    left-to-right sum in the fluid loop's order — shared verbatim by the
    scalar and vectorized fluid paths, so the byte-identity contract
    survives.  The per-class identity is ``generated = admitted + shed``
    (flows have no drop/in-flight leg), and the rows sum to the global
    ``total_generated = total_arrivals + total_shed`` identity of
    :class:`~repro.sim.metrics.SimulationResult` by construction.
    """

    def __init__(self, num_classes: int):
        k = int(num_classes)
        self.generated = [0.0] * k
        self.admitted = [0.0] * k
        self.shed = [0.0] * k
        self.time = [0.0] * k

    #: Row order of :meth:`add`'s cells: cell ``r·k + c`` is row ``r`` of
    #: class ``c``.
    ROWS = ("generated", "admitted", "shed", "time")

    def add(self, cells: np.ndarray, values: np.ndarray) -> None:
        """Add ``values[j]`` to cell ``cells[j]`` (see :attr:`ROWS`), in
        order after the running totals: ``np.bincount`` adds its weights
        one by one, so every total is the left-to-right sum the
        per-device loop made."""
        k = len(self.generated)
        totals = np.bincount(
            np.concatenate((np.arange(4 * k), cells)),
            weights=np.concatenate(
                (self.generated, self.admitted, self.shed, self.time, values)
            ),
            minlength=4 * k,
        ).tolist()
        self.generated, self.admitted, self.shed, self.time = (
            totals[r * k : (r + 1) * k] for r in range(4)
        )

    def merge(self, other: "QoSFlow") -> None:
        """Fold another flow (a federation shard) into this one."""
        for mine, theirs in (
            (self.generated, other.generated),
            (self.admitted, other.admitted),
            (self.shed, other.shed),
            (self.time, other.time),
        ):
            for c in range(len(mine)):
                mine[c] += theirs[c]

    def identity_gaps(self, names: Sequence[str]) -> dict[str, float]:
        """Per-class ``generated - (admitted + shed)`` — zero everywhere
        when the per-class flow conservation identity holds."""
        return {
            name: self.generated[c] - (self.admitted[c] + self.shed[c])
            for c, name in enumerate(names)
        }

    def summary(
        self,
        names: Sequence[str],
        deadlines: dict[str, float] | None = None,
    ) -> dict[str, dict]:
        """Per-class flow summary with the empty-class NaN sentinels:
        every rate over a class with zero generated (or zero admitted,
        for the mean TCT) demand is ``NaN``, never ``0.0``."""
        nan = float("nan")
        out: dict[str, dict] = {}
        for c, name in enumerate(names):
            generated = self.generated[c]
            admitted = self.admitted[c]
            row = dict(
                generated=generated,
                admitted=admitted,
                shed=self.shed[c],
                total_time=self.time[c],
            )
            row["shed_rate"] = self.shed[c] / generated if generated else nan
            row["admit_rate"] = admitted / generated if generated else nan
            mean_tct = self.time[c] / admitted if admitted else nan
            row["mean_tct"] = mean_tct
            deadline = (deadlines or {}).get(name)
            if deadline is not None:
                row["deadline"] = deadline
                row["mean_within_deadline"] = (
                    mean_tct <= deadline if admitted else nan
                )
            out[name] = row
        return out


# -- per-class accounting ----------------------------------------------------


def class_counts(
    class_names: Sequence[str],
    tasks: Sequence["TaskRecord"],
    class_stats: "Sequence[StreamingTaskStats] | None",
) -> dict[str, dict[str, int]]:
    """Exact per-class SLO counters (generated / completed / dropped /
    shed / in-flight / retries), from task records or the per-class
    streaming aggregates.  Classes with zero tasks appear with all-zero
    counters — rates over them are where the NaN sentinels live (see
    :func:`class_summary`)."""
    counts = {
        name: dict(
            generated=0, completed=0, dropped=0, shed=0, in_flight=0,
            retries=0,
        )
        for name in class_names
    }
    if class_stats is not None:
        for name, stats in zip(class_names, class_stats):
            row = counts[name]
            row["generated"] = stats.generated
            row["completed"] = stats.completed
            row["dropped"] = stats.dropped
            row["shed"] = stats.shed
            row["in_flight"] = stats.in_flight
            row["retries"] = stats.retries
        return counts
    for task in tasks:
        row = counts.get(task.qos)
        if row is None:
            continue
        row["generated"] += 1
        row["retries"] += task.retries
        if task.shed:
            row["shed"] += 1
        elif task.dropped:
            row["dropped"] += 1
        elif task.done:
            row["completed"] += 1
        else:
            row["in_flight"] += 1
    return counts


def class_summary(
    class_names: Sequence[str],
    tasks: Sequence["TaskRecord"],
    class_stats: "Sequence[StreamingTaskStats] | None",
    deadlines: dict[str, float] | None = None,
) -> dict[str, dict]:
    """Per-class SLO summary block (the per-class analogue of
    :func:`repro.resilience.slo.slo_summary`).

    Empty-class sentinel convention (mirrors the empty-fleet and
    empty-shard conventions): every *rate* over a class with zero
    generated tasks is ``NaN`` — never an optimistic ``0.0`` or a
    ``ZeroDivisionError`` — so a class that produced nothing cannot
    masquerade as one that met its SLO.  Check ``math.isnan``.
    """
    nan = float("nan")
    counts = class_counts(class_names, tasks, class_stats)
    summary: dict[str, dict] = {}
    rows = class_stats if class_stats is not None else [None] * len(class_names)
    for name, stats in zip(class_names, rows):
        row = dict(counts[name])
        total = row["generated"]
        done = row["completed"]
        if total:
            row["completion_rate"] = done / total
            row["drop_rate"] = row["dropped"] / total
            row["shed_rate"] = row["shed"] / total
        else:
            row["completion_rate"] = nan
            row["drop_rate"] = nan
            row["shed_rate"] = nan
        deadline = (deadlines or {}).get(name)
        if stats is not None:
            row["mean_tct"] = stats.mean_tct if done else nan
            row["p99_tct"] = stats.percentile(99.0) if done else nan
            if deadline is not None:
                row["deadline_miss_rate"] = (
                    1.0 - stats.deadline_hit_fraction(deadline) * done / total
                    if total
                    else nan
                )
        else:
            tcts = [
                t.tct for t in tasks if t.qos == name and t.done
            ]
            row["mean_tct"] = sum(tcts) / len(tcts) if tcts else nan
            row["p99_tct"] = (
                float(np.percentile(tcts, 99.0)) if tcts else nan
            )
            if deadline is not None:
                if total:
                    hits = sum(1 for t in tcts if t <= deadline)
                    row["deadline_miss_rate"] = 1.0 - hits / total
                else:
                    row["deadline_miss_rate"] = nan
        summary[name] = row
    return summary


def class_identity_gaps(
    class_names: Sequence[str],
    tasks: Sequence["TaskRecord"],
    class_stats: "Sequence[StreamingTaskStats] | None",
) -> dict[str, int]:
    """Per-class ``generated - (completed + dropped + shed +
    in_flight)`` — all zero when the per-class conservation identity
    holds (and the per-class counters then sum to the global identity
    by construction)."""
    counts = class_counts(class_names, tasks, class_stats)
    return {
        name: row["generated"]
        - (row["completed"] + row["dropped"] + row["shed"] + row["in_flight"])
        for name, row in counts.items()
    }
