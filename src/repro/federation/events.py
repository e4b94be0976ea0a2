"""Federated event simulation: per-edge shards of the task-level engines.

Each edge runs a full :class:`~repro.sim.events.EventSimulator` over its
member devices (scalar or the array-backed fast lane — the ``engine``
argument passes straight through).  :func:`task_shards` builds those
shards, and the live federation (:mod:`repro.federation.runtime`) deploys
the same ones.  Federation enters through three seams, all pre-realised
data:

* **Membership masks** — each member's arrival process is wrapped in
  :class:`MaskedArrivals`: a slot where the assignment plan points the
  device elsewhere yields zero demand *in this shard* (the draw is still
  consumed, keeping shard streams stable under re-masking).  Masks over
  all edges partition the slot axis, so migration conserves tasks: every
  generated task belongs to exactly one shard, and a migrating device's
  in-flight work finishes at the edge that accepted it.
* **Seeds** — shard ``e`` runs on
  :meth:`~repro.federation.topology.FederationTopology.shard_seed`
  (edge 0 keeps the base seed), so an E=1 federation replays the
  single-edge run's two RNG streams byte-for-byte.
* **Partial outages** — a :class:`~repro.federation.faults.
  FederationFaultPlan` slices into ordinary per-shard
  :class:`~repro.resilience.faults.FaultPlan`\\ s, so a dead edge
  rejects submissions through the existing, tested outage machinery
  while its peers keep serving.

Policies and environments may carry per-run state (a
``ResilientPolicy`` cursor, a random-walk environment's factors), so
each shard gets its own deep copy — exactly what a caller comparing
independent runs would construct.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from ..core.offloading import EdgeSystem, OffloadingPolicy
from ..sim.arrivals import ArrivalProcess
from ..sim.environment import DynamicEnvironment, StaticEnvironment
from ..sim.events import EventSimResult, EventSimulator, check_drain_limit
from ..sim.streaming import StreamingTaskStats, TaskLedger
from ..sim.tasks import TaskRecord
from .assignment import AssignmentPlan
from .faults import FederationFaultPlan
from .topology import FederationTopology

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..resilience.faults import FaultPlan
    from ..resilience.overload import OverloadControl
    from ..resilience.qos import QoSConfig
    from ..resilience.recovery import RecoveryPolicy


@dataclass(frozen=True)
class MaskedArrivals:
    """An arrival process gated by a per-slot membership mask.

    Wraps a device's global process for one shard: masked-out slots
    report zero expected and zero realised demand.  ``sample`` always
    consumes the inner draw so a shard's control stream does not shift
    when the mask changes; slots past the mask's end are inactive (drain
    phases generate nothing).
    """

    inner: ArrivalProcess
    mask: tuple[bool, ...]

    def __post_init__(self) -> None:
        if not self.mask:
            raise ValueError("mask must be non-empty")

    def active(self, slot: int) -> bool:
        return 0 <= slot < len(self.mask) and self.mask[slot]

    def mean(self, slot: int) -> float:
        return self.inner.mean(slot) if self.active(slot) else 0.0

    def sample(self, slot: int, rng: np.random.Generator) -> float:
        value = self.inner.sample(slot, rng)
        return value if self.active(slot) else 0.0


def check_federation(
    topology: FederationTopology,
    plan: AssignmentPlan,
    arrivals: Sequence[ArrivalProcess] | None = None,
    faults: FederationFaultPlan | None = None,
) -> None:
    """Reject arrivals, an assignment plan or a fault plan whose width
    does not match the federation."""
    if arrivals is not None and len(arrivals) != topology.num_devices:
        raise ValueError(
            f"need one arrival process per device: "
            f"{len(arrivals)} != {topology.num_devices}"
        )
    if plan.num_devices != topology.num_devices:
        raise ValueError("plan and topology disagree on device count")
    if plan.num_edges != topology.num_edges:
        raise ValueError("plan and topology disagree on edge count")
    if faults is not None and faults.num_edges != topology.num_edges:
        raise ValueError("fault plan and topology disagree on edge count")
    if (
        faults is not None
        and faults.base is not None
        and faults.base.num_devices != topology.num_devices
    ):
        raise ValueError(
            f"fault plan covers {faults.base.num_devices} devices but the "
            f"federation has {topology.num_devices}"
        )


@dataclass(frozen=True)
class TaskShard:
    """One edge's part of a federated task-level run (event engines and
    live runtime alike), in the shard's local device numbering.

    ``system`` is None for an edge that serves no device; such a shard
    carries nothing else.
    """

    edge: int
    members: tuple[int, ...]
    system: EdgeSystem | None
    arrivals: tuple[MaskedArrivals, ...] = ()
    faults: "FaultPlan | None" = None
    recovery: "RecoveryPolicy | None" = None
    qos: "QoSConfig | None" = None
    seed: int = 0


def task_shards(
    topology: FederationTopology,
    plan: AssignmentPlan,
    arrivals: Sequence[ArrivalProcess],
    num_slots: int,
    seed: int,
    faults: FederationFaultPlan | None = None,
    recovery: "RecoveryPolicy | None" = None,
    qos: "QoSConfig | None" = None,
    start: int = 0,
) -> Iterator[TaskShard]:
    """The per-edge shards of a task-level federation, from edge
    ``start`` on.  The widths are checked at the call.

    Each shard serves every device the plan ever assigns to its edge.
    Non-home members pay the site's backhaul latency on every
    device↔edge transfer (see ``EdgeSite.backhaul_latency``).  Arrivals
    are masked to the slots the plan assigns the device here.  The fault
    plan is sliced to the shard, and ``recovery`` applies only where the
    shard has faults.  QoS classes are assigned over *global* devices
    from ``seed``, so a device keeps its class wherever it is served,
    and each shard gets its members' slice as an explicit ``class_map``.
    """
    check_federation(topology, plan, arrivals, faults)
    if num_slots > plan.num_slots:
        raise ValueError(
            f"plan covers {plan.num_slots} slots, cannot generate "
            f"{num_slots}"
        )
    homes = topology.home_assignment()
    classes = None
    if qos is not None:
        from ..resilience.qos import assign_classes

        classes = assign_classes(qos, topology.num_devices, seed)

    def shard(edge: int) -> TaskShard:
        members = plan.member_union(edge)
        if not members:
            return TaskShard(edge, members, None)
        shard_faults = (
            None if faults is None else faults.shard_plan(edge, members)
        )
        return TaskShard(
            edge,
            members,
            topology.build_shard(edge, members, homes),
            tuple(
                MaskedArrivals(inner=arrivals[i], mask=plan.slot_mask(edge, i))
                for i in members
            ),
            shard_faults,
            recovery if shard_faults is not None else None,
            None
            if classes is None
            else replace(qos, class_map=tuple(classes[i] for i in members)),
            topology.shard_seed(seed, edge),
        )

    return map(shard, range(start, topology.num_edges))


@dataclass(frozen=True)
class FederatedEventResult:
    """Per-edge task-level outcomes plus the merged global view — what
    both the federated event simulator and the live federation return.

    Shard results are ordinary :class:`EventSimResult`\\ s in *local*
    device numbering; :meth:`merged` re-keys tasks to global device
    indices and fresh global task ids (ordered by creation time, then
    edge) for fleet-wide SLO accounting.
    """

    edge_results: tuple[EventSimResult, ...]
    edge_members: tuple[tuple[int, ...], ...]
    plan: AssignmentPlan

    @property
    def num_edges(self) -> int:
        return len(self.edge_results)

    @property
    def horizon(self) -> float:
        return max((r.horizon for r in self.edge_results), default=0.0)

    def merged(self) -> EventSimResult:
        """One global :class:`EventSimResult` over every shard's tasks,
        devices re-keyed to global indices and task ids renumbered to be
        globally unique.  Per-shard task order is preserved (edge-major
        concatenation), so an E=1 merge is the identity — SLO accounting
        is order-free either way.

        Streaming runs merge shard aggregates instead: sketch merging is
        pure integer bin addition, so shard-then-merge percentiles equal
        a single global sketch's, and every counter is an exact sum."""
        names = next(
            (r.class_names for r in self.edge_results if r.class_names), ()
        )
        if any(r.stats is not None for r in self.edge_results):
            stats = StreamingTaskStats()
            cstats = [StreamingTaskStats() for _ in names]
            for result in self.edge_results:
                if result.stats is not None:
                    stats = stats.merge(result.stats)
                if result.class_stats:
                    cstats = [
                        mine.merge(theirs)
                        for mine, theirs in zip(cstats, result.class_stats)
                    ]
            return EventSimResult(
                tasks=(),
                horizon=self.horizon,
                stats=stats,
                class_names=names,
                class_stats=tuple(cstats) if names else None,
            )
        tasks: list[TaskRecord] = []
        for result, members in zip(self.edge_results, self.edge_members):
            for task in result.tasks:
                tasks.append(
                    replace(
                        task,
                        device=members[task.device],
                        task_id=len(tasks),
                    )
                )
        return EventSimResult(
            tasks=tuple(tasks), horizon=self.horizon, class_names=names
        )

    # -- per-edge SLO accounting --------------------------------------------

    def identity_holds(self) -> bool:
        """Every shard's SLO identity plus the global sum:
        ``generated = completed + dropped + shed + in-flight`` per edge,
        and the per-edge identities sum to the global one.  The count
        properties are exact in both metric modes, so the check is just
        as strict for streaming shards."""
        totals = [0, 0, 0, 0, 0]
        for result in self.edge_results:
            parts = (
                result.completed_count,
                result.dropped_count,
                result.shed_count,
                result.in_flight_count,
            )
            if result.generated_count != sum(parts):
                return False
            totals[0] += result.generated_count
            for k, part in enumerate(parts):
                totals[k + 1] += part
        return totals[0] == sum(totals[1:])


@dataclass
class FederatedEventSimulator:
    """Task-level simulation of a federation, one sub-simulation per edge.

    Attributes mirror :class:`~repro.sim.events.EventSimulator` plus the
    federation inputs (``topology``, ``plan``, ``faults`` as a
    federation plan).  Each shard runs on a deep copy of ``policy`` and
    of ``environment`` (both may carry per-run state).
    """

    topology: FederationTopology
    arrivals: Sequence[ArrivalProcess]
    plan: AssignmentPlan
    environment: DynamicEnvironment = field(default_factory=StaticEnvironment)
    seed: int = 0
    spread_arrivals: bool = True
    shared_uplink: bool = False
    faults: FederationFaultPlan | None = None
    recovery: "RecoveryPolicy | None" = None
    overload: "OverloadControl | None" = None
    #: QoS classes are assigned *globally* (from the base seed over all
    #: devices) and each shard receives its members' slice as an explicit
    #: ``class_map`` — a device keeps its class wherever it is served,
    #: and an E=1 federation reproduces the single-edge assignment.
    qos: "QoSConfig | None" = None

    def __post_init__(self) -> None:
        check_federation(self.topology, self.plan, self.arrivals, self.faults)
        if not 0 <= self.seed < math.inf:
            raise ValueError("seed must be non-negative")
        if self.recovery is not None and self.faults is None:
            raise ValueError("recovery requires a fault plan to recover from")

    def run(
        self,
        policy: OffloadingPolicy,
        num_slots: int,
        drain: bool = True,
        drain_limit_factor: float = 50.0,
        engine: str = "scalar",
        metrics: str = "records",
        checkpoint_every: int | None = None,
        checkpoint_sink=None,
        resume_from=None,
    ) -> FederatedEventResult:
        """Run every shard for ``num_slots`` generation slots.

        ``metrics="streaming"`` passes straight through to every shard:
        each edge folds its tasks into a constant-size
        :class:`~repro.sim.streaming.StreamingTaskStats` and
        :meth:`FederatedEventResult.merged` merges the shard aggregates
        (exactly — sketch merge is integer bin addition), so federation
        memory stays independent of the global task count.

        Checkpoints are ``"state"``-kind at **shard granularity**: shards
        run sequentially and independently, so after each completed edge
        the finished results are snapshotted and a resumed run skips
        straight to the next edge (the checkpoint's ``slot`` field holds
        the next *edge index*).  Every shard's own simulation is
        deterministic from its shard seed, so the combined result is
        byte-identical to an uninterrupted run.

        ``drain_limit_factor`` is checked once, before the first shard
        runs (see :meth:`~repro.sim.events.EventSimulator.run`).
        """
        from ..chaos.checkpoint import checkpoint_hook

        check_drain_limit(drain_limit_factor)
        emit = checkpoint_hook(
            self, "federated-event", "state", checkpoint_every,
            checkpoint_sink, resume_from,
            slots=num_slots, engine=engine, metrics=metrics,
        )
        if resume_from is not None:
            payload = resume_from.payload()
            results = payload["results"]
            members_per_edge = payload["members_per_edge"]
            start_edge = resume_from.slot
        else:
            results: list[EventSimResult] = []
            members_per_edge: list[tuple[int, ...]] = []
            start_edge = 0
        shards = task_shards(
            self.topology,
            self.plan,
            self.arrivals,
            num_slots,
            self.seed,
            self.faults,
            self.recovery,
            self.qos,
            start=start_edge,
        )
        for shard in shards:
            # The step is the next edge to run; the payload holds the
            # edges already finished (the last one's finish emits
            # nothing — the run is done).
            emit(
                shard.edge,
                dict(results=results, members_per_edge=members_per_edge),
            )
            members_per_edge.append(shard.members)
            if shard.system is None:
                results.append(TaskLedger(metrics == "streaming").result(0.0))
            else:
                sim = EventSimulator(
                    system=shard.system,
                    arrivals=shard.arrivals,
                    environment=self.environment,
                    seed=shard.seed,
                    spread_arrivals=self.spread_arrivals,
                    shared_uplink=self.shared_uplink,
                    faults=shard.faults,
                    recovery=shard.recovery,
                    overload=self.overload,
                    qos=shard.qos,
                )
                results.append(
                    sim.run(
                        copy.deepcopy(policy),
                        num_slots,
                        drain=drain,
                        drain_limit_factor=drain_limit_factor,
                        engine=engine,
                        metrics=metrics,
                    )
                )
        return FederatedEventResult(
            edge_results=tuple(results),
            edge_members=tuple(members_per_edge),
            plan=self.plan,
        )
