"""The federated fluid paths: per-edge shards under a thin coordinator.

:class:`FederatedSlotSimulator` steps E edge shards through the paper's
queue/cost model per slot.  It writes no slot loop of its own: it hands
:func:`~repro.sim.simulator.run_fluid` — the same loop
:class:`~repro.sim.simulator.SlotSimulator` runs with one whole-fleet
shard — a provider of per-edge shards.  The loop owns the *global*
things (one RNG drawn in global device order, the Lyapunov queues, one
admission gate, the slot records) and keeps one degradation ladder and
one warm pool per shard.  This module supplies what is federation-only:

* **Shards**: each populated edge builds an
  :class:`~repro.core.offloading.EdgeSystem` over its members with
  per-edge KKT shares, kept while its member set holds.  A shard is an
  index gather: its shares are solved on the members' rows of the
  topology's FLOPS and mean-arrival columns, and its device columns are
  the members' rows of columns read once per run — a new member set
  reads no device config.  One plane serves every shard, picked from
  the devices per edge.  Each shard decides on its own; the array plane
  then prices the whole slot in one call on one engine over the
  topology's columns (:meth:`~repro.core.vectorized.FleetParams.
  from_topology`), each device at its shard's share, partition and site
  (:class:`~repro.core.vectorized.ShardedSlot`), and advances the one
  global fleet state.  Migration conserves backlog by construction: a
  re-assigned device's queues ride along to its new shard (tasks are
  queued *at the device* in the fluid model; only the serving edge
  changes).
* **Partial outages**: a :class:`~repro.federation.faults.
  FederationFaultPlan` collapses a down edge's fluid capacity with
  :func:`~repro.resilience.environment.edge_down_system` (the collapse
  the single-edge simulator applies on its plan's outage slots) and
  flushes its warm pool, while its peers run untouched.
* **QoS**: classes are assigned globally, and each edge gets its own
  warm pool over an equal split of the fleet-wide memory budget.

With one edge and a static plan the single shard is the whole fleet, so
the E=1 federation and the single-edge simulator are the same
computation on both the scalar and vectorized branches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..core.offloading import LyapunovState, OffloadingPolicy
from ..core.vectorized import FleetParams, VectorizedSlotEngine
from ..resilience.environment import edge_down_system, run_environment
from ..sim.arrivals import ArrivalProcess
from ..sim.environment import DynamicEnvironment, StaticEnvironment
from ..sim.metrics import SimulationResult, SlotRecord
from ..sim.simulator import FluidShard, resolve_plane, run_fluid
from ..sim.streaming import FluidStreamStats
from .assignment import AssignmentPlan
from .events import check_federation
from .faults import FederationFaultPlan
from .topology import FederationTopology

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..resilience.overload import OverloadControl
    from ..resilience.qos import QoSConfig


@dataclass(frozen=True)
class FederatedFluidResult:
    """Outcome of a federated slot-simulation run.

    Attributes:
        global_result: Full-fleet records in global device order — the
            object the E=1 conformance suite compares byte-identically
            against a single-edge run.
        edge_records: Per-edge slot records; an edge's record covers its
            members *that slot* (empty tuples when unpopulated).  Empty
            in streaming mode — ``edge_streams`` carries the per-edge
            constant-size aggregates instead.
        edge_streams: Per-edge :class:`~repro.sim.streaming.
            FluidStreamStats` when the run used ``metrics="streaming"``;
            ``None`` in record mode.
        plan: The assignment plan the run replayed.
    """

    global_result: SimulationResult
    edge_records: tuple[tuple[SlotRecord, ...], ...]
    plan: AssignmentPlan
    edge_streams: tuple[FluidStreamStats, ...] | None = None

    @property
    def num_edges(self) -> int:
        if self.edge_streams is not None:
            return len(self.edge_streams)
        return len(self.edge_records)

    def edge_result(self, edge: int) -> SimulationResult:
        if self.edge_streams is not None:
            return SimulationResult(
                records=(), stream=self.edge_streams[edge]
            )
        return SimulationResult(records=self.edge_records[edge])

    @property
    def edge_results(self) -> tuple[SimulationResult, ...]:
        return tuple(self.edge_result(e) for e in range(self.num_edges))


@dataclass
class FederatedSlotSimulator:
    """Run an offloading policy over a federation of edge clusters.

    The coordinator is the single-edge fluid loop
    (:func:`~repro.sim.simulator.run_fluid`) stepped over one shard per
    edge; :class:`~repro.sim.simulator.SlotSimulator` is its one-shard
    case, so with E=1 the two are byte-identical by construction.

    Attributes:
        topology: The federation (sites, devices, partition, cloud).
        arrivals: One arrival process per device, global order.
        plan: The realised device→edge assignment to replay.
        environment: Per-slot network dynamics over the *whole fleet* in
            global device order (one draw sequence, shared by all
            shards — common random numbers across federations).
        include_tail: Forwarded to the cost model.
        seed: Seed for the run's single random generator.
        vectorized: The fluid data plane, one for every shard.  ``None``
            (default) picks it from the devices per edge
            (:func:`~repro.sim.simulator.resolve_plane`, the same rule
            as the single-edge simulator); ``True`` prices each slot's
            shards in one :class:`VectorizedSlotEngine` call, ``False``
            steps them through the per-device scalar loop.
            Byte-identical either way.
        overload: Enables the overload layer: one global admission gate
            plus a per-edge degradation ladder.
        faults: Per-edge outage schedule plus, in its ``base`` plan,
            the per-device channels.  A down edge's capacity collapses
            to :data:`~repro.resilience.environment.EDGE_DOWN_FACTOR` ×
            nominal for the window; drops, corruption and stragglers
            degrade each device's link and compute wherever it is
            served, overlaid on the run's copy of ``environment`` as
            the single-edge simulator overlays its plan.  The base plan
            must be as wide as the fleet.
    """

    topology: FederationTopology
    arrivals: Sequence[ArrivalProcess]
    plan: AssignmentPlan
    environment: DynamicEnvironment = field(default_factory=StaticEnvironment)
    include_tail: bool = True
    seed: int = 0
    vectorized: bool | None = None
    overload: "OverloadControl | None" = None
    faults: FederationFaultPlan | None = None
    #: QoS classes are assigned globally from the base seed (a device
    #: keeps its class wherever it is served); each edge runs its own
    #: warm pool and shed budget over the global device numbering, with
    #: the edge memory budget an equal split of the fleet-wide one — so
    #: an E=1 federation reproduces the single-edge QoS run exactly.
    qos: "QoSConfig | None" = None

    def __post_init__(self) -> None:
        check_federation(self.topology, self.plan, self.arrivals, self.faults)
        if not 0 <= self.seed < math.inf:
            raise ValueError("seed must be non-negative")

    def run(
        self,
        policy: OffloadingPolicy,
        num_slots: int,
        state: LyapunovState | None = None,
        metrics: str = "records",
        checkpoint_every: int | None = None,
        checkpoint_sink=None,
        resume_from=None,
    ) -> FederatedFluidResult:
        """Simulate ``num_slots`` slots across all shards.

        Checkpoints are ``"state"``-kind (the coordinator's state is the
        RNG, queues, gate, slot controllers, and accumulated records;
        shard systems are immutable and rebuilt from the topology on
        resume).

        ``metrics="streaming"`` swaps the global and per-edge record
        lists for constant-size :class:`~repro.sim.streaming.
        FluidStreamStats` aggregates — the simulation itself is
        byte-identical; only what is *retained* per slot changes.
        """
        result, edge_records, edge_streams = run_fluid(
            self,
            _EdgeShards(self),
            policy,
            num_slots,
            state,
            metrics,
            checkpoint_every,
            checkpoint_sink,
            resume_from,
            path="federated-fluid",
            per_shard=True,
        )
        return FederatedFluidResult(
            global_result=result,
            edge_records=tuple(tuple(r) for r in edge_records),
            plan=self.plan,
            edge_streams=None if edge_streams is None else tuple(edge_streams),
        )


class _EdgeShards:
    """The federation's shard provider: one shard per edge over the
    plan's members for the slot.

    Each edge keeps the :class:`~repro.sim.simulator.FluidShard` of its
    latest member set: members only change at assignment-epoch
    boundaries, and a shard is derived (immutable) data — rebuilt, not
    checkpointed.  An older member set is rebuilt if it comes back, so
    the cache holds at most one entry per edge.  Building one is an
    index gather over columns read once per run: the shard system's
    shares come from the topology's columns
    (:meth:`~repro.federation.topology.FederationTopology.build_shard`),
    and its fleet is the members' rows of the topology's
    :class:`~repro.core.offloading.LiveFleet`.  A down edge's capacity
    collapses (:func:`~repro.resilience.environment.edge_down_system`)
    while its peers run untouched.  The plane is decided once, for every
    shard: the array plane keeps one global fleet state and one engine
    over the whole topology, built once per run.
    """

    def __init__(self, sim: FederatedSlotSimulator):
        self.sim = sim
        topology = sim.topology
        self.num_devices = topology.num_devices
        self.num_shards = topology.num_edges
        self.devices = topology.devices
        self.slot_length = topology.slot_length
        self.vectorized = resolve_plane(
            sim.vectorized, self.num_devices / self.num_shards
        )
        self.fleet = topology.fleet
        self.engine = (
            VectorizedSlotEngine(topology, FleetParams.from_topology(topology))
            if self.vectorized
            else None
        )
        self._cache: dict[int, FluidShard] = {}

    def qos_states(self, config: "QoSConfig", seed: int) -> list:
        """One warm pool + shed budget per edge over the *global* device
        numbering (residency survives migration and return); the edge
        budget is an equal split of the fleet-wide one, so E=1 collapses
        to the single-edge default.  Classes come from the base seed;
        per-edge load jitter follows the shard seed (edge 0 == base)."""
        from ..resilience.qos import QoSState, assign_classes, partition_footprint

        topology, n = self.sim.topology, self.num_devices
        shared = replace(config, class_map=assign_classes(config, n, seed))
        footprints = [
            partition_footprint(
                topology.device_partitions[i]
                if topology.device_partitions
                else topology.partition
            )
            for i in range(n)
        ]
        budget = config.memory_fraction * sum(footprints) / self.num_shards
        return [
            QoSState(
                shared,
                None,
                topology.shard_seed(seed, e),
                num_devices=n,
                footprints=footprints,
                budget=budget,
            )
            for e in range(self.num_shards)
        ]

    def environment(self, configured: DynamicEnvironment) -> DynamicEnvironment:
        """The run's own copy of the configured environment, under the
        base plan's per-device channels (global device order, so each
        channel follows its device to whichever edge serves it)."""
        faults = self.sim.faults
        return run_environment(configured, None if faults is None else faults.base)

    def at(self, slot: int, environment) -> tuple[np.ndarray, list[FluidShard]]:
        sim = self.sim
        row = sim.plan.row(slot)
        shards = []
        for e in range(self.num_shards):
            index = np.flatnonzero(row == e)
            down = sim.faults is not None and sim.faults.edge_down_at(slot, e)
            if not len(index):
                shards.append(FluidShard(index, None, down))
                continue
            shard = self._cache.get(e)
            if shard is None or not np.array_equal(shard.members, index):
                shard = self._cache[e] = self._build(e, index)
            if down:
                shard = shard._replace(
                    system=edge_down_system(shard.system), edge_down=True
                )
            shards.append(shard)
        return row, shards

    def _build(self, edge: int, index: np.ndarray) -> FluidShard:
        """Edge ``edge``'s shard over the members in ``index``."""
        system = self.sim.topology.build_shard(edge, index)
        return FluidShard(index, system, False, self.fleet.take(index))
