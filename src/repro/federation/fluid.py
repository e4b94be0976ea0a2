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
  per-edge KKT shares, cached per assignment epoch.  The vectorized path
  gathers each shard's sub-state with
  :meth:`~repro.core.vectorized.FleetState.shard`, steps it through the
  shard's own :class:`~repro.core.vectorized.VectorizedSlotEngine`, and
  scatters it back with :meth:`~repro.core.vectorized.FleetState.absorb`.
  Migration conserves backlog by construction: a re-assigned device's
  queues ride along to its new shard (tasks are queued *at the device*
  in the fluid model; only the serving edge changes).
* **Partial outages**: a :class:`~repro.federation.faults.
  FederationFaultPlan` collapses a down edge's fluid capacity by
  ``edge_down_factor`` (the same overlay
  :class:`~repro.resilience.environment.FaultyEnvironment` applies
  globally) and flushes its warm pool, while its peers run untouched.
* **QoS**: classes are assigned globally, and each edge gets its own
  warm pool over an equal split of the fleet-wide memory budget.

With one edge and a static plan the single shard is the whole fleet, so
the E=1 federation and the single-edge simulator are the same
computation on both the scalar and vectorized branches.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..core.offloading import EdgeSystem, LyapunovState, OffloadingPolicy
from ..core.vectorized import VectorizedSlotEngine
from ..sim.arrivals import ArrivalProcess
from ..sim.environment import DynamicEnvironment, StaticEnvironment
from ..sim.metrics import SimulationResult, SlotRecord
from ..sim.simulator import FluidShard, run_fluid
from ..sim.streaming import FluidStreamStats
from .assignment import AssignmentPlan
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
        vectorized: Step each shard through its own
            :class:`VectorizedSlotEngine` (array path) instead of the
            per-device scalar loop.  Byte-identical either way.
        overload: Enables the overload layer: one global admission gate
            plus a per-edge degradation ladder.
        faults: Per-edge outage schedule; a down edge's capacity
            collapses to ``edge_down_factor`` × nominal for the window.
        edge_down_factor: Fluid capacity factor during an outage
            (matches ``FaultyEnvironment``'s default).
    """

    topology: FederationTopology
    arrivals: Sequence[ArrivalProcess]
    plan: AssignmentPlan
    environment: DynamicEnvironment = field(default_factory=StaticEnvironment)
    include_tail: bool = True
    seed: int = 0
    vectorized: bool = False
    overload: "OverloadControl | None" = None
    faults: FederationFaultPlan | None = None
    edge_down_factor: float = 0.05
    #: QoS classes are assigned globally from the base seed (a device
    #: keeps its class wherever it is served); each edge runs its own
    #: warm pool and shed budget over the global device numbering, with
    #: the edge memory budget an equal split of the fleet-wide one — so
    #: an E=1 federation reproduces the single-edge QoS run exactly.
    qos: "QoSConfig | None" = None

    def __post_init__(self) -> None:
        if len(self.arrivals) != self.topology.num_devices:
            raise ValueError(
                f"need one arrival process per device: "
                f"{len(self.arrivals)} != {self.topology.num_devices}"
            )
        if self.plan.num_devices != self.topology.num_devices:
            raise ValueError("plan and topology disagree on device count")
        if self.plan.num_edges != self.topology.num_edges:
            raise ValueError("plan and topology disagree on edge count")
        if self.faults is not None and (
            self.faults.num_edges != self.topology.num_edges
        ):
            raise ValueError("fault plan and topology disagree on edge count")
        if not 0.0 < self.edge_down_factor <= 1.0:
            raise ValueError("edge_down_factor must be in (0, 1]")

    def _fingerprint(self, num_slots: int, metrics: str = "records") -> str:
        from ..chaos.checkpoint import run_fingerprint
        from ..core.kernels import kernel_tier

        return run_fingerprint(
            path="federated-fluid",
            seed=self.seed,
            devices=self.topology.num_devices,
            edges=self.topology.num_edges,
            slots=num_slots,
            vectorized=self.vectorized,
            include_tail=self.include_tail,
            overload=repr(self.overload),
            qos=repr(self.qos),
            edge_down_factor=self.edge_down_factor,
            kernels=kernel_tier(),
            metrics=metrics,
        )

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
            fingerprint=self._fingerprint(num_slots, metrics),
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

    Shard systems (and vectorized engines) are cached per member set —
    they only change at assignment-epoch boundaries, and are derived
    (immutable) data: rebuilt, not checkpointed.  A down edge's capacity
    collapses to ``edge_down_factor`` × nominal while its peers run
    untouched.
    """

    def __init__(self, sim: FederatedSlotSimulator):
        self.sim = sim
        topology = sim.topology
        self.num_devices = topology.num_devices
        self.num_shards = topology.num_edges
        self.devices = topology.devices
        self.slot_length = topology.slot_length
        self._cache: dict[tuple, tuple[EdgeSystem, VectorizedSlotEngine | None]] = {}

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

    def at(self, slot: int, environment) -> tuple[list[int], list[FluidShard]]:
        sim = self.sim
        row = sim.plan.row(slot)
        shards = []
        for e in range(self.num_shards):
            members = np.flatnonzero(row == e).tolist()
            down = sim.faults is not None and sim.faults.edge_down_at(slot, e)
            if not members:
                shards.append(FluidShard(members, None, None, down))
                continue
            key = (e, tuple(members))
            if key not in self._cache:
                system = sim.topology.build_shard(e, members)
                engine = VectorizedSlotEngine(system) if sim.vectorized else None
                self._cache[key] = (system, engine)
            system, engine = self._cache[key]
            if down:
                system = replace(
                    system, edge_flops=system.edge_flops * sim.edge_down_factor
                )
            shards.append(FluidShard(members, system, engine, down))
        return row.tolist(), shards
