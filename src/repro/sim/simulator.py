"""The slot simulator: the paper's queue/cost model advanced through time.

Per slot ``t``:

1. the :class:`~repro.sim.environment.DynamicEnvironment` produces the live
   device configs (bandwidth/latency overrides);
2. each device's :class:`~repro.sim.arrivals.ArrivalProcess` yields the
   realised arrivals ``M_i(t)``, and its *expected* arrivals ``k_i(t)`` are
   handed to the policy (policies plan against expectations, as in §III-B1);
3. the policy picks ``x_i(t)``;
4. Eqs. 12-14 give the slot's cost, and Eqs. 10-11 advance the queues.

This mirrors exactly how the paper's own simulation experiments evaluate
schemes: every scheme sees the same arrivals and the same environment
trajectory (common random numbers via the seed).

The per-slot pipeline is written once, in :func:`run_fluid`, over a list
of *shards* (the devices one edge serves).  :class:`SlotSimulator` runs
it with one whole-fleet shard; the federated coordinator
(:class:`~repro.federation.fluid.FederatedSlotSimulator`) runs it with
one shard per edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from ..core.offloading import (
    EdgeSystem,
    LyapunovState,
    OffloadingPolicy,
    slot_cost,
)
from ..core.vectorized import FleetState, VectorizedSlotEngine
from .arrivals import ArrivalProcess
from .environment import DynamicEnvironment, StaticEnvironment
from .metrics import SimulationResult, SlotRecord
from .streaming import FluidStreamStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..chaos.checkpoint import Checkpoint
    from ..resilience.overload import OverloadControl
    from ..resilience.qos import QoSConfig


class FluidShard(NamedTuple):
    """One shard of a fluid slot: the devices one edge serves.

    Attributes:
        members: Ascending global device indices, or ``None`` for the
            whole fleet in device order (no gather/scatter needed).
        system: The shard's live system before ladder degradation;
            ``None`` when the shard has no members this slot.
        engine: The shard's vectorized engine (vectorized path only).
        edge_down: Whether the shard's edge is out this slot: its warm
            pool is flushed and every slice serves cold.
    """

    members: list[int] | None
    system: EdgeSystem | None
    engine: VectorizedSlotEngine | None = None
    edge_down: bool = False

    @property
    def populated(self) -> bool:
        return self.members is None or bool(self.members)


def _take(values, members):
    """``values`` restricted to ``members`` (all of it for ``None``)."""
    return values if members is None else [values[i] for i in members]


class _WholeFleet:
    """:class:`SlotSimulator`'s shard provider: one shard over the whole
    fleet.  Its live system comes from the environment's optional
    ``system_at(slot, base)`` extension and its outages from the optional
    ``edge_down_at(slot)`` extension.  The engine is derived from the
    (immutable) system — rebuilt per run, not checkpointed."""

    num_shards = 1

    def __init__(self, system: EdgeSystem, vectorized: bool):
        self.system = system
        self.num_devices = system.num_devices
        self.devices = system.devices
        self.slot_length = system.slot_length
        self.owner = [0] * system.num_devices
        self.engine = VectorizedSlotEngine(system) if vectorized else None

    def qos_states(self, config: "QoSConfig", seed: int) -> list:
        from ..resilience.qos import QoSState

        return [QoSState(config, self.system, seed)]

    def at(self, slot: int, environment) -> tuple[list[int], tuple[FluidShard]]:
        system_at = getattr(environment, "system_at", None)
        edge_down_at = getattr(environment, "edge_down_at", None)
        live = self.system if system_at is None else system_at(slot, self.system)
        down = edge_down_at is not None and edge_down_at(slot)
        return self.owner, (FluidShard(None, live, self.engine, down),)


def run_fluid(
    sim,
    shards,
    policy: OffloadingPolicy,
    num_slots: int,
    state: LyapunovState | None,
    metrics: str,
    checkpoint_every: int | None,
    checkpoint_sink,
    resume_from: "Checkpoint | None",
    *,
    path: str,
    fingerprint: str,
    per_shard: bool = False,
) -> tuple[
    SimulationResult, list[list[SlotRecord]] | None, list[FluidStreamStats] | None
]:
    """The fluid per-slot pipeline, stepped over a list of shards.

    ``sim`` supplies the run configuration (``arrivals``,
    ``environment``, ``seed``, ``include_tail``, ``vectorized``,
    ``overload``, ``qos``).  ``shards`` is the shard provider:
    ``num_devices``, ``num_shards``, the base ``devices`` and
    ``slot_length``, ``qos_states(config, seed)`` (one
    :class:`~repro.resilience.qos.QoSState` per shard over the global
    device numbering), and ``at(slot, environment)`` returning each
    device's shard index and one :class:`FluidShard` per shard.

    The loop owns the global things: one RNG drawn in global device
    order, the Lyapunov queues (a migrating device's backlog rides along
    to its new shard), one admission gate (token buckets are
    device-scoped), the per-class flow, and the fleet-wide record or
    stream.  Per shard it keeps one
    :class:`~repro.resilience.control.SlotController` (a ladder over its
    members' mean backlog and a warm pool).  Every device always carries
    a rung (uniform within a shard unless QoS biases it), so the gate,
    degradation, backpressure and drain each take one per-device call.

    With one shard every per-shard sum is ``0.0 + x == x``, so the
    whole-fleet run and an E=1 federation are the same computation.
    All control-plane arithmetic runs on plain Python floats outside the
    scalar/vectorized branch, so both paths stay byte-identical.

    Returns the fleet-wide result, then — with ``per_shard`` — one list
    of slot records per shard (empty in streaming mode) and, in
    streaming mode, one stream per shard.
    """
    if num_slots <= 0:
        raise ValueError("need a positive number of slots")
    if metrics not in ("records", "streaming"):
        raise ValueError(
            f'metrics must be "records" or "streaming", got {metrics!r}'
        )
    from ..chaos.checkpoint import (
        should_emit,
        snapshot,
        validate_hooks,
        validate_resume,
    )
    from ..resilience.control import SlotController
    from ..resilience.overload import MODE_FULL, AdmissionGate, clamp_queues
    from ..resilience.qos import (
        QoSFlow,
        degrade_system_by_modes,
        drain_stranded_edge_by_mode,
    )

    validate_hooks(checkpoint_every, checkpoint_sink)
    overload = sim.overload
    n, num_shards = shards.num_devices, shards.num_shards
    if resume_from is not None:
        validate_resume(resume_from, path, "state", fingerprint)
        carried = resume_from.payload()
        start_slot = resume_from.slot
    else:
        if state is None:
            state = LyapunovState.zeros(n)
        streaming = metrics == "streaming"
        carried = dict(
            rng=np.random.default_rng(sim.seed),
            state=state,
            fleet=FleetState.from_lyapunov(state) if sim.vectorized else None,
            gate=None if overload is None else AdmissionGate(overload, n),
            controllers=[
                SlotController(n, overload, qstate, gate=False)
                for qstate in (
                    [None] * num_shards
                    if sim.qos is None
                    else shards.qos_states(sim.qos, sim.seed)
                )
            ],
            flow=None if sim.qos is None else QoSFlow(len(sim.qos.classes)),
            records=[],
            shard_records=[[] for _ in range(num_shards)] if per_shard else None,
            stream=FluidStreamStats() if streaming else None,
            shard_streams=(
                [FluidStreamStats() for _ in range(num_shards)]
                if per_shard and streaming
                else None
            ),
            policy=policy,
            environment=sim.environment,
            arrivals=list(sim.arrivals),
        )
        start_slot = 0
    # Everything the run mutates lives in ``carried`` (one object each,
    # updated in place), so a checkpoint is a snapshot of that dict and a
    # resume restores it bit-for-bit.
    rng, state, fleet = carried["rng"], carried["state"], carried["fleet"]
    gate, controllers = carried["gate"], carried["controllers"]
    qflow = carried["flow"]
    records, shard_records = carried["records"], carried["shard_records"]
    stream, shard_streams = carried["stream"], carried["shard_streams"]
    policy, environment = carried["policy"], carried["environment"]
    arrivals: Sequence[ArrivalProcess] = carried["arrivals"]
    qstate0 = controllers[0].qos
    class_of = None if qstate0 is None else qstate0.class_of
    half_slot = num_slots // 2
    tau = shards.slot_length
    # A FencedController needs the true slot index: a federation consults
    # the policy once per shard, not once per slot.
    begin_slot = getattr(policy, "begin_slot", None)
    for slot in range(start_slot, num_slots):
        if should_emit(checkpoint_every, slot):
            checkpoint_sink(snapshot(path, "state", slot, fingerprint, carried))
        if begin_slot is not None:
            begin_slot(slot)
        owner, slot_shards = shards.at(slot, environment)
        # Expected arrivals are deterministic (no RNG draw), so the QoS
        # plans can read them before sampling without perturbing the
        # arrival/environment stream.
        expected = [proc.mean(slot) for proc in arrivals]
        backlogs = None
        if gate is not None:
            backlogs = [
                state.queue_local[i] + state.queue_edge[i] for i in range(n)
            ]
        # Each shard's controller plans its members' rungs (an
        # unpopulated shard's ladder holds its rung) and warm pool.  A
        # cold load discounts the slice's share for the overlapping
        # fraction of the slot — the fluid twin of the event engines'
        # service-start hold.
        w0 = slot * tau
        device_modes = [MODE_FULL] * n
        scales = None if qstate0 is None else [1.0] * n
        for e, shard in enumerate(slot_shards):
            members = shard.members
            controller = controllers[e]
            shard_expected = expected
            if members is not None and controller.qos is not None:
                # Non-members carry zero expected demand in this shard's
                # plan — they neither request its warm pool nor charge
                # its shed budget.
                shard_expected = [
                    expected[i] if owner[i] == e else 0.0 for i in range(n)
                ]
            rungs, holds = controller.plan(
                slot,
                w0,
                None if backlogs is None else _take(backlogs, members),
                shard_expected,
                shard.edge_down,
            )
            shard_scales = (
                None if holds is None else controller.qos.share_scales(holds, w0, tau)
            )
            if members is None:
                device_modes, scales = rungs, shard_scales
            else:
                for i in members:
                    device_modes[i] = rungs[i]
                if scales is not None:
                    for i in members:
                        scales[i] = shard_scales[i]
        live_devices = environment.devices_at(slot, shards.devices, rng)
        generated = [proc.sample(slot, rng) for proc in arrivals]
        realised = generated
        shard_shed = [0.0] * num_shards
        if gate is not None:
            realised = [
                gate.admit(i, generated[i], backlogs[i], device_modes[i])
                for i in range(n)
            ]
            for i in range(n):
                shard_shed[owner[i]] += generated[i] - realised[i]
        if qflow is not None:
            for i in range(n):
                qflow.generated[class_of[i]] += generated[i]
                qflow.shed[class_of[i]] += generated[i] - realised[i]
                qflow.admitted[class_of[i]] += realised[i]

        shard_time = [0.0] * num_shards
        shard_arrivals = [0.0] * num_shards
        steps = []
        for e, shard in enumerate(slot_shards):
            if not shard.populated:
                continue
            members = shard.members
            member_modes = _take(device_modes, members)
            member_scales = None if scales is None else _take(scales, members)
            # Degraded rungs replace the live partitions, so the fluid
            # cost model serves at the degraded exit depth.
            live = degrade_system_by_modes(shard.system, member_modes)
            sub_state = LyapunovState(
                _take(state.queue_local, members), _take(state.queue_edge, members)
            )
            ratios = policy.decide(
                live,
                sub_state,
                _take(expected, members),
                _take(live_devices, members),
            )
            ratios = controllers[e].backpressure(
                ratios, sub_state.queue_edge, members
            )
            devices = range(n) if members is None else members
            if fleet is not None:
                shard_state = fleet if members is None else fleet.shard(members)
                cost = shard.engine.slot_costs(
                    _take(live_devices, members),
                    ratios,
                    _take(realised, members),
                    shard_state,
                    include_tail=sim.include_tail,
                    system=live,
                    share_scale=member_scales,
                )
                # Left-to-right accumulation mirrors the scalar loop
                # (np.sum is pairwise), keeping the two paths
                # byte-identical.
                shard_time[e] = float(sum(cost.total_time.tolist(), 0.0))
                shard_arrivals[e] = float(sum(cost.arrivals.tolist(), 0.0))
                if qflow is not None:
                    for i, t in zip(devices, cost.total_time.tolist()):
                        qflow.time[class_of[i]] += t
                shard_state.update(cost)
                if members is not None:
                    fleet.absorb(members, shard_state)
            else:
                for j, i in enumerate(devices):
                    share = live.shares[j]
                    if member_scales is not None:
                        share = share * member_scales[j]
                    cost = slot_cost(
                        live_devices[i],
                        live,
                        ratios[j],
                        realised[i],
                        state.queue_local[i],
                        state.queue_edge[i],
                        share,
                        include_tail=sim.include_tail,
                        partition=live.partition_for(j),
                    )
                    shard_time[e] += cost.total_time
                    shard_arrivals[e] += realised[i]
                    if qflow is not None:
                        qflow.time[class_of[i]] += cost.total_time
                    state.update(i, cost)
            steps.append((e, members, live, member_modes, member_scales, ratios))
        if fleet is not None:
            fleet.sync_to(state)

        if gate is not None:
            for e, members, live, member_modes, member_scales, ratios in steps:
                # Backlog stranded by a forced x_i = 0 drains at the idle
                # slice's full first-block rate (Eq. 9 gives no edge
                # service at x = 0; see drain_stranded_edge_by_mode).
                shares = live.shares
                if member_scales is not None:
                    shares = [p * k for p, k in zip(shares, member_scales)]
                idle_service = [
                    live.slot_length
                    / (
                        live.partition_for(j).mu1 / (p * live.edge_flops)
                        + live.edge_overhead
                    )
                    if p > 0
                    else 0.0
                    for j, p in enumerate(shares)
                ]
                queue_local = _take(state.queue_local, members)
                queue_edge = _take(state.queue_edge, members)
                drain_stranded_edge_by_mode(
                    queue_edge,
                    ratios,
                    idle_service,
                    overload.queue_high,
                    member_modes,
                )
                if overload.queue_capacity is not None:
                    # Bounded queues: overflow past the capacity is shed,
                    # and the clamp runs on the scalar state lists in
                    # both paths (the vectorized arrays are rewritten
                    # from them) so the shed float is identical.
                    shard_shed[e] += clamp_queues(
                        queue_local,
                        queue_edge,
                        overload.queue_capacity,
                        None if class_of is None else _take(class_of, members),
                        qflow,
                    )
                if members is not None:
                    for j, i in enumerate(members):
                        state.queue_local[i] = queue_local[j]
                        state.queue_edge[i] = queue_edge[j]
            if fleet is not None:
                fleet.queue_local[:] = state.queue_local
                fleet.queue_edge[:] = state.queue_edge

        if steps and steps[0][1] is None:
            ratios_global = steps[0][-1]
        else:
            ratios_global = [0.0] * n
            for _, members, *_, ratios in steps:
                for j, i in enumerate(members):
                    ratios_global[i] = float(ratios[j])
        # The fleet-wide row first, then one row per shard.  0.0 + x is
        # exactly x, so one shard's totals pass through unchanged — the
        # E=1 identity needs this.
        rows = [
            (
                stream,
                records,
                None,
                sum(shard_arrivals, 0.0),
                sum(shard_time, 0.0),
                sum(shard_shed, 0.0),
                max((controllers[e].mode for e, *_ in steps), default=0),
            )
        ]
        if per_shard:
            rows += [
                (
                    None if shard_streams is None else shard_streams[e],
                    shard_records[e],
                    shard.members,
                    shard_arrivals[e],
                    shard_time[e],
                    shard_shed[e],
                    controllers[e].mode,
                )
                for e, shard in enumerate(slot_shards)
            ]
        for row_stream, row_records, members, *totals, mode in rows:
            arrived, spent, shed = totals
            queue_local = _take(state.queue_local, members)
            queue_edge = _take(state.queue_edge, members)
            if row_stream is not None:
                # Same numbers a SlotRecord would carry, folded into the
                # constant-size aggregate instead of retained per slot.
                backlog = float(sum(queue_local) + sum(queue_edge))
                row_stream.observe_slot(
                    slot, arrived, spent, shed, backlog, mode, half_slot
                )
            else:
                row_records.append(
                    SlotRecord(
                        slot=slot,
                        arrivals=arrived,
                        total_time=spent,
                        ratios=tuple(_take(ratios_global, members)),
                        queue_local=tuple(queue_local),
                        queue_edge=tuple(queue_edge),
                        shed=shed,
                        mode=mode,
                    )
                )
    result = SimulationResult(
        records=tuple(records),
        stream=stream,
        class_names=() if qstate0 is None else qstate0.class_names,
        class_flow=qflow,
    )
    return result, shard_records, shard_streams


@dataclass
class SlotSimulator:
    """Runs an offloading policy against a system for a horizon of slots.

    The single-edge simulator is the one-shard case of the federated
    coordinator: :meth:`run` steps :func:`run_fluid` over one shard that
    covers the whole fleet, so an E=1
    :class:`~repro.federation.fluid.FederatedSlotSimulator` reproduces it
    byte-for-byte by construction.

    Attributes:
        system: The device/edge/cloud system (partition, shares, τ).
        arrivals: One arrival process per device.
        environment: Per-slot network dynamics (static by default).
        include_tail: Whether reported TCT includes the second/third-block
            tail (the paper's figures do; the Lyapunov objective does not).
        seed: Seed for the run's random generator.  Two runs with equal
            seeds see identical arrivals and environments, which is how the
            experiments compare schemes under common randomness.
        vectorized: Opt into the fleet-scale fast path: the slot's cost
            evaluation and queue recursions run through
            :class:`~repro.core.vectorized.VectorizedSlotEngine` as array
            expressions instead of a per-device Python loop.  The RNG call
            sequence is unchanged, so a vectorized run sees the *same*
            arrivals and environment trajectory as a scalar run with the
            same seed — the differential tests rely on this.
        overload: An :class:`~repro.resilience.overload.OverloadControl`
            enabling the load-control layer: per-slot admission gating
            (shed demand is recorded on each
            :class:`~repro.sim.metrics.SlotRecord`), backpressure ratio
            clamps, bounded queues, and the degradation ladder (degraded
            rungs replace the live system's partitions via
            :func:`~repro.resilience.qos.degrade_system_by_modes`).  The
            gate, clamp, and ladder all run on plain Python floats
            *outside* the scalar/vectorized branch, so governed runs
            stay byte-identical across both fluid paths.
        qos: A :class:`~repro.resilience.qos.QoSConfig` enabling
            class-aware serving: per-device QoS classes (seeded
            assignment), per-class degradation rungs layered on the
            governor's global mode, utility-per-cost budgeted shedding,
            and the warm-pool/cold-start model — a cold model load
            discounts the device's container-slice share for the
            overlapping fraction of the slot (the fluid realisation of
            the event engines' service-start hold).  Per-class flow
            accounting lands on the result's ``class_flow``.  The QoS
            control plane draws nothing from the run RNG, so attaching
            it leaves arrivals and environments unchanged.

    Environments may additionally expose a ``system_at(slot, base)``
    method (the :class:`~repro.traces.replay.TraceEnvironment` extension):
    it returns the :class:`EdgeSystem` in effect during the slot, letting
    a trace vary *testbed* parameters (shared edge capacity) and not just
    device links.  Both the scalar loop and the vectorized engine read
    the same live system, so trace replay stays byte-identical across
    paths.  An ``edge_down_at(slot)`` method (the
    :class:`~repro.resilience.environment.FaultyEnvironment` extension)
    marks outage slots, which flush the QoS warm pool.
    """

    system: EdgeSystem
    arrivals: Sequence[ArrivalProcess]
    environment: DynamicEnvironment = field(default_factory=StaticEnvironment)
    include_tail: bool = True
    seed: int = 0
    vectorized: bool = False
    overload: "OverloadControl | None" = None
    qos: "QoSConfig | None" = None

    def __post_init__(self) -> None:
        if len(self.arrivals) != self.system.num_devices:
            raise ValueError(
                f"need one arrival process per device: "
                f"{len(self.arrivals)} != {self.system.num_devices}"
            )

    def _fingerprint(
        self, path_name: str, num_slots: int, metrics: str = "records"
    ) -> str:
        from ..chaos.checkpoint import run_fingerprint
        from ..core.kernels import kernel_tier

        return run_fingerprint(
            path=path_name,
            seed=self.seed,
            devices=self.system.num_devices,
            slots=num_slots,
            include_tail=self.include_tail,
            overload=repr(self.overload),
            qos=repr(self.qos),
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
        resume_from: "Checkpoint | None" = None,
    ) -> SimulationResult:
        """Simulate ``num_slots`` slots and return the aggregated result.

        Args:
            policy: The offloading policy under test.
            num_slots: Horizon length.
            state: Starting queue state (fresh queues by default); the
                caller keeps ownership, so warm-started continuations are
                possible.
            metrics: ``"records"`` (default) retains one
                :class:`~repro.sim.metrics.SlotRecord` per slot;
                ``"streaming"`` folds each slot into a constant-size
                :class:`~repro.sim.streaming.FluidStreamStats` aggregate
                instead — memory independent of horizon length, headline
                metrics intact, timelines unavailable.
            checkpoint_every: Emit a ``"state"``-kind
                :class:`~repro.chaos.checkpoint.Checkpoint` to
                ``checkpoint_sink`` every this many slots (taken at the
                slot boundary, before the slot runs).
            checkpoint_sink: Callable receiving each checkpoint; must be
                given together with ``checkpoint_every``.
            resume_from: Continue a killed run from its checkpoint: the
                RNG, queues, governor, policy, environment, and records
                are restored bit-for-bit, so the continuation is
                byte-identical to the uninterrupted run.  ``policy`` and
                ``state`` arguments are ignored (the checkpoint carries
                them).
        """
        path = "fluid-vectorized" if self.vectorized else "fluid-scalar"
        return run_fluid(
            self,
            _WholeFleet(self.system, self.vectorized),
            policy,
            num_slots,
            state,
            metrics,
            checkpoint_every,
            checkpoint_sink,
            resume_from,
            path=path,
            fingerprint=self._fingerprint(path, num_slots, metrics),
        )[0]

    def compare(
        self, policies: Sequence[tuple[str, OffloadingPolicy]], num_slots: int
    ) -> list[tuple[str, SimulationResult]]:
        """Run several policies under common random numbers."""
        return [
            (name, self.run(policy, num_slots)) for name, policy in policies
        ]
