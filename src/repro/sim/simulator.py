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
    LiveFleet,
    LyapunovState,
    OffloadingPolicy,
    slot_cost,
)
from ..core.vectorized import (
    FleetParams,
    FleetState,
    ShardedSlot,
    VectorizedSlotEngine,
)
from ..resilience.environment import edge_down_system, run_environment
from ..resilience.recovery import resolve_recovery
from .arrivals import ArrivalProcess, SlotDraw, SlotMeans
from .environment import DynamicEnvironment, StaticEnvironment
from .metrics import SimulationResult, SlotRecord
from .streaming import FluidStreamStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..chaos.checkpoint import Checkpoint
    from ..resilience.faults import FaultPlan
    from ..resilience.overload import OverloadControl
    from ..resilience.qos import QoSConfig
    from ..resilience.recovery import RecoveryPolicy


class FluidShard(NamedTuple):
    """One shard of a fluid slot: the devices one edge serves.

    The array plane decides a row-separable policy's slot and prices
    every shard of it from one set of columns on the provider's engine;
    a shard's own policy call is only made for other policies and on the
    scalar plane.

    Attributes:
        members: Ascending global device indices (an int array or a
            list), or ``None`` for the whole fleet in device order (no
            gather/scatter needed).
        system: The shard's live system before ladder degradation;
            ``None`` when the shard has no members this slot.
        edge_down: Whether the shard's edge is out this slot: its warm
            pool is flushed and every slice serves cold.
        fleet: The members' configured devices as a
            :class:`~repro.core.offloading.LiveFleet`: what a slot that
            changes no device hands a per-shard policy call.  A
            federation gathers it on the first such call per member set
            (see ``member_fleet`` of its provider), so ``None`` until
            then.
    """

    members: "np.ndarray | list[int] | None"
    system: EdgeSystem | None
    edge_down: bool = False
    fleet: LiveFleet | None = None

    @property
    def populated(self) -> bool:
        return self.members is None or len(self.members) > 0


#: Devices per edge at or above which a fluid run that leaves
#: ``vectorized`` unset steps the array plane; below it the per-device
#: scalar loop is cheaper.  Per-slot cost on a 2-core host, scalar vs
#: array (``provisioned_system``, Poisson 0.5, best of 25): 175 vs 201 µs
#: at 14 devices and 203 vs 204 at 16 under ``FixedRatioPolicy(0.5)``;
#: 552 vs 565 and 581 vs 565 under DPP.
ARRAY_PLANE_MIN_DEVICES = 16


def resolve_plane(vectorized: bool | None, devices_per_edge: float) -> bool:
    """Whether a fluid run steps the array plane.

    ``True`` and ``False`` force a plane (the twin checks run both);
    ``None`` picks by devices per edge, the way ``engine="auto"`` picks
    an event engine.  The two planes are byte-identical, so the choice
    moves wall-clock only, never a result."""
    if vectorized is None:
        return devices_per_edge >= ARRAY_PLANE_MIN_DEVICES
    return vectorized


def _take(values, idx: np.ndarray | None):
    """``values`` (an array, or ``None``) gathered at the index array
    ``idx``; all of it for ``idx=None``, the whole fleet."""
    return values if idx is None or values is None else values[idx]


def _idle_service(live: EdgeSystem, scales) -> list[float]:
    """Each device's idle-slice first-block rate ``τ / (μ₁ / (p·F^e) +
    o^e)`` (0 for a zero share), ``p`` its share discounted by ``scales``
    — elementwise, the scalar expression's operations in its order."""
    shares = np.array(live.shares, dtype=np.float64)
    if scales is not None:
        shares *= np.asarray(scales, dtype=np.float64)
    if live.device_partitions:
        mu1 = np.array([p.mu1 for p in live.device_partitions], dtype=np.float64)
    else:
        mu1 = live.partition.mu1
    with np.errstate(divide="ignore", invalid="ignore"):
        unit = mu1 / (shares * live.edge_flops) + live.edge_overhead
        rate = live.slot_length / unit
    return np.where(shares > 0, rate, 0.0).tolist()


def _book_slot(
    owner: np.ndarray,
    num_shards: int,
    demand: np.ndarray,
    realised: np.ndarray,
    overflow: np.ndarray | None,
    stepped: list,
    flow,
    classes: np.ndarray | None,
) -> list[float]:
    """Book one slot's shed per shard and, with a QoS ``flow``, its
    per-class flow; returns the per-shard shed as Python floats.

    ``demand`` and ``realised`` are the admission gate's per-device
    input and output (equal without a gate), ``overflow`` the capacity
    clamp's ``(N, 2)`` rows (see
    :func:`~repro.resilience.overload.clamp_queues`) or ``None``, and
    ``stepped`` holds each stepped shard's member index (``None`` for the
    whole fleet) and per-device service times, in the order the shards
    were stepped.  Every total is a left-to-right sum: a shard's shed is
    its members' gate shed in device order plus, summed apart, their
    overflow (local before edge); a class's flow takes the gate's
    per-device rows in device order, then the service times and the
    overflow shard by shard.  ``np.bincount`` adds its weights one by
    one, so each is the per-device loop's float.
    """
    shed = np.bincount(owner, weights=demand - realised, minlength=num_shards)
    if overflow is not None:
        shed = shed + np.bincount(
            np.repeat(owner, 2), weights=overflow.ravel(), minlength=num_shards
        )
    if flow is not None:
        k = len(flow.generated)
        cells = [classes, classes + k, classes + 2 * k]
        values = [demand, realised, demand - realised]
        for idx, times in stepped:
            members = _take(classes, idx)
            cells.append(members + 3 * k)
            values.append(times)
            if overflow is not None:
                # Shard by shard: a cell takes the time or the overflow
                # rows, never both, so each cell's order is unchanged.
                clamped = np.repeat(members, 2)
                cells += [clamped, clamped + 2 * k]
                values += [_take(overflow, idx).ravel()] * 2
        flow.add(np.concatenate(cells), np.concatenate(values))
    return shed.tolist()


class _WholeFleet:
    """:class:`SlotSimulator`'s shard provider: one shard over the whole
    fleet.  Its live system comes from the environment's optional
    ``system_at(slot, base)`` extension, collapsed on the fault plan's
    outage slots.  The plane is resolved from the fleet size, and the
    engine is derived from the (immutable) system — rebuilt per run, not
    checkpointed."""

    num_shards = 1

    def __init__(
        self, system: EdgeSystem, vectorized: bool | None, faults: "FaultPlan | None"
    ):
        self.system = system
        self.num_devices = system.num_devices
        self.devices = system.devices
        self.slot_length = system.slot_length
        self.owner = np.zeros(system.num_devices, dtype=np.intp)
        self.vectorized = resolve_plane(vectorized, system.num_devices)
        self.fleet = LiveFleet.of(system.devices)
        self.engine = (
            VectorizedSlotEngine(system, FleetParams.from_system(system, self.fleet))
            if self.vectorized
            else None
        )
        self.faults = faults

    def qos_states(self, config: "QoSConfig", seed: int) -> list:
        from ..resilience.qos import QoSState

        return [QoSState(config, self.system, seed)]

    def environment(self, configured: DynamicEnvironment) -> DynamicEnvironment:
        """The run's own environment: a copy of the configured one, under
        the fault plan's device channels."""
        return run_environment(configured, self.faults)

    def at(self, slot: int, environment) -> tuple[np.ndarray, tuple[FluidShard]]:
        system_at = getattr(environment, "system_at", None)
        live = self.system if system_at is None else system_at(slot, self.system)
        down = self.faults is not None and self.faults.edge_down_at(slot)
        if down:
            live = edge_down_system(live)
        return self.owner, (FluidShard(None, live, down),)


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
    per_shard: bool = False,
) -> tuple[
    SimulationResult, list[list[SlotRecord]] | None, list[FluidStreamStats] | None
]:
    """The fluid per-slot pipeline, stepped over a list of shards.

    ``sim`` is the run configuration (``arrivals``, ``environment``,
    ``seed``, ``include_tail``, ``vectorized``, ``overload``, ``qos``,
    ``faults``); the run's checkpoint fingerprint digests all of it.
    ``shards`` is the shard provider: ``num_devices``, ``num_shards``,
    the base ``devices`` and their columns as a ``fleet`` (a slot whose
    environment hands the devices back unchanged is decided and priced
    on it; a sharded provider's ``member_fleet(e)`` gathers a shard's
    rows for a per-shard policy call), ``slot_length``,
    the resolved plane ``vectorized`` (one for every shard: the array
    plane keeps one global :class:`~repro.core.vectorized.FleetState`)
    and its ``engine`` (``None`` on the scalar plane),
    ``environment(configured)`` (the run's own copy of the environment,
    so every run starts from the configured one),
    ``qos_states(config, seed)`` (one
    :class:`~repro.resilience.qos.QoSState` per shard over the global
    device numbering), and ``at(slot, environment)`` returning each
    device's shard index (an int array) and one :class:`FluidShard` per
    shard.

    The loop owns the global things: one RNG drawn in global device
    order (a slot's expected arrivals one
    :class:`~repro.sim.arrivals.SlotMeans` column, its arrivals one
    :class:`~repro.sim.arrivals.SlotDraw` call), the Lyapunov queues (a
    migrating device's backlog rides along
    to its new shard), one admission gate (token buckets are
    device-scoped), the per-class flow, and the fleet-wide record or
    stream.  Per shard it keeps one
    :class:`~repro.resilience.control.SlotController` (a ladder over its
    members' mean backlog and a warm pool).  Every device carries a rung
    (uniform within a shard unless QoS biases it) whenever overload
    control or QoS is on; a run with neither builds no control-plane
    array.

    On the array plane the engine derives the slot's columns once
    (:meth:`~repro.core.vectorized.VectorizedSlotEngine.columns`; a
    sharded slot as a :class:`~repro.core.vectorized.ShardedSlot`, each
    device at its shard's share, partition and site).  A policy that
    declares ``row_separable`` decides the whole slot from them in one
    ``policy.decide`` call; any other policy, and every policy on the
    scalar plane, is consulted once per populated shard with the
    shard's live system.  One backpressure call then clamps every
    device at its shard's rung, one
    :meth:`~repro.core.vectorized.VectorizedSlotEngine.slot_costs` call
    prices every device from the same columns (the cold-start share
    scales applied), and one ``update`` advances the fleet state.  Each
    shard's totals are left-to-right sums over its members in device
    order, as the scalar plane adds them.

    The control plane is one implementation for both planes: the gate,
    backpressure, the stranded-edge drain, the capacity clamp, the
    per-shard shed and the per-class flow are each one array expression
    over the slot (a shard's part is an index gather), elementwise
    float64 operations in the order of the scalar expressions.  Every
    order-sensitive sum stays sequential: the per-shard shed and the
    per-class flow are ``np.bincount`` sums in device order (shard by
    shard for the flow, as the shards are stepped), the slot totals
    left-to-right Python sums.  With one shard every per-shard sum is
    ``0.0 + x == x``, so the whole-fleet run and an E=1 federation are
    the same computation.  The scalar plane reads the control plane's
    outputs as Python floats, so both planes stay byte-identical.

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
    from ..chaos.checkpoint import checkpoint_hook
    from ..resilience import qos as _qos
    from ..resilience.control import SlotController
    from ..resilience.overload import MODE_FULL, AdmissionGate, clamp_queues

    emit = checkpoint_hook(
        sim, path, "state", checkpoint_every, checkpoint_sink, resume_from,
        slots=num_slots, metrics=metrics,
    )
    overload = sim.overload
    n, num_shards = shards.num_devices, shards.num_shards
    if resume_from is not None:
        carried = resume_from.payload()
        start_slot = resume_from.slot
    else:
        if state is None:
            state = LyapunovState.zeros(n)
        streaming = metrics == "streaming"
        carried = dict(
            rng=np.random.default_rng(sim.seed),
            state=state,
            fleet=FleetState.from_lyapunov(state) if shards.vectorized else None,
            gate=None if overload is None else AdmissionGate(overload, n),
            controllers=[
                SlotController(n, overload, qstate, gate=False)
                for qstate in (
                    [None] * num_shards
                    if sim.qos is None
                    else shards.qos_states(sim.qos, sim.seed)
                )
            ],
            flow=None if sim.qos is None else _qos.QoSFlow(len(sim.qos.classes)),
            records=[],
            shard_records=[[] for _ in range(num_shards)] if per_shard else None,
            stream=FluidStreamStats() if streaming else None,
            shard_streams=(
                [FluidStreamStats() for _ in range(num_shards)]
                if per_shard and streaming
                else None
            ),
            policy=policy,
            environment=shards.environment(sim.environment),
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
    controlled = overload is not None or qstate0 is not None
    classes = None if qstate0 is None else np.asarray(qstate0.class_of, np.intp)
    half_slot = num_slots // 2
    tau = shards.slot_length
    means = SlotMeans(arrivals)
    draw = SlotDraw(arrivals)
    # The array plane consults a row-separable policy once per slot.
    one_call = fleet is not None and getattr(policy, "row_separable", False)
    # A FencedController needs the true slot index: a federation consults
    # the policy once per shard, not once per slot.
    begin_slot = getattr(policy, "begin_slot", None)
    for slot in range(start_slot, num_slots):
        emit(slot, carried)
        if begin_slot is not None:
            begin_slot(slot)
        owner, slot_shards = shards.at(slot, environment)
        index = [
            None if shard.members is None else np.asarray(shard.members, np.intp)
            for shard in slot_shards
        ]
        sharded = index[0] is not None
        # Expected arrivals are deterministic (no RNG draw), so the QoS
        # plans can read them before sampling without perturbing the
        # arrival/environment stream.
        expected = means(slot)
        # The slot-start queues as arrays.  On the array plane they are
        # the fleet state's own arrays, which only the slot's one update
        # replaces, after every shard has decided.
        queue_local = queue_edge = None
        if fleet is not None:
            queue_local, queue_edge = fleet.queue_local, fleet.queue_edge
        elif gate is not None or sharded:
            queue_local = np.array(state.queue_local)
            queue_edge = np.array(state.queue_edge)
        backlogs = None if gate is None else queue_local + queue_edge
        # Each shard's controller plans its members' rungs (an
        # unpopulated shard's ladder holds its rung) and warm pool.  A
        # cold load discounts the slice's share for the overlapping
        # fraction of the slot — the fluid twin of the event engines'
        # service-start hold.
        w0 = slot * tau
        device_modes = scales = None
        if controlled:
            for e, shard in enumerate(slot_shards):
                idx = index[e]
                controller = controllers[e]
                shard_expected = expected
                if idx is not None and controller.qos is not None:
                    # Non-members carry zero expected demand in this
                    # shard's plan — they neither request its warm pool
                    # nor charge its shed budget.
                    shard_expected = np.where(owner == e, expected, 0.0)
                rungs, holds = controller.plan(
                    slot, w0, _take(backlogs, idx), shard_expected, shard.edge_down
                )
                shard_scales = (
                    None
                    if holds is None
                    else controller.qos.share_scales(holds, w0, tau)
                )
                if idx is None:
                    device_modes, scales = rungs, shard_scales
                    continue
                if device_modes is None:
                    device_modes = np.full(n, MODE_FULL)
                    scales = None if shard_scales is None else np.ones(n)
                device_modes[idx] = rungs[idx]
                if scales is not None:
                    scales[idx] = shard_scales[idx]
        live_devices = environment.devices_at(slot, shards.devices, rng)
        # A static environment hands the configured devices back: the
        # slot is then decided and priced on the provider's fleet.
        unchanged = live_devices is shards.devices
        if sharded and not unchanged:
            # Every shard gathers its members from one live fleet.
            live_devices = LiveFleet.of(live_devices)
        generated = draw(slot, expected, rng)
        realised = generated
        if gate is not None or qflow is not None:
            demand = np.array(generated)
            realised = (
                demand
                if gate is None
                else gate.admit(demand, backlogs, device_modes)
            )
        # The data plane's view of the admitted demand: Python floats on
        # the scalar plane, an array to gather shards from on the array
        # plane.
        admitted = realised
        if fleet is None:
            if isinstance(realised, np.ndarray):
                admitted = realised.tolist()
        elif sharded:
            admitted = np.asarray(realised)

        # Each populated shard's live system: degraded rungs replace the
        # live partitions, so the fluid cost model serves at the
        # degraded exit depth.
        steps = []
        for e, shard in enumerate(slot_shards):
            if shard.populated:
                idx = index[e]
                member_modes = _take(device_modes, idx)
                live = (
                    shard.system
                    if member_modes is None
                    else _qos.degrade_system_by_modes(shard.system, member_modes)
                )
                steps.append((e, idx, live, _take(scales, idx), None))
        columns = None
        if fleet is not None:
            # The slot's columns, derived once: the policy may decide
            # from them, and the slot is priced from them.
            if sharded:
                priced = [None] * num_shards
                for e, idx, live, _, _ in steps:
                    priced[e] = (idx, live, live is slot_shards[e].system)
                slot_system = ShardedSlot(owner, priced)
            else:
                slot_system = steps[0][2]
            columns = shards.engine.columns(
                shards.fleet if unchanged else live_devices, slot_system
            )
        if one_call:
            ratios_global = policy.decide(columns, fleet, expected, None)
            if sharded:
                ratios_global = np.asarray(ratios_global, dtype=np.float64)
        else:
            ratios_global = np.zeros(n) if sharded else None
            for e, idx, live, _, _ in steps:
                if idx is None:
                    sub_state = LyapunovState(state.queue_local, state.queue_edge)
                    member_expected = expected.tolist()
                    member_devices = shards.fleet if unchanged else live_devices
                else:
                    sub_state = LyapunovState(
                        queue_local[idx].tolist(), queue_edge[idx].tolist()
                    )
                    member_expected = expected[idx].tolist()
                    member_devices = (
                        shards.member_fleet(e)
                        if unchanged
                        else live_devices.take(idx)
                    )
                ratios = policy.decide(
                    live, sub_state, member_expected, member_devices
                )
                if idx is None:
                    ratios_global = ratios
                else:
                    ratios_global[idx] = ratios
        if overload is not None:
            # One clamp over the slot, each device at its shard's rung.
            ratios_global = _qos.apply_backpressure_by_mode(
                ratios_global, queue_edge, overload, device_modes
            )

        if fleet is None:
            shard_time = [0.0] * num_shards
            shard_arrivals = [0.0] * num_shards
            slot_ratios = ratios_global
            if isinstance(slot_ratios, np.ndarray):
                slot_ratios = slot_ratios.tolist()
            for j, (e, idx, live, member_scales, _) in enumerate(steps):
                step_scales = (
                    None if member_scales is None else member_scales.tolist()
                )
                times = []
                for k, i in enumerate(range(n) if idx is None else idx.tolist()):
                    share = live.shares[k]
                    if step_scales is not None:
                        share = share * step_scales[k]
                    cost = slot_cost(
                        live_devices[i],
                        live,
                        slot_ratios[i],
                        admitted[i],
                        state.queue_local[i],
                        state.queue_edge[i],
                        share,
                        include_tail=sim.include_tail,
                        partition=live.partition_for(k),
                    )
                    times.append(cost.total_time)
                    shard_time[e] += cost.total_time
                    shard_arrivals[e] += admitted[i]
                    state.update(i, cost)
                steps[j] = (e, idx, live, member_scales, times)
        else:
            # One pricing call over the whole slot, from its columns.
            cost = shards.engine.slot_costs(
                None,
                ratios_global,
                admitted,
                fleet,
                include_tail=sim.include_tail,
                system=columns,
                share_scale=scales,
            )
            fleet.update(cost)
            # Left-to-right sums over each shard's members in device
            # order mirror the scalar loop (np.sum is pairwise;
            # np.bincount adds its weights one by one), keeping the two
            # planes byte-identical.
            total_time = cost.total_time
            shard_time = np.bincount(
                owner, weights=total_time, minlength=num_shards
            ).tolist()
            shard_arrivals = np.bincount(
                owner, weights=cost.arrivals, minlength=num_shards
            ).tolist()
            steps = [
                (e, idx, live, member_scales, _take(total_time, idx))
                for e, idx, live, member_scales, _ in steps
            ]

        overflow = None
        if gate is not None:
            if fleet is not None:
                queue_local, queue_edge = fleet.queue_local, fleet.queue_edge
            else:
                queue_local = np.array(state.queue_local)
                queue_edge = np.array(state.queue_edge)

            def idle_service():
                # Each device's idle slice drains at its shard's
                # full first-block rate (see drain_stranded_edge_by_mode).
                if not sharded:
                    _, _, live, member_scales, _ = steps[0]
                    return _idle_service(live, member_scales)
                service = np.zeros(n)
                for _, idx, live, member_scales, _ in steps:
                    service[idx] = _idle_service(live, member_scales)
                return service

            queue_edge = _qos.drain_stranded_edge_by_mode(
                queue_edge,
                ratios_global,
                idle_service,
                overload.queue_high,
                device_modes,
            )
            if overload.queue_capacity is not None:
                # Bounded queues: overflow past the capacity is shed.
                overflow = clamp_queues(
                    queue_local, queue_edge, overload.queue_capacity
                )
            if fleet is not None:
                fleet.queue_local, fleet.queue_edge = queue_local, queue_edge
            else:
                state.queue_local[:] = queue_local.tolist()
                state.queue_edge[:] = queue_edge.tolist()
        if fleet is not None:
            fleet.sync_to(state)
        shard_shed = [0.0] * num_shards
        if gate is not None or qflow is not None:
            shard_shed = _book_slot(
                owner,
                num_shards,
                demand,
                realised,
                overflow,
                [(idx, times) for _, idx, _, _, times in steps],
                qflow,
                classes,
            )

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
                    e,
                    shard_arrivals[e],
                    shard_time[e],
                    shard_shed[e],
                    controllers[e].mode,
                )
                for e in range(num_shards)
            ]
            if fleet is not None:
                final_local, final_edge = fleet.queue_local, fleet.queue_edge
            else:
                final_local = np.array(state.queue_local)
                final_edge = np.array(state.queue_edge)
            if shard_streams is not None:
                # Each shard's backlog: its members' queues summed in
                # device order, as the record's tuples would add up.
                shard_backlog = (
                    np.bincount(owner, weights=final_local, minlength=num_shards)
                    + np.bincount(owner, weights=final_edge, minlength=num_shards)
                ).tolist()
        for row_stream, row_records, e, arrived, spent, shed, mode in rows:
            if row_stream is not None:
                # Same numbers a SlotRecord would carry, folded into the
                # constant-size aggregate instead of retained per slot.
                backlog = (
                    float(sum(state.queue_local) + sum(state.queue_edge))
                    if e is None
                    else shard_backlog[e]
                )
                row_stream.observe_slot(
                    slot, arrived, spent, shed, backlog, mode, half_slot
                )
                continue
            idx = None if e is None else index[e]
            row_ratios = _take(ratios_global, idx)
            if idx is None:
                row_local, row_edge = state.queue_local, state.queue_edge
            else:
                row_local = final_local[idx].tolist()
                row_edge = final_edge[idx].tolist()
            if isinstance(row_ratios, np.ndarray):
                row_ratios = row_ratios.tolist()
            row_records.append(
                SlotRecord(
                    slot=slot,
                    arrivals=arrived,
                    total_time=spent,
                    ratios=tuple(row_ratios),
                    queue_local=tuple(row_local),
                    queue_edge=tuple(row_edge),
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
        vectorized: The fluid data plane.  ``None`` (default) picks it
            by fleet size (:func:`resolve_plane`): the per-device scalar
            loop below ``ARRAY_PLANE_MIN_DEVICES`` devices, the array
            expressions of
            :class:`~repro.core.vectorized.VectorizedSlotEngine` at or
            above it.  ``True``/``False`` force the array/scalar plane,
            which the twin checks do.  The RNG call sequence is the same
            on both, so both see the same arrivals and environment
            trajectory and write byte-identical records.
        overload: An :class:`~repro.resilience.overload.OverloadControl`
            enabling the load-control layer: per-slot admission gating
            (shed demand is recorded on each
            :class:`~repro.sim.metrics.SlotRecord`), backpressure ratio
            clamps, bounded queues, and the degradation ladder (degraded
            rungs replace the live system's partitions via
            :func:`~repro.resilience.qos.degrade_system_by_modes`).  The
            gate, backpressure, drain, clamp and ladder run *outside*
            the scalar/vectorized branch, as whole-slot elementwise
            float64 expressions with sequential sums (see
            :func:`run_fluid`), so governed runs stay byte-identical
            across both fluid paths.
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
        faults: A :class:`~repro.resilience.faults.FaultPlan` to replay,
            as the event simulators and the live runtime take it.  Each
            run overlays its device channels on its own copy of
            ``environment`` and collapses the edge on outage slots, which
            also flush the QoS warm pool
            (:mod:`repro.resilience.environment`).  No RNG draw, so both
            planes stay byte-identical.
        recovery: The :class:`~repro.resilience.recovery.RecoveryPolicy`
            budget (``RecoveryPolicy.none()`` by default); requires
            ``faults``.  Only its control-plane fields act in the fluid
            model (``exclude_dead_edge``, ``watchdog``): with either set,
            each run wraps the policy passed to :meth:`run` in a fresh
            :class:`~repro.resilience.recovery.ResilientPolicy`.

    Environments may additionally expose a ``system_at(slot, base)``
    method (the :class:`~repro.traces.replay.TraceEnvironment` extension):
    it returns the :class:`EdgeSystem` in effect during the slot, letting
    a trace vary *testbed* parameters (shared edge capacity) and not just
    device links.  Both the scalar loop and the vectorized engine read
    the same live system, so trace replay stays byte-identical across
    paths.
    """

    system: EdgeSystem
    arrivals: Sequence[ArrivalProcess]
    environment: DynamicEnvironment = field(default_factory=StaticEnvironment)
    include_tail: bool = True
    seed: int = 0
    vectorized: bool | None = None
    overload: "OverloadControl | None" = None
    qos: "QoSConfig | None" = None
    faults: "FaultPlan | None" = None
    recovery: "RecoveryPolicy | None" = None

    def __post_init__(self) -> None:
        if len(self.arrivals) != self.system.num_devices:
            raise ValueError(
                f"need one arrival process per device: "
                f"{len(self.arrivals)} != {self.system.num_devices}"
            )
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        # Reject a mismatched fault plan or budget at construction.
        resolve_recovery(
            None, self.faults, self.recovery, self.system.num_devices
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
        policy, _ = resolve_recovery(
            policy, self.faults, self.recovery, self.system.num_devices
        )
        shards = _WholeFleet(self.system, self.vectorized, self.faults)
        return run_fluid(
            self,
            shards,
            policy,
            num_slots,
            state,
            metrics,
            checkpoint_every,
            checkpoint_sink,
            resume_from,
            path="fluid-vectorized" if shards.vectorized else "fluid-scalar",
        )[0]

    def compare(
        self, policies: Sequence[tuple[str, OffloadingPolicy]], num_slots: int
    ) -> list[tuple[str, SimulationResult]]:
        """Run several policies under common random numbers."""
        return [
            (name, self.run(policy, num_slots)) for name, policy in policies
        ]
