"""The live LEIME runtime: devices, edge slices, cloud, and a controller.

Mirrors the event simulator's topology (Fig. 1/4) with actual threads:

* one :class:`RuntimeNode` per device CPU and per edge container slice,
  one for the cloud;
* one :class:`RuntimeLink` per device uplink and one edge→cloud link;
* a controller loop that, every slot τ, reads live queue occupancies and
  runs the event engines' slot step
  (:class:`~repro.sim.pipeline.TaskSlots`) — the online phase of §III-D
  against real queues instead of modelled ones.

Tasks walk the scalar event engine's own hop graph
(:class:`~repro.sim.pipeline.TaskPipeline`) over these workers and are
booked in the same :class:`~repro.sim.streaming.TaskLedger`, so a run
returns the event simulator's :class:`~repro.sim.events.EventSimResult`.
"""

from __future__ import annotations

import math
import threading
from dataclasses import replace
from typing import TYPE_CHECKING, Callable

from ..core.offloading import EdgeSystem, OffloadingPolicy
from ..models.multi_exit import PartitionedModel
from ..sim.arrivals import ArrivalProcess
from ..sim.pipeline import Hop, OnDone, TaskPipeline, TaskSlots
from ..sim.streaming import TaskLedger
from ..sim.tasks import TaskRecord
from .clock import VirtualClock
from .node import RuntimeLink, RuntimeNode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..resilience.faults import FaultPlan
    from ..resilience.overload import OverloadControl
    from ..resilience.qos import QoSConfig
    from ..resilience.recovery import RecoveryPolicy
    from ..sim.events import EventSimResult


def _hop(worker: RuntimeNode, send: Callable) -> Hop:
    """A threaded worker as a pipeline hop; ``send`` is its ``submit``
    (or a link's ``transmit``).  The worker keeps time on the shared
    clock, so the hop's start time goes unused, and a completion reports
    the job's nominal service time — the rest of the hop's span, thread
    jitter included, is queueing."""

    def hop(time: float, demand: float, on_done: OnDone) -> bool:
        service = worker._service_time(demand)
        return send(demand, lambda t: on_done(t, service))

    return hop


class LeimeRuntime:
    """Run a deployed :class:`EdgeSystem` on live threads.

    Each run draws from the event engines' two streams derived from
    ``seed`` (see :class:`~repro.sim.pipeline.TaskSlots`), all in the
    controller loop; worker threads only compare a task's exit coins
    with the slot's thresholds.  So same-seed runs make the same arrival
    and offload decisions, and the same exit decisions when worker
    timing cannot decide a task's fate (no overload control, no faults)
    — those of the scalar engine with slot-start arrivals.

    Args:
        system: The deployment (devices, shares, partition(s), τ).
        policy: The per-slot offloading policy.
        speedup: Virtual seconds per wall second.
        seed: RNG seed for arrivals, offload draws and exit draws.
    """

    def __init__(
        self,
        system: EdgeSystem,
        policy: OffloadingPolicy,
        speedup: float = 200.0,
        seed: int = 0,
    ):
        if not 0 <= seed < math.inf:
            raise ValueError("seed must be non-negative")
        self.system = system
        # The deployment the ladder's rungs degrade: ``system`` is what
        # the current slot serves, re-derived from this every slot.
        self._deployed = system
        self.policy = policy
        self.seed = seed
        self.clock = VirtualClock(speedup)
        n = system.num_devices
        self.devices = [
            RuntimeNode(
                f"device-{i}",
                system.devices[i].flops,
                self.clock,
                overhead=system.devices[i].overhead,
            )
            for i in range(n)
        ]
        self.uplinks = [
            RuntimeLink(f"uplink-{i}", system.devices[i].link, self.clock)
            for i in range(n)
        ]
        self.edge_slices = [
            RuntimeNode(
                f"edge-slice-{i}",
                max(system.shares[i], 1e-9) * system.edge_flops,
                self.clock,
                overhead=system.edge_overhead,
            )
            for i in range(n)
        ]
        self.cloud_link = RuntimeLink("edge-cloud", system.edge_cloud, self.clock)
        self.cloud = RuntimeNode(
            "cloud", system.cloud_flops, self.clock, overhead=system.cloud_overhead
        )
        self._workers = (
            *self.devices,
            *self.uplinks,
            *self.edge_slices,
            self.cloud_link,
            self.cloud,
        )
        # The current run's books; every access holds the task lock, and
        # the cut at the end of a run detaches them, so workers finishing
        # late cannot change a returned result.
        self._ledger: TaskLedger | None = None
        self._tasks_lock = threading.Lock()
        self._done = threading.Event()
        self._outstanding = 0
        # The current run's hop graph; its fault cursor is the
        # controller's slot counter.
        self._pipeline: TaskPipeline | None = None
        self._live_slot = 0

    # -- terminal hooks (called by the pipeline on worker threads) ----------

    def _task_finished(self, task: TaskRecord, time: float, tier: int) -> None:
        with self._tasks_lock:
            if self._ledger is not None:
                self._ledger.finish(task, time, tier)
            self._task_left()

    def _task_dropped(self, task: TaskRecord) -> None:
        """Terminal failure: the task leaves the system uncompleted (it
        still decrements the drain counter, so runs always terminate).
        A bounded queue refusing a task mid-pipeline lands here too."""
        with self._tasks_lock:
            if self._ledger is not None:
                self._ledger.drop(task)
            self._task_left()

    def _task_left(self) -> None:
        """One launched task reached its terminal event (task lock held)."""
        self._outstanding -= 1
        if self._outstanding == 0:
            self._done.set()

    def _after(
        self, time: float, delay: float, again: Callable[[float], None]
    ) -> None:
        """A retry's backoff: a timer thread, in scaled wall time."""
        timer = threading.Timer(
            delay / self.clock.speedup, lambda: again(self.clock.now())
        )
        timer.daemon = True
        timer.start()

    # -- live reconfiguration --------------------------------------------------

    def apply_partition(self, partition: PartitionedModel) -> None:
        """Hot-swap the deployed exit setting.

        Tasks launched after the swap read the new partition at every
        stage; in-flight tasks pick it up at their *next* stage (a task
        mid-first-block finishes that block at the old μ but transfers
        per the new plan) — the cheap approximation of a rolling model
        rollout.  The exit thresholds, and during a governed run the
        slot's rungs, follow from the next slot boundary.  Per-device
        partitions are cleared: a re-plan deploys one fleet-wide
        setting, as the paper's planner does.
        """
        self.system = self._deployed = replace(
            self._deployed, partition=partition, device_partitions=()
        )

    # -- the controller loop ---------------------------------------------------

    def run(
        self,
        arrivals: list[ArrivalProcess],
        num_slots: int,
        drain_timeout: float = 30.0,
        slot_hook: Callable[[int], object] | None = None,
        faults: "FaultPlan | None" = None,
        recovery: "RecoveryPolicy | None" = None,
        overload: "OverloadControl | None" = None,
        qos: "QoSConfig | None" = None,
        metrics: str = "records",
        checkpoint_every: int | None = None,
        checkpoint_sink=None,
        resume_from=None,
    ) -> EventSimResult:
        """Generate ``num_slots`` slots of live tasks, wait for drain, and
        return the run as an :class:`~repro.sim.events.EventSimResult`
        whose ``horizon`` is the virtual clock at the cut and whose
        ``modes`` are the ladder's rungs per slot.

        Args:
            arrivals: One process per device.
            num_slots: Slots to generate.
            metrics: ``"records"`` (default) retains one
                :class:`~repro.sim.tasks.TaskRecord` per task;
                ``"streaming"`` folds each task into a constant-size
                :class:`~repro.sim.streaming.StreamingTaskStats` at its
                terminal event (finish/drop/shed, under the task lock),
                so a long soak's memory tracks the in-flight population
                rather than the run total.
            drain_timeout: Wall-clock seconds to wait for completion after
                generation ends before giving up (unfinished tasks then
                count as in flight in the result).
            slot_hook: Called with the slot index at the top of every
                slot, before the slot's control plan — the attachment
                point for trace-driven adaptation
                (:class:`~repro.traces.drift.BandwidthDriftMonitor`
                re-plans exit settings through it).
            faults: A :class:`~repro.resilience.faults.FaultPlan` to
                replay live: worker threads consult the plan row for the
                current virtual slot before every uplink transfer and
                edge submission (drops, corruption, outages) and scale
                the local first block by the straggler factor.
            recovery: The retry/fallback/watchdog budget (defaults to
                ``RecoveryPolicy.none()``, the lose-on-first-contact
                baseline).  Requires ``faults``.  When the budget enables
                dead-edge exclusion or the watchdog, the controller wraps
                its policy in a
                :class:`~repro.resilience.recovery.ResilientPolicy` for
                the run.
            overload: An
                :class:`~repro.resilience.overload.OverloadControl`
                enabling the live overload layer: worker queues are
                bounded to ``queue_capacity``, the admission gate sheds
                demand past the watermarks, backpressure clamps the
                offloading ratios, and each slot serves every device its
                own deployed partition degraded to its ladder rung.
            qos: A :class:`~repro.resilience.qos.QoSConfig` enabling
                class-aware serving: per-device classes (seeded
                assignment — tasks carry their class name), per-class
                ladder rungs, budgeted utility-per-cost shedding, and the
                warm-pool/cold-start model — a cold model load enqueues
                a hold sentinel on the device's edge slice
                (:meth:`~repro.runtime.node.RuntimeNode.hold`), so work
                behind it waits out the load.  The QoS control plane
                draws nothing from the control RNG, so attaching it
                leaves arrival draws and offload coins unchanged.
            checkpoint_every: Emit a ``"replay"``-kind checkpoint to
                ``checkpoint_sink`` at the top of every such slot.  Live
                worker threads cannot be snapshotted, so the runtime's
                checkpoints are fingerprint markers: resume validates the
                configuration and re-executes from slot 0 on a *fresh*
                runtime — the control plane is deterministic from the
                seed, so the re-run reproduces the control-plane record.
            checkpoint_sink: Callable receiving each checkpoint.
            resume_from: A checkpoint from a killed run.  This runtime
                must be fresh (never run) and configured identically;
                the run then proceeds normally.
        """
        from ..chaos.checkpoint import CheckpointError, checkpoint_hook

        slots = TaskSlots(
            self._deployed,
            arrivals,
            self.policy,
            seed=self.seed,
            metrics=metrics,
            faults=faults,
            recovery=recovery,
            overload=overload,
            qos=qos,
        )
        # The runtime's configuration is split between its constructor
        # and this call; the policy stays out, as on every path.
        config = dict(
            system=self._deployed, seed=self.seed, arrivals=arrivals,
            faults=faults, recovery=recovery, overload=overload, qos=qos,
        )
        emit = checkpoint_hook(
            config, "runtime", "replay", checkpoint_every, checkpoint_sink,
            resume_from, slots=num_slots, metrics=metrics,
        )
        if resume_from is not None and self._pipeline is not None:
            raise CheckpointError(
                "resume needs a fresh runtime: this instance already ran"
            )
        ledger = slots.ledger
        with self._tasks_lock:
            self._ledger = ledger
        self._pipeline = pipeline = TaskPipeline(
            # Read at every stage: a hot-swapped partition reaches
            # in-flight tasks at their next hop.
            partition_for=lambda i: self.system.partition_for(i),
            device_cpu=[_hop(cpu, cpu.submit) for cpu in self.devices],
            uplink=[_hop(link, link.transmit) for link in self.uplinks],
            edge_slice=[_hop(cpu, cpu.submit) for cpu in self.edge_slices],
            cloud_link=_hop(self.cloud_link, self.cloud_link.transmit),
            cloud_cpu=_hop(self.cloud, self.cloud.submit),
            wait=self._after,
            # Keyed off the slot *counter*, not the virtual clock: the
            # controller can fall behind wall-scaled time, and a
            # clock-derived row would replay the wrong slot.  Workers
            # race the counter, so a fault read near a boundary may land
            # one row off — determinism is promised for the control
            # plane, not the worker interleaving.
            fault_slot=lambda time: self._live_slot,
            faults=faults,
            recovery=slots.recovery,
            finished=self._task_finished,
            dropped=self._task_dropped,
        )
        if overload is not None and overload.queue_capacity is not None:
            for worker in self._workers:
                worker.capacity = int(overload.queue_capacity)
        for slot in range(num_slots):
            self._live_slot = slot
            emit(slot, {})
            if slot_hook is not None:
                slot_hook(slot)
            # Live queue occupancy drives the policy, as on a real edge;
            # every device then serves its own deployed partition at its
            # rung, which in-flight tasks pick up at their next stage.
            w0 = self.clock.now()
            _, rungs, holds, self.system = slots.control(
                slot,
                w0,
                [cpu.backlog for cpu in self.devices],
                [cpu.backlog for cpu in self.edge_slices],
                self._deployed,
            )
            pipeline.set_rungs(self._deployed, rungs)
            if holds is not None:
                for cpu, hold in zip(self.edge_slices, holds):
                    if hold > w0:
                        cpu.hold(hold - w0)
            # The slot's tasks arrive at one clock read, after the
            # decision; they are booked under the task lock the workers'
            # terminal events take.
            with self._tasks_lock:
                launches = ledger.add_records(
                    slots.draw(slot, self.clock.now())
                )
                self._outstanding += len(launches)
                if launches:
                    self._done.clear()
            # A shed task never enters the pipeline — it is terminal at
            # creation and exempt from the drain.
            for task, coins in launches:
                pipeline.launch(task, task.created, coins)
            self.clock.sleep(slots.tau)
        # Generation is over: park the fault cursor past the plan (a
        # healthy world), so retries issued during the drain succeed.
        self._live_slot = max(num_slots, faults.num_slots if faults else 0)
        with self._tasks_lock:
            nothing_pending = self._outstanding == 0
        if not nothing_pending:
            self._done.wait(timeout=drain_timeout)
        with self._tasks_lock:
            # Tasks that beat the drain timeout are in flight at the cut.
            # It is taken under the lock terminal events take, and the
            # books are detached (records copied), so a task finishing
            # later changes neither the counts nor the records.
            self._ledger = None
            return slots.result(self.clock.now(), detach=True)

    def shutdown(self) -> bool:
        """Stop every worker thread.  Returns ``True`` when all stopped
        cleanly; a wedged worker warns loudly (see
        :meth:`~repro.runtime.node.RuntimeNode.shutdown`) and flips the
        result to ``False``, but never blocks the remaining workers from
        being stopped."""
        clean = True
        for worker in self._workers:
            clean = worker.shutdown() and clean
        return clean
