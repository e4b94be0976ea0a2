"""The live LEIME runtime: devices, edge slices, cloud, and a controller.

Mirrors the event simulator's topology (Fig. 1/4) with actual threads:

* one :class:`RuntimeNode` per device CPU and per edge container slice,
  one for the cloud;
* one :class:`RuntimeLink` per device uplink and one edge→cloud link;
* a controller loop that, every slot τ, reads live queue occupancies and
  re-runs the configured offloading policy — exactly the online phase of
  §III-D, but against real queues instead of modelled ones.

Tasks walk the scalar event engine's own hop graph
(:class:`~repro.sim.pipeline.TaskPipeline`) over these workers — fault
gates, retries, fallback, exit decisions and stage accounting included —
and are booked in the same :class:`~repro.sim.streaming.TaskLedger`, so
a run returns the event simulator's
:class:`~repro.sim.events.EventSimResult`.
"""

from __future__ import annotations

import threading
from dataclasses import replace
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..core.offloading import EdgeSystem, LyapunovState, OffloadingPolicy
from ..core.vectorized import vectorized_equivalent
from ..models.multi_exit import PartitionedModel
from ..resilience.recovery import resolve_recovery
from ..sim.arrivals import ArrivalProcess
from ..sim.pipeline import Hop, OnDone, TaskPipeline
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

    The run's randomness is split into two independent streams derived
    from ``seed``, both drawn by the controller loop as it creates
    tasks: a **control** stream (arrival draws and per-task offload coin
    flips) and an **exit** stream (each task's two early-exit coins, as
    in the event engines).  Worker threads draw nothing — they compare a
    task's coins with the slot's exit thresholds — so the sequence of
    arrivals and offload decisions is byte-identical across same-seed
    runs, and so is every exit tier when worker timing cannot decide a
    task's fate (no overload control, no faults;
    ``tests/test_determinism.py`` pins both).

    Args:
        system: The deployment (devices, shares, partition(s), τ).
        policy: The per-slot offloading policy.
        speedup: Virtual seconds per wall second.
        seed: RNG seed for arrivals, offload draws and exit draws.
        vectorized: Swap the policy for its fleet-scale batched equivalent
            (see :func:`repro.core.vectorized.vectorized_equivalent`) when
            one exists; policies without a fast path run unchanged.
    """

    def __init__(
        self,
        system: EdgeSystem,
        policy: OffloadingPolicy,
        speedup: float = 200.0,
        seed: int = 0,
        vectorized: bool = False,
    ):
        self.system = system
        # The deployment the ladder's rungs degrade: ``system`` is what
        # the current slot serves, re-derived from this every slot.
        self._deployed = system
        if vectorized:
            policy = vectorized_equivalent(policy) or policy
        self.policy = policy
        self.seed = seed
        self.clock = VirtualClock(speedup)
        control_seq, exit_seq = np.random.SeedSequence(seed).spawn(2)
        self._control_rng = np.random.default_rng(control_seq)
        self._exit_rng = np.random.default_rng(exit_seq)
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
        self._task_counter = 0
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

    def _run_fingerprint(
        self, num_slots, faults, recovery, overload, metrics="records",
        qos=None,
    ) -> str:
        """Digest of a live run's configuration for checkpoint validation."""
        from ..chaos.checkpoint import run_fingerprint
        from ..resilience.faults import FAULT_CHANNELS

        return run_fingerprint(
            path="runtime",
            seed=self.seed,
            devices=self.system.num_devices,
            slots=num_slots,
            faults=None
            if faults is None
            else [getattr(faults, c) for c in FAULT_CHANNELS],
            recovery=repr(recovery),
            overload=repr(overload),
            qos=repr(qos),
            metrics=metrics,
        )

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
                must be fresh (no tasks generated) and configured
                identically; the run then proceeds normally.
        """
        n = self.system.num_devices
        if len(arrivals) != n:
            raise ValueError("need one arrival process per device")
        policy, recovery = resolve_recovery(self.policy, faults, recovery, n)
        if metrics not in ("records", "streaming"):
            raise ValueError(f"unknown metrics mode {metrics!r}")
        from ..chaos.checkpoint import (
            CheckpointError,
            should_emit,
            snapshot,
            validate_hooks,
            validate_resume,
        )
        from ..resilience.control import SlotController
        from ..resilience.qos import degrade_system_by_modes

        validate_hooks(checkpoint_every, checkpoint_sink)
        fingerprint = self._run_fingerprint(
            num_slots, faults, recovery, overload, metrics, qos
        )
        if resume_from is not None:
            validate_resume(resume_from, "runtime", "replay", fingerprint)
            with self._tasks_lock:
                if self._task_counter:
                    raise CheckpointError(
                        "resume needs a fresh runtime: this instance already "
                        f"generated {self._task_counter} tasks"
                    )
        controller = SlotController.for_system(
            self._deployed, self.seed, overload, qos
        )
        ledger = TaskLedger(metrics == "streaming", controller.qos)
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
            recovery=recovery,
            finished=self._task_finished,
            dropped=self._task_dropped,
        )
        if overload is not None and overload.queue_capacity is not None:
            for worker in self._workers:
                worker.capacity = int(overload.queue_capacity)
        state = LyapunovState.zeros(n)
        tau = self.system.slot_length
        fractional = [0.0] * n
        for slot in range(num_slots):
            self._live_slot = slot
            if should_emit(checkpoint_every, slot):
                checkpoint_sink(
                    snapshot("runtime", "replay", slot, fingerprint, {})
                )
            if slot_hook is not None:
                slot_hook(slot)
            # Live queue occupancy drives the policy, as on a real edge.
            for i in range(n):
                state.queue_local[i] = self.devices[i].backlog
                state.queue_edge[i] = self.edge_slices[i].backlog
            backlogs = [
                state.queue_local[i] + state.queue_edge[i] for i in range(n)
            ]
            expected = [proc.mean(slot) for proc in arrivals]
            w0 = self.clock.now()
            rungs, holds = controller.plan(
                slot,
                w0,
                backlogs,
                expected,
                faults is not None and faults.edge_down_at(slot),
            )
            # Every device serves its own deployed partition at its rung;
            # in-flight tasks pick the rung up at their next stage.
            self.system = degrade_system_by_modes(self._deployed, rungs)
            pipeline.set_rungs(self._deployed, rungs)
            if holds is not None:
                for i in range(n):
                    if holds[i] > w0:
                        self.edge_slices[i].hold(holds[i] - w0)
            ratios = controller.backpressure(
                policy.decide(self.system, state, expected), state.queue_edge
            )
            for i, proc in enumerate(arrivals):
                fractional[i] += float(proc.sample(slot, self._control_rng))
                count = int(fractional[i])
                fractional[i] -= count
                admitted = controller.admit(i, count)
                for k in range(count):
                    task = TaskRecord(
                        task_id=self._task_counter,
                        device=i,
                        created=self.clock.now(),
                        offloaded=bool(self._control_rng.random() < ratios[i]),
                        shed=k >= admitted,
                        qos=ledger.tag(i),
                    )
                    self._task_counter += 1
                    coins = (
                        float(self._exit_rng.random()),
                        float(self._exit_rng.random()),
                    )
                    with self._tasks_lock:
                        ledger.add(task)
                        if not task.shed:
                            self._outstanding += 1
                            self._done.clear()
                    # A shed task never enters the pipeline — it is
                    # terminal at creation and exempt from the drain; its
                    # coins are drawn all the same, so a governed run
                    # keeps its ungoverned twin's exit stream.
                    if not task.shed:
                        pipeline.launch(task, task.created, coins)
            self.clock.sleep(tau)
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
            return ledger.result(self.clock.now(), controller.log, detach=True)

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
