"""The live LEIME runtime: devices, edge slices, cloud, and a controller.

Mirrors the event simulator's topology (Fig. 1/4) with actual threads:

* one :class:`RuntimeNode` per device CPU and per edge container slice,
  one for the cloud;
* one :class:`RuntimeLink` per device uplink and one edge→cloud link;
* a controller loop that, every slot τ, reads live queue occupancies and
  re-runs the configured offloading policy — exactly the online phase of
  §III-D, but against real queues instead of modelled ones.

Tasks carry the same :class:`~repro.sim.tasks.TaskRecord` lifecycle as the
event simulator, so results are directly comparable.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..core.offloading import EdgeSystem, LyapunovState, OffloadingPolicy
from ..core.vectorized import vectorized_equivalent
from ..models.multi_exit import PartitionedModel
from ..resilience.recovery import resolve_recovery
from ..sim.arrivals import ArrivalProcess
from ..sim.streaming import StreamingTaskStats
from ..sim.tasks import TaskRecord
from .clock import VirtualClock
from .node import RuntimeLink, RuntimeNode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..resilience.faults import FaultPlan
    from ..resilience.overload import OverloadControl
    from ..resilience.qos import QoSConfig
    from ..resilience.recovery import RecoveryPolicy


@dataclass(frozen=True)
class RuntimeReport:
    """Outcome of a live run.

    Empty-fleet convention (shared with
    :class:`~repro.sim.events.EventSimResult`): statistics over zero
    tasks are ``NaN``, never an optimistic ``1.0``/``0.0``, so a run
    whose every task failed cannot masquerade as a perfect one.  Check
    ``math.isnan`` before asserting on these fields.

    Streaming mode: a run with ``metrics="streaming"`` carries no task
    records — ``tasks`` is empty and ``stats`` holds the constant-size
    aggregate every terminal event folded into.  Aggregate properties
    keep working; ``completed`` (the per-task view) raises.
    """

    tasks: tuple[TaskRecord, ...]
    virtual_duration: float
    #: Constant-memory aggregate when the run used
    #: ``metrics="streaming"``; None in record mode.
    stats: StreamingTaskStats | None = None
    #: QoS class names, in config order, when the run carried a
    #: :class:`~repro.resilience.qos.QoSConfig`; empty otherwise.
    class_names: tuple[str, ...] = ()
    #: Per-class streaming aggregates (streaming mode with QoS);
    #: record-mode reports derive class views from task ``qos`` tags.
    class_stats: tuple[StreamingTaskStats, ...] = ()

    def _require_qos(self, what: str) -> None:
        if not self.class_names:
            raise ValueError(
                f"{what} requires a QoS-configured run — pass qos="
                "QoSConfig(...) to run()"
            )

    def class_counts(self) -> dict[str, dict[str, int]]:
        """Exact per-class SLO counters; see
        :func:`repro.resilience.qos.class_counts`."""
        from ..resilience.qos import class_counts

        self._require_qos("class_counts")
        return class_counts(
            self.class_names, self.tasks, self.class_stats or None
        )

    def class_summary(
        self, deadlines: dict[str, float] | None = None
    ) -> dict[str, dict]:
        """Per-class SLO summary (NaN sentinels for empty classes); see
        :func:`repro.resilience.qos.class_summary`."""
        from ..resilience.qos import class_summary

        self._require_qos("class_summary")
        return class_summary(
            self.class_names, self.tasks, self.class_stats or None, deadlines
        )

    def class_identity_gaps(self) -> dict[str, int]:
        """Per-class conservation gaps — all zero when the per-class
        identity holds; see
        :func:`repro.resilience.qos.class_identity_gaps`."""
        from ..resilience.qos import class_identity_gaps

        self._require_qos("class_identity_gaps")
        return class_identity_gaps(
            self.class_names, self.tasks, self.class_stats or None
        )

    def _require_records(self, what: str) -> None:
        if self.stats is not None:
            raise ValueError(
                f"{what} requires per-task records, but this report was "
                'produced with metrics="streaming" (constant-memory '
                'aggregates only) — re-run with metrics="records"'
            )

    @property
    def generated_count(self) -> int:
        """Tasks generated, exact in both metric modes."""
        if self.stats is not None:
            return self.stats.generated
        return len(self.tasks)

    @property
    def completed_count(self) -> int:
        """Tasks completed, exact in both metric modes."""
        if self.stats is not None:
            return self.stats.completed
        return len(self.completed)

    @property
    def completed(self) -> tuple[TaskRecord, ...]:
        self._require_records("completed")
        return tuple(t for t in self.tasks if t.done)

    @property
    def completion_rate(self) -> float:
        """Fraction of generated tasks completed (NaN if none generated)."""
        total = self.generated_count
        if not total:
            return float("nan")
        return self.completed_count / total

    @property
    def mean_tct(self) -> float:
        """Mean completion time over completed tasks (NaN if none)."""
        if self.stats is not None:
            return self.stats.mean_tct
        done = self.completed
        if not done:
            return float("nan")
        return sum(t.tct for t in done) / len(done)

    def tct_percentile(self, q: float) -> float:
        """Completed-task TCT percentile — exact in record mode, within
        the sketch's ``alpha`` bound in streaming mode."""
        if self.stats is not None:
            return self.stats.percentile(q)
        done = self.completed
        if not done:
            return float("nan")
        return float(np.percentile([t.tct for t in done], q))

    @property
    def dropped_count(self) -> int:
        if self.stats is not None:
            return self.stats.dropped
        return sum(1 for t in self.tasks if t.dropped)

    @property
    def in_flight_count(self) -> int:
        """Tasks neither completed, dropped, nor shed when the report was
        cut (``generated == completed + dropped + shed + in-flight``
        always holds)."""
        if self.stats is not None:
            return self.stats.in_flight
        return sum(1 for t in self.tasks if t.in_flight)

    @property
    def shed_count(self) -> int:
        """Tasks rejected at admission by overload control."""
        if self.stats is not None:
            return self.stats.shed
        return sum(1 for t in self.tasks if t.shed)

    @property
    def shed_rate(self) -> float:
        """Fraction of generated tasks shed (NaN if none generated)."""
        total = self.generated_count
        if not total:
            return float("nan")
        return self.shed_count / total

    @property
    def total_retries(self) -> int:
        """Fault-recovery attempts consumed across all tasks."""
        if self.stats is not None:
            return self.stats.retries
        return sum(t.retries for t in self.tasks)

    @property
    def drop_rate(self) -> float:
        """Fraction of generated tasks dropped (NaN if none generated)."""
        total = self.generated_count
        if not total:
            return float("nan")
        return self.dropped_count / total

    def deadline_hit_rate(self, deadline: float) -> float:
        """Fraction of all generated tasks completed within ``deadline``
        virtual seconds (dropped/in-flight count as misses; NaN if no
        tasks were generated).  Sketch-resolution accuracy in streaming
        mode."""
        if deadline <= 0:
            raise ValueError("deadline must be positive")
        total = self.generated_count
        if not total:
            return float("nan")
        if self.stats is not None:
            done = self.stats.completed
            if not done:
                return 0.0
            return self.stats.deadline_hit_fraction(deadline) * done / total
        hits = sum(1 for t in self.tasks if t.done and t.tct <= deadline)
        return hits / total

    def exit_fractions(self) -> tuple[float, float, float]:
        """Fraction of completed tasks exiting at tiers 1, 2, 3 (NaN
        triple when nothing completed — the empty-fleet convention)."""
        if self.stats is not None:
            total = self.stats.completed
            if not total:
                nan = float("nan")
                return (nan, nan, nan)
            return tuple(
                self.stats.exit_counts.get(tier, 0) / total
                for tier in (1, 2, 3)
            )
        done = self.completed
        if not done:
            nan = float("nan")
            return (nan, nan, nan)
        counts = [0, 0, 0]
        for task in done:
            counts[task.exit_tier - 1] += 1
        total = len(done)
        return (counts[0] / total, counts[1] / total, counts[2] / total)


class LeimeRuntime:
    """Run a deployed :class:`EdgeSystem` on live threads.

    The run's randomness is split into two independent streams derived
    from ``seed``: a **control** stream consumed only by the controller
    loop (arrival draws and per-task offload coin flips) and an **exit**
    stream consumed by worker threads (early-exit coin flips).  Workers
    race each other, so their draw *order* is scheduling-dependent — but
    because they draw from their own stream, the controller's sequence of
    arrivals and offload decisions is byte-identical across same-seed runs
    (``tests/test_determinism.py`` pins this).

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
        self._control_lock = threading.Lock()
        self._exit_lock = threading.Lock()
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
        self._tasks: list[TaskRecord] = []
        # Streaming-mode state: the aggregate terminal events fold into,
        # and the id→record map of tasks still in flight (the only thing
        # keeping a record alive once the task list is not retained).
        self._stats: StreamingTaskStats | None = None
        self._live: dict[int, TaskRecord] = {}
        self._task_counter = 0
        self._tasks_lock = threading.Lock()
        self._done = threading.Event()
        self._outstanding = 0
        self._faults: "FaultPlan | None" = None
        self._recovery: "RecoveryPolicy | None" = None
        self._live_slot = 0
        # Streaming-mode per-class aggregates and the device→class map
        # (set for the duration of a QoS-configured run).
        self._cstats: list[StreamingTaskStats] | None = None
        self._class_of: list[int] | None = None

    # -- randomness (two streams: controller vs worker threads) -------------

    def _control_random(self) -> float:
        """Controller-loop draws (offload coin flips): deterministic order."""
        with self._control_lock:
            return float(self._control_rng.random())

    def _exit_random(self) -> float:
        """Worker-thread draws (exit coin flips): order races, stream is
        isolated so it cannot perturb the control stream."""
        with self._exit_lock:
            return float(self._exit_rng.random())

    # -- task pipeline --------------------------------------------------------

    def _task_finished(self, task: TaskRecord, time: float, tier: int) -> None:
        task.completed = time
        task.exit_tier = tier
        with self._tasks_lock:
            if self._stats is not None:
                self._stats.observe_completed(
                    time - task.created, tier, task.offloaded, task.retries
                )
                if self._cstats is not None:
                    self._cstats[
                        self._class_of[task.device]
                    ].observe_completed(
                        time - task.created, tier, task.offloaded, task.retries
                    )
                self._live.pop(task.task_id, None)
            self._outstanding -= 1
            if self._outstanding == 0:
                self._done.set()

    def _task_dropped(self, task: TaskRecord) -> None:
        """Terminal failure: the task leaves the system uncompleted (it
        still decrements the drain counter, so runs always terminate).
        Bounded-queue rejections mid-pipeline land here too — every
        submission path checks its ``submit``/``transmit`` result, so a
        full queue can never strand the drain counter."""
        task.dropped = True
        with self._tasks_lock:
            if self._stats is not None:
                self._stats.observe_dropped(task.retries)
                if self._cstats is not None:
                    self._cstats[
                        self._class_of[task.device]
                    ].observe_dropped(task.retries)
                self._live.pop(task.task_id, None)
            self._outstanding -= 1
            if self._outstanding == 0:
                self._done.set()

    # -- fault handling (live twin of the event simulator's helpers) --------

    def _fault_slot(self) -> int:
        """The fault-plan row in effect: the controller's current slot.

        Keyed off the slot *counter*, not the virtual clock — the
        controller loop can fall behind wall-scaled time (a policy solve
        takes longer than τ/speedup), and a clock-derived index would
        then replay the wrong rows.  Worker threads race the counter, so
        a fault read near a boundary may land one row off — acceptable:
        determinism is promised for the control plane, not the worker
        interleaving.  After generation the counter sits past the plan,
        where accessors report a healthy world, so drains terminate."""
        return self._live_slot

    def _retry(
        self,
        task: TaskRecord,
        action: Callable[[], None],
        give_up: Callable[[], None],
    ) -> None:
        """Spend one retry (backoff runs on a timer thread in scaled wall
        time), drop on a deadline breach, or hand over to ``give_up``."""
        recovery = self._recovery
        attempt = task.retries
        if attempt >= recovery.max_retries:
            give_up()
            return
        delay = recovery.backoff(attempt)
        if (
            recovery.deadline is not None
            and self.clock.now() + delay - task.created > recovery.deadline
        ):
            self._task_dropped(task)
            return
        task.retries += 1
        timer = threading.Timer(delay / self.clock.speedup, action)
        timer.daemon = True
        timer.start()

    def _transmit_uplink(
        self,
        task: TaskRecord,
        size: float,
        on_delivered: Callable[[float], None],
        give_up: Callable[[], None],
    ) -> None:
        faults = self._faults
        if faults is None:
            if not self.uplinks[task.device].transmit(size, on_delivered):
                give_up()
            return
        slot = self._fault_slot()
        if faults.drop_at(slot, task.device):
            self._retry(
                task,
                lambda: self._transmit_uplink(task, size, on_delivered, give_up),
                give_up,
            )
            return
        corrupted = faults.corrupt_at(slot, task.device)

        def delivered(t: float) -> None:
            if corrupted:
                self._retry(
                    task,
                    lambda: self._transmit_uplink(
                        task, size, on_delivered, give_up
                    ),
                    give_up,
                )
            else:
                on_delivered(t)

        if not self.uplinks[task.device].transmit(size, delivered):
            give_up()

    def _submit_edge(
        self,
        task: TaskRecord,
        demand: float,
        on_done: Callable[[float], None],
        give_up: Callable[[], None],
    ) -> None:
        faults = self._faults
        if faults is not None and faults.edge_down_at(self._fault_slot()):
            self._retry(
                task,
                lambda: self._submit_edge(task, demand, on_done, give_up),
                give_up,
            )
            return
        if not self.edge_slices[task.device].submit(demand, on_done):
            give_up()

    def _to_cloud(self, task: TaskRecord) -> None:
        part = self.system.partition_for(task.device)

        def sent(t: float) -> None:
            accepted = self.cloud.submit(
                part.mu3, lambda t2: self._task_finished(task, t2, 3)
            )
            if not accepted:
                self._task_dropped(task)

        if not self.cloud_link.transmit(part.d2, sent):
            self._task_dropped(task)

    def _second_block(self, task: TaskRecord) -> None:
        part = self.system.partition_for(task.device)
        sigma1, sigma2 = part.sigma1, part.sigma2
        exit2_given = (sigma2 - sigma1) / (1.0 - sigma1) if sigma1 < 1.0 else 1.0

        def done(t: float) -> None:
            if self._exit_random() < exit2_given:
                self._task_finished(task, t, 2)
            else:
                self._to_cloud(task)

        # Block 2 needs the edge-resident intermediate state; past the
        # retry budget the task is lost.
        self._submit_edge(
            task, part.mu2, done, lambda: self._task_dropped(task)
        )

    def _first_block_on_edge(self, task: TaskRecord) -> None:
        part = self.system.partition_for(task.device)

        def done(t: float) -> None:
            if self._exit_random() < part.sigma1:
                self._task_finished(task, t, 1)
            else:
                self._second_block(task)

        def give_up() -> None:
            # The device still holds the raw input: fall back on-device.
            if self._recovery is not None and self._recovery.fallback_local:
                self._first_block_on_device(task)
            else:
                self._task_dropped(task)

        self._submit_edge(task, part.mu1, done, give_up)

    def _first_block_on_device(self, task: TaskRecord) -> None:
        part = self.system.partition_for(task.device)
        demand = part.mu1
        if self._faults is not None:
            demand *= self._faults.straggler_at(self._fault_slot(), task.device)

        def local_done(t: float) -> None:
            if self._exit_random() < part.sigma1:
                self._task_finished(task, t, 1)
                return
            self._transmit_uplink(
                task,
                part.d1,
                lambda t2: self._second_block(task),
                lambda: self._task_dropped(task),
            )

        if not self.devices[task.device].submit(demand, local_done):
            self._task_dropped(task)

    def _launch(self, task: TaskRecord) -> None:
        part = self.system.partition_for(task.device)
        if task.offloaded:

            def give_up() -> None:
                if self._recovery is not None and self._recovery.fallback_local:
                    self._first_block_on_device(task)
                else:
                    self._task_dropped(task)

            self._transmit_uplink(
                task,
                part.d0,
                lambda t: self._first_block_on_edge(task),
                give_up,
            )
            return

        self._first_block_on_device(task)

    # -- live reconfiguration --------------------------------------------------

    def apply_partition(self, partition: PartitionedModel) -> None:
        """Hot-swap the deployed exit setting.

        Tasks launched after the swap read the new partition at every
        stage; in-flight tasks pick it up at their *next* stage (a task
        mid-first-block finishes that block at the old μ but transfers
        and exits per the new plan) — the cheap approximation of a rolling
        model rollout.  Per-device partitions are cleared: a re-plan
        deploys one fleet-wide setting, as the paper's planner does.
        During a governed run the slot's rungs degrade the new
        deployment from the next slot boundary on.
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
        from ..core.kernels import kernel_tier

        return run_fingerprint(
            path="runtime",
            seed=self.seed,
            devices=self.system.num_devices,
            slots=num_slots,
            faults=None if faults is None else repr(faults.describe()),
            recovery=repr(recovery),
            overload=repr(overload),
            qos=repr(qos),
            kernels=kernel_tier(),
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
    ) -> RuntimeReport:
        """Generate ``num_slots`` slots of live tasks and wait for drain.

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
                show as incomplete in the report).
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
        if metrics == "streaming":
            self._stats = StreamingTaskStats()
        controller = SlotController.for_system(
            self._deployed, self.seed, overload, qos
        )
        qstate = controller.qos
        class_name_of: list[str] | None = None
        if qstate is not None:
            self._class_of = list(qstate.class_of)
            class_name_of = [
                qstate.class_names[c] for c in qstate.class_of
            ]
            if metrics == "streaming":
                self._cstats = [
                    StreamingTaskStats() for _ in qstate.class_names
                ]
        self._faults = faults
        self._recovery = recovery
        if overload is not None and overload.queue_capacity is not None:
            for node in (
                *self.devices,
                *self.uplinks,
                *self.edge_slices,
                self.cloud_link,
                self.cloud,
            ):
                node.capacity = int(overload.queue_capacity)
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
            if holds is not None:
                for i in range(n):
                    if holds[i] > w0:
                        self.edge_slices[i].hold(holds[i] - w0)
            ratios = controller.backpressure(
                policy.decide(self.system, state, expected), state.queue_edge
            )
            for i, proc in enumerate(arrivals):
                with self._control_lock:
                    drawn = float(proc.sample(slot, self._control_rng))
                fractional[i] += drawn
                count = int(fractional[i])
                fractional[i] -= count
                admitted = controller.admit(i, count)
                for k in range(count):
                    task = TaskRecord(
                        task_id=self._task_counter,
                        device=i,
                        created=self.clock.now(),
                        offloaded=self._control_random() < ratios[i],
                        shed=k >= admitted,
                        qos=class_name_of[i]
                        if class_name_of is not None
                        else "",
                    )
                    self._task_counter += 1
                    with self._tasks_lock:
                        if self._stats is not None:
                            self._stats.observe_generated()
                            if self._cstats is not None:
                                crow = self._cstats[self._class_of[i]]
                                crow.observe_generated()
                                if task.shed:
                                    crow.observe_shed()
                            if task.shed:
                                self._stats.observe_shed()
                            else:
                                self._live[task.task_id] = task
                        else:
                            self._tasks.append(task)
                        if not task.shed:
                            self._outstanding += 1
                            self._done.clear()
                    # A shed task never enters the pipeline — it is
                    # terminal at creation and exempt from the drain.
                    if not task.shed:
                        self._launch(task)
            self.clock.sleep(tau)
        # Generation is over: park the fault cursor past the plan (a
        # healthy world), so retries issued during the drain succeed.
        self._live_slot = max(num_slots, faults.num_slots if faults else 0)
        with self._tasks_lock:
            nothing_pending = self._outstanding == 0
        if not nothing_pending:
            self._done.wait(timeout=drain_timeout)
        names = qstate.class_names if qstate is not None else ()
        if self._stats is not None:
            with self._tasks_lock:
                # Tasks that beat the drain timeout are in flight when
                # the report is cut — counted explicitly, under the same
                # lock terminal folds take, so a racing finish cannot be
                # double-counted.
                stats = self._stats
                cstats = self._cstats
                for task in self._live.values():
                    stats.observe_in_flight(1, task.retries)
                    if cstats is not None:
                        cstats[self._class_of[task.device]].observe_in_flight(
                            1, task.retries
                        )
                self._live.clear()
                self._stats = None
                self._cstats = None
            return RuntimeReport(
                tasks=(),
                virtual_duration=self.clock.now(),
                stats=stats,
                class_names=names,
                class_stats=tuple(cstats) if cstats is not None else (),
            )
        return RuntimeReport(
            tasks=tuple(self._tasks),
            virtual_duration=self.clock.now(),
            class_names=names,
        )

    def simulate_offline(
        self,
        arrivals: list[ArrivalProcess],
        num_slots: int,
        faults: "FaultPlan | None" = None,
        recovery: "RecoveryPolicy | None" = None,
        qos: "QoSConfig | None" = None,
        engine: str = "fast",
        drain_limit_factor: float = 50.0,
    ):
        """Replay this deployment offline through the event simulator.

        A live run costs wall-clock time (worker threads racing a virtual
        clock); capacity planning wants the same deployment — system,
        policy, seed, fault plan — answered in milliseconds.  This seam
        hands the runtime's configuration to
        :class:`~repro.sim.events.EventSimulator`, defaulting to the
        array-backed fast lane, and returns its
        :class:`~repro.sim.events.EventSimResult`.

        The replay is a *what-if model* of the deployment, not a
        byte-identical twin of :meth:`run`: live worker threads race each
        other (their exit draws and queue interleavings are
        scheduling-dependent), while the simulator is fully deterministic.
        """
        from ..sim.events import EventSimulator

        return EventSimulator(
            system=self.system,
            arrivals=arrivals,
            seed=self.seed,
            faults=faults,
            recovery=recovery,
            qos=qos,
        ).run(
            self.policy,
            num_slots,
            drain_limit_factor=drain_limit_factor,
            engine=engine,
        )

    def shutdown(self) -> bool:
        """Stop every worker thread.  Returns ``True`` when all stopped
        cleanly; a wedged worker warns loudly (see
        :meth:`~repro.runtime.node.RuntimeNode.shutdown`) and flips the
        result to ``False``, but never blocks the remaining workers from
        being stopped."""
        clean = True
        for worker in (
            *self.devices,
            *self.uplinks,
            *self.edge_slices,
            self.cloud_link,
            self.cloud,
        ):
            clean = worker.shutdown() and clean
        return clean
