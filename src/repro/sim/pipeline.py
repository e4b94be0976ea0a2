"""The task-level slot step and the per-task hop graph (Fig. 4).

:class:`TaskSlots` is LEIME's online phase (§III-D) for both event
engines and the live runtime: once per slot it reads the device queues,
plans rungs and holds, picks the offloading ratios ``x_i(t)`` against
the expected arrivals, and draws, admits and books the slot's tasks.  A
path keeps only its data plane: it reports occupancy from its own
servers, realises the rungs and holds, and launches the drawn tasks.

A task runs its first block on its device CPU, or on its edge slice
after the raw input ``d0`` crosses the uplink.  Past the First-exit it
runs block 2 on the edge slice (sending ``d1`` up first if block 1 ran
locally); past the Second it sends ``d2`` over the edge→cloud link and
runs block 3 in the cloud.

:class:`TaskPipeline` owns the whole walk, which the scalar event
engine drives over heap servers and the live runtime over worker
threads: the fault gates, retries with backoff and deadline, the local
fallback, the exit decisions, the stage accounting and the terminal
calls.  A path supplies only what differs:

* its servers, as hops ``hop(time, demand, on_done) -> bool`` calling
  ``on_done(finish_time, service_time)`` — heap servers always accept;
  the runtime's bounded worker queues may refuse, and a refused job
  gives up at once;
* ``wait(time, delay, retry)``, which calls ``retry(t)`` ``delay``
  seconds after ``time``;
* ``fault_slot(time)``, the fault-plan row in effect;
* the terminal hooks ``finished(task, time, tier)`` and
  ``dropped(task)``.

Each hop's span is charged once, when the hop ends: a compute hop's as
service (compute) plus wait (queue), a link's as transfer on delivery.
An edge-bound first block that gives up and falls back to the device
charges the span up to the give-up — as transfer on the uplink, as
queue on the edge slice.  Backoff and corrupted attempts stay inside
their hop's span, so a completed task's ``compute + transfer + queue``
is its TCT.
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

import numpy as np

from ..core.offloading import LyapunovState
from ..resilience.control import SlotController
from ..resilience.overload import degraded_exit_params
from ..resilience.qos import degrade_system_by_modes
from ..resilience.recovery import resolve_recovery
from .environment import StaticEnvironment
from .streaming import TaskLedger

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.offloading import EdgeSystem, OffloadingPolicy
    from ..models.multi_exit import PartitionedModel
    from ..resilience.faults import FaultPlan
    from ..resilience.overload import OverloadControl
    from ..resilience.qos import QoSConfig
    from ..resilience.recovery import RecoveryPolicy
    from .arrivals import ArrivalProcess
    from .environment import DynamicEnvironment
    from .tasks import TaskRecord

OnDone = Callable[[float, float], None]
Hop = Callable[[float, float, OnDone], bool]
Then = Callable[[float], None]


class SlotTasks(NamedTuple):
    """One slot's new tasks in id order (device-major), as columns."""

    first: int  # id of the first task
    device: np.ndarray
    created: np.ndarray
    offloaded: np.ndarray
    exits: np.ndarray  # (k, 2): each task's two exit coins
    shed: np.ndarray


class TaskSlots:
    """The slot step of one task-level run, shared by every path.

    Holds what the run decides at slot boundaries as plain picklable
    state: the control and exit RNG streams spawned from ``seed``, the
    Lyapunov queues mirrored from occupancy, the fractional arrival
    carries, the :class:`~repro.resilience.control.SlotController`, the
    run's :class:`~repro.sim.streaming.TaskLedger` and ``policy``
    (wrapped per :func:`~repro.resilience.recovery.resolve_recovery`).

    A slot is two calls, :meth:`control` then :meth:`draw`.  The draws
    are batched per device yet consume the same PCG64 doubles, in the
    same order, as a per-task loop: per task ``uniform(0, τ)`` when
    arrivals are spread (``0.0 + τ·next_double()``), then the offload
    coin; then two exit coins per task.  Shed tasks burn their draws
    too, so a governed run replays its ungoverned twin's streams.
    """

    def __init__(
        self,
        system: "EdgeSystem",
        arrivals: Sequence["ArrivalProcess"],
        policy: "OffloadingPolicy",
        *,
        seed: int,
        metrics: str = "records",
        environment: "DynamicEnvironment" = StaticEnvironment(),
        spread_arrivals: bool = False,
        faults: "FaultPlan | None" = None,
        recovery: "RecoveryPolicy | None" = None,
        overload: "OverloadControl | None" = None,
        qos: "QoSConfig | None" = None,
    ):
        n = system.num_devices
        if len(arrivals) != n:
            raise ValueError("need one arrival process per device")
        if metrics not in ("records", "streaming"):
            raise ValueError(f"unknown metrics mode {metrics!r}")
        self.policy, self.recovery = resolve_recovery(
            policy, faults, recovery, n
        )
        self.arrivals = list(arrivals)
        # The run steps its own copy: every run starts from the
        # configured environment, and a state checkpoint carries it.
        self.environment = copy.deepcopy(environment)
        self.spread_arrivals = spread_arrivals
        self.faults = faults
        self.tau = system.slot_length
        control_seq, exit_seq = np.random.SeedSequence(seed).spawn(2)
        self.rng = np.random.default_rng(control_seq)
        self.exit_rng = np.random.default_rng(exit_seq)
        self.controller = SlotController.for_system(system, seed, overload, qos)
        self.ledger = TaskLedger(metrics == "streaming", self.controller.qos)
        self.state = LyapunovState.zeros(n)
        self.fractional = [0.0] * n
        self.ratios: Sequence[float] = [0.0] * n
        self.generated = 0

    def control(
        self,
        slot: int,
        w0: float,
        queue_local: Sequence[int],
        queue_edge: Sequence[int],
        system: "EdgeSystem",
    ) -> tuple:
        """Decide slot ``slot``, starting at ``w0``, from the occupancy of
        every device's CPU and edge slice.  Returns the environment's
        device configs, the per-device rungs, the edge slices' warm
        times (None without QoS) and the system served: the deployed
        ``system`` degraded to the rungs, which the policy plans on."""
        live = self.environment.devices_at(slot, system.devices, self.rng)
        state = self.state
        state.queue_local[:] = queue_local
        state.queue_edge[:] = queue_edge
        expected = [proc.mean(slot) for proc in self.arrivals]
        backlogs = [q + h for q, h in zip(queue_local, queue_edge)]
        edge_down = self.faults is not None and self.faults.edge_down_at(slot)
        rungs, holds = self.controller.plan(
            slot, w0, backlogs, expected, edge_down
        )
        served = degrade_system_by_modes(system, rungs)
        self.ratios = self.controller.backpressure(
            self.policy.decide(served, state, expected, live), queue_edge
        )
        return live, rungs, holds, served

    def draw(self, slot: int, time: float) -> SlotTasks:
        """Draw and book (:meth:`TaskLedger.add_batch`) the tasks
        arriving in slot ``slot``, created at ``time`` (plus a uniform
        offset within the slot when arrivals are spread).  Fractional
        samples carry over until they make a whole task; per device, the
        first admitted tasks run and the tail is shed."""
        rng = self.rng
        spread = self.spread_arrivals
        fractional = self.fractional
        counts: list[int] = []
        draws: list[np.ndarray] = []
        for i, proc in enumerate(self.arrivals):
            fractional[i] += float(proc.sample(slot, rng))
            count = int(fractional[i])
            fractional[i] -= count
            counts.append(count)
            if count:
                draws.append(rng.random(2 * count if spread else count))
        # One admission call per slot (no RNG draw): every bucket
        # refills, even for devices that drew nothing.
        admitted = self.controller.admit(counts)
        total = sum(counts)
        first = self.generated
        self.generated += total
        device = np.arange(len(counts)).repeat(counts)
        coins = np.concatenate(draws) if draws else np.empty(0)
        if spread:
            created = time + coins[0::2] * self.tau
            coins = coins[1::2]
        else:
            created = np.full(total, time)
        offloaded = coins < np.asarray(self.ratios, dtype=np.float64)[device]
        shed = np.zeros(total, dtype=bool)
        if admitted is not counts:
            rank = np.arange(total) - (np.cumsum(counts) - counts)[device]
            shed = rank >= np.take(admitted, device)
        exits = self.exit_rng.random((total, 2))
        self.ledger.add_batch(device, shed)
        return SlotTasks(first, device, created, offloaded, exits, shed)

    def result(self, horizon: float, detach: bool = False):
        """Cut the run's books (see :meth:`TaskLedger.result`)."""
        return self.ledger.result(horizon, self.controller.log, detach=detach)


class TaskPipeline:
    """Walk launched tasks through the hop graph.

    ``partition_for(i)`` is read at every stage, so a hot-swapped
    deployment reaches in-flight tasks at their next hop.  ``recovery``
    is None only without ``faults``.  The pipeline keeps each device's
    exit thresholds (:meth:`set_rungs`) and each launched task's exit
    coins (:meth:`launch`), dropped at the task's terminal event.
    """

    def __init__(
        self,
        partition_for: Callable[[int], "PartitionedModel"],
        device_cpu: Sequence[Hop],
        uplink: Sequence[Hop],
        edge_slice: Sequence[Hop],
        cloud_link: Hop,
        cloud_cpu: Hop,
        wait: Callable[[float, float, Then], None],
        fault_slot: Callable[[float], int],
        faults: "FaultPlan | None",
        recovery: "RecoveryPolicy | None",
        finished: Callable[["TaskRecord", float, int], None],
        dropped: Callable[["TaskRecord"], None],
    ):
        self.partition_for = partition_for
        self.device_cpu = device_cpu
        self.uplink = uplink
        self.edge_slice = edge_slice
        self.cloud_link = cloud_link
        self.cloud_cpu = cloud_cpu
        self.wait = wait
        self.fault_slot = fault_slot
        self.faults = faults
        self.recovery = recovery
        self.fallback_local = recovery is not None and recovery.fallback_local
        self.finished = finished
        self.dropped = dropped
        self.sigma1 = [0.0] * len(device_cpu)
        self.exit2 = [0.0] * len(device_cpu)
        self.exit_coins: dict[int, tuple[float, float]] = {}

    def set_rungs(self, system: "EdgeSystem", rungs: Sequence[int]) -> None:
        """Exit thresholds ``(σ₁, P[exit 2 | past 1])`` per device: its
        partition in ``system`` degraded to its ladder rung."""
        for i, rung in enumerate(rungs):
            self.sigma1[i], self.exit2[i] = degraded_exit_params(
                system.partition_for(i), rung
            )

    def launch(
        self, task: "TaskRecord", time: float, coins: tuple[float, float]
    ) -> None:
        """Start ``task`` at ``time`` with its two exit coins (the second
        is read only if the task reaches block 2)."""
        self.exit_coins[task.task_id] = coins
        if not task.offloaded:
            self._first_block_on_device(task, time)
            return

        def sent(t: float, service: float) -> None:
            task.transfer_time += t - time
            self._first_block_on_edge(task, t)

        def give_up(t: float) -> None:
            # The device still holds the raw input: run block 1 there,
            # or lose the task.
            if self.fallback_local:
                task.transfer_time += t - time
                self._first_block_on_device(task, t)
            else:
                self._drop(task)

        part = self.partition_for(task.device)
        self._transmit(task, time, part.d0, sent, give_up)

    def _finish(self, task: "TaskRecord", time: float, tier: int) -> None:
        del self.exit_coins[task.task_id]
        self.finished(task, time, tier)

    def _drop(self, task: "TaskRecord") -> None:
        del self.exit_coins[task.task_id]
        self.dropped(task)

    # -- fault gates ----------------------------------------------------

    def _retry(
        self, task: "TaskRecord", time: float, again: Then, give_up: Then
    ) -> None:
        """One failed attempt: spend a retry (deterministic backoff),
        drop on a deadline breach, or hand over to ``give_up`` once the
        budget is gone."""
        recovery = self.recovery
        if task.retries >= recovery.max_retries:
            give_up(time)
            return
        delay = recovery.backoff(task.retries)
        if (
            recovery.deadline is not None
            and time + delay - task.created > recovery.deadline
        ):
            self._drop(task)
            return
        task.retries += 1
        self.wait(time, delay, again)

    def _transmit(
        self,
        task: "TaskRecord",
        time: float,
        size: float,
        on_sent: OnDone,
        give_up: Then,
    ) -> None:
        """The device's uplink with drop/corrupt faults applied: a
        transfer started in a drop slot never arrives; a corrupted one
        burns its airtime, then must be re-sent."""
        sent = on_sent
        if self.faults is not None:

            def again(t: float) -> None:
                self._transmit(task, t, size, on_sent, give_up)

            slot = self.fault_slot(time)
            if self.faults.drop_at(slot, task.device):
                self._retry(task, time, again, give_up)
                return
            if self.faults.corrupt_at(slot, task.device):

                def sent(t: float, service: float) -> None:
                    self._retry(task, t, again, give_up)

        if not self.uplink[task.device](time, size, sent):
            give_up(time)

    def _submit_edge(
        self,
        task: "TaskRecord",
        time: float,
        demand: float,
        on_done: OnDone,
        give_up: Then,
    ) -> None:
        """The task's edge slice with the outage mask applied: a crashed
        edge rejects new submissions (jobs already queued drain when it
        returns — a restart, not data loss)."""
        if self.faults is not None and self.faults.edge_down_at(
            self.fault_slot(time)
        ):

            def again(t: float) -> None:
                self._submit_edge(task, t, demand, on_done, give_up)

            self._retry(task, time, again, give_up)
            return
        if not self.edge_slice[task.device](time, demand, on_done):
            give_up(time)

    # -- the hops -------------------------------------------------------

    def _first_block_on_device(self, task: "TaskRecord", time: float) -> None:
        """Local first block on the device CPU (straggler-scaled)."""
        part = self.partition_for(task.device)
        demand = part.mu1
        if self.faults is not None:
            demand *= self.faults.straggler_at(
                self.fault_slot(time), task.device
            )

        def computed(t: float, service: float) -> None:
            task.compute_time += service
            task.queue_time += (t - time) - service
            if self.exit_coins[task.task_id][0] < self.sigma1[task.device]:
                self._finish(task, t, 1)
                return

            # Non-exited: intermediate d1 to the edge for block 2.
            def sent(t2: float, service2: float) -> None:
                task.transfer_time += t2 - t
                self._second_block(task, t2)

            self._transmit(task, t, part.d1, sent, lambda _: self._drop(task))

        if not self.device_cpu[task.device](time, demand, computed):
            self._drop(task)

    def _first_block_on_edge(self, task: "TaskRecord", time: float) -> None:
        def computed(t: float, service: float) -> None:
            task.compute_time += service
            task.queue_time += (t - time) - service
            if self.exit_coins[task.task_id][0] < self.sigma1[task.device]:
                self._finish(task, t, 1)
            else:
                self._second_block(task, t)

        def give_up(t: float) -> None:
            # As on the uplink, but the abandoned span is queueing.
            if self.fallback_local:
                task.queue_time += t - time
                self._first_block_on_device(task, t)
            else:
                self._drop(task)

        part = self.partition_for(task.device)
        self._submit_edge(task, time, part.mu1, computed, give_up)

    def _second_block(self, task: "TaskRecord", time: float) -> None:
        """Block 2 on the edge slice, then exit or go deeper.  It needs
        the intermediate state on the edge path, so past the retry
        budget the task is lost."""

        def computed(t: float, service: float) -> None:
            task.compute_time += service
            task.queue_time += (t - time) - service
            if self.exit_coins[task.task_id][1] < self.exit2[task.device]:
                self._finish(task, t, 2)
            else:
                self._to_cloud(task, t)

        part = self.partition_for(task.device)
        self._submit_edge(
            task, time, part.mu2, computed, lambda _: self._drop(task)
        )

    def _to_cloud(self, task: "TaskRecord", time: float) -> None:
        part = self.partition_for(task.device)

        def sent(t: float, service: float) -> None:
            task.transfer_time += t - time

            def computed(t2: float, service2: float) -> None:
                task.compute_time += service2
                task.queue_time += (t2 - t) - service2
                self._finish(task, t2, 3)

            if not self.cloud_cpu(t, part.mu3, computed):
                self._drop(task)

        if not self.cloud_link(time, part.d2, sent):
            self._drop(task)
