"""Event-driven task-level simulator — the physical-testbed substitute.

Where the slot simulator advances the paper's *analytic* cost model, this
engine tracks every task individually through FIFO compute servers
(:mod:`repro.sim.nodes`) and serialising links (:mod:`repro.sim.network`),
yielding per-task completion times, exit tiers, deadline hit rates, and
queue-wait breakdowns.  It is the source of truth for percentile latency
and for validating the slot model's expectations.

Topology (Fig. 1 / Fig. 4):

* one FIFO compute server per device (``F_i^d``);
* one FIFO uplink per device (bandwidth ``B_i^e`` serialisation + latency
  ``L_i^e`` propagation; propagation does not occupy the link);
* one FIFO compute slice per device on the edge (``p_i·F^e``) that serves
  both first-block jobs of offloaded tasks and second-block jobs — a
  container pinned to a CPU share, which is how the paper's Docker-based
  edge isolates devices.  (The slot model splits the slice analytically via
  Eq. 9; a real FIFO container achieves the same time-average split because
  the job mix determines the share each class consumes.)
* one shared FIFO edge→cloud link (``B_av^c``, ``L_av^c``);
* one FIFO cloud server (``F^c``).

Early exits are sampled per task from its partition's cumulative exit
rates ``(σ₁, σ₂, 1)``; offloading decisions are Bernoulli draws with the
policy's per-slot ratio ``x_i(t)``, the standard de-randomisation of the
fluid control variable.  Per-device partitions (the heterogeneous
extension, :mod:`repro.core.heterogeneous`) are honoured throughout.

Dynamic environments update link rates at slot boundaries; transmissions
already in service finish at their old rate (rate changes apply to
subsequently started transfers), which matches how traffic shaping tools
like the paper's COMCAST behave on short transfers.

Each slot boundary runs the slot step every task-level path shares
(:class:`~repro.sim.pipeline.TaskSlots`), and each task walks the hop
graph of :class:`~repro.sim.pipeline.TaskPipeline` over this engine's
heap servers.  The step draws from two streams derived from ``seed``: a
**control** stream at slot boundaries and an **exit** stream from which
every task draws its two exit coins at creation.  Keying exit coins to
the *task* instead of to completion order is what lets the array-backed
fast lane (:mod:`repro.sim.fast_events`, ``run(engine="fast")``) batch
completions and still replay the identical coin for the identical task.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from ..core.offloading import EdgeSystem, OffloadingPolicy
from ..resilience.recovery import resolve_recovery
from .arrivals import ArrivalProcess
from .environment import DynamicEnvironment, StaticEnvironment
from .network import Link
from .nodes import FifoServer
from .pipeline import TaskPipeline, TaskSlots
from .streaming import StreamingTaskStats
from .tasks import TaskRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..resilience.faults import FaultPlan
    from ..resilience.overload import OverloadControl
    from ..resilience.qos import QoSConfig
    from ..resilience.recovery import RecoveryPolicy


class _Engine:
    """Minimal event loop: a heap of ``(time, seq, callback)``."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Callable[[float], None]]] = []
        self._seq = itertools.count()
        self.now = 0.0

    def schedule(self, time: float, callback: Callable[[float], None]) -> None:
        if time < self.now - 1e-12:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        heapq.heappush(self._heap, (time, next(self._seq), callback))

    def run_until(self, horizon: float) -> None:
        while self._heap and self._heap[0][0] <= horizon:
            time, _, callback = heapq.heappop(self._heap)
            self.now = time
            callback(time)
        self.now = max(self.now, horizon)

    def run_to_exhaustion(self, hard_limit: float) -> None:
        while self._heap:
            time, _, callback = heapq.heappop(self._heap)
            if time > hard_limit:
                raise RuntimeError(
                    f"event simulation exceeded hard time limit {hard_limit}s — "
                    "the system is unstable and will not drain"
                )
            self.now = time
            callback(time)


#: Fleet size above which ``engine="auto"`` picks the array-backed fast
#: lane.  Below it the scalar heap wins: the fast lane pays a fixed
#: per-window cost (array pools, lexsorts) that only amortises once a
#: window carries hundreds of concurrent tasks — the benchmark sweep
#: (``benchmarks/bench_events.py``) puts the crossover between 100 and
#: 1000 devices on every machine measured.
AUTO_ENGINE_THRESHOLD = 200


def resolve_engine(engine: str, num_devices: int) -> str:
    """Resolve ``"auto"`` to a concrete engine by fleet size.

    Pure wall-clock heuristic: both engines are per-task *identical* (the
    differential harness pins this), so auto-selection can never change
    results — seeded runs stay byte-identical whichever side of the
    threshold a fleet lands on."""
    if engine == "auto":
        return "fast" if num_devices > AUTO_ENGINE_THRESHOLD else "scalar"
    return engine


def check_drain_limit(drain_limit_factor: float) -> None:
    """Refuse a drain bound that is NaN or below 1.

    The drain phase gives up ("unstable") once simulated time passes
    ``drain_limit_factor`` × the generation horizon.  NaN would switch
    that guard off (``time > nan`` is never true), and a factor below 1
    would trip it on a system that drains.  ``inf`` means no bound."""
    if not drain_limit_factor >= 1.0:
        raise ValueError(
            "drain_limit_factor must be at least 1 (inf for no bound), "
            f"got {drain_limit_factor!r}"
        )


@dataclass(frozen=True)
class EventSimResult:
    """Per-task outcomes of a task-level run: either event engine or the
    live runtime (:meth:`repro.runtime.system.LeimeRuntime.run`, whose
    ``horizon`` is the virtual clock when the result was cut).  Built by
    :meth:`repro.sim.streaming.TaskLedger.result`.

    Empty-fleet convention: statistics over zero tasks — ``mean_tct``
    over zero completions, ``completion_rate``/``drop_rate``/
    ``deadline_hit_rate`` over zero generated tasks — are ``NaN``, never
    an optimistic ``1.0``/``0.0``, so a run whose every task failed (or
    that generated nothing) cannot masquerade as a perfect one.  Check
    ``math.isnan`` (NaN compares unequal to everything, including
    itself) before asserting on these fields.

    Streaming mode: a run with ``metrics="streaming"`` carries no
    per-task records — ``tasks`` is empty and ``stats`` holds the
    constant-size :class:`~repro.sim.streaming.StreamingTaskStats`
    aggregate instead.  Every aggregate property below reads the
    matching exact counter (percentiles come from the sketch, within
    its documented ``alpha`` bound); accessors that inherently need the
    per-task records (``completed``, ``dropped_tasks``,
    ``per_device_mean_tct``, ``tct_by_creation_slot``) raise a loud
    ``ValueError`` rather than silently returning an empty view.
    """

    tasks: tuple[TaskRecord, ...]
    horizon: float
    #: Degradation-ladder rung per generation slot (empty when the run
    #: was ungoverned) — see :mod:`repro.resilience.overload`.
    modes: tuple[int, ...] = ()
    #: Constant-memory aggregate when the run used
    #: ``metrics="streaming"``; None in record mode.
    stats: StreamingTaskStats | None = None
    #: QoS class names when the run carried a
    #: :class:`~repro.resilience.qos.QoSConfig` (empty otherwise); the
    #: order keys ``class_stats`` and the per-class accessors.
    class_names: tuple[str, ...] = ()
    #: Per-class streaming aggregates (one per ``class_names`` entry)
    #: when a QoS run used ``metrics="streaming"``; None in record mode
    #: (task records carry their class in ``TaskRecord.qos``).
    class_stats: tuple[StreamingTaskStats, ...] | None = None

    def _require_records(self, what: str) -> None:
        if self.stats is not None:
            raise ValueError(
                f"{what} requires per-task records, but this result was "
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

    @cached_property
    def completed(self) -> tuple[TaskRecord, ...]:
        """Completed tasks, materialised once (results are frozen)."""
        self._require_records("completed")
        return tuple(t for t in self.tasks if t.done)

    @cached_property
    def _sorted_tcts(self) -> np.ndarray:
        """Ascending completed-task TCTs, sorted once per result.
        ``mean_tct``/``tct_percentile`` and the deadline metrics read this
        instead of re-sorting the completed list on every call —
        ``fig_faults``/``fig_wild`` query them in loops.  Results are
        frozen, so no invalidation is needed."""
        return np.sort(
            np.array([t.tct for t in self.completed], dtype=np.float64)
        )

    @property
    def mean_tct(self) -> float:
        """Mean completion time over completed tasks (NaN if none).
        Exact in both metric modes (streaming keeps an exact sum)."""
        if self.stats is not None:
            return self.stats.mean_tct
        done = self.completed
        if not done:
            return float("nan")
        return sum(t.tct for t in done) / len(done)

    def tct_percentile(self, q: float) -> float:
        """Completed-task TCT percentile — exact in record mode, within
        the sketch's ``alpha`` relative-error bound in streaming mode."""
        if self.stats is not None:
            return self.stats.percentile(q)
        if not self.completed:
            return float("nan")
        return float(np.percentile(self._sorted_tcts, q))

    @property
    def completion_rate(self) -> float:
        """Fraction of generated tasks completed (NaN if none generated)."""
        total = self.generated_count
        if not total:
            return float("nan")
        return self.completed_count / total

    # -- SLO accounting -----------------------------------------------------

    @property
    def dropped_tasks(self) -> tuple[TaskRecord, ...]:
        self._require_records("dropped_tasks")
        return tuple(t for t in self.tasks if t.dropped)

    @property
    def dropped_count(self) -> int:
        if self.stats is not None:
            return self.stats.dropped
        return sum(1 for t in self.tasks if t.dropped)

    @property
    def in_flight_count(self) -> int:
        """Tasks still in the system at the horizon.  The accounting
        identity ``generated == completed + dropped + shed + in-flight``
        always holds (the property harness pins it); streaming mode
        counts in-flight tasks explicitly at the horizon rather than
        deriving them, so the identity genuinely checks the books."""
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

    def deadline_miss_rate(self, deadline: float) -> float:
        """Complement of :meth:`deadline_hit_rate` — dropped and
        in-flight tasks count as misses."""
        return 1.0 - self.deadline_hit_rate(deadline)

    def exit_fractions(self) -> tuple[float, float, float]:
        """Fraction of completed tasks exiting at tiers 1, 2, 3 (NaN
        triple when nothing completed — the empty-fleet convention; a
        run that completed nothing must not read as "0% deep exits")."""
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

    def offloaded_fraction(self) -> float:
        """Fraction of completed tasks whose first block ran on the edge
        (NaN when nothing completed)."""
        if self.stats is not None:
            if not self.stats.completed:
                return float("nan")
            return self.stats.offloaded_completed / self.stats.completed
        done = self.completed
        if not done:
            return float("nan")
        return sum(1 for t in done if t.offloaded) / len(done)

    def deadline_hit_rate(self, deadline: float) -> float:
        """Fraction of *all generated* tasks completed within ``deadline``
        seconds of creation — the §II-A "deadline requirements" metric.
        In-flight and dropped tasks count as misses, so an unstable scheme
        cannot look good by abandoning its worst tasks.  NaN when no tasks
        were generated (the empty-fleet convention).  Exact in record
        mode; in streaming mode the hit count comes from the latency
        sketch, so it is accurate to the sketch's bucket resolution."""
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
        hits = int(np.searchsorted(self._sorted_tcts, deadline, side="right"))
        return hits / total

    # -- per-class accounting (QoS runs) ------------------------------------

    def _require_qos(self, what: str) -> None:
        if not self.class_names:
            raise ValueError(
                f"{what} needs per-class accounting — run with "
                "qos=QoSConfig(...)"
            )

    def class_counts(self) -> dict[str, dict[str, int]]:
        """Exact per-class SLO counters (``generated`` / ``completed`` /
        ``dropped`` / ``shed`` / ``in_flight`` / ``retries``), keyed by
        class name.  Raises when the run carried no QoS config."""
        from ..resilience.qos import class_counts

        self._require_qos("class_counts")
        return class_counts(self.class_names, self.tasks, self.class_stats)

    def class_summary(
        self, deadlines: dict[str, float] | None = None
    ) -> dict[str, dict]:
        """Per-class SLO summary (rates, mean/p99 TCT, optional
        per-class deadline-miss rates).  A class with zero generated
        tasks reports ``NaN`` rates — the empty-class sentinel
        convention; see :func:`repro.resilience.qos.class_summary`."""
        from ..resilience.qos import class_summary

        self._require_qos("class_summary")
        return class_summary(
            self.class_names, self.tasks, self.class_stats, deadlines
        )

    def class_identity_gaps(self) -> dict[str, int]:
        """Per-class ``generated - (completed + dropped + shed +
        in_flight)`` — all zero iff the per-class conservation identity
        holds (and then sums to the global identity by construction)."""
        from ..resilience.qos import class_identity_gaps

        self._require_qos("class_identity_gaps")
        return class_identity_gaps(
            self.class_names, self.tasks, self.class_stats
        )

    def per_device_mean_tct(self, num_devices: int) -> list[float]:
        """Mean TCT by generating device (NaN for devices that completed
        nothing, per the empty-fleet convention)."""
        self._require_records("per_device_mean_tct")
        totals = [0.0] * num_devices
        counts = [0] * num_devices
        for task in self.completed:
            totals[task.device] += task.tct
            counts[task.device] += 1
        return [
            totals[i] / counts[i] if counts[i] else float("nan")
            for i in range(num_devices)
        ]

    def tct_by_creation_slot(
        self, slot_length: float, num_slots: int
    ) -> np.ndarray:
        """Mean TCT of tasks *created* in each slot (NaN-free: slots with
        no tasks get 0) — the per-slot timeline the Fig. 9 stability plots
        need.  Tasks that never completed are charged their age at the end
        of the simulation, so an unstable scheme's timeline rises instead
        of silently dropping its worst tasks."""
        self._require_records("tct_by_creation_slot")
        totals = np.zeros(num_slots)
        counts = np.zeros(num_slots)
        for task in self.tasks:
            slot = min(int(task.created / slot_length), num_slots - 1)
            latency = (
                task.tct if task.done else self.horizon - task.created
            )
            totals[slot] += latency
            counts[slot] += 1
        with np.errstate(invalid="ignore", divide="ignore"):
            timeline = np.where(counts > 0, totals / np.maximum(counts, 1), 0.0)
        return timeline


@dataclass
class EventSimulator:
    """Task-level simulation of an :class:`EdgeSystem` under a policy.

    Attributes:
        system: The deployed system (partition(s), shares, τ).
        arrivals: One arrival process per device.
        environment: Per-slot link dynamics.
        seed: RNG seed — shared across schemes for common random numbers.
        spread_arrivals: If true, a slot's tasks arrive uniformly through
            the slot; if false they arrive at the slot start (the paper's
            §III-D2 simplifying assumption).
        shared_uplink: Model the device↔edge hop as one shared WiFi medium
            (all devices' transfers serialise through a single FIFO at the
            first device's bandwidth) instead of independent per-device
            links.  Real 802.11 airtime is shared, so per-device links —
            the paper's `B_i^e` model — are optimistic under simultaneous
            uploads; this switch quantifies that optimism.
        faults: A :class:`~repro.resilience.faults.FaultPlan` to replay:
            transfers started in a drop slot never arrive, corrupted
            transfers burn airtime and must be re-sent, edge submissions
            during an outage are rejected, stragglers scale the local
            first block.  All fault handling is deterministic (the plan
            is pre-realised, backoff is a fixed schedule), so a fault run
            draws exactly the RNG sequence of its fault-free twin.
        recovery: The :class:`~repro.resilience.recovery.RecoveryPolicy`
            budget applied when a fault hits (defaults to
            ``RecoveryPolicy.none()`` — the naive baseline that loses the
            task on first contact).  Requires ``faults``.  When the
            budget enables dead-edge exclusion or the telemetry watchdog,
            the policy passed to :meth:`run` is wrapped in a
            :class:`~repro.resilience.recovery.ResilientPolicy`.
        overload: An :class:`~repro.resilience.overload.OverloadControl`
            enabling the load-control layer at slot boundaries: the
            admission gate sheds whole tasks (created, counted, but
            never launched — their RNG draws are still consumed, so a
            governed run replays its ungoverned twin's streams),
            backpressure clamps the offloading ratios, and the
            degradation ladder overrides the per-device exit parameters.
            Both engines realise the identical control decisions, so the
            per-task equality contract extends to governed runs.
        qos: A :class:`~repro.resilience.qos.QoSConfig` enabling the
            QoS-class serving layer: tasks carry a seeded per-device
            class, the edge's warm pool charges cold-start holds on
            slice frontiers under a memory budget, the governor ladder
            gains per-class rung biases and budgeted
            utility-per-cost shedding, and per-class SLO accounting is
            threaded through both metric modes.  The QoS control plane
            consumes no control/exit RNG draws, so the scalar↔fast
            per-task identity contract extends to QoS runs.
    """

    system: EdgeSystem
    arrivals: Sequence[ArrivalProcess]
    environment: DynamicEnvironment = field(default_factory=StaticEnvironment)
    seed: int = 0
    spread_arrivals: bool = True
    shared_uplink: bool = False
    faults: "FaultPlan | None" = None
    recovery: "RecoveryPolicy | None" = None
    overload: "OverloadControl | None" = None
    qos: "QoSConfig | None" = None

    def __post_init__(self) -> None:
        if len(self.arrivals) != self.system.num_devices:
            raise ValueError("need one arrival process per device")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        # Reject a mismatched fault plan or budget at construction.
        resolve_recovery(
            None, self.faults, self.recovery, self.system.num_devices
        )

    def _task_slots(self, policy: OffloadingPolicy, metrics: str) -> TaskSlots:
        """A fresh slot step for one run of this configuration (either
        engine)."""
        return TaskSlots(
            self.system,
            self.arrivals,
            policy,
            seed=self.seed,
            metrics=metrics,
            environment=self.environment,
            spread_arrivals=self.spread_arrivals,
            faults=self.faults,
            recovery=self.recovery,
            overload=self.overload,
            qos=self.qos,
        )

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
    ) -> EventSimResult:
        """Generate ``num_slots`` slots of tasks and simulate to completion.

        Args:
            policy: Offloading policy consulted at each slot boundary.
            num_slots: Number of generation slots.
            drain: After generation stops, keep simulating until every task
                completes (bounded by ``drain_limit_factor`` × the
                generation horizon; exceeding it raises, which is the
                unstable-system signal tests rely on).
            drain_limit_factor: Safety bound for the drain phase: at
                least 1, ``inf`` for no bound; NaN or a factor below 1
                raises ``ValueError``.
            engine: ``"scalar"`` walks every task through the shared
                hop graph on the reference event heap; ``"fast"``
                dispatches the identical scenario to the array-backed
                engine (:func:`repro.sim.fast_events.run_fast`), which the
                differential harness pins to the scalar results per task;
                ``"auto"`` picks by fleet size (see
                :func:`resolve_engine`) — safe because the two engines
                are per-task identical, so the choice affects wall-clock
                only, never results.
            metrics: ``"records"`` (default) retains one
                :class:`~repro.sim.tasks.TaskRecord` per generated task;
                ``"streaming"`` folds every task into a constant-size
                :class:`~repro.sim.streaming.StreamingTaskStats`
                aggregate at its terminal event instead, so memory is
                independent of task count (the serving-scale mode —
                ``result.tasks`` is empty, aggregate properties keep
                working).
            checkpoint_every: Emit a checkpoint to ``checkpoint_sink`` at
                every such slot boundary.  The fast engine emits
                ``"state"``-kind snapshots (its run state is plain
                arrays); the scalar engine's heap holds closures over
                live queues, so it emits ``"replay"``-kind markers —
                resume re-executes deterministically from the seed, which
                is byte-identical for the same reason two seeded runs
                are.
            checkpoint_sink: Callable receiving each checkpoint.
            resume_from: Continue (fast) or deterministically re-execute
                (scalar) a killed run from its checkpoint; the
                fingerprint must match this simulator's whole
                configuration — every field — and the slots and
                metrics mode it ran under.
        """
        if num_slots <= 0:
            raise ValueError("need a positive number of slots")
        if engine not in ("scalar", "fast", "auto"):
            raise ValueError(f"unknown event engine {engine!r}")
        check_drain_limit(drain_limit_factor)
        engine = resolve_engine(engine, self.system.num_devices)
        if engine == "fast":
            from .fast_events import run_fast

            return run_fast(
                self,
                policy,
                num_slots,
                drain=drain,
                drain_limit_factor=drain_limit_factor,
                metrics=metrics,
                checkpoint_every=checkpoint_every,
                checkpoint_sink=checkpoint_sink,
                resume_from=resume_from,
            )
        from ..chaos.checkpoint import checkpoint_hook

        slots = self._task_slots(policy, metrics)
        # Replay-kind checkpoints: a resume validates the configuration,
        # then re-executes from slot 0 — determinism from the seed makes
        # the result byte-identical to the uninterrupted run.
        emit = checkpoint_hook(
            self, "event-scalar", "replay", checkpoint_every,
            checkpoint_sink, resume_from, slots=num_slots, metrics=metrics,
        )
        engine = _Engine()
        system = self.system
        tau = system.slot_length
        n = system.num_devices

        device_cpu = [
            FifoServer(
                f"device-{i}",
                system.devices[i].flops,
                overhead=system.devices[i].overhead,
            )
            for i in range(n)
        ]
        if self.shared_uplink:
            medium = Link("shared-wifi", system.devices[0].link)
            uplink = [medium] * n
        else:
            uplink = [
                Link(f"uplink-{i}", system.devices[i].link) for i in range(n)
            ]
        edge_slice = [
            FifoServer(
                f"edge-slice-{i}",
                max(system.shares[i], 1e-9) * system.edge_flops,
                overhead=system.edge_overhead,
            )
            for i in range(n)
        ]
        cloud_link = Link("edge-cloud", system.edge_cloud)
        cloud_cpu = FifoServer(
            "cloud", system.cloud_flops, overhead=system.cloud_overhead
        )

        ledger = slots.ledger
        # Heap servers never refuse a job, so each hop is the server's
        # own call bound to this run's heap.
        pipeline = TaskPipeline(
            partition_for=system.partition_for,
            device_cpu=[partial(cpu.submit, engine) for cpu in device_cpu],
            uplink=[partial(link.transmit, engine) for link in uplink],
            edge_slice=[partial(cpu.submit, engine) for cpu in edge_slice],
            cloud_link=partial(cloud_link.transmit, engine),
            cloud_cpu=partial(cloud_cpu.submit, engine),
            wait=lambda time, delay, again: engine.schedule(
                time + delay, again
            ),
            # Past the plan the accessors report a healthy world, so the
            # drain phase always terminates.
            fault_slot=lambda time: int(time / tau),
            faults=self.faults,
            recovery=slots.recovery,
            finished=ledger.finish,
            dropped=ledger.drop,
        )

        def boundary(slot: int, time: float) -> None:
            emit(slot, {})
            live, rungs, holds, _ = slots.control(
                slot,
                time,
                [cpu.occupancy for cpu in device_cpu],
                [cpu.occupancy for cpu in edge_slice],
                system,
            )
            if self.shared_uplink:
                uplink[0].reconfigure(live[0].link)
            else:
                for link, device in zip(uplink, live):
                    link.reconfigure(device.link)
            pipeline.set_rungs(system, rungs)
            if holds is not None:
                for cpu, hold in zip(edge_slice, holds):
                    cpu.hold_until(engine, time, hold)
            for task, coins in ledger.add_records(slots.draw(slot, time)):
                engine.schedule(
                    task.created, partial(pipeline.launch, task, coins=coins)
                )

        for slot in range(num_slots):
            engine.schedule(slot * tau, partial(boundary, slot))

        horizon = num_slots * tau
        engine.run_until(horizon)
        if drain:
            engine.run_to_exhaustion(horizon * drain_limit_factor)
        return slots.result(engine.now)
