"""Recovery policies: deadlines, bounded retries, fallback, watchdog.

Two layers survive a :class:`~repro.resilience.faults.FaultPlan`:

* **Per-task recovery** (:class:`RecoveryPolicy`): a declarative budget —
  deadline, bounded exponential-backoff retries, and local fallback —
  consulted by the event simulator and the live runtime whenever a
  transfer drops, arrives corrupted, or the edge rejects a job.  The
  schedule is deterministic (``backoff_base · backoff_factor^attempt``),
  so a replay is exactly reproducible.
* **Per-slot control recovery** (:class:`ResilientPolicy`): a wrapper
  around any :class:`~repro.core.offloading.OffloadingPolicy` that
  re-solves the slot problem P1' with a dead edge *excluded* — during an
  edge outage every ``x_i(t)`` is forced to 0, so first blocks run
  on-device and the Eq. 10-11 queue accounting stays intact — and runs a
  controller watchdog: on slots flagged ``telemetry_stale`` it ignores
  the (garbage) queue telemetry and repeats the last-known-good ratios.

The wrapper adds no randomness and calls its inner policy through the
same interface on both the scalar and vectorized simulator paths, so
fault-plan replays stay byte-identical across paths (pinned by
``tests/test_determinism.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..core.offloading import (
    DeviceConfig,
    EdgeSystem,
    LyapunovState,
    OffloadingPolicy,
)
from .faults import FaultPlan


@dataclass(frozen=True)
class RecoveryPolicy:
    """Declarative recovery budget applied to every task and slot.

    Attributes:
        deadline: Per-task SLO in seconds, measured from creation.  A task
            that would retry past its deadline is dropped instead (a
            deadline miss); ``None`` disables the check.
        max_retries: Retry budget per task.  Attempt ``k`` (0-based) waits
            ``backoff_base · backoff_factor^k`` seconds; once the budget
            is spent the task falls back or drops.
        backoff_base: First retry delay in seconds.
        backoff_factor: Exponential growth per attempt (≥ 1).
        fallback_local: After the retry budget is exhausted on the *raw
            input* transfer (the task has not started computing anywhere),
            run the first block on the device instead of dropping — the
            Edge-AI on-device fallback.
        exclude_dead_edge: Re-solve P1' with the edge excluded during an
            outage (force ``x_i(t) = 0``); the no-recovery baseline keeps
            offloading into the dead edge.
        watchdog: Pin the last-known-good ratios on slots whose queue
            telemetry is stale instead of acting on garbage.
    """

    deadline: float | None = None
    max_retries: int = 6
    backoff_base: float = 0.5
    backoff_factor: float = 2.0
    fallback_local: bool = True
    exclude_dead_edge: bool = True
    watchdog: bool = True

    def __post_init__(self) -> None:
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive (or None)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.backoff_base <= 0:
            raise ValueError("backoff_base must be positive")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")

    @classmethod
    def default(cls) -> "RecoveryPolicy":
        """The recommended budget: 6 retries backing off 0.5 s → 16 s
        (31.5 s span — longer than the canonical 20-slot outage), local
        fallback, outage exclusion, watchdog."""
        return cls()

    @classmethod
    def none(cls) -> "RecoveryPolicy":
        """The naive baseline: no retries, no fallback, no outage
        exclusion, no watchdog — a faulted task is simply lost."""
        return cls(
            max_retries=0,
            fallback_local=False,
            exclude_dead_edge=False,
            watchdog=False,
        )

    def backoff(self, attempt: int) -> float:
        """Delay before retry ``attempt`` (0-based)."""
        return self.backoff_base * self.backoff_factor**attempt

    def backoff_table(self) -> "np.ndarray":
        """``backoff(k)`` for every spendable attempt, as an array.

        The fast event engine indexes this table instead of re-evaluating
        powers per task; entries are computed through :meth:`backoff`
        itself, so they are bit-identical to the scalar schedule."""
        import numpy as np

        return np.array(
            [self.backoff(k) for k in range(self.max_retries)],
            dtype=np.float64,
        )

    def backoff_span(self) -> float:
        """Total waiting the full retry budget can bridge — size this past
        the longest expected outage so retries survive it."""
        return sum(self.backoff(k) for k in range(self.max_retries))


@dataclass
class ResilientPolicy:
    """Fault-aware wrapper around any offloading policy.

    Owns a slot cursor advanced once per :meth:`decide` call (every
    execution path consults the policy exactly once per slot), reading
    the matching :class:`~repro.resilience.faults.FaultPlan` row:

    1. edge down and ``recovery.exclude_dead_edge`` → all ratios 0
       (device-only first block; queues keep the Eq. 10-11 accounting);
    2. telemetry stale and ``recovery.watchdog`` → repeat the
       last-known-good ratios, ignoring the garbage queue state;
    3. otherwise delegate to the inner policy and remember its answer
       as the new last-known-good.
    """

    inner: OffloadingPolicy
    plan: FaultPlan
    recovery: RecoveryPolicy = field(default_factory=RecoveryPolicy.default)

    def __post_init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Rewind the slot cursor and forget the pinned ratios."""
        self._slot = 0
        self._last_good: list[float] | None = None

    def decide(
        self,
        system: EdgeSystem,
        state: LyapunovState,
        arrivals: Sequence[float],
        devices: Sequence[DeviceConfig] | None = None,
    ) -> list[float]:
        slot = self._slot
        self._slot += 1
        n = len(devices) if devices is not None else system.num_devices
        if self.recovery.exclude_dead_edge and self.plan.edge_down_at(slot):
            # P1' with the edge excluded: the only feasible point is
            # x_i(t) = 0, so no search is needed.
            return [0.0] * n
        if (
            self.recovery.watchdog
            and self.plan.stale_at(slot)
            and self._last_good is not None
        ):
            return list(self._last_good)
        ratios = self.inner.decide(system, state, arrivals, devices)
        if not self.plan.stale_at(slot):
            self._last_good = list(ratios)
        return ratios


def resolve_recovery(
    policy: OffloadingPolicy | None,
    faults: FaultPlan | None,
    recovery: RecoveryPolicy | None,
    num_devices: int,
) -> tuple[OffloadingPolicy | None, RecoveryPolicy | None]:
    """The effective ``(policy, recovery)`` pair of a task-level run.

    Checks the fault plan against the fleet and the budget against the
    plan, defaults the budget to :meth:`RecoveryPolicy.none` when faults
    are present, and wraps ``policy`` in a :class:`ResilientPolicy` when
    the budget asks for control-plane recovery.  Both event engines and
    the live runtime resolve through here, so they replay identical
    control decisions."""
    if faults is None:
        if recovery is not None:
            raise ValueError("recovery requires a fault plan to recover from")
        return policy, None
    if faults.num_devices != num_devices:
        raise ValueError(
            f"fault plan covers {faults.num_devices} devices but "
            f"the system has {num_devices}"
        )
    if recovery is None:
        recovery = RecoveryPolicy.none()
    if recovery.exclude_dead_edge or recovery.watchdog:
        policy = ResilientPolicy(policy, faults, recovery)
    return policy, recovery
