"""Task arrival processes (§III-B1's ``M_i(t)``).

The paper assumes i.i.d. per-slot arrival counts bounded by ``M_{i,max}``
with expectation ``k_i``; the evaluation additionally sweeps and *varies*
arrival rates over time (Fig. 3(a), Fig. 9, Fig. 10(b)).  Every process
exposes the current expectation so policies can plan against ``k_i(t)``
while the simulator draws the realised counts.

A process may also declare its ``count_law``: :data:`POISSON_COUNT` (the
slot's count is a Poisson draw around its mean) or :data:`MEAN_COUNT`
(the count is the mean itself).  :class:`SlotDraw` realises a fleet's
slot from the means — a long contiguous run of Poisson processes in one
``rng.poisson`` call — instead of one ``sample`` call per device.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

#: ``count_law`` of a process whose slot count is a Poisson draw around
#: its slot mean (capped at its ``maximum``, if it has one).
POISSON_COUNT = "poisson"
#: ``count_law`` of a deterministic process: its slot count is its mean.
MEAN_COUNT = "mean"

#: Poisson runs at least this long draw in one array call; shorter ones
#: draw one scalar per process, which is cheaper below it: NumPy's array
#: path costs ~13 µs whatever the length on a 2-core host, a scalar draw
#: ~0.7 µs (best of 7: 14.1 vs 9.0 µs at 12 processes, 13.2 vs 14.3 at
#: 20, 14.9 vs 22.9 at 32).  Both consume the stream identically.
BATCH_DRAW_MIN = 20


@runtime_checkable
class ArrivalProcess(Protocol):
    """Per-slot arrival counts for one device.

    The protocol is slot-indexed throughout: ``mean``/``sample`` take the
    absolute slot, so non-stationary processes (piecewise phases,
    sinusoids, replayed traces) are first-class.  ``runtime_checkable``
    so adapters from other subsystems (:mod:`repro.traces`) can assert
    conformance with ``isinstance``.
    """

    def mean(self, slot: int) -> float:
        """Expected arrivals ``k_i`` in slot ``slot`` (what policies see)."""
        ...

    def sample(self, slot: int, rng: np.random.Generator) -> float:
        """Realised arrivals ``M_i(t)`` in slot ``slot``."""
        ...


class SlotDraw:
    """One slot's realised arrivals for a fixed list of processes, in as
    few RNG calls as the stream allows.

    Each contiguous run of processes whose ``count_law`` is
    :data:`POISSON_COUNT` is one ``rng.poisson`` call over their slot
    means (a run shorter than :data:`BATCH_DRAW_MIN` draws one scalar per
    mean instead): NumPy draws an array's elements in order from the
    same stream, so the counts and the generator's final state equal the
    per-process ``sample`` calls (a zero mean draws nothing either way).  A
    :data:`MEAN_COUNT` process returns its mean without drawing.  Any
    other process (no ``count_law``) calls its own ``sample`` in place,
    so the order of draws on the stream never changes.

    The law is read once, from what each process declares — not from its
    ``sample`` method, which an instrumented run may wrap.  A subclass
    that overrides ``sample`` must override ``count_law`` too.
    """

    def __init__(self, processes: Sequence[ArrivalProcess]):
        self.processes = list(processes)
        #: ``(start, stop)`` for a Poisson run, ``(i, None)`` for a
        #: process that samples itself, in device order.
        self.steps: list[tuple[int, int | None]] = []
        #: ``(device, maximum)`` of the capped Poisson processes.
        self.caps: list[tuple[int, float]] = []
        start = None
        for i, proc in enumerate(self.processes):
            law = getattr(proc, "count_law", None)
            if law == POISSON_COUNT:
                if start is None:
                    start = i
                maximum = getattr(proc, "maximum", None)
                if maximum is not None:
                    self.caps.append((i, maximum))
                continue
            if start is not None:
                self.steps.append((start, i))
                start = None
            if law != MEAN_COUNT:
                self.steps.append((i, None))
        if start is not None:
            self.steps.append((start, len(self.processes)))

    def __call__(
        self, slot: int, means: list[float], rng: np.random.Generator
    ) -> list[float]:
        """The counts of slot ``slot``; ``means`` is every process's
        ``mean(slot)``, in order."""
        counts = list(means)
        for start, stop in self.steps:
            if stop is None:
                counts[start] = self.processes[start].sample(slot, rng)
            elif stop - start >= BATCH_DRAW_MIN:
                drawn = rng.poisson(means[start:stop])
                counts[start:stop] = drawn.astype(np.float64).tolist()
            else:
                for i in range(start, stop):
                    counts[i] = float(rng.poisson(means[i]))
        for i, maximum in self.caps:
            counts[i] = min(counts[i], maximum)
        return counts


def mean_series(process: ArrivalProcess, num_slots: int) -> np.ndarray:
    """The process's slot-indexed means over ``[0, num_slots)`` — what a
    policy would plan against, as one array."""
    if num_slots <= 0:
        raise ValueError("need a positive number of slots")
    return np.array([process.mean(t) for t in range(num_slots)], dtype=np.float64)


@dataclass(frozen=True)
class ConstantArrivals:
    """Deterministic ``k`` tasks every slot — the workhorse for figures that
    sweep other variables and want zero arrival noise."""

    rate: float

    count_law = MEAN_COUNT

    def __post_init__(self) -> None:
        if not 0 <= self.rate < math.inf:
            raise ValueError("rate must be finite and non-negative")

    def mean(self, slot: int) -> float:
        return self.rate

    def sample(self, slot: int, rng: np.random.Generator) -> float:
        return self.rate


@dataclass(frozen=True)
class PoissonArrivals:
    """Poisson arrivals with mean ``rate``, optionally truncated at
    ``maximum`` (the paper's ``M_{i,max}`` boundedness assumption)."""

    rate: float
    maximum: float | None = None

    count_law = POISSON_COUNT

    def __post_init__(self) -> None:
        if not 0 <= self.rate < math.inf:
            raise ValueError("rate must be finite and non-negative")
        if self.maximum is not None and not self.rate <= self.maximum < math.inf:
            raise ValueError("maximum must be finite and at least the mean rate")

    def mean(self, slot: int) -> float:
        return self.rate

    def sample(self, slot: int, rng: np.random.Generator) -> float:
        count = float(rng.poisson(self.rate))
        if self.maximum is not None:
            count = min(count, self.maximum)
        return count


@dataclass(frozen=True)
class UniformArrivals:
    """Uniform integer arrivals on ``[low, high]`` — the paper's bounded
    i.i.d. model in its simplest concrete form."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if not 0 <= self.low <= self.high < math.inf:
            raise ValueError("need 0 <= low <= high < inf")

    def mean(self, slot: int) -> float:
        return 0.5 * (self.low + self.high)

    def sample(self, slot: int, rng: np.random.Generator) -> float:
        return float(rng.integers(int(self.low), int(self.high) + 1))


@dataclass(frozen=True)
class TraceArrivals:
    """Replay a recorded per-slot mean series.

    The workhorse of trace replay (:mod:`repro.traces`): the series holds
    slot-indexed *means*; by default they are replayed as deterministic
    counts and the series repeats cyclically past its end.

    Attributes:
        trace: Per-slot means, one value per recorded slot.
        poisson: Draw Poisson counts around each slot's mean instead of
            replaying it verbatim (a recorded *rate* trace rather than a
            recorded *count* trace).
        cycle: Wrap past the end (default) or hold the final value — the
            natural semantics for a finite-horizon recording.
    """

    trace: tuple[float, ...]
    poisson: bool = False
    cycle: bool = True

    def __post_init__(self) -> None:
        if not self.trace:
            raise ValueError("trace must be non-empty")
        if any(not math.isfinite(v) or v < 0 for v in self.trace):
            raise ValueError("trace values must be finite and non-negative")

    @classmethod
    def from_series(
        cls,
        values: Sequence[float] | np.ndarray,
        poisson: bool = False,
        cycle: bool = True,
    ) -> "TraceArrivals":
        """Adapt any array-like of slot-indexed means (a trace channel
        column, a measurement log) into an arrival process."""
        series = np.asarray(values, dtype=np.float64).ravel()
        return cls(
            trace=tuple(float(v) for v in series), poisson=poisson, cycle=cycle
        )

    def _rate_at(self, slot: int) -> float:
        if self.cycle:
            return self.trace[slot % len(self.trace)]
        return self.trace[min(slot, len(self.trace) - 1)]

    @property
    def count_law(self) -> str:
        return POISSON_COUNT if self.poisson else MEAN_COUNT

    def mean(self, slot: int) -> float:
        return self._rate_at(slot)

    def sample(self, slot: int, rng: np.random.Generator) -> float:
        rate = self._rate_at(slot)
        if self.poisson:
            return float(rng.poisson(rate))
        return rate


@dataclass(frozen=True)
class PiecewiseRateArrivals:
    """Poisson arrivals whose rate steps through phases — the Fig. 9
    "dynamic task arrival rate" workload.

    Attributes:
        phases: ``(duration_slots, rate)`` pairs, cycled.
    """

    phases: tuple[tuple[int, float], ...]

    count_law = POISSON_COUNT

    def __post_init__(self) -> None:
        if not self.phases:
            raise ValueError("need at least one phase")
        for duration, rate in self.phases:
            if not 0 < duration < math.inf:
                raise ValueError("phase durations must be finite and positive")
            if not 0 <= rate < math.inf:
                raise ValueError("phase rates must be finite and non-negative")

    @property
    def _cycle(self) -> int:
        return sum(duration for duration, _ in self.phases)

    def _rate_at(self, slot: int) -> float:
        position = slot % self._cycle
        for duration, rate in self.phases:
            if position < duration:
                return rate
            position -= duration
        raise AssertionError("unreachable: position within cycle")

    def mean(self, slot: int) -> float:
        return self._rate_at(slot)

    def sample(self, slot: int, rng: np.random.Generator) -> float:
        return float(rng.poisson(self._rate_at(slot)))


@dataclass(frozen=True)
class SinusoidalRateArrivals:
    """Poisson arrivals with a sinusoidally-varying rate — a smooth dynamic
    workload for stability stress tests.

    ``rate(t) = base + amplitude·sin(2π·t / period)`` clamped at 0.
    """

    base: float
    amplitude: float
    period: int

    count_law = POISSON_COUNT

    def __post_init__(self) -> None:
        if not (0 <= self.base < math.inf and 0 <= self.amplitude < math.inf):
            raise ValueError("base and amplitude must be finite and non-negative")
        if not 0 < self.period < math.inf:
            raise ValueError("period must be finite and positive")

    def _rate_at(self, slot: int) -> float:
        rate = self.base + self.amplitude * math.sin(2.0 * math.pi * slot / self.period)
        return max(rate, 0.0)

    def mean(self, slot: int) -> float:
        return self._rate_at(slot)

    def sample(self, slot: int, rng: np.random.Generator) -> float:
        return float(rng.poisson(self._rate_at(slot)))
