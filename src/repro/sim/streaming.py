"""Constant-memory streaming metrics for the serving-scale fast lane.

The record-mode result objects retain one :class:`~repro.sim.tasks.
TaskRecord` (or :class:`~repro.sim.metrics.SlotRecord`) per task/slot —
O(tasks) memory that cannot survive multi-million-task sweeps.  This
module provides the ``metrics="streaming"`` alternative: small,
*mergeable* aggregates that every execution path folds into as tasks
reach a terminal state, so a run's footprint is independent of how many
tasks it generates.

Three pieces:

* :class:`QuantileSketch` — a DDSketch-style log-bucket sketch with a
  guaranteed relative-error bound ``alpha``.  A value ``v`` lands in
  bucket ``ceil(log_gamma(v))`` with ``gamma = (1+alpha)/(1-alpha)``;
  the bucket midpoint ``2·gamma^k/(gamma+1)`` is within ``alpha·v`` of
  every value in the bucket.  Merging adds integer bin counts, so
  shard-then-merge is *exactly* associative and commutative (the
  federation property suite pins this) as long as the bin budget is
  never exceeded — with the default ``alpha=0.01`` the budget covers
  values spanning ~36 orders of magnitude before the safety-valve
  collapse triggers.
* :class:`StreamingTaskStats` — the task-level aggregate shared by the
  event engines, the live runtime, and the federated event wrapper:
  exact counters for the SLO conservation identity
  ``generated = completed + dropped + shed + in-flight``, exact
  mean/max/min latency, and sketch-backed p50/p99.
* :class:`FluidStreamStats` — the fluid analogue for the slot
  simulators: exact arrival/shed/backlog aggregates plus a sketch over
  per-slot mean TCTs.

Quantile semantics: ``percentile(q)`` targets the empirical order
statistic at index ``round(q/100 · (n-1))`` and returns an estimate
within relative error ``alpha`` of it (tested on seeded heavy-tail and
bimodal distributions).  Counters and means are exact — only the
percentiles are approximate.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

# Values at or below this threshold are tracked exactly in a dedicated
# zero bucket (log buckets cannot represent 0).
_MIN_VALUE = 1e-12


class QuantileSketch:
    """Mergeable log-bucket quantile sketch with relative-error ``alpha``.

    Attributes:
        alpha: Guaranteed relative accuracy of :meth:`percentile`.
        max_bins: Safety-valve bin budget; when exceeded, the lowest
            buckets collapse upward (upper quantiles stay accurate, and
            exact merge associativity is no longer guaranteed — with
            the default budget this never triggers for latencies
            between 1e-12 and ~1e24 seconds).
    """

    __slots__ = ("alpha", "gamma", "_log_gamma", "counts", "zero_count",
                 "total", "max_bins")

    def __init__(self, alpha: float = 0.01, max_bins: int = 4096) -> None:
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if max_bins < 8:
            raise ValueError("max_bins must be at least 8")
        self.alpha = float(alpha)
        self.gamma = (1.0 + alpha) / (1.0 - alpha)
        self._log_gamma = math.log(self.gamma)
        self.counts: dict[int, int] = {}
        self.zero_count = 0
        self.total = 0
        self.max_bins = int(max_bins)

    # -- ingestion ----------------------------------------------------------

    def _key(self, value: float) -> int:
        return math.ceil(math.log(value) / self._log_gamma)

    def add(self, value: float) -> None:
        """Insert one non-negative value."""
        if value < 0:
            raise ValueError("sketch values must be non-negative")
        self.total += 1
        if value <= _MIN_VALUE:
            self.zero_count += 1
            return
        key = self._key(value)
        self.counts[key] = self.counts.get(key, 0) + 1
        if len(self.counts) > self.max_bins:
            self._collapse()

    def add_many(self, values: Iterable[float] | np.ndarray) -> None:
        """Vectorized :meth:`add` (bucket keys identical to the scalar
        path — both go through the platform ``log``)."""
        v = np.asarray(values, dtype=np.float64).ravel()
        if v.size == 0:
            return
        if np.any(v < 0):
            raise ValueError("sketch values must be non-negative")
        self.total += int(v.size)
        nonzero = v > _MIN_VALUE
        self.zero_count += int(v.size - np.count_nonzero(nonzero))
        nz = v[nonzero]
        if nz.size == 0:
            return
        keys = np.ceil(np.log(nz) / self._log_gamma).astype(np.int64)
        uniq, cnt = np.unique(keys, return_counts=True)
        counts = self.counts
        for key, c in zip(uniq.tolist(), cnt.tolist()):
            counts[key] = counts.get(key, 0) + c
        if len(counts) > self.max_bins:
            self._collapse()

    def _collapse(self) -> None:
        """Fold the lowest buckets into the smallest retained one."""
        keys = sorted(self.counts)
        spill = keys[: len(keys) - self.max_bins + 1]
        keep_key = spill[-1]
        folded = sum(self.counts.pop(k) for k in spill)
        self.counts[keep_key] = self.counts.get(keep_key, 0) + folded

    # -- merge --------------------------------------------------------------

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Return a new sketch holding both inputs' values.

        Pure integer bin-count addition: associative, commutative, and
        exactly equal to a single-pass sketch over the union (while no
        input ever collapsed).
        """
        if abs(other.alpha - self.alpha) > 1e-15:
            raise ValueError("cannot merge sketches with different alpha")
        out = QuantileSketch(
            alpha=self.alpha, max_bins=max(self.max_bins, other.max_bins)
        )
        out.counts = dict(self.counts)
        for key, c in other.counts.items():
            out.counts[key] = out.counts.get(key, 0) + c
        out.zero_count = self.zero_count + other.zero_count
        out.total = self.total + other.total
        if len(out.counts) > out.max_bins:
            out._collapse()
        return out

    # -- queries ------------------------------------------------------------

    @property
    def num_bins(self) -> int:
        return len(self.counts) + (1 if self.zero_count else 0)

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-th percentile (``q`` in [0, 100]).

        Targets the order statistic at index ``round(q/100 · (n-1))``;
        the returned bucket midpoint is within relative error
        :attr:`alpha` of it.  NaN on an empty sketch.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError("q must be in [0, 100]")
        if self.total == 0:
            return math.nan
        rank = int(round(q / 100.0 * (self.total - 1)))
        if rank < self.zero_count:
            return 0.0
        cum = self.zero_count
        for key in sorted(self.counts):
            cum += self.counts[key]
            if cum > rank:
                return 2.0 * self.gamma ** key / (self.gamma + 1.0)
        # Unreachable when counters are consistent; guard anyway.
        return 2.0 * self.gamma ** max(self.counts) / (self.gamma + 1.0)

    def rank_fraction(self, value: float) -> float:
        """Approximate fraction of inserted values ``<= value`` (values
        sharing ``value``'s bucket are counted as below — off by at most
        the bucket's ``alpha``-wide span).  NaN on an empty sketch."""
        if self.total == 0:
            return math.nan
        if value < 0:
            return 0.0
        below = self.zero_count
        if value > _MIN_VALUE:
            cutoff = self._key(value)
            below += sum(c for k, c in self.counts.items() if k <= cutoff)
        return below / self.total


class StreamingTaskStats:
    """Mergeable constant-size aggregate over a task population.

    Counters (exact): ``generated``, ``completed``, ``dropped``,
    ``shed``, ``retries``, per-exit completion counts, offloaded
    completions, deadline misses are *not* counted here — deadline-miss
    queries go through the sketch (approximate, documented).

    The SLO conservation identity is exact by disjointness: every
    generated task is folded into exactly one of completed / dropped /
    shed / in-flight, and ``in_flight`` is counted explicitly at the
    horizon (not derived), so ``identity_gap`` genuinely verifies the
    accounting.
    """

    __slots__ = ("generated", "completed", "dropped", "shed", "in_flight",
                 "retries", "exit_counts", "offloaded_completed",
                 "tct_sum", "tct_max", "tct_min", "sketch")

    def __init__(self, alpha: float = 0.01) -> None:
        self.generated = 0
        self.completed = 0
        self.dropped = 0
        self.shed = 0
        self.in_flight = 0
        self.retries = 0
        self.exit_counts: dict[int, int] = {}
        self.offloaded_completed = 0
        self.tct_sum = 0.0
        self.tct_max = math.nan
        self.tct_min = math.nan
        self.sketch = QuantileSketch(alpha=alpha)

    # -- folding ------------------------------------------------------------

    def observe_generated(self, n: int = 1) -> None:
        self.generated += n

    def observe_shed(self, n: int = 1) -> None:
        self.shed += n

    def observe_dropped(self, retries: int = 0) -> None:
        self.dropped += 1
        self.retries += retries

    def observe_in_flight(self, n: int = 1, retries: int = 0) -> None:
        self.in_flight += n
        self.retries += retries

    def observe_completed(
        self, tct: float, exit_index: int, offloaded: bool, retries: int = 0
    ) -> None:
        self.completed += 1
        self.retries += retries
        self.exit_counts[exit_index] = self.exit_counts.get(exit_index, 0) + 1
        if offloaded:
            self.offloaded_completed += 1
        self.tct_sum += tct
        self.tct_max = tct if math.isnan(self.tct_max) else max(self.tct_max, tct)
        self.tct_min = tct if math.isnan(self.tct_min) else min(self.tct_min, tct)
        self.sketch.add(tct)

    def fold_completed(
        self,
        tcts: np.ndarray,
        exits: np.ndarray,
        offloaded: np.ndarray,
        retries: np.ndarray,
    ) -> None:
        """Vectorized fold of a batch of completed tasks."""
        tcts = np.asarray(tcts, dtype=np.float64)
        if tcts.size == 0:
            return
        self.completed += int(tcts.size)
        self.retries += int(np.asarray(retries).sum())
        uniq, cnt = np.unique(np.asarray(exits), return_counts=True)
        for tier, c in zip(uniq.tolist(), cnt.tolist()):
            self.exit_counts[int(tier)] = (
                self.exit_counts.get(int(tier), 0) + int(c)
            )
        self.offloaded_completed += int(np.count_nonzero(offloaded))
        self.tct_sum += float(tcts.sum())
        batch_max = float(tcts.max())
        batch_min = float(tcts.min())
        self.tct_max = (
            batch_max if math.isnan(self.tct_max)
            else max(self.tct_max, batch_max)
        )
        self.tct_min = (
            batch_min if math.isnan(self.tct_min)
            else min(self.tct_min, batch_min)
        )
        self.sketch.add_many(tcts)

    def fold_dropped(self, count: int, retries: int) -> None:
        self.dropped += count
        self.retries += retries

    # -- merge --------------------------------------------------------------

    def merge(self, other: "StreamingTaskStats") -> "StreamingTaskStats":
        out = StreamingTaskStats(alpha=self.sketch.alpha)
        out.generated = self.generated + other.generated
        out.completed = self.completed + other.completed
        out.dropped = self.dropped + other.dropped
        out.shed = self.shed + other.shed
        out.in_flight = self.in_flight + other.in_flight
        out.retries = self.retries + other.retries
        out.exit_counts = dict(self.exit_counts)
        for tier, c in other.exit_counts.items():
            out.exit_counts[tier] = out.exit_counts.get(tier, 0) + c
        out.offloaded_completed = (
            self.offloaded_completed + other.offloaded_completed
        )
        out.tct_sum = self.tct_sum + other.tct_sum
        for attr in ("tct_max", "tct_min"):
            a, b = getattr(self, attr), getattr(other, attr)
            pick = max if attr == "tct_max" else min
            if math.isnan(a):
                setattr(out, attr, b)
            elif math.isnan(b):
                setattr(out, attr, a)
            else:
                setattr(out, attr, pick(a, b))
        out.sketch = self.sketch.merge(other.sketch)
        return out

    # -- queries ------------------------------------------------------------

    @property
    def identity_gap(self) -> int:
        """``generated - (completed + dropped + shed + in_flight)`` —
        zero when the SLO conservation identity holds."""
        return self.generated - (
            self.completed + self.dropped + self.shed + self.in_flight
        )

    @property
    def mean_tct(self) -> float:
        if self.completed == 0:
            return math.nan
        return self.tct_sum / self.completed

    def percentile(self, q: float) -> float:
        return self.sketch.percentile(q)

    def deadline_hit_fraction(self, deadline: float) -> float:
        """Approximate fraction of *completed* tasks with TCT ≤ deadline
        (sketch-resolution accuracy; exact counters are unavailable in
        streaming mode)."""
        return self.sketch.rank_fraction(deadline)


class FluidStreamStats:
    """Constant-memory aggregate for the fluid (slot) simulators.

    Everything :class:`~repro.sim.metrics.SimulationResult` needs for
    its headline numbers, without retaining per-slot records (each of
    which carries O(devices) ratio/queue tuples): exact totals, the
    backlog probes :meth:`~repro.sim.metrics.SimulationResult.is_stable`
    reads (final, max, and the half-horizon sample), and a sketch over
    per-slot mean TCTs for the percentile view.
    """

    __slots__ = ("num_slots", "total_arrivals", "total_time", "total_shed",
                 "final_backlog", "max_backlog", "half_backlog", "max_mode",
                 "sketch")

    def __init__(self, alpha: float = 0.01) -> None:
        self.num_slots = 0
        self.total_arrivals = 0.0
        self.total_time = 0.0
        self.total_shed = 0.0
        self.final_backlog = 0.0
        self.max_backlog = 0.0
        self.half_backlog = 0.0
        self.max_mode = 0
        self.sketch = QuantileSketch(alpha=alpha)

    def observe_slot(
        self,
        slot: int,
        arrivals: float,
        total_time: float,
        shed: float,
        backlog: float,
        mode: int,
        half_slot: int,
    ) -> None:
        self.num_slots += 1
        self.total_arrivals += arrivals
        self.total_time += total_time
        self.total_shed += shed
        self.final_backlog = backlog
        self.max_backlog = max(self.max_backlog, backlog)
        if slot == half_slot:
            self.half_backlog = backlog
        self.max_mode = max(self.max_mode, mode)
        if arrivals > 0:
            self.sketch.add(total_time / arrivals)

    @property
    def mean_tct(self) -> float:
        """Arrival-weighted mean TCT; NaN when nothing arrived."""
        if self.total_arrivals <= 0:
            return math.nan
        return self.total_time / self.total_arrivals

    @property
    def total_generated(self) -> float:
        return self.total_arrivals + self.total_shed

    def percentile(self, q: float) -> float:
        """Sketch percentile of per-slot mean TCTs; NaN when no slot had
        arrivals."""
        return self.sketch.percentile(q)
