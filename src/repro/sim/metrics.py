"""Metrics containers shared by both simulators."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .streaming import FluidStreamStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..resilience.qos import QoSFlow


@dataclass(frozen=True)
class SlotRecord:
    """Aggregated outcome of one slot across all devices.

    Attributes:
        slot: Slot index.
        arrivals: Total tasks *admitted* this slot (overload control may
            shed part of the generated demand).
        total_time: Summed latency of those tasks (``Σ_i Y_i + tail_i``).
        ratios: Per-device offloading ratios chosen for the slot.
        queue_local: Post-update ``Q_i`` per device.
        queue_edge: Post-update ``H_i`` per device.
        shed: Tasks rejected this slot by the admission gate plus queue
            overflow clamped by the bounded-queue capacity; the slot's
            generated demand is ``arrivals + shed``.
        mode: The degradation-ladder rung in effect
            (:data:`repro.resilience.overload.MODE_FULL` when no
            governor is attached).
    """

    slot: int
    arrivals: float
    total_time: float
    ratios: tuple[float, ...]
    queue_local: tuple[float, ...]
    queue_edge: tuple[float, ...]
    shed: float = 0.0
    mode: int = 0

    @property
    def mean_tct(self) -> float:
        """Mean TCT of this slot's arrivals (0 if no arrivals)."""
        if self.arrivals <= 0:
            return 0.0
        return self.total_time / self.arrivals

    @property
    def backlog(self) -> float:
        return sum(self.queue_local) + sum(self.queue_edge)


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of a slot-simulation run.

    The headline number is :attr:`mean_tct` — the long-run average task
    completion time the paper's P1 objective targets.

    Streaming mode: a run with ``metrics="streaming"`` retains no
    per-slot records (each carries O(devices) ratio/queue tuples) —
    ``records`` is empty and ``stream`` holds the constant-size
    :class:`~repro.sim.streaming.FluidStreamStats` aggregate.  The
    headline properties keep working off exact streamed totals;
    timeline accessors need the records and raise a loud ``ValueError``.
    """

    records: tuple[SlotRecord, ...]
    #: Constant-memory aggregate when the run used
    #: ``metrics="streaming"``; None in record mode.
    stream: FluidStreamStats | None = None
    #: QoS class names, in config order, when the run carried a
    #: :class:`~repro.resilience.qos.QoSConfig`; empty otherwise.
    class_names: tuple[str, ...] = ()
    #: Per-class fluid flow accounting (generated/admitted/shed/time),
    #: populated alongside ``class_names``.
    class_flow: "QoSFlow | None" = None

    def __post_init__(self) -> None:
        if not self.records and self.stream is None:
            raise ValueError("a simulation must produce at least one slot")

    def _require_records(self, what: str) -> None:
        if self.stream is not None:
            raise ValueError(
                f"{what} requires per-slot records, but this result was "
                'produced with metrics="streaming" (constant-memory '
                'aggregates only) — re-run with metrics="records"'
            )

    @property
    def num_slots(self) -> int:
        if self.stream is not None:
            return self.stream.num_slots
        return len(self.records)

    @property
    def total_arrivals(self) -> float:
        if self.stream is not None:
            return self.stream.total_arrivals
        return sum(r.arrivals for r in self.records)

    @property
    def total_shed(self) -> float:
        """Fluid tasks rejected by overload control across the run."""
        if self.stream is not None:
            return self.stream.total_shed
        return sum(r.shed for r in self.records)

    @property
    def total_generated(self) -> float:
        """Demand before admission: ``arrivals + shed`` summed — the
        fluid half of ``generated = completed + dropped + shed +
        in-flight``."""
        if self.stream is not None:
            return self.stream.total_generated
        return sum(r.arrivals + r.shed for r in self.records)

    @property
    def mean_tct(self) -> float:
        """Arrival-weighted mean TCT across the whole run (NaN when
        nothing arrived — an empty run did not complete tasks in 0 s)."""
        if self.stream is not None:
            return self.stream.mean_tct
        arrivals = self.total_arrivals
        if arrivals <= 0:
            return math.nan
        return sum(r.total_time for r in self.records) / arrivals

    @property
    def final_backlog(self) -> float:
        if self.stream is not None:
            return self.stream.final_backlog
        return self.records[-1].backlog

    @property
    def max_backlog(self) -> float:
        if self.stream is not None:
            return self.stream.max_backlog
        return max(r.backlog for r in self.records)

    def tct_timeline(self) -> np.ndarray:
        """Per-slot mean TCT — the Fig. 9 stability curves."""
        self._require_records("tct_timeline")
        return np.array([r.mean_tct for r in self.records])

    def backlog_timeline(self) -> np.ndarray:
        self._require_records("backlog_timeline")
        return np.array([r.backlog for r in self.records])

    def ratio_timeline(self, device: int = 0) -> np.ndarray:
        self._require_records("ratio_timeline")
        return np.array([r.ratios[device] for r in self.records])

    def mode_timeline(self) -> np.ndarray:
        """Per-slot degradation-ladder rung (zeros when ungoverned)."""
        self._require_records("mode_timeline")
        return np.array([r.mode for r in self.records])

    def shed_timeline(self) -> np.ndarray:
        self._require_records("shed_timeline")
        return np.array([r.shed for r in self.records])

    def tct_percentile(self, q: float) -> float:
        """Percentile of per-slot mean TCT over slots with arrivals —
        exact in record mode, sketch-accurate in streaming mode, NaN when
        no slot had arrivals."""
        if self.stream is not None:
            return self.stream.percentile(q)
        values = [r.mean_tct for r in self.records if r.arrivals > 0]
        if not values:
            return math.nan
        return float(np.percentile(values, q))

    def _require_qos(self, what: str) -> "QoSFlow":
        if self.class_flow is None:
            raise ValueError(
                f"{what} requires a QoS-configured run — pass qos="
                "QoSConfig(...) to the simulator"
            )
        return self.class_flow

    def qos_summary(
        self, deadlines: dict[str, float] | None = None
    ) -> dict[str, dict]:
        """Per-class flow summary (NaN sentinels for empty classes); see
        :meth:`repro.resilience.qos.QoSFlow.summary`."""
        flow = self._require_qos("qos_summary")
        return flow.summary(self.class_names, deadlines)

    def class_identity_gaps(self) -> dict[str, float]:
        """Per-class ``generated - (admitted + shed)`` conservation gap —
        all-zero when the per-class identity holds."""
        flow = self._require_qos("class_identity_gaps")
        return flow.identity_gaps(self.class_names)

    def is_stable(self, tolerance_per_slot: float = 0.05) -> bool:
        """Mean-rate-stability proxy for C3/C4: the backlog grows by less
        than ``tolerance_per_slot`` tasks per slot over the second half of
        the run."""
        half = self.num_slots // 2
        if half == 0:
            return True
        if self.stream is not None:
            first = self.stream.half_backlog
            last = self.stream.final_backlog
        else:
            first, last = self.records[half].backlog, self.records[-1].backlog
        span = self.num_slots - half
        return (last - first) / span <= tolerance_per_slot


def summarize(results: Sequence[tuple[str, SimulationResult]]) -> str:
    """Human-readable comparison table used by examples and benchmarks."""
    lines = [
        f"{'scheme':<16} {'mean TCT (s)':>12} {'p95 (s)':>10} "
        f"{'final backlog':>14} {'stable':>7}"
    ]
    for name, result in results:
        lines.append(
            f"{name:<16} {result.mean_tct:>12.4f} "
            f"{result.tct_percentile(95):>10.4f} "
            f"{result.final_backlog:>14.1f} "
            f"{str(result.is_stable()):>7}"
        )
    return "\n".join(lines)
