"""SLO accounting helpers shared by experiments, benchmarks, and the CLI.

The per-result metrics live on the result object itself
(:class:`~repro.sim.events.EventSimResult`, which both event engines and
the live runtime return, exposes dropped/retry/deadline-miss counters);
this module adds the cross-cutting pieces:
time-to-recovery measured against a slot simulation's backlog timeline,
and a JSON-friendly SLO summary the chaos benchmark and ``fig_faults``
share.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.events import EventSimResult
    from ..sim.metrics import SimulationResult


def time_to_recovery(
    result: "SimulationResult",
    outage_start: int,
    outage_stop: int,
    margin: float = 1.5,
) -> float:
    """Slots after ``outage_stop`` until the total backlog returns to its
    pre-outage level.

    The pre-outage level is the maximum backlog over slots before
    ``outage_start`` (at least 1 task, so an idle system isn't held to an
    impossible bar); recovery means dropping back under ``margin`` × that
    level.  Returns 0.0 when the backlog never left the band, and
    ``inf`` when it never returns within the simulated horizon.
    """
    if not 0 <= outage_start < outage_stop:
        raise ValueError("need 0 <= outage_start < outage_stop")
    if margin < 1.0:
        raise ValueError("margin must be >= 1")
    timeline = result.backlog_timeline()
    before = timeline[:outage_start]
    baseline = max(float(before.max()) if before.size else 0.0, 1.0)
    threshold = margin * baseline
    for slot in range(min(outage_stop, len(timeline)), len(timeline)):
        if timeline[slot] <= threshold:
            return float(slot - outage_stop) if slot > outage_stop else 0.0
    return math.inf


def slo_summary(result: "EventSimResult", deadline: float | None = None) -> dict:
    """The standard SLO block for JSON payloads (benchmarks, CLI replay,
    ``fig_faults`` rows).

    Works in both metric modes: every field reads the count/rate
    properties, which are exact whether the run retained per-task
    records or streamed into a
    :class:`~repro.sim.streaming.StreamingTaskStats` aggregate (the
    deadline-miss rate is sketch-resolution accurate in streaming
    mode)."""
    summary = {
        "tasks": result.generated_count,
        "completed": result.completed_count,
        "dropped": result.dropped_count,
        "shed": result.shed_count,
        "in_flight": result.in_flight_count,
        "completion_rate": result.completion_rate,
        "drop_rate": result.drop_rate,
        "shed_rate": result.shed_rate,
        "total_retries": result.total_retries,
        "mean_tct": result.mean_tct,
    }
    if deadline is not None:
        summary["deadline_miss_rate"] = result.deadline_miss_rate(deadline)
    return summary
