"""Invariant oracles for the chaos campaign.

Each oracle takes run artefacts and returns a list of violation strings
— empty means the invariant holds.  The campaign treats *any* non-empty
list as a failed case; the strings are written verbatim into the
violation report so a red campaign is diagnosable from the artefact
alone.

The invariants:

* **SLO conservation** — every generated task is accounted for exactly
  once: ``generated = completed + dropped + shed + in-flight`` at the
  task level, ``generated = admitted + shed`` at the fluid level.
* **Cross-path conformance** — the scalar and vectorized fluid paths
  agree SlotRecord-for-SlotRecord; the scalar and fast event engines
  agree TaskRecord-for-TaskRecord (:func:`event_results_close` is the
  float-tolerant form the experiments and CLI replays use).
* **NaN sentinels** — no quantity that should be a number is NaN or
  infinite (the empty-fleet NaN convention is deliberate and excluded:
  sentinels scan raw records/tasks, not derived rates).
* **Checkpoint/resume identity** and **determinism under reseed** are
  expressed through the same ``records_*``/``tasks_*`` comparators.
"""

from __future__ import annotations

import math
from operator import attrgetter

#: Cap on per-oracle violation detail lines — a systematically broken
#: run should not produce a megabyte report.
MAX_DIFF_LINES = 5


def _finite(value: float) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


# -- conservation ------------------------------------------------------------


def event_conservation(result) -> list[str]:
    """``generated = completed + dropped + shed + in-flight`` over an
    :class:`~repro.sim.events.EventSimResult` (or any report with the
    same counters)."""
    generated = len(result.tasks)
    parts = (
        len(result.completed),
        result.dropped_count,
        result.shed_count,
        result.in_flight_count,
    )
    if generated != sum(parts):
        return [
            "event conservation: generated "
            f"{generated} != completed {parts[0]} + dropped {parts[1]} "
            f"+ shed {parts[2]} + in-flight {parts[3]} = {sum(parts)}"
        ]
    return []


def fluid_conservation(result) -> list[str]:
    """``generated = admitted arrivals + shed`` over a
    :class:`~repro.sim.metrics.SimulationResult`."""
    generated = result.total_generated
    admitted = result.total_arrivals
    shed = result.total_shed
    if not math.isclose(generated, admitted + shed, rel_tol=1e-12, abs_tol=1e-9):
        return [
            "fluid conservation: generated "
            f"{generated!r} != arrivals {admitted!r} + shed {shed!r}"
        ]
    violations = []
    for record in result.records:
        if record.arrivals < 0 or record.shed < 0:
            violations.append(
                f"fluid conservation: slot {record.slot} has negative "
                f"arrivals {record.arrivals!r} / shed {record.shed!r}"
            )
            if len(violations) >= MAX_DIFF_LINES:
                break
    return violations


# -- NaN sentinels -----------------------------------------------------------


def nan_sentinels(result) -> list[str]:
    """No NaN/inf in raw per-slot or per-task quantities.

    Duck-typed: a fluid result exposes ``records`` (SlotRecords), an
    event result/report exposes ``tasks`` (TaskRecords).
    """
    violations: list[str] = []

    def bad(context: str, name: str, value) -> None:
        violations.append(f"nan sentinel: {context} {name}={value!r}")

    for record in getattr(result, "records", ()):
        context = f"slot {record.slot}"
        for name in ("arrivals", "total_time", "shed"):
            if not _finite(getattr(record, name)):
                bad(context, name, getattr(record, name))
        for name in ("ratios", "queue_local", "queue_edge"):
            if not all(_finite(v) for v in getattr(record, name)):
                bad(context, name, getattr(record, name))
        if len(violations) >= MAX_DIFF_LINES:
            return violations
    for task in getattr(result, "tasks", ()):
        context = f"task {task.task_id}"
        if not _finite(task.created):
            bad(context, "created", task.created)
        if task.completed is not None and not _finite(task.completed):
            bad(context, "completed", task.completed)
        if len(violations) >= MAX_DIFF_LINES:
            return violations
    horizon = getattr(result, "horizon", 0.0)
    if not _finite(horizon):
        bad("run", "horizon", horizon)
    return violations


# -- cross-path / replay comparators -----------------------------------------


def records_equal(a, b) -> bool:
    """SlotRecord-for-SlotRecord equality (dataclass ``==`` covers every
    field)."""
    return list(a) == list(b)


def records_diff(a, b, label: str = "records") -> list[str]:
    """Human-readable first differences between two SlotRecord runs."""
    a, b = list(a), list(b)
    if records_equal(a, b):
        return []
    violations = []
    if len(a) != len(b):
        violations.append(f"{label}: {len(a)} slots vs {len(b)} slots")
    for x, y in zip(a, b):
        if x != y:
            violations.append(f"{label}: slot {x.slot}: {x} != {y}")
            if len(violations) >= MAX_DIFF_LINES:
                break
    return violations or [f"{label}: runs differ"]


def tasks_equal(a, b) -> bool:
    """TaskRecord-for-TaskRecord equality."""
    return list(a) == list(b)


_EXACT = attrgetter(
    "task_id", "device", "created", "offloaded", "exit_tier", "retries",
    "dropped", "shed", "qos",
)
_SPLIT = attrgetter("compute_time", "transfer_time", "queue_time")


def event_results_close(a, b, tol: float = 1e-9) -> bool:
    """Twin task-level runs (scalar vs fast event engine) agree: equal
    rung logs and task counts, horizons within ``tol``, and per task
    equal ids, devices, creation times, placement, exit tiers, retries,
    drop/shed flags and QoS classes, with completion times and the
    compute/transfer/queue split within ``tol``."""
    if (
        a.modes != b.modes
        or len(a.tasks) != len(b.tasks)
        or abs(a.horizon - b.horizon) > tol
    ):
        return False
    for x, y in zip(a.tasks, b.tasks):
        if _EXACT(x) != _EXACT(y) or x.done != y.done:
            return False
        floats = [*zip(_SPLIT(x), _SPLIT(y))]
        if x.done:
            floats.append((x.completed, y.completed))
        if any(abs(p - q) > tol for p, q in floats):
            return False
    return True


def tasks_diff(a, b, label: str = "tasks") -> list[str]:
    """Human-readable first differences between two task-level runs."""
    a, b = list(a), list(b)
    if tasks_equal(a, b):
        return []
    violations = []
    if len(a) != len(b):
        violations.append(f"{label}: {len(a)} tasks vs {len(b)} tasks")
    for x, y in zip(a, b):
        if x != y:
            violations.append(f"{label}: task {x.task_id}: {x} != {y}")
            if len(violations) >= MAX_DIFF_LINES:
                break
    return violations or [f"{label}: runs differ"]
