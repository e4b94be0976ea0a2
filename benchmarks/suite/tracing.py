"""The traced run: spans around each layer's public functions.

Nothing inside ``src/`` is instrumented.  For the length of one traced
run, :func:`instrument` replaces the layers' public functions and
methods with wrappers that record a span per call, and puts every
original back afterwards:

* engine entry points (``SlotSimulator.run``, ``EventSimulator.run``,
  ``fast_events.run_fast``, ``FederatedSlotSimulator.run``,
  ``experiments.common.run_scheme``);
* the protocol methods of the workload's own policy, arrival-process and
  environment classes (``decide``, ``sample``/``mean``,
  ``devices_at``/``system_at``).  These are patched on the classes, not
  wrapped in proxy objects, so the objects a checkpoint pickles are the
  untouched originals and checkpoint bytes match the untraced run;
* module functions where the engines look them up at call time
  (``fifo_schedule_batch`` in ``sim.fast_events``, the backpressure
  helpers, ``chaos.checkpoint.snapshot``) and the methods of the
  overload, QoS, federation-shard and streaming-metric classes.

Spans are kept in memory as (name, start, end, parent, run id) columns
and written out as JSONL when the run ends.  A layer's self time is its
spans' duration minus the time covered by their child spans, so the
self times of all spans add up to the traced run's wall time.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

#: Spans that start a new run id (one engine run; the grid has 32).
ENGINE_SPANS = (
    "experiments.common",
    "sim.simulator",
    "sim.events",
    "sim.fast_events",
    "federation.fluid",
)
#: Protocol methods traced on the workload's own classes.
PROTOCOL_METHODS = {
    "decide": "core.offloading.decide",
    "sample": "sim.arrivals.sample",
    "mean": "sim.arrivals.mean",
    "devices_at": "sim.environment.devices_at",
    "system_at": "sim.environment.system_at",
}
#: Streaming-aggregate methods that fold one task, slot or batch.
FOLD_METHODS = {
    "StreamingTaskStats": (
        "observe_generated",
        "observe_shed",
        "observe_dropped",
        "observe_in_flight",
        "observe_completed",
        "fold_completed",
        "fold_dropped",
    ),
    "FluidStreamStats": ("observe_slot",),
}
#: Slots needed before a p95 of slot host times is reported (≥ 10
#: samples beyond it).
P95_MIN_SLOTS = 200


class Tracer:
    """In-memory span recorder (columnar, 28 bytes per span)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self._stack = [-1]
        self._engines = {self.name_id(n) for n in ENGINE_SPANS}
        self._engine_depth = 0
        self._run = -1

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, name_id: int, fn, args, kwargs):
        """Run ``fn(*args, **kwargs)`` inside one span."""
        engine = name_id in self._engines
        if engine:
            if self._engine_depth == 0:
                self._run += 1
            self._engine_depth += 1
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.run.append(self._run)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[index] = time.perf_counter()
            self._stack.pop()
            if engine:
                self._engine_depth -= 1

    def columns(self):
        """``(name, parent, run, start, end)`` as NumPy arrays."""
        return (
            np.frombuffer(self.name, dtype=np.int32),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.run, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
        )

    def dump(self, path: Path) -> None:
        """Write every span as one JSON object per line (times relative
        to the first span, in seconds), then one line of per-name totals
        (:func:`layer_totals`)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.start[0] if len(self.start) else 0.0
        with path.open("w") as out:
            for name, parent, run, start, end in zip(
                self.name, self.parent, self.run, self.start, self.end
            ):
                out.write(
                    f'{{"name":"{self.names[name]}","start":{start - origin!r},'
                    f'"end":{end - origin!r},"parent":{parent},"run":{run}}}\n'
                )
            out.write(json.dumps({"totals": layer_totals(self)}) + "\n")


class Patches:
    """Attribute replacements, all undone by :meth:`restore`."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, bool, object]] = []
        self._done: set[tuple[int, str]] = set()

    def set(self, owner, attr: str, replacement) -> None:
        """Replace ``owner.attr`` once (a second request is ignored).  An
        inherited class attribute is restored by deleting the override."""
        key = (id(owner), attr)
        if key in self._done:
            return
        self._done.add(key)
        inherited = isinstance(owner, type) and attr not in vars(owner)
        original = getattr(owner, attr) if inherited else vars(owner)[attr]
        self._saved.append((owner, attr, not inherited, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._saved:
            owner, attr, had, original = self._saved.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._done.clear()


def _spanned(tracer: Tracer, name: str, fn):
    name_id = tracer.name_id(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name_id, fn, args, kwargs)

    return traced


def instrument(tracer: Tracer, protocol_types) -> Patches:
    """Install every wrapper; the caller must :meth:`Patches.restore`."""
    from repro.chaos import checkpoint
    from repro.core import vectorized
    from repro.experiments import common
    from repro.federation import fluid
    from repro.resilience import overload, qos
    from repro.sim import events, fast_events, simulator, streaming

    patches = Patches()

    def span(owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        patches.set(owner, attr, _spanned(tracer, name, original))

    try:
        span(simulator.SlotSimulator, "run", "sim.simulator")
        span(events.EventSimulator, "run", "sim.events")
        span(fast_events, "run_fast", "sim.fast_events")
        span(fluid.FederatedSlotSimulator, "run", "federation.fluid")
        span(common, "run_scheme", "experiments.common")
        for cls in protocol_types:
            for method, name in PROTOCOL_METHODS.items():
                if hasattr(cls, method):
                    span(cls, method, name)
        span(vectorized.VectorizedSlotEngine, "slot_costs", "core.vectorized.slot_costs")
        span(fast_events, "fifo_schedule_batch", "core.vectorized.fifo_schedule")
        span(vectorized.FleetState, "shard", "federation.shard")
        span(vectorized.FleetState, "absorb", "federation.shard")
        span(overload.OverloadGovernor, "observe", "resilience.overload.observe")
        span(overload.AdmissionGate, "admit", "resilience.overload.admit")
        span(overload.AdmissionGate, "admit_count", "resilience.overload.admit")
        span(overload, "apply_backpressure", "resilience.overload.backpressure")
        span(qos, "apply_backpressure_by_mode", "resilience.overload.backpressure")
        span(qos.QoSState, "plan_modes", "resilience.qos.plan_modes")
        span(qos.QoSState, "share_scales", "resilience.qos.share_scales")
        for cls_name, methods in FOLD_METHODS.items():
            for method in methods:
                span(getattr(streaming, cls_name), method, "sim.streaming.fold")

        on_slot = qos.QoSState.on_slot
        on_slot_id = tracer.name_id("resilience.qos.on_slot")

        def traced_on_slot(state, slot, w0, requested):
            cold, evicted = state.cold_hits, state.evictions
            holds = tracer.call(on_slot_id, on_slot, (state, slot, w0, requested), {})
            loads = state.cold_hits - cold
            tracer.counters["qos.cold_loads"] += loads
            tracer.counters["qos.evictions"] += state.evictions - evicted
            tracer.counters["qos.warm_hits"] += sum(map(bool, requested)) - loads
            return holds

        patches.set(qos.QoSState, "on_slot", traced_on_slot)

        snapshot = checkpoint.snapshot
        snapshot_id = tracer.name_id("chaos.checkpoint.snapshot")

        def traced_snapshot(*args, **kwargs):
            taken = tracer.call(snapshot_id, snapshot, args, kwargs)
            tracer.counters["checkpoint.bytes"] += len(taken.blob)
            return taken

        patches.set(checkpoint, "snapshot", traced_snapshot)
    except BaseException:
        patches.restore()
        raise
    return patches


def layer_totals(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per span name: ``calls`` and inclusive ``total_s`` (a span directly
    inside a span of the same name is not counted twice) and ``self_s``."""
    name, parent, _, start, end = tracer.columns()
    k = len(tracer.names)
    duration = end - start
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=duration[nested], minlength=len(name))
    own = duration - child
    outer = ~(nested & (name[np.maximum(parent, 0)] == name))
    calls = np.bincount(name[outer], minlength=k)
    total = np.bincount(name[outer], weights=duration[outer], minlength=k)
    self_s = np.bincount(name, weights=own, minlength=k)
    return {
        n: dict(calls=int(calls[i]), total_s=float(total[i]), self_s=float(self_s[i]))
        for i, n in enumerate(tracer.names)
    }


def slot_host_ms(tracer: Tracer) -> tuple[float, float]:
    """p50 and p95 of host milliseconds per simulated slot: the gaps
    between consecutive ``devices_at`` calls (every engine makes exactly
    one per slot) within one engine run.  p95 is 0 below
    :data:`P95_MIN_SLOTS` slots."""
    if "sim.environment.devices_at" not in tracer.names:
        return 0.0, 0.0
    name, _, run, start, _ = tracer.columns()
    mask = name == tracer.name_id("sim.environment.devices_at")
    runs, starts = run[mask], start[mask]
    same_run = runs[1:] == runs[:-1]
    gaps = np.diff(starts)[same_run] * 1e3
    if gaps.size == 0:
        return 0.0, 0.0
    p95 = float(np.percentile(gaps, 95)) if gaps.size >= P95_MIN_SLOTS else 0.0
    return float(np.percentile(gaps, 50)), p95


def layer_metrics(
    tracer: Tracer, summary: dict, run_s: float, scale: float
) -> dict[str, float]:
    """The per-layer metrics of one traced run (0 where the workload's
    path does not reach the layer), with host times multiplied by
    ``scale`` like the end-to-end ones.  Set-up phases and the tracing
    overhead are added by the caller, which has the untraced runs."""
    totals = layer_totals(tracer)

    def calls(name: str) -> int:
        return totals.get(name, {}).get("calls", 0)

    def total(name: str) -> float:
        return totals.get(name, {}).get("total_s", 0.0) * scale

    def own(name: str) -> float:
        return totals.get(name, {}).get("self_s", 0.0) * scale

    counters = tracer.counters
    requests = counters["qos.warm_hits"] + counters["qos.cold_loads"]
    attempts = summary["generated"] + summary["retries"]
    p50, p95 = slot_host_ms(tracer)
    decide_s = total("core.offloading.decide")
    return {
        "core.offloading.decide_calls": calls("core.offloading.decide"),
        "core.offloading.decide_s": decide_s,
        "core.offloading.decide_share": decide_s / (run_s * scale),
        "core.vectorized.slot_costs_calls": calls("core.vectorized.slot_costs"),
        "core.vectorized.slot_costs_s": total("core.vectorized.slot_costs"),
        "core.vectorized.fifo_schedule_calls": calls("core.vectorized.fifo_schedule"),
        "core.vectorized.fifo_schedule_s": total("core.vectorized.fifo_schedule"),
        "sim.arrivals.sample_calls": calls("sim.arrivals.sample"),
        "sim.arrivals.sample_s": total("sim.arrivals.sample"),
        "sim.arrivals.mean_s": total("sim.arrivals.mean"),
        "sim.environment.devices_at_s": total("sim.environment.devices_at"),
        "sim.environment.system_at_s": total("sim.environment.system_at"),
        "sim.simulator.self_s": own("sim.simulator"),
        "sim.events.self_s": own("sim.events"),
        "sim.fast_events.self_s": own("sim.fast_events"),
        "federation.fluid.self_s": own("federation.fluid"),
        "federation.shard_s": total("federation.shard"),
        "resilience.overload.observe_s": total("resilience.overload.observe"),
        "resilience.overload.admit_calls": calls("resilience.overload.admit"),
        "resilience.overload.admit_s": total("resilience.overload.admit"),
        "resilience.overload.backpressure_s": total("resilience.overload.backpressure"),
        "resilience.qos.on_slot_s": total("resilience.qos.on_slot"),
        "resilience.qos.plan_modes_s": total("resilience.qos.plan_modes"),
        "resilience.qos.share_scales_s": total("resilience.qos.share_scales"),
        "resilience.qos.cold_loads": counters["qos.cold_loads"],
        "resilience.qos.evictions": counters["qos.evictions"],
        "resilience.qos.warm_hit_ratio": (
            counters["qos.warm_hits"] / requests if requests else 0.0
        ),
        "resilience.recovery.retries": summary["retries"],
        "resilience.recovery.useful_ratio": (
            summary["completed"] / attempts if attempts else 0.0
        ),
        "chaos.checkpoint.snapshot_calls": calls("chaos.checkpoint.snapshot"),
        "chaos.checkpoint.snapshot_s": total("chaos.checkpoint.snapshot"),
        "chaos.checkpoint.bytes": counters["checkpoint.bytes"],
        "sim.streaming.fold_s": total("sim.streaming.fold"),
        "sim.metrics.summary_s": total("sim.metrics.summary"),
        "slot.host_ms_p50": p50 * scale,
        "slot.host_ms_p95": p95 * scale,
        "tasks.generated": summary["generated"],
        "tasks.completed": summary["completed"],
        "tasks.dropped": summary["dropped"],
        "tasks.shed": summary["shed"],
        "tasks.in_flight": summary["in_flight"],
    }
