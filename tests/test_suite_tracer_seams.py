"""The suite tracer's seams into ``src``.

``benchmarks/suite/tracing.py`` wraps about thirty ``src`` functions and
methods by name for the length of a traced run.  A renamed or removed
name would only fail a traced suite run; here the tracer is loaded from
its source, read-only, and instrumented over the workload classes of
every suite workload, then restored.
"""

from __future__ import annotations

import types
from pathlib import Path

from repro.core.offloading import DriftPlusPenaltyPolicy, FixedRatioPolicy
from repro.sim.arrivals import PoissonArrivals, TraceArrivals
from repro.sim.environment import StaticEnvironment
from repro.traces.replay import TraceEnvironment

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "suite" / "tracing.py"


def _tracing() -> types.ModuleType:
    """The tracer module, compiled from its source (no bytecode file is
    written next to it)."""
    module = types.ModuleType("suite_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_tracer_patches_every_seam_and_restores_the_originals():
    tracing = _tracing()
    patches = tracing.instrument(
        tracing.Tracer(),
        (
            DriftPlusPenaltyPolicy,
            FixedRatioPolicy,
            PoissonArrivals,
            TraceArrivals,
            StaticEnvironment,
            TraceEnvironment,
        ),
    )
    saved = list(patches._saved)
    try:
        patched = {(owner.__name__, attr) for owner, attr, _, _ in saved}
        for seam in (
            ("DriftPlusPenaltyPolicy", "decide"),
            ("FixedRatioPolicy", "decide"),
            ("PoissonArrivals", "mean"),
            ("TraceArrivals", "mean"),
            ("TraceEnvironment", "system_at"),
            ("VectorizedSlotEngine", "slot_costs"),
            ("FleetState", "shard"),
            ("FleetState", "absorb"),
            ("repro.resilience.overload", "apply_backpressure"),
            ("repro.resilience.qos", "apply_backpressure_by_mode"),
        ):
            assert seam in patched, seam
        for owner, attr, _, original in saved:
            assert getattr(owner, attr) is not original, (owner, attr)
    finally:
        patches.restore()
    assert len(saved) >= 25
    for owner, attr, had, original in saved:
        assert getattr(owner, attr) is original, (owner, attr)
        assert (vars(owner).get(attr) is original) == had, (owner, attr)
