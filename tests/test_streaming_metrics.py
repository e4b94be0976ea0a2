"""Constant-memory streaming metrics: accuracy, mergeability, parity.

Pins the three contracts ``metrics="streaming"`` rests on:

* **Sketch accuracy** — the quantile sketch's estimate is within its
  documented relative-error bound ``alpha`` of the exact order statistic
  at index ``round(q/100 · (n-1))``, on seeded heavy-tail and bimodal
  latency populations.
* **Exact mergeability** — sketch merging is integer bin addition:
  shard-then-merge equals a single-pass sketch bin-for-bin, in any
  association order; :class:`StreamingTaskStats` merge sums every
  counter exactly.
* **Record parity** — on all five execution paths (fluid scalar and
  vectorized, event scalar and fast, the live runtime — plus both
  federated wrappers), a streaming run's aggregates match a record-mode
  run of the identical seeded scenario: counters exactly (the SLO
  conservation identity is exact, not approximate), means to float
  rounding, percentiles within ``alpha``.  Record-only accessors raise
  a loud ``ValueError`` instead of returning empty views.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.offloading import FixedRatioPolicy
from repro.resilience.faults import canonical_outage_plan
from repro.resilience.overload import OverloadControl
from repro.resilience.recovery import RecoveryPolicy
from repro.resilience.slo import slo_summary
from repro.sim.arrivals import PoissonArrivals
from repro.sim.events import EventSimulator
from repro.sim.simulator import SlotSimulator
from repro.sim.streaming import (
    FluidStreamStats,
    QuantileSketch,
    StreamingTaskStats,
)

from .helpers import random_fleet

SLOTS = 10
N = 3
SEEDS = range(3)
QS = (50.0, 90.0, 99.0)


def _arrivals(system):
    return [PoissonArrivals(d.mean_arrivals) for d in system.devices]


def _order_statistic(values: np.ndarray, q: float) -> float:
    """The exact order statistic the sketch targets (nearest rank at
    ``round(q/100 · (n-1))`` — not numpy's interpolated percentile)."""
    ordered = np.sort(values)
    return float(ordered[int(round(q / 100.0 * (ordered.size - 1)))])


# -- sketch accuracy --------------------------------------------------------


@pytest.mark.parametrize("alpha", [0.01, 0.05])
@pytest.mark.parametrize("shape", ["heavy-tail", "bimodal"])
def test_sketch_accuracy_bound(shape: str, alpha: float) -> None:
    rng = np.random.default_rng(7 if shape == "heavy-tail" else 11)
    if shape == "heavy-tail":
        values = rng.lognormal(mean=0.0, sigma=2.0, size=20_000)
    else:
        values = np.concatenate(
            [
                rng.normal(0.1, 0.01, size=10_000).clip(min=1e-6),
                rng.normal(50.0, 5.0, size=10_000).clip(min=1e-6),
            ]
        )
    sketch = QuantileSketch(alpha=alpha)
    sketch.add_many(values)
    for q in QS + (10.0, 99.9):
        exact = _order_statistic(values, q)
        estimate = sketch.percentile(q)
        assert abs(estimate - exact) <= alpha * exact + 1e-12, (
            shape, alpha, q, exact, estimate,
        )


def test_sketch_scalar_and_vector_ingestion_agree() -> None:
    rng = np.random.default_rng(3)
    values = rng.lognormal(sigma=1.5, size=500)
    one = QuantileSketch()
    many = QuantileSketch()
    for v in values:
        one.add(float(v))
    many.add_many(values)
    assert one.counts == many.counts
    assert one.zero_count == many.zero_count
    assert one.total == many.total


def test_sketch_rejects_negative_and_bad_quantiles() -> None:
    sketch = QuantileSketch()
    with pytest.raises(ValueError):
        sketch.add(-1.0)
    with pytest.raises(ValueError):
        sketch.add_many([1.0, -2.0])
    with pytest.raises(ValueError):
        sketch.percentile(101.0)
    assert math.isnan(sketch.percentile(50.0))  # empty sketch


# -- exact mergeability -----------------------------------------------------


def test_sketch_merge_is_associative_and_matches_single_pass() -> None:
    rng = np.random.default_rng(13)
    values = rng.lognormal(sigma=2.0, size=8_000)
    shards = np.array_split(values, 4)
    sketches = []
    for shard in shards:
        s = QuantileSketch()
        s.add_many(shard)
        sketches.append(s)
    single = QuantileSketch()
    single.add_many(values)
    left = sketches[0].merge(sketches[1]).merge(sketches[2]).merge(sketches[3])
    right = sketches[0].merge(sketches[1].merge(sketches[2].merge(sketches[3])))
    for merged in (left, right):
        assert merged.counts == single.counts
        assert merged.zero_count == single.zero_count
        assert merged.total == single.total
        for q in QS:
            assert merged.percentile(q) == single.percentile(q)


def test_task_stats_merge_sums_every_counter() -> None:
    rng = np.random.default_rng(5)
    shards = []
    for _ in range(3):
        s = StreamingTaskStats()
        n = int(rng.integers(5, 40))
        s.observe_generated(n)
        done = n - 3
        for i in range(done):
            s.observe_completed(
                float(rng.lognormal()), int(rng.integers(1, 4)),
                bool(rng.integers(2)), retries=int(rng.integers(3)),
            )
        s.observe_dropped(retries=2)
        s.observe_shed()
        s.observe_in_flight(1, retries=1)
        assert s.identity_gap == 0
        shards.append(s)
    merged = shards[0].merge(shards[1]).merge(shards[2])
    assert merged.identity_gap == 0
    assert merged.generated == sum(s.generated for s in shards)
    assert merged.completed == sum(s.completed for s in shards)
    assert merged.dropped == sum(s.dropped for s in shards)
    assert merged.shed == sum(s.shed for s in shards)
    assert merged.in_flight == sum(s.in_flight for s in shards)
    assert merged.retries == sum(s.retries for s in shards)
    assert merged.offloaded_completed == sum(
        s.offloaded_completed for s in shards
    )
    assert merged.tct_sum == pytest.approx(sum(s.tct_sum for s in shards))
    assert merged.tct_max == max(s.tct_max for s in shards)
    assert merged.tct_min == min(s.tct_min for s in shards)


# -- record parity: event paths ---------------------------------------------


def _event_runs(seed: int, engine: str):
    system = random_fleet(seed, N, max_arrivals=1.0)
    faults = canonical_outage_plan(SLOTS, N, seed) if seed % 3 == 1 else None
    overload = OverloadControl() if seed % 3 == 2 else None

    def run(metrics: str):
        return EventSimulator(
            system,
            _arrivals(system),
            seed=seed,
            faults=faults,
            recovery=RecoveryPolicy.default() if faults is not None else None,
            overload=overload,
        ).run(
            FixedRatioPolicy(0.5),
            SLOTS,
            drain_limit_factor=100.0,
            engine=engine,
            metrics=metrics,
        )

    return run("records"), run("streaming")


@pytest.mark.parametrize("engine", ["scalar", "fast"])
@pytest.mark.parametrize("seed", SEEDS)
def test_event_streaming_matches_records(engine: str, seed: int) -> None:
    rec, stm = _event_runs(seed, engine)
    assert stm.stats is not None and not stm.tasks
    # Exact counters — and the SLO conservation identity, exactly.
    for attr in ("generated_count", "completed_count", "dropped_count",
                 "shed_count", "in_flight_count", "total_retries"):
        assert getattr(stm, attr) == getattr(rec, attr), attr
    assert stm.stats.identity_gap == 0
    assert stm.generated_count == (
        stm.completed_count + stm.dropped_count + stm.shed_count
        + stm.in_flight_count
    )
    assert stm.modes == rec.modes
    assert stm.horizon == rec.horizon
    # Exact-sum statistics to float rounding.
    if rec.completed_count:
        assert stm.mean_tct == pytest.approx(rec.mean_tct, rel=1e-9)
        assert stm.exit_fractions() == pytest.approx(
            rec.exit_fractions(), rel=1e-12
        )
        assert stm.offloaded_fraction() == pytest.approx(
            rec.offloaded_fraction(), rel=1e-12
        )
        # Sketch percentile within alpha of the targeted order statistic.
        tcts = np.array([t.tct for t in rec.completed])
        alpha = stm.stats.sketch.alpha
        for q in QS:
            exact = _order_statistic(tcts, q)
            assert abs(stm.tct_percentile(q) - exact) <= alpha * exact + 1e-12
    # The summary block works identically in both modes.
    a, b = slo_summary(rec, deadline=5.0), slo_summary(stm, deadline=5.0)
    for key in ("tasks", "completed", "dropped", "shed", "in_flight",
                "total_retries"):
        assert a[key] == b[key], key


def test_streaming_result_refuses_record_accessors() -> None:
    _, stm = _event_runs(0, "fast")
    for accessor in (
        lambda: stm.completed,
        lambda: stm.dropped_tasks,
        lambda: stm.per_device_mean_tct(N),
        lambda: stm.tct_by_creation_slot(0.5, SLOTS),
    ):
        with pytest.raises(ValueError, match="streaming"):
            accessor()


# -- record parity: fluid paths ---------------------------------------------


@pytest.mark.parametrize("vectorized", [False, True])
@pytest.mark.parametrize("seed", SEEDS)
def test_fluid_streaming_matches_records(vectorized: bool, seed: int) -> None:
    system = random_fleet(seed, N, max_arrivals=1.0)
    overload = OverloadControl() if seed % 2 else None

    def run(metrics: str):
        return SlotSimulator(
            system,
            _arrivals(system),
            seed=seed,
            vectorized=vectorized,
            overload=overload,
        ).run(FixedRatioPolicy(0.5), SLOTS, metrics=metrics)

    rec, stm = run("records"), run("streaming")
    assert stm.stream is not None and not stm.records
    assert stm.num_slots == rec.num_slots
    for attr in ("total_arrivals", "total_shed", "total_generated",
                 "mean_tct", "final_backlog", "max_backlog"):
        assert getattr(stm, attr) == pytest.approx(
            getattr(rec, attr), rel=1e-12, abs=1e-12
        ), attr
    assert stm.is_stable() == rec.is_stable()
    with pytest.raises(ValueError, match="streaming"):
        stm.backlog_timeline()


# -- record parity: live runtime --------------------------------------------


def test_runtime_streaming_identity_and_counts() -> None:
    from repro.core.offloading import DriftPlusPenaltyPolicy
    from repro.experiments.common import TestbedConfig, leime_scheme
    from repro.runtime import LeimeRuntime

    config = TestbedConfig(num_devices=2, arrival_rate=0.4)
    system = config.system(leime_scheme(config).partition)

    def run(metrics: str):
        runtime = LeimeRuntime(
            system, DriftPlusPenaltyPolicy(v=50.0), speedup=2000.0, seed=0
        )
        try:
            return runtime.run(
                config.arrival_processes(), num_slots=6, metrics=metrics
            )
        finally:
            assert runtime.shutdown()

    rec, stm = run("records"), run("streaming")
    assert stm.stats is not None and not stm.tasks
    # Generation is control-plane deterministic; completion timing races
    # worker threads, so only the conservation identity and the
    # generated/shed counters are comparable across runs.
    assert stm.generated_count == rec.generated_count
    assert stm.shed_count == rec.shed_count
    assert stm.stats.identity_gap == 0
    assert stm.generated_count == (
        stm.completed_count + stm.dropped_count + stm.shed_count
        + stm.in_flight_count
    )
    with pytest.raises(ValueError, match="streaming"):
        stm.completed


# -- fluid stream odds and ends ---------------------------------------------


def test_fluid_stream_percentile_empty_is_nan() -> None:
    stream = FluidStreamStats()
    assert math.isnan(stream.percentile(95.0))
    assert math.isnan(stream.mean_tct)
    stream.observe_slot(0, 2.0, 3.0, 0.0, 1.0, 0, half_slot=1)
    assert stream.total_generated == 2.0
    assert stream.mean_tct == pytest.approx(1.5)
