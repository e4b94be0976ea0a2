"""Property suite for the QoS serving layer (classes, memory, cold starts).

Four families of invariants, each over ≥25 seeded fleets:

* **Identity** — per-class flow conservation
  (``generated = admitted/completed + dropped + shed + in-flight``) holds
  per class and the class rows sum to the global identity, on the fluid
  and event paths, with cold starts and class-aware shedding active.
* **Differential** — with QoS + the governor active, fluid scalar ↔
  vectorized stays byte-identical and event scalar ↔ fast stays
  per-task identical (class tags included).
* **Warm pool** — eviction never loses in-flight (requested-and-warm)
  work, the memory budget is never exceeded by resident partitions,
  cold-start delays are a pure function of the seed, and the incremental
  slot step decides exactly what the re-summing reference decides.
* **Sentinels** — every rate over an empty class is NaN, never an
  optimistic zero.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.offloading import DriftPlusPenaltyPolicy
from repro.models.multi_exit import MultiExitDNN
from repro.models.zoo import MODEL_BUILDERS, build_model
from repro.resilience.overload import OverloadControl
from repro.resilience.qos import (
    QoSClass,
    QoSConfig,
    QoSState,
    assign_classes,
    partition_footprint,
)
from repro.sim.arrivals import PoissonArrivals
from repro.sim.events import EventSimulator
from repro.sim.simulator import SlotSimulator

from .helpers import random_fleet

SEEDS = tuple(range(26))
NUM_DEVICES = 4
NUM_SLOTS = 24

#: Aggressive enough that evictions, cold starts, and class-aware
#: shedding all fire inside the short property horizon.
QOS = QoSConfig(memory_fraction=0.35, cold_start_seconds=0.4, shed_budget=25.0)
CONTROL = OverloadControl(
    queue_high=2.0,
    queue_low=0.5,
    token_rate=1.5,
    bucket_depth=3.0,
    queue_capacity=6.0,
)


def _arrivals(system):
    return [PoissonArrivals(d.mean_arrivals) for d in system.devices]


# -- fluid paths: byte identity + per-class conservation ---------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_fluid_scalar_vectorized_identity_with_qos(seed: int) -> None:
    system = random_fleet(seed, NUM_DEVICES, max_arrivals=2.0)

    def run(vectorized: bool):
        return SlotSimulator(
            system,
            _arrivals(system),
            seed=seed,
            vectorized=vectorized,
            overload=CONTROL,
            qos=QOS,
        ).run(DriftPlusPenaltyPolicy(v=50.0, vectorized=vectorized), NUM_SLOTS)

    scalar, vectorized = run(False), run(True)
    assert scalar.records == vectorized.records, seed
    for field in ("generated", "admitted", "shed", "time"):
        assert getattr(scalar.class_flow, field) == getattr(
            vectorized.class_flow, field
        ), (seed, field)

    # Per-class flow conservation, and the rows sum to the global flow.
    gaps = scalar.class_identity_gaps()
    assert all(abs(gap) < 1e-9 for gap in gaps.values()), (seed, gaps)
    flow = scalar.class_flow
    total_arrivals = sum(r.arrivals for r in scalar.records)
    total_shed = sum(r.shed for r in scalar.records)
    assert sum(flow.generated) == pytest.approx(
        total_arrivals + total_shed, abs=1e-9
    ), seed


def test_fluid_qos_exercises_cold_starts_and_shedding() -> None:
    """The sweep above is only meaningful if the machinery actually
    fires: across the seeds, shedding and per-class flow must both be
    non-trivial somewhere."""
    sheds = 0.0
    for seed in SEEDS:
        system = random_fleet(seed, NUM_DEVICES, max_arrivals=2.0)
        result = SlotSimulator(
            system,
            _arrivals(system),
            seed=seed,
            overload=CONTROL,
            qos=QOS,
        ).run(DriftPlusPenaltyPolicy(v=50.0), NUM_SLOTS)
        sheds += sum(result.class_flow.shed)
    assert sheds > 0.0


# -- event paths: scalar ↔ fast per-task identity ---------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_event_scalar_fast_identity_with_qos(seed: int) -> None:
    system = random_fleet(seed, NUM_DEVICES, max_arrivals=2.0)

    def run(engine: str):
        return EventSimulator(
            system,
            _arrivals(system),
            seed=seed,
            overload=CONTROL,
            qos=QOS,
        ).run(
            DriftPlusPenaltyPolicy(v=50.0),
            NUM_SLOTS,
            engine=engine,
            drain_limit_factor=100.0,
        )

    scalar, fast = run("scalar"), run("fast")
    assert len(scalar.tasks) == len(fast.tasks), seed
    for ta, tb in zip(scalar.tasks, fast.tasks):
        ctx = (seed, ta.task_id)
        assert ta.task_id == tb.task_id, ctx
        assert ta.device == tb.device, ctx
        assert ta.qos == tb.qos, ctx
        assert ta.offloaded == tb.offloaded, ctx
        assert ta.exit_tier == tb.exit_tier, ctx
        assert ta.shed == tb.shed, ctx
        assert ta.dropped == tb.dropped, ctx
        assert (ta.completed is None) == (tb.completed is None), ctx
        if ta.completed is not None:
            assert ta.completed == pytest.approx(tb.completed, abs=1e-9), ctx

    # Per-class conservation and the sum-to-global property.
    gaps = scalar.class_identity_gaps()
    assert all(gap == 0 for gap in gaps.values()), (seed, gaps)
    counts = scalar.class_counts()
    assert sum(row["generated"] for row in counts.values()) == len(
        scalar.tasks
    ), seed
    assert sum(row["shed"] for row in counts.values()) == sum(
        1 for t in scalar.tasks if t.shed
    ), seed


def test_event_qos_tags_every_task() -> None:
    system = random_fleet(3, NUM_DEVICES, max_arrivals=2.0)
    result = EventSimulator(
        system, _arrivals(system), seed=3, overload=CONTROL, qos=QOS
    ).run(DriftPlusPenaltyPolicy(v=50.0), NUM_SLOTS)
    names = set(result.class_names)
    assert names == {"gold", "standard", "batch"}
    assert result.tasks, "sweep should generate work"
    assert all(t.qos in names for t in result.tasks)


# -- warm pool invariants ----------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_eviction_never_loses_in_flight_work(seed: int) -> None:
    """Random request sequences through the warm pool: a warm slice
    serving work this slot is displaced only by a strictly
    higher-priority cold load (never gratuitously), a surviving warm
    slice is never charged a re-load, and the resident set never
    exceeds the memory budget."""
    system = random_fleet(seed, 6, max_arrivals=1.0)
    state = QoSState(QoSConfig(memory_fraction=0.4), system, seed)
    rng = np.random.default_rng(seed)
    tau = system.slot_length
    for slot in range(60):
        requested = [bool(b) for b in rng.random(6) < 0.6]
        warm_before = {
            i
            for i in range(6)
            if requested[i] and i in state.resident
        }
        holds = state.on_slot(slot, slot * tau, requested)
        loaded = {i for i, _ in state.loads_this_slot}
        # A warm requested slice is displaced (evicted, or forced
        # through a cold reload) only by a strictly higher-priority
        # cold load — never gratuitously.
        displaced = {
            i
            for i in warm_before
            if i in loaded or i not in state.resident
        }
        for i in displaced:
            assert any(
                (state.class_at(j).weight, -j)
                > (state.class_at(i).weight, -i)
                for j in loaded - {i}
            ), (seed, slot, i)
        # Budget is a hard cap on residency.
        used = sum(state.footprints[i] for i in state.resident)
        assert used <= state.budget + 1e-6, (seed, slot, used)
        # A hold at most defers by the device's load latency (values
        # below w0 mean "already warm — no hold").
        assert all(
            h <= slot * tau + max(state.load_seconds) + 1e-12 for h in holds
        ), (seed, slot)


def _reference_on_slot(
    state: QoSState, slot: int, w0: float, requested
) -> list[float]:
    """The warm pool's original slot step, kept as an oracle: it re-sums
    the resident pool before every fit check and re-sorts the unpinned
    residents at every load that does not fit."""

    def used() -> float:
        return sum(state.footprints[i] for i in state.resident)

    holds = [w0] * state.num_devices
    state.loads_this_slot = []
    order = sorted(
        (i for i in range(state.num_devices) if requested[i]),
        key=lambda i: (-state.class_at(i).weight, i),
    )
    pinned: set[int] = set()
    for i in order:
        if i in state.resident:
            state.resident[i] = slot
            pinned.add(i)
            holds[i] = state.ready_at.get(i, w0)
            continue
        need = state.footprints[i]
        if used() + need > state.budget + 1e-9:
            victims = sorted(
                (j for j in state.resident if j not in pinned),
                key=lambda j: (state.class_at(j).weight, state.resident[j], j),
            )
            for j in victims:
                if used() + need <= state.budget + 1e-9:
                    break
                del state.resident[j]
                state.ready_at.pop(j, None)
                state.evictions += 1
        state.cold_hits += 1
        warm_time = w0 + state.load_seconds[i]
        state.loads_this_slot.append((i, state.load_seconds[i]))
        if used() + need > state.budget + 1e-9 and pinned:
            holds[i] = warm_time
            continue
        state.resident[i] = slot
        state.ready_at[i] = warm_time
        pinned.add(i)
        holds[i] = warm_time
    return holds


WARM_POOL_FRACTIONS = (0.1, 0.25, 0.4, 0.7, 1.0)


@pytest.mark.parametrize("seed", SEEDS)
def test_warm_pool_matches_the_reference_slot_step(seed: int) -> None:
    """The incremental warm pool (running residency total, one eviction
    order per slot) makes exactly the decisions of the re-summing
    reference: same holds, same resident and warm-time maps in the same
    insertion order (checkpoints pickle them), same loads and counters
    after every slot, across memory pressures, fleet shapes and
    outage flushes."""
    n, slots = 16, 176
    evictions = 0
    for heterogeneous in (False, True):
        system = random_fleet(seed, n, heterogeneous=heterogeneous)
        for fraction in WARM_POOL_FRACTIONS:
            config = QoSConfig(memory_fraction=fraction)
            state = QoSState(config, system, seed)
            reference = QoSState(config, system, seed)
            rng = np.random.default_rng([seed, int(heterogeneous), n])
            tau = system.slot_length
            for slot in range(slots):
                if rng.random() < 0.05:
                    state.flush()
                    reference.flush()
                density = rng.uniform(0.2, 1.0)
                requested = [bool(b) for b in rng.random(n) < density]
                w0 = slot * tau
                holds = state.on_slot(slot, w0, requested)
                expected = _reference_on_slot(reference, slot, w0, requested)
                where = (seed, heterogeneous, fraction, slot)
                assert holds == expected, where
                assert list(state.resident.items()) == list(
                    reference.resident.items()
                ), where
                assert list(state.ready_at.items()) == list(
                    reference.ready_at.items()
                ), where
                assert state.loads_this_slot == reference.loads_this_slot, where
                assert state.evictions == reference.evictions, where
                assert state.cold_hits == reference.cold_hits, where
            evictions += state.evictions
    assert evictions > 0, seed


@pytest.mark.parametrize("model", sorted(MODEL_BUILDERS))
def test_partition_footprints_are_integer_valued(model: str) -> None:
    """The warm pool's running residency total is exact only because
    every footprint is an integer-valued float, small enough that a pool
    of 10,000 of them still sums below 2**53; check that premise for
    every cut of every zoo model."""
    me_dnn = MultiExitDNN(build_model(model))
    for selection in me_dnn.candidate_selections():
        footprint = partition_footprint(me_dnn.partition(selection))
        assert footprint.is_integer(), (model, selection, footprint)
        assert 0.0 < footprint * 10_000 < 2.0**53, (model, selection, footprint)


def test_heavy_eviction_still_conserves_every_task() -> None:
    """The engine-level meaning of 'eviction never loses in-flight
    work': under a memory budget tight enough to thrash, every generated
    task still lands in exactly one terminal bucket, per class."""
    tight = QoSConfig(memory_fraction=0.15, cold_start_seconds=0.6)
    for seed in range(8):
        system = random_fleet(seed, 6, max_arrivals=2.0)
        result = EventSimulator(
            system,
            _arrivals(system),
            seed=seed,
            overload=CONTROL,
            qos=tight,
        ).run(DriftPlusPenaltyPolicy(v=50.0), NUM_SLOTS)
        gaps = result.class_identity_gaps()
        assert all(gap == 0 for gap in gaps.values()), (seed, gaps)
        counts = result.class_counts()
        assert sum(row["generated"] for row in counts.values()) == len(
            result.tasks
        ), seed


@pytest.mark.parametrize("seed", tuple(range(25)))
def test_cold_start_delays_deterministic_per_seed(seed: int) -> None:
    system = random_fleet(seed, NUM_DEVICES, max_arrivals=1.0)
    first = QoSState(QOS, system, seed)
    second = QoSState(QOS, system, seed)
    assert first.load_seconds == second.load_seconds
    assert first.class_of == second.class_of
    other = QoSState(QOS, system, seed + 1)
    assert (
        other.load_seconds != first.load_seconds
        or other.class_of != first.class_of
    )
    # Jitter stays inside the configured band.
    low = QOS.cold_start_seconds
    high = QOS.cold_start_seconds * (1.0 + QOS.cold_start_jitter)
    assert all(low <= s <= high for s in first.load_seconds)


def test_class_assignment_ignores_arrival_and_exit_streams() -> None:
    """Class assignment draws from its own salted stream: attaching QoS
    must not perturb the arrival draws of an existing run (the no-QoS
    and QoS runs see identical demand)."""
    system = random_fleet(7, NUM_DEVICES, max_arrivals=1.0)
    bare = SlotSimulator(system, _arrivals(system), seed=7).run(
        DriftPlusPenaltyPolicy(v=50.0), NUM_SLOTS
    )
    qos = SlotSimulator(
        system, _arrivals(system), seed=7, qos=QoSConfig()
    ).run(DriftPlusPenaltyPolicy(v=50.0), NUM_SLOTS)
    assert [r.arrivals for r in qos.records] == [
        r.arrivals for r in bare.records
    ]


# -- empty-class sentinels ---------------------------------------------------


def _all_gold() -> QoSConfig:
    """Every device pinned to class 0 — standard and batch stay empty."""
    return QoSConfig(class_map=(0,) * NUM_DEVICES)


def test_empty_class_rates_are_nan_event_path() -> None:
    system = random_fleet(1, NUM_DEVICES, max_arrivals=1.0)
    result = EventSimulator(
        system, _arrivals(system), seed=1, qos=_all_gold()
    ).run(DriftPlusPenaltyPolicy(v=50.0), NUM_SLOTS)
    summary = result.class_summary(deadlines={"standard": 3.0})
    assert summary["gold"]["generated"] > 0
    for empty in ("standard", "batch"):
        row = summary[empty]
        assert row["generated"] == 0
        for rate in ("completion_rate", "drop_rate", "shed_rate", "mean_tct",
                     "p99_tct"):
            assert math.isnan(row[rate]), (empty, rate, row[rate])
    assert math.isnan(summary["standard"]["deadline_miss_rate"])
    # Identity gaps are still defined (and zero) for empty classes.
    assert result.class_identity_gaps()["batch"] == 0


def test_empty_class_rates_are_nan_fluid_path() -> None:
    system = random_fleet(1, NUM_DEVICES, max_arrivals=1.0)
    result = SlotSimulator(
        system, _arrivals(system), seed=1, qos=_all_gold()
    ).run(DriftPlusPenaltyPolicy(v=50.0), NUM_SLOTS)
    summary = result.qos_summary()
    for empty in ("standard", "batch"):
        row = summary[empty]
        assert row["generated"] == 0.0
        assert math.isnan(row["shed_rate"]), empty
        assert math.isnan(row["admit_rate"]), empty
        assert math.isnan(row["mean_tct"]), empty
    assert summary["gold"]["generated"] > 0


def test_qos_accessors_loud_without_config() -> None:
    system = random_fleet(2, NUM_DEVICES, max_arrivals=1.0)
    result = SlotSimulator(system, _arrivals(system), seed=2).run(
        DriftPlusPenaltyPolicy(v=50.0), NUM_SLOTS
    )
    with pytest.raises(ValueError, match="qos"):
        result.qos_summary()
    event = EventSimulator(system, _arrivals(system), seed=2).run(
        DriftPlusPenaltyPolicy(v=50.0), NUM_SLOTS
    )
    with pytest.raises(ValueError, match="qos"):
        event.class_summary()


# -- config validation -------------------------------------------------------


def test_qos_config_validation_is_loud() -> None:
    with pytest.raises(ValueError):
        QoSConfig(memory_fraction=0.0)
    with pytest.raises(ValueError):
        QoSConfig(cold_start_seconds=-1.0)
    with pytest.raises(ValueError):
        QoSClass(
            name="x", share=0.0, weight=1.0, deadline=1.0, rung_bias=0
        )
    with pytest.raises(ValueError):
        QoSConfig(class_map=(0, 7))


def test_assign_classes_honours_shares() -> None:
    """Over a wide fleet the seeded assignment tracks the configured
    shares (law of large numbers, loose band)."""
    config = QoSConfig()
    classes = assign_classes(config, 3000, seed=5)
    fractions = [classes.count(c) / 3000 for c in range(3)]
    for fraction, cls in zip(fractions, config.classes):
        assert abs(fraction - cls.share) < 0.05, (fraction, cls.share)
