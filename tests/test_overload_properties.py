"""Property-based tests of the overload layer's invariants.

For any seeded overload fleet and control configuration:

* the admission gate never admits more than was demanded (or less than
  zero), and :data:`~repro.resilience.overload.MODE_SHED` admits
  nothing;
* the degradation ladder is monotone under pressure — it never steps
  back while the fleet-mean backlog sits above the high watermark — and
  never leaves ``[MODE_FULL, max_mode]``;
* the extended SLO identity ``generated = completed + dropped + shed +
  in-flight`` holds exactly on every execution path, and the governed
  run generates exactly as many tasks as its ungoverned twin (shedding
  consumes the same RNG draws, so common-randomness comparisons stay
  honest);
* the scalar and fast event engines replay a governed run per-task
  identically, and the scalar and vectorized fluid paths byte-identically;
* bounded fluid queues never exceed their capacity, and whatever the
  clamp removed is accounted as shed, never silently lost.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.offloading import DriftPlusPenaltyPolicy, FixedRatioPolicy
from repro.resilience.overload import (
    MODE_FIRST_EXIT,
    MODE_FULL,
    MODE_SECOND_EXIT,
    MODE_SHED,
    AdmissionGate,
    OverloadControl,
    OverloadGovernor,
    apply_backpressure,
    clamp_queues,
    degrade_partition,
    degraded_exit_params,
)
from repro.resilience.qos import (
    apply_backpressure_by_mode,
    drain_stranded_edge_by_mode,
)
from repro.sim.arrivals import TraceArrivals
from repro.sim.events import EventSimulator
from repro.sim.fast_events import run_fast
from repro.sim.simulator import SlotSimulator
from repro.traces.generators import canonical_flash_crowd

from tests.helpers import inception_partition, random_fleet


def _crowd_arrivals(n: int, slots: int, magnitude: float) -> list[TraceArrivals]:
    rates = canonical_flash_crowd(
        num_slots=slots,
        num_devices=n,
        base_rate=0.5,
        magnitude=magnitude,
        crowd_start=slots // 4,
        crowd_stop=max(slots // 2, slots // 4 + 1),
    )
    return [TraceArrivals.from_series(rates[:, i]) for i in range(n)]


# -- admission gate ------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(
    demand=st.floats(min_value=0.0, max_value=50.0),
    backlog=st.floats(min_value=0.0, max_value=100.0),
    mode=st.integers(min_value=MODE_FULL, max_value=MODE_SHED),
    steps=st.integers(min_value=1, max_value=20),
)
def test_admission_gate_bounds(demand, backlog, mode, steps):
    gate = AdmissionGate(OverloadControl(), 1)
    for _ in range(steps):
        admitted = gate.admit(0, demand, backlog, mode)
        assert 0.0 <= admitted <= demand
        if mode >= MODE_SHED:
            assert admitted == 0.0


@settings(max_examples=50, deadline=None)
@given(
    count=st.integers(min_value=0, max_value=40),
    backlog=st.floats(min_value=0.0, max_value=100.0),
    mode=st.integers(min_value=MODE_FULL, max_value=MODE_SHED),
)
def test_admit_count_bounds(count, backlog, mode):
    gate = AdmissionGate(OverloadControl(), 2)
    admitted = gate.admit_count(1, count, backlog, mode)
    assert isinstance(admitted, int)
    assert 0 <= admitted <= count
    if mode >= MODE_SHED:
        assert admitted == 0


def test_gate_admits_everything_below_low_watermark():
    control = OverloadControl()
    gate = AdmissionGate(control, 1)
    for _ in range(10):
        assert gate.admit(0, 7.0, control.queue_low / 2.0, MODE_FULL) == 7.0


# -- degradation ladder --------------------------------------------------------


@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    backlogs=st.lists(
        st.floats(min_value=0.0, max_value=60.0), min_size=1, max_size=120
    ),
    num_devices=st.integers(min_value=1, max_value=6),
)
def test_ladder_monotone_under_pressure(backlogs, num_devices):
    """While the mean backlog is above the high watermark, the ladder
    never steps back; the rung always stays within [MODE_FULL, max_mode]."""
    control = OverloadControl()
    governor = OverloadGovernor(control, num_devices)
    previous = governor.mode
    for slot, level in enumerate(backlogs):
        per_device = [level] * num_devices
        mode = governor.observe(slot, per_device)
        assert MODE_FULL <= mode <= control.max_mode
        if level > control.queue_high:
            assert mode >= previous
        previous = mode


def test_ladder_hysteresis_steps():
    """patience hot slots step one rung deeper; cooldown calm slots step
    one rung back — and a single calm slot resets the hot streak."""
    control = OverloadControl(patience=3, cooldown=4)
    governor = OverloadGovernor(control, 1)
    hot = [control.queue_high + 1.0]
    calm = [control.queue_low / 2.0]
    slot = 0
    for _ in range(2):
        governor.observe(slot, hot)
        slot += 1
    assert governor.mode == MODE_FULL  # patience not yet reached
    governor.observe(slot, calm)  # resets the hot streak
    slot += 1
    for _ in range(2):
        governor.observe(slot, hot)
        slot += 1
    assert governor.mode == MODE_FULL
    governor.observe(slot, hot)
    slot += 1
    assert governor.mode == MODE_SECOND_EXIT
    for _ in range(control.cooldown - 1):
        governor.observe(slot, calm)
        slot += 1
    assert governor.mode == MODE_SECOND_EXIT
    governor.observe(slot, calm)
    assert governor.mode == MODE_FULL
    assert governor.transitions == [(5, MODE_SECOND_EXIT), (9, MODE_FULL)]


def test_degraded_exit_params_are_exact():
    """Degraded sigmas are exactly what the fast engine's array writes
    produce — the engines' byte-identity depends on it."""
    partition = inception_partition()
    s1, e2 = degraded_exit_params(partition, MODE_FULL)
    assert s1 == partition.sigma1
    s1, e2 = degraded_exit_params(partition, MODE_SECOND_EXIT)
    assert s1 == partition.sigma1 and e2 == 1.0
    for mode in (MODE_FIRST_EXIT, MODE_SHED):
        assert degraded_exit_params(partition, mode) == (1.0, 1.0)


def test_degrade_partition_modes():
    partition = inception_partition()
    assert degrade_partition(partition, MODE_FULL) is partition
    second = degrade_partition(partition, MODE_SECOND_EXIT)
    assert second.sigma1 == partition.sigma1
    assert second.sigma2 == 1.0
    first = degrade_partition(partition, MODE_FIRST_EXIT)
    assert first.sigma1 == 1.0 and first.sigma2 == 1.0


# -- backpressure and fluid helpers --------------------------------------------


def test_apply_backpressure_modes():
    control = OverloadControl()
    ratios = [0.4, 0.9, 0.1]
    edge = [0.0, control.queue_high + 5.0, 1.0]
    clamped = apply_backpressure(ratios, edge, control, MODE_FULL)
    assert clamped == [0.4, 0.0, 0.1]
    for mode in (MODE_FIRST_EXIT, MODE_SHED):
        assert apply_backpressure(ratios, edge, control, mode) == [0.0] * 3
    # A uniform rung vector is the uniform clamp, so every path can clamp
    # through the per-device form alone.
    for mode in range(MODE_FULL, MODE_SHED + 1):
        assert apply_backpressure_by_mode(
            ratios, edge, control, [mode] * 3
        ) == apply_backpressure(ratios, edge, control, mode)


def test_drain_stranded_edge_only_stranded_devices():
    control = OverloadControl()
    # Device 0: clamped (above high watermark) — drains.  Device 1: below
    # the watermark with x = 0 — untouched (the paper's own recursion
    # applies).  Device 2: offloading — untouched.
    edge = [control.queue_high + 3.0, 2.0, 8.0]
    drain_stranded_edge_by_mode(
        edge, [0.0, 0.0, 0.5], [4.0, 4.0, 4.0], control.queue_high, [MODE_FULL] * 3
    )
    assert edge == [control.queue_high - 1.0, 2.0, 8.0]
    # Deep rungs drain every zero-ratio device, and never below zero.
    edge = [1.5, 2.0, 8.0]
    drain_stranded_edge_by_mode(
        edge,
        [0.0, 0.0, 0.5],
        [4.0, 4.0, 4.0],
        control.queue_high,
        [MODE_FIRST_EXIT] * 3,
    )
    assert edge == [0.0, 0.0, 8.0]


@settings(max_examples=50, deadline=None)
@given(
    local=st.lists(
        st.floats(min_value=0.0, max_value=200.0), min_size=1, max_size=8
    ),
    capacity=st.floats(min_value=1.0, max_value=100.0),
    data=st.data(),
)
def test_clamp_queues_bounds_and_accounts(local, capacity, data):
    edge = data.draw(
        st.lists(
            st.floats(min_value=0.0, max_value=200.0),
            min_size=len(local),
            max_size=len(local),
        )
    )
    before = sum(local) + sum(edge)
    shed = clamp_queues(local, edge, capacity)
    assert shed >= 0.0
    assert all(q <= capacity for q in local + edge)
    assert sum(local) + sum(edge) + shed == pytest.approx(before)


# -- cross-path identities -----------------------------------------------------


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    num_devices=st.integers(min_value=1, max_value=4),
    num_slots=st.integers(min_value=4, max_value=24),
    magnitude=st.floats(min_value=1.0, max_value=20.0),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_event_engines_identity_under_overload(
    num_devices, num_slots, magnitude, seed
):
    """Scalar and fast event engines replay a governed crowd per-task
    identically; the extended SLO identity holds exactly; and the
    governed run generates as many tasks as its ungoverned twin."""
    system = random_fleet(seed + 7, num_devices)
    control = OverloadControl()

    def sim(overload):
        return EventSimulator(
            system=system,
            arrivals=_crowd_arrivals(num_devices, num_slots, magnitude),
            seed=seed,
            overload=overload,
        )

    # The drain bound scales with the horizon, so floor it: at the
    # 4-slot end of the strategy a governed-but-slow-link fleet can
    # need >200s of simulated drain while being perfectly stable
    # (finite work, it just trickles through a ~1 Mbps uplink).
    drain_factor = 100.0 * max(1.0, 24.0 / num_slots)
    scalar = sim(control).run(
        FixedRatioPolicy(0.5), num_slots, drain_limit_factor=drain_factor
    )
    fast = run_fast(
        sim(control),
        FixedRatioPolicy(0.5),
        num_slots,
        drain_limit_factor=drain_factor,
    )
    # drain=False: a heavy ungoverned crowd is *supposed* to be unable to
    # drain — all we need from the twin is its generated-task count.
    twin = sim(None).run(FixedRatioPolicy(0.5), num_slots, drain=False)

    assert len(scalar.tasks) == len(fast.tasks) == len(twin.tasks)
    assert scalar.modes == fast.modes
    for a, b in zip(scalar.tasks, fast.tasks):
        assert a.shed == b.shed
        assert a.dropped == b.dropped
        assert a.exit_tier == b.exit_tier
        assert (a.completed is None) == (b.completed is None)
        if a.completed is not None:
            assert a.completed == pytest.approx(b.completed, abs=1e-9)
    for result in (scalar, fast):
        assert len(result.tasks) == (
            len(result.completed)
            + result.dropped_count
            + result.shed_count
            + result.in_flight_count
        )
    assert twin.shed_count == 0


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    num_devices=st.integers(min_value=1, max_value=6),
    num_slots=st.integers(min_value=4, max_value=40),
    magnitude=st.floats(min_value=1.0, max_value=30.0),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_fluid_paths_identity_and_conservation(
    num_devices, num_slots, magnitude, seed
):
    """Governed scalar and vectorized fluid paths stay byte-identical;
    bounded queues respect their capacity; and generated = admitted
    arrivals + shed on every record."""
    system = random_fleet(seed + 7, num_devices)
    control = OverloadControl()

    def run(vectorized):
        return SlotSimulator(
            system=system,
            arrivals=_crowd_arrivals(num_devices, num_slots, magnitude),
            seed=seed,
            vectorized=vectorized,
            overload=control,
        ).run(FixedRatioPolicy(0.5), num_slots)

    scalar, vectorized = run(False), run(True)
    for a, b in zip(scalar.records, vectorized.records):
        assert a.queue_local == b.queue_local
        assert a.queue_edge == b.queue_edge
        assert a.total_time == b.total_time
        assert a.ratios == b.ratios
        assert a.shed == b.shed
        assert a.mode == b.mode
    for record in scalar.records:
        assert all(
            q <= control.queue_capacity + 1e-9
            for q in record.queue_local + record.queue_edge
        )
        assert record.shed >= 0.0
    assert scalar.total_generated == pytest.approx(
        scalar.total_arrivals + scalar.total_shed
    )


def test_runtime_governed_identity_and_clean_shutdown(small_system):
    """The live threaded runtime under a governed crowd: the extended
    SLO identity holds over real threads and bounded queues, demand is
    actually shed, and every worker (including propagation timers)
    stops cleanly."""
    from repro.runtime import LeimeRuntime

    control = OverloadControl(
        queue_high=1.0,
        queue_low=0.5,
        token_rate=0.5,
        bucket_depth=1.0,
        queue_capacity=8.0,
        patience=1,
        cooldown=2,
    )
    runtime = LeimeRuntime(
        small_system, FixedRatioPolicy(0.5), speedup=500.0, seed=0
    )
    try:
        report = runtime.run(
            _crowd_arrivals(2, 12, 10.0),
            num_slots=12,
            drain_timeout=30.0,
            overload=control,
        )
    finally:
        clean = runtime.shutdown()
    assert clean
    assert len(report.tasks) == (
        len(report.completed)
        + report.dropped_count
        + report.shed_count
        + report.in_flight_count
    )
    assert report.shed_count > 0
    assert len(report.completed) > 0


def test_runtime_ladder_keeps_per_device_partitions():
    """A governed crowd on a heterogeneous fleet: every slot serves each
    device its own cut points, degraded only in its exit rates — the
    ladder never collapses the fleet onto one shared partition."""
    from repro.runtime import LeimeRuntime

    system = random_fleet(0, 3, heterogeneous=True)
    control = OverloadControl(
        queue_high=1.0,
        queue_low=0.5,
        token_rate=0.5,
        bucket_depth=1.0,
        queue_capacity=8.0,
        patience=1,
        cooldown=2,
    )
    runtime = LeimeRuntime(
        system, FixedRatioPolicy(0.5), speedup=500.0, seed=0
    )
    served = []  # the system each slot served, read at the next slot
    try:
        runtime.run(
            _crowd_arrivals(3, 12, 10.0),
            num_slots=12,
            drain_timeout=30.0,
            slot_hook=lambda slot: served.append(runtime.system),
            overload=control,
        )
    finally:
        assert runtime.shutdown()
    served = served[1:] + [runtime.system]
    assert any(live is not system for live in served), "ladder never engaged"
    for live in served:
        for i in range(3):
            own = system.partition_for(i)
            part = live.partition_for(i)
            assert part.selection == own.selection
            assert part in [
                degrade_partition(own, mode)
                for mode in range(MODE_FULL, MODE_SHED + 1)
            ]


def test_governed_fluid_survives_crowd_ungoverned_diverges():
    """The headline stability claim at property scale: under the pinned
    flash crowd the ungoverned backlog grows monotonically through the
    crowd window while the governed run stays bounded and its ladder
    recovers to MODE_FULL."""
    from repro.experiments.fig_overload import run_fig_overload

    result = run_fig_overload()
    governed = result.fluid_by_scheme("LEIME + governor")
    ungoverned = result.fluid_by_scheme("LEIME (ungoverned)")
    assert ungoverned.crowd_monotone
    assert ungoverned.max_backlog > 10.0 * governed.max_backlog
    assert math.isinf(ungoverned.recovery_slots)
    assert governed.max_mode > MODE_FULL
    assert not math.isinf(governed.mode_recovery_slots)
    assert result.fluid_paths_identical
    assert result.event_engines_identical
    assert result.fluid_conservation
    for row in result.rows:
        assert row.identity_holds
    assert result.by_scheme("LEIME + governor").p99_tct < (
        result.by_scheme("LEIME (ungoverned)").p99_tct
    )
