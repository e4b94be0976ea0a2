"""The task-level slot step shared by both event engines and the live
runtime (:class:`repro.sim.pipeline.TaskSlots`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.offloading import FixedRatioPolicy
from repro.resilience.overload import OverloadControl, degrade_partition
from repro.resilience.qos import QoSConfig
from repro.runtime import LeimeRuntime
from repro.sim.arrivals import ConstantArrivals, PoissonArrivals
from repro.sim.events import EventSimulator
from repro.sim.pipeline import TaskSlots
from repro.sim.simulator import SlotSimulator
from repro.sim.tasks import TaskRecord

from tests.helpers import random_fleet


class _Gate:
    """A seeded stand-in for the controller's admission: sheds a varying
    tail of some devices' tasks."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)

    def admit(self, counts: list[int]) -> list[int]:
        return [
            int(self.rng.integers(0, count + 1)) if count else 0
            for count in counts
        ]


def _reference_draw(slots, gate, rng, exit_rng, fractional, slot, time):
    """The per-task draw loop, kept as the reference for the batched
    draws: per device one ``sample``, then per task ``uniform(0, τ)``
    when arrivals are spread, the offload coin and its two exit coins."""
    tau = slots.tau
    counts = []
    drawn = []
    for i, proc in enumerate(slots.arrivals):
        fractional[i] += float(proc.sample(slot, rng))
        count = int(fractional[i])
        fractional[i] -= count
        counts.append(count)
        for k in range(count):
            offset = float(rng.uniform(0.0, tau)) if slots.spread_arrivals else 0.0
            drawn.append((i, k, offset, bool(rng.random() < slots.ratios[i])))
    admitted = gate.admit(counts)
    tasks = []
    for i, k, offset, offloaded in drawn:
        task = TaskRecord(
            task_id=slots.generated + len(tasks),
            device=i,
            created=time + offset,
            offloaded=offloaded,
            shed=k >= admitted[i],
            qos=slots.ledger.tag(i),
        )
        coins = (float(exit_rng.random()), float(exit_rng.random()))
        tasks.append((task, coins))
    return tasks


@pytest.mark.parametrize("spread", [True, False])
@pytest.mark.parametrize("seed", range(4))
def test_draw_matches_the_per_task_reference(seed, spread):
    """Batched draws consume the same doubles, in the same order, as the
    per-task loop: over random slots with fractional carries, devices
    drawing nothing, shed tails and QoS tags, every task's creation
    time, offload flag, shed flag, class and exit coins agree."""
    system = random_fleet(seed, 6)
    arrivals = [
        ConstantArrivals(0.4),  # fractional carries
        ConstantArrivals(0.0),  # a device that never draws
        PoissonArrivals(0.3),
        PoissonArrivals(2.5),
        ConstantArrivals(1.7),
        PoissonArrivals(1.0),
    ]
    slots = TaskSlots(
        system,
        arrivals,
        FixedRatioPolicy(0.5),
        seed=seed,
        spread_arrivals=spread,
        qos=QoSConfig(),
    )
    control_seq, exit_seq = np.random.SeedSequence(seed).spawn(2)
    rng = np.random.default_rng(control_seq)
    exit_rng = np.random.default_rng(exit_seq)
    fractional = [0.0] * len(arrivals)
    gate, reference_gate = _Gate(seed), _Gate(seed)
    slots.controller = gate
    ratios = np.random.default_rng(seed + 100)
    booked = []
    for slot in range(40):
        slots.ratios = ratios.uniform(0.0, 1.0, len(arrivals)).tolist()
        time = slot * slots.tau
        expected = _reference_draw(
            slots, reference_gate, rng, exit_rng, fractional, slot, time
        )
        launches = slots.ledger.add_records(slots.draw(slot, time))
        assert launches == [(t, c) for t, c in expected if not t.shed]
        booked += [t for t, _ in expected]
    assert slots.ledger.tasks == booked
    assert any(t.shed for t in booked)
    assert len({t.qos for t in booked}) > 1


def test_live_runtime_matches_the_scalar_engine_without_spread(small_system):
    """Ungoverned and fault-free, the live runtime and the scalar engine
    with slot-start arrivals make the same control decisions and the
    same exit decisions for every task."""
    arrivals = [PoissonArrivals(1.0)] * 2
    for seed in range(2):
        simulated = EventSimulator(
            system=small_system,
            arrivals=arrivals,
            seed=seed,
            spread_arrivals=False,
        ).run(FixedRatioPolicy(0.5), 6)
        runtime = LeimeRuntime(
            small_system, FixedRatioPolicy(0.5), speedup=500.0, seed=seed
        )
        try:
            live = runtime.run(arrivals, num_slots=6, drain_timeout=30.0)
        finally:
            runtime.shutdown()

        def decisions(result):
            return [
                (t.task_id, t.device, t.offloaded, t.exit_tier)
                for t in result.tasks
            ]

        assert len(live.tasks) > 0
        assert decisions(live) == decisions(simulated), seed


class _Recorder:
    """A fixed-ratio policy that records the partitions it plans on."""

    def __init__(self):
        self.seen = []

    def decide(self, system, state, arrivals, devices=None):
        self.seen.append(
            [system.partition_for(i) for i in range(system.num_devices)]
        )
        return [0.5] * system.num_devices


_CROWD = OverloadControl(
    queue_high=1.0,
    queue_low=0.5,
    token_rate=0.5,
    bucket_depth=1.0,
    queue_capacity=8.0,
    patience=1,
    cooldown=2,
)


def _governed_run(path, system, recorder):
    arrivals = [ConstantArrivals(4.0)] * system.num_devices
    if path in ("scalar", "fast"):
        result = EventSimulator(
            system=system, arrivals=arrivals, seed=1, overload=_CROWD
        ).run(recorder, 12, drain=False, engine=path)
        return list(result.modes)
    if path == "live":
        runtime = LeimeRuntime(system, recorder, speedup=500.0, seed=1)
        try:
            result = runtime.run(
                arrivals, num_slots=8, drain_timeout=0.5, overload=_CROWD
            )
        finally:
            runtime.shutdown()
        return list(result.modes)
    result = SlotSimulator(
        system=system,
        arrivals=arrivals,
        seed=1,
        vectorized=path == "fluid-vectorized",
        overload=_CROWD,
    ).run(recorder, 12)
    return [record.mode for record in result.records]


@pytest.mark.parametrize(
    "path", ["scalar", "fast", "fluid-scalar", "fluid-vectorized", "live"]
)
def test_policy_plans_on_the_served_system(path):
    """Under governance every path hands the policy the system the slot
    serves: each device's partition degraded to that slot's rung."""
    system = random_fleet(3, 3, heterogeneous=True)
    recorder = _Recorder()
    modes = _governed_run(path, system, recorder)
    assert len(recorder.seen) == len(modes)
    assert any(mode > 0 for mode in modes)
    for seen, mode in zip(recorder.seen, modes):
        assert seen == [
            degrade_partition(system.partition_for(i), mode)
            for i in range(system.num_devices)
        ]
