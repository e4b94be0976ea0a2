"""The whole-slot control plane against its per-device oracles.

Admission, backpressure, the stranded-edge drain, the capacity clamp,
the per-shard shed, the per-class flow, the QoS rungs, the warm pool's
request order and the cold-start share scales each run as one array
expression over a slot, on every fluid plane and (admission, rungs,
backpressure) on both event engines and the live runtime.  The
per-device loops they replaced are kept here as exact oracles: every
test compares with ``==`` — the same floats, not close ones — over
random slot sequences of 1 to 64 devices with zero demand, backlogs
exactly at the watermarks, the shed rung and capacity hits.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.vectorized import _PARTITION_COLUMNS, partition_table
from repro.resilience.overload import (
    MODE_FIRST_EXIT,
    MODE_FULL,
    MODE_SHED,
    AdmissionGate,
    OverloadControl,
    clamp_queues,
    degrade_partition,
)
from repro.resilience.qos import (
    QoSClass,
    QoSConfig,
    QoSFlow,
    QoSState,
    apply_backpressure_by_mode,
    degrade_system_by_modes,
    drain_stranded_edge_by_mode,
)
from repro.sim.simulator import _book_slot

from .helpers import random_fleet

SEEDS = range(24)


# -- the per-device oracles ------------------------------------------------------


class _ReferenceGate:
    """The per-device admission gate: a token bucket and a hysteresis
    flag per device, one call per device per slot."""

    def __init__(self, control: OverloadControl, num_devices: int):
        self.control = control
        self.tokens = [control.bucket_depth] * num_devices
        self.shedding = [False] * num_devices

    def _allowance(self, i: int, backlog: float, mode: int) -> float | None:
        control = self.control
        self.tokens[i] = min(
            control.bucket_depth, self.tokens[i] + control.token_rate
        )
        if mode >= MODE_SHED or backlog > control.queue_high:
            self.shedding[i] = True
        elif backlog < control.queue_low:
            self.shedding[i] = False
        if not self.shedding[i]:
            return None
        if mode >= MODE_SHED:
            return 0.0
        return self.tokens[i]

    def admit(self, i: int, demand: float, backlog: float, mode: int) -> float:
        allowance = self._allowance(i, backlog, mode)
        if allowance is None:
            return demand
        admitted = demand if demand <= allowance else allowance
        self.tokens[i] -= admitted
        return admitted

    def admit_count(self, i: int, count: int, backlog: float, mode: int) -> int:
        allowance = self._allowance(i, backlog, mode)
        if allowance is None:
            return count
        admitted = min(count, int(allowance))
        self.tokens[i] -= admitted
        return admitted


def _reference_backpressure(ratios, queue_edge, control, modes):
    high = control.queue_high
    return [
        0.0 if modes[i] >= MODE_FIRST_EXIT or queue_edge[i] > high else float(r)
        for i, r in enumerate(ratios)
    ]


def _reference_drain(queue_edge, ratios, service, queue_high, modes):
    """In place on a list, as the fluid loop drained its Python floats."""
    for i, x in enumerate(ratios):
        if queue_edge[i] <= 0.0 or x != 0.0:
            continue
        if modes[i] >= MODE_FIRST_EXIT or queue_edge[i] > queue_high:
            queue_edge[i] = max(queue_edge[i] - service[i], 0.0)


def _reference_clamp(queue_local, queue_edge, capacity, class_of=None, flow=None):
    """In place on lists; returns the shed total, charging each device's
    overflow to its class as generated and shed."""
    shed = 0.0
    for i in range(len(queue_local)):
        over = queue_local[i] - capacity
        if over > 0.0:
            queue_local[i] = capacity
            shed += over
            if flow is not None:
                flow.generated[class_of[i]] += over
                flow.shed[class_of[i]] += over
        over = queue_edge[i] - capacity
        if over > 0.0:
            queue_edge[i] = capacity
            shed += over
            if flow is not None:
                flow.generated[class_of[i]] += over
                flow.shed[class_of[i]] += over
    return shed


def _reference_share_scales(holds, w0, tau):
    scales = []
    for h in holds:
        overlap = min(max(float(h) - w0, 0.0), tau)
        scales.append(max((tau - overlap) / tau, 1e-9))
    return scales


def _reference_plan_modes(state: QoSState, global_mode: int, expected, spent):
    """``(modes, shed_spent)`` of the per-device rung plan."""
    n = state.num_devices
    if global_mode <= MODE_FULL:
        return [MODE_FULL] * n, spent
    modes = [
        min(max(global_mode + state.class_at(i).rung_bias, MODE_FULL), MODE_SHED)
        for i in range(n)
    ]
    budget = state.config.shed_budget
    if budget is not None:
        candidates = sorted(
            (i for i in range(n) if modes[i] >= MODE_SHED),
            key=lambda i: (state.class_at(i).utility_per_cost, i),
        )
        for i in candidates:
            charge = state.class_at(i).weight * float(expected[i])
            if spent + charge <= budget + 1e-12:
                spent += charge
            else:
                modes[i] = MODE_FIRST_EXIT
    return modes, spent


def _reference_request_order(state: QoSState, expected, modes):
    """The warm pool's request mask and its load order: highest class
    weight first, ascending device within a weight."""
    requested = [
        float(expected[i]) > 0.0 and modes[i] < MODE_FIRST_EXIT
        for i in range(state.num_devices)
    ]
    weights = [c.weight for c in state.config.classes]
    order = sorted(
        (i for i in range(state.num_devices) if requested[i]),
        key=lambda i: (-weights[state.class_of[i]], i),
    )
    return requested, order


def _reference_books(owner, num_shards, generated, realised, stepped, flow, class_of):
    """The fluid loop's per-device books before the clamp: the gate's
    shed per shard and per class in device order, then each stepped
    shard's service times in member order.  ``stepped`` holds
    ``(members, times)`` per stepped shard, in the order stepped."""
    shard_shed = [0.0] * num_shards
    for i in range(len(generated)):
        shard_shed[owner[i]] += generated[i] - realised[i]
    if flow is not None:
        for i in range(len(generated)):
            flow.generated[class_of[i]] += generated[i]
            flow.shed[class_of[i]] += generated[i] - realised[i]
            flow.admitted[class_of[i]] += realised[i]
        for members, times, *_ in stepped:
            for i, t in zip(members, times):
                flow.time[class_of[i]] += t
    return shard_shed


# -- the admission gate ---------------------------------------------------------


def _controls(rng) -> OverloadControl:
    low = float(rng.choice([0.0, 1.0, 4.0]))
    return OverloadControl(
        queue_high=low + float(rng.choice([0.5, 3.0, 8.0])),
        queue_low=low,
        token_rate=float(rng.choice([0.0, 0.5, 1.0, 2.5])),
        bucket_depth=float(rng.choice([0.0, 1.0, 4.0, 7.5])),
    )


def _slot_inputs(rng, control: OverloadControl, n: int):
    """One slot's backlogs (30% exactly at a watermark), rungs (the
    shed rung included) and a demand mask with zeros."""
    backlogs = rng.uniform(0.0, 2.0 * control.queue_high + 1.0, n)
    at = rng.random(n)
    backlogs[at < 0.15] = control.queue_low
    backlogs[(at >= 0.15) & (at < 0.3)] = control.queue_high
    modes = rng.integers(MODE_FULL, MODE_SHED + 1, n)
    if rng.random() < 0.5:
        modes[:] = modes[0]
    idle = rng.random(n) < 0.2
    return backlogs, modes, idle


@pytest.mark.parametrize("seed", SEEDS)
def test_gate_admit_matches_the_per_device_gate(seed):
    """Fluid admission: admitted amounts, tokens and flags equal the
    per-device gate's after every slot."""
    rng = np.random.default_rng(seed)
    control = _controls(rng)
    n = int(rng.integers(1, 65))
    gate, reference = AdmissionGate(control, n), _ReferenceGate(control, n)
    for _ in range(40):
        backlogs, modes, idle = _slot_inputs(rng, control, n)
        demand = rng.exponential(3.0, n)
        demand[idle] = 0.0
        admitted = gate.admit(demand.tolist(), backlogs, modes)
        expected = [
            reference.admit(i, demand[i].item(), backlogs[i].item(), int(modes[i]))
            for i in range(n)
        ]
        assert admitted.tolist() == expected
        assert gate.tokens.tolist() == reference.tokens
        assert gate.shedding.tolist() == reference.shedding


@pytest.mark.parametrize("seed", SEEDS)
def test_gate_admit_count_matches_the_per_device_gate(seed):
    """Integral admission: whole-task counts, tokens and flags equal the
    per-device gate's after every slot (lists in, as the event paths
    hand them over)."""
    rng = np.random.default_rng(seed + 1000)
    control = _controls(rng)
    n = int(rng.integers(1, 65))
    gate, reference = AdmissionGate(control, n), _ReferenceGate(control, n)
    for _ in range(40):
        backlogs, modes, idle = _slot_inputs(rng, control, n)
        counts = rng.poisson(3.0, n)
        counts[idle] = 0
        counts, backlogs = counts.tolist(), np.round(backlogs).astype(int).tolist()
        admitted = gate.admit_count(counts, backlogs, modes.tolist())
        expected = [
            reference.admit_count(i, counts[i], backlogs[i], int(modes[i]))
            for i in range(n)
        ]
        assert admitted.tolist() == expected
        assert gate.tokens.tolist() == reference.tokens
        assert gate.shedding.tolist() == reference.shedding


# -- backpressure, drain, clamp ------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_backpressure_and_drain_match_the_per_device_loops(seed):
    rng = np.random.default_rng(seed + 2000)
    control = _controls(rng)
    n = int(rng.integers(1, 65))
    for _ in range(20):
        _, modes, _ = _slot_inputs(rng, control, n)
        queue_edge = rng.uniform(0.0, 2.0 * control.queue_high, n)
        queue_edge[rng.random(n) < 0.2] = 0.0
        queue_edge[rng.random(n) < 0.2] = control.queue_high
        ratios = rng.uniform(0.0, 1.0, n)
        ratios[rng.random(n) < 0.3] = 0.0
        ratios = ratios.tolist()
        clamped = apply_backpressure_by_mode(ratios, queue_edge, control, modes)
        assert clamped.tolist() == _reference_backpressure(
            ratios, queue_edge.tolist(), control, modes.tolist()
        )
        service = rng.uniform(0.0, control.queue_high, n).tolist()
        asked = []
        drained = drain_stranded_edge_by_mode(
            queue_edge.copy(),
            clamped,
            lambda: asked.append(True) or service,
            control.queue_high,
            modes,
        )
        expected = queue_edge.tolist()
        _reference_drain(
            expected, clamped.tolist(), service, control.queue_high, modes.tolist()
        )
        assert drained.tolist() == expected
        if not asked:
            assert expected == queue_edge.tolist()


@pytest.mark.parametrize("seed", SEEDS)
def test_shed_clamp_and_class_flow_match_the_per_device_loops(seed):
    """A slot's books over E shards: per-shard shed (gate, then capacity
    overflow) and per-class flow (gate rows in device order, then each
    shard's service times and overflow as the shards were stepped) equal
    the per-device loops, and the clamped queues equal the per-shard
    clamp's, over a running flow carried across slots."""
    rng = np.random.default_rng(seed + 3000)
    n = int(rng.integers(1, 65))
    num_shards = int(rng.integers(1, 5))
    k = int(rng.integers(1, 4))
    class_of = rng.integers(0, k, n)
    capacity = float(rng.choice([2.0, 8.0, 64.0]))
    flow, reference_flow = QoSFlow(k), QoSFlow(k)
    for _ in range(12):
        owner = rng.integers(0, num_shards, n)
        if num_shards == 1 and rng.random() < 0.5:
            shards = [None]
        else:
            shards = [np.flatnonzero(owner == e) for e in range(num_shards)]
        generated = rng.exponential(2.0, n)
        generated[rng.random(n) < 0.2] = 0.0
        realised = np.where(
            rng.random(n) < 0.4, generated * rng.random(n), generated
        )
        queue_local = rng.uniform(0.0, 2.0 * capacity, n)
        queue_edge = rng.uniform(0.0, 2.0 * capacity, n)
        queue_edge[rng.random(n) < 0.2] = capacity
        stepped = [
            (idx, rng.exponential(1.0, n if idx is None else len(idx)))
            for idx in shards
            if idx is None or len(idx)
        ]
        members = [
            list(range(n)) if idx is None else idx.tolist() for idx, _ in stepped
        ]
        # The oracle: gate books, service times, then each shard's clamp
        # on its gathered lists.
        ref_local, ref_edge = queue_local.tolist(), queue_edge.tolist()
        expected_shed = _reference_books(
            owner.tolist(),
            num_shards,
            generated.tolist(),
            realised.tolist(),
            [(m, t.tolist()) for m, (_, t) in zip(members, stepped)],
            reference_flow,
            class_of.tolist(),
        )
        for (idx, _), member in zip(stepped, members):
            local = [ref_local[i] for i in member]
            edge = [ref_edge[i] for i in member]
            e = 0 if idx is None else int(owner[member[0]])
            expected_shed[e] += _reference_clamp(
                local, edge, capacity, [int(class_of[i]) for i in member],
                reference_flow,
            )
            for j, i in enumerate(member):
                ref_local[i], ref_edge[i] = local[j], edge[j]
        overflow = clamp_queues(queue_local, queue_edge, capacity)
        shed = _book_slot(
            owner if shards[0] is not None else np.zeros(n, np.intp),
            num_shards,
            generated,
            realised,
            overflow,
            stepped,
            flow,
            class_of,
        )
        assert shed == expected_shed
        assert queue_local.tolist() == ref_local
        assert queue_edge.tolist() == ref_edge
        for row in QoSFlow.ROWS:
            assert getattr(flow, row) == getattr(reference_flow, row)


def test_clamp_reports_nothing_within_capacity():
    local, edge = np.array([1.0, 2.0]), np.array([2.0, 0.0])
    assert clamp_queues(local, edge, 2.0) is None
    assert local.tolist() == [1.0, 2.0] and edge.tolist() == [2.0, 0.0]


# -- QoS: rungs, requests, share scales, degraded systems ------------------------


_CLASSES = (
    QoSClass("gold", share=0.2, weight=4.0, deadline=1.0, rung_bias=-1, cost=2.0),
    QoSClass("standard", share=0.5, weight=2.0, deadline=3.0, rung_bias=0),
    QoSClass("bronze", share=0.1, weight=2.0, deadline=5.0, rung_bias=0, cost=0.5),
    QoSClass("batch", share=0.3, weight=1.0, deadline=10.0, rung_bias=1),
)


@pytest.mark.parametrize("seed", SEEDS)
def test_qos_plan_requests_and_scales_match_the_per_device_loops(seed):
    """Rungs and the shed budget's spend, the request mask and the warm
    pool's load order, and the cold-start share scales."""
    rng = np.random.default_rng(seed + 4000)
    n = int(rng.integers(1, 65))
    budget = None if seed % 4 == 0 else float(rng.choice([0.0, 3.0, 40.0]))
    config = QoSConfig(classes=_CLASSES, shed_budget=budget, memory_fraction=10.0)
    system = random_fleet(seed, n)
    state = QoSState(config, system, seed)
    spent = 0.0
    tau = system.slot_length
    for slot in range(20):
        expected = rng.exponential(1.0, n)
        expected[rng.random(n) < 0.3] = 0.0
        global_mode = int(rng.integers(MODE_FULL, MODE_SHED + 1))
        modes = state.plan_modes(global_mode, expected.tolist())
        reference, spent = _reference_plan_modes(
            state, global_mode, expected.tolist(), spent
        )
        assert modes.tolist() == reference
        assert state.shed_spent == spent
        requested = state.requested_mask(expected, modes)
        ref_requested, order = _reference_request_order(state, expected, reference)
        assert requested.tolist() == ref_requested
        state.flush()
        w0 = slot * tau
        holds = state.on_slot(slot, w0, requested)
        # An empty pool with room for everyone loads every request, in
        # request order.
        assert [i for i, _ in state.loads_this_slot] == order
        # Pool keys stay Python ints (they are pickled into checkpoints).
        assert {type(i) for i in state.resident} <= {int}
        holds = np.array(holds)
        pick = rng.random(n)
        holds[pick < 0.2] = w0
        holds[(pick >= 0.2) & (pick < 0.3)] = w0 + tau
        holds[(pick >= 0.3) & (pick < 0.4)] = w0 + 2.0 * tau
        holds[(pick >= 0.4) & (pick < 0.5)] = w0 - 1.0
        scales = state.share_scales(holds.tolist(), w0, tau)
        assert scales.tolist() == _reference_share_scales(holds.tolist(), w0, tau)


def _reference_degrade(system, modes):
    degraded, parts = {}, []
    for i, m in enumerate(modes):
        part = system.partition_for(i)
        key = (id(part), m)
        if key not in degraded:
            degraded[key] = degrade_partition(part, m)
        parts.append(degraded[key])
    return parts


@pytest.mark.parametrize("seed", range(8))
def test_mixed_rungs_degrade_and_read_each_partition_once(seed):
    """A mixed rung vector deploys the per-device loop's partitions,
    sharing one object per (partition, rung); the engine's partition
    columns equal a per-device read of them."""
    rng = np.random.default_rng(seed + 5000)
    n = int(rng.integers(2, 65))
    system = random_fleet(seed, n, heterogeneous=seed % 2 == 1)
    modes = rng.integers(MODE_FULL, MODE_SHED + 1, n)
    modes[0], modes[-1] = MODE_FULL, MODE_SHED
    live = degrade_system_by_modes(system, modes)
    reference = _reference_degrade(system, modes.tolist())
    assert live.device_partitions == tuple(reference)
    assert len({id(p) for p in live.device_partitions}) == len(
        {id(p) for p in reference}
    )
    table = np.array(
        [[getattr(p, name) for p in reference] for name in _PARTITION_COLUMNS]
    )
    assert partition_table(live, n).tobytes() == table.tobytes()
    uniform = degrade_system_by_modes(system, np.full(n, MODE_FIRST_EXIT))
    assert uniform.partition == degrade_partition(system.partition, MODE_FIRST_EXIT)
    assert degrade_system_by_modes(system, [MODE_FULL] * n) is system


def test_partition_table_of_a_homogeneous_system_repeats_its_partition():
    system = random_fleet(3, 5)
    table = partition_table(system, 5)
    assert table.shape == (8, 5)
    assert (table == table[:, :1]).all()
    assert table[:, 0].tolist() == [
        getattr(system.partition, name) for name in _PARTITION_COLUMNS
    ]
    replaced = dataclasses.replace(system, device_partitions=(system.partition,) * 5)
    assert partition_table(replaced, 5).tobytes() == table.tobytes()
