"""Federated fluid shards as index gathers.

A shard's system and fleet, and the engine parameters its slot is
decided and priced with, are the members' rows of columns read once per
run.  These tests pin them to a rebuild from the device configs: the
shard oracle compares every ``EdgeSystem`` field and every
``FleetParams`` column, the sharded-slot oracles price and decide each
shard on its own, and the fleet-scale churn runs compare whole runs
against a provider that rebuilds every shard from configs in every slot
and against the same policy consulted shard by shard.
"""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from repro.chaos.control_faults import FencedController, canonical_coordinator_outage
from repro.core.offloading import (
    _BALANCE_BATCH_MIN,
    _BATCH_DECIDE_MIN,
    BalanceOffloadingPolicy,
    DeviceConfig,
    DriftPlusPenaltyPolicy,
    EdgeSystem,
    FixedRatioPolicy,
    LiveFleet,
    LyapunovState,
)
from repro.core.vectorized import (
    BatchSlotCost,
    FleetParams,
    FleetState,
    ShardedSlot,
    SlotColumns,
    VectorizedSlotEngine,
)
from repro.federation import (
    AssignmentPlan,
    FederatedSlotSimulator,
    FederationFaultPlan,
    single_edge_topology,
)
from repro.federation import fluid
from repro.resilience.environment import edge_down_system
from repro.resilience.overload import OverloadControl
from repro.policies.bandit import ExitBanditPolicy
from repro.resilience.qos import QoSConfig, degrade_system_by_modes
from repro.sim.arrivals import PoissonArrivals
from repro.sim.simulator import FluidShard, SlotSimulator

from .helpers import random_federation_topology, random_fleet


def _topology(seed: int, edges: int, n: int, heterogeneous: bool, idle_every: int):
    """A random federation whose every ``idle_every``-th device expects no
    tasks, with per-device partitions when ``heterogeneous``."""
    topology = random_federation_topology(seed, edges, n, max_arrivals=1.0)
    devices = tuple(
        dataclasses.replace(d, mean_arrivals=0.0) if i % idle_every == 0 else d
        for i, d in enumerate(topology.devices)
    )
    partitions = (
        random_fleet(seed, n, heterogeneous=True).device_partitions
        if heterogeneous
        else ()
    )
    return dataclasses.replace(
        topology, devices=devices, device_partitions=partitions
    )


def _from_configs(topology, edge: int, members, homes=None) -> EdgeSystem:
    """The shard as built before the gather: device configs in, the
    default floored-KKT shares computed from their attributes."""
    site = topology.sites[edge]
    devices = []
    for i in members:
        device = topology.devices[i]
        if homes is not None and site.backhaul_latency and homes[i] != edge:
            device = dataclasses.replace(
                device,
                link=dataclasses.replace(
                    device.link,
                    latency=device.link.latency + site.backhaul_latency,
                ),
            )
        devices.append(device)
    return EdgeSystem(
        devices=tuple(devices),
        edge_flops=site.edge_flops,
        cloud_flops=topology.cloud_flops,
        edge_cloud=site.edge_cloud,
        partition=topology.partition,
        slot_length=topology.slot_length,
        edge_overhead=site.edge_overhead,
        cloud_overhead=topology.cloud_overhead,
        device_partitions=tuple(topology.device_partitions[i] for i in members)
        if topology.device_partitions
        else (),
    )


@pytest.mark.parametrize("heterogeneous", [False, True])
@pytest.mark.parametrize("size", [12, 60, 230])
def test_gathered_shard_equals_a_rebuild_from_configs(size, heterogeneous):
    """Both share branches (fewer and more than 100 active members), idle
    members, per-device partitions and non-home backhaul: every
    ``EdgeSystem`` field of the gathered shard, and every ``FleetParams``
    column a sharded slot prices its members with, equals the rebuild's,
    bit for bit."""
    topology = _topology(size, 3, 2 * size, heterogeneous, idle_every=7)
    sites = tuple(
        dataclasses.replace(site, backhaul_latency=0.004 * (e + 1))
        for e, site in enumerate(topology.sites)
    )
    topology = dataclasses.replace(topology, sites=sites)
    homes = topology.home_assignment()
    rng = np.random.default_rng(size)
    sim = FederatedSlotSimulator(
        topology=topology,
        arrivals=[PoissonArrivals(0.5)] * topology.num_devices,
        plan=AssignmentPlan(np.zeros((1, topology.num_devices)), 3),
        vectorized=True,
    )
    provider = fluid._EdgeShards(sim)
    for edge in range(3):
        index = np.sort(rng.choice(topology.num_devices, size, replace=False))
        members = index.tolist()
        for with_homes in (None, homes):
            want = _from_configs(topology, edge, members, with_homes)
            got = topology.build_shard(edge, index, with_homes)
            for name in (f.name for f in dataclasses.fields(EdgeSystem)):
                assert getattr(got, name) == getattr(want, name), name
            assert [type(p) for p in got.shares] == [float] * size
        active = int(np.count_nonzero(topology.mean_arrivals[index] > 0))
        assert (active >= 100) == (size == 230)  # the uniform-share branch
        shard = provider._cache[edge] = provider._build(edge, index)
        reference = FleetParams.from_system(_from_configs(topology, edge, members))
        slot = ShardedSlot(np.full(topology.num_devices, edge), [None] * 3)
        slot.shards[edge] = (index, shard.system, True)
        engine = provider.engine
        params, _ = engine._shard_params(engine.params_for(provider.fleet), slot)
        for name in (f.name for f in dataclasses.fields(FleetParams)):
            a, b = getattr(params, name)[index], getattr(reference, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        # What a per-shard policy call is handed on a static slot.
        fleet = provider.member_fleet(edge)
        for name in ("flops", "bandwidth", "latency", "overhead"):
            a, b = getattr(fleet, name), getattr(reference, name)
            assert a.tobytes() == b.tobytes(), name
        assert fleet == shard.system.devices


def test_build_shard_validates_members_as_an_array():
    topology = random_federation_topology(0, 2, 8)
    for members, message in (
        ([], "at least one member"),
        ([3, 1], "ascending unique"),
        ([1, 1], "ascending unique"),
        ([0, 8], "out of range"),
        (np.array([-1, 2]), "out of range"),
    ):
        with pytest.raises(ValueError, match=message):
            topology.build_shard(0, members)
    with pytest.raises(ValueError, match="edge must be"):
        topology.build_shard(2, [0])
    assert topology.build_shard(1, np.array([0])) == topology.build_shard(1, [0])


def _distinct_sites(topology):
    """``topology`` with a distinct non-zero overhead at every site (the
    random sites already differ in capacity and edge→cloud hop)."""
    sites = tuple(
        dataclasses.replace(site, edge_overhead=0.004 + 0.007 * e)
        for e, site in enumerate(topology.sites)
    )
    return dataclasses.replace(topology, sites=sites)


@pytest.mark.parametrize("include_tail", [True, False])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sharded_slot_prices_each_shard_as_its_own_system(seed, include_tail):
    """One sharded pricing call over the slot equals pricing each shard
    alone on its own system, bit for bit in every field: distinct sites,
    per-device partitions, an edge outage, mixed and uniform rungs, cold
    start share scales and an unpopulated shard."""
    edges, n = 4, 90
    topology = _distinct_sites(_topology(seed, edges, n, True, idle_every=5))
    rng = np.random.default_rng(seed)
    owner = rng.integers(0, 3, n)  # edge 3 serves nobody
    ratios = rng.uniform(0.0, 1.0, n)
    arrivals = rng.poisson(1.0, n).astype(float)
    queues = FleetState(rng.uniform(0.0, 3.0, n), rng.uniform(0.0, 3.0, n))
    scales = np.where(rng.random(n) < 0.3, rng.uniform(0.2, 1.0, n), 1.0)
    modes = [None, rng.integers(0, 3, n), np.full(n, 2)]
    shards = [None] * edges
    for e in range(3):
        members = np.flatnonzero(owner == e)
        system = topology.build_shard(e, members)
        if e == 1:
            system = edge_down_system(system)
        live = system
        if modes[e] is not None:
            live = degrade_system_by_modes(system, modes[e][members])
        shards[e] = (members, live, live is system)
    assert [shard[2] for shard in shards[:3]] == [True, False, False]
    engine = VectorizedSlotEngine(topology, FleetParams.from_topology(topology))
    whole = engine.slot_costs(
        topology.fleet,
        ratios,
        arrivals,
        queues,
        include_tail=include_tail,
        system=ShardedSlot(owner, shards),
        share_scale=scales,
    )
    for members, live, _ in shards[:3]:
        alone = VectorizedSlotEngine(
            live, FleetParams.from_system(live, topology.fleet.take(members))
        ).slot_costs(
            None,
            ratios[members],
            arrivals[members],
            FleetState(queues.queue_local[members], queues.queue_edge[members]),
            include_tail=include_tail,
            share_scale=scales[members],
        )
        for name in (f.name for f in dataclasses.fields(BatchSlotCost)):
            a, b = getattr(whole, name)[members], getattr(alone, name)
            assert a.tobytes() == b.tobytes(), name


# -- churn at fleet scale ------------------------------------------------------

EDGES, DEVICES, SLOTS = 4, 480, 12


def _churn_plan(seed: int) -> AssignmentPlan:
    """Edges 1-3 serve 100+ devices each under 4 % churn per slot; edge 2
    fails over to edges 1 and 3 for slots 7-8 and its members come home;
    edge 0 serves device 0 alone in slots 0-2, nobody in slots 3-5, and
    120 devices from slot 6 on."""
    rng = np.random.default_rng(seed)
    row = 1 + np.arange(DEVICES) % 3
    row[0] = 0
    matrix = []
    for t in range(SLOTS):
        movers = rng.random(DEVICES) < 0.04
        row = np.where(movers, rng.integers(1, 4, DEVICES), row)
        row[0] = 0 if t < 3 else 1
        slot_row = row.copy()
        if t >= 6:
            slot_row[1:121] = 0
        if t in (7, 8):
            down = slot_row == 2
            slot_row[down] = np.where(np.arange(DEVICES)[down] % 2, 1, 3)
        matrix.append(slot_row)
    return AssignmentPlan(np.array(matrix), EDGES)


def _churn_sim(
    seed: int,
    vectorized: bool,
    qos=None,
    heterogeneous: bool = False,
    include_tail: bool = True,
    queue_high: float = 2.0,
) -> FederatedSlotSimulator:
    topology = _topology(seed, EDGES, DEVICES, heterogeneous, idle_every=11)
    if heterogeneous:
        topology = _distinct_sites(topology)
    edge_down = np.zeros((SLOTS, EDGES))
    edge_down[7:9, 2] = 1.0
    edge_down[9, 3] = 1.0  # a partial outage its members ride out in place
    arrivals = [
        PoissonArrivals(0.9, maximum=2.0) if i % 5 == 0 else PoissonArrivals(0.6)
        for i in range(DEVICES)
    ]
    return FederatedSlotSimulator(
        topology=topology,
        arrivals=arrivals,
        plan=_churn_plan(seed),
        include_tail=include_tail,
        seed=seed,
        vectorized=vectorized,
        overload=OverloadControl(
            queue_high=queue_high,
            queue_low=queue_high / 2,
            patience=1,
            cooldown=2,
            queue_capacity=5.0,
        ),
        faults=FederationFaultPlan(edge_down=edge_down),
        qos=qos,
    )


class _FromConfigs(fluid._EdgeShards):
    """The reference provider: every shard of every slot rebuilt from the
    device configs, shares and engine parameters included."""

    def at(self, slot, environment):
        self._cache.clear()
        return super().at(slot, environment)

    def _build(self, edge, index):
        members = index.tolist()
        system = _from_configs(self.sim.topology, edge, members)
        return FluidShard(members, system, False, LiveFleet.of(system.devices))


def _outputs(result):
    flow = result.global_result.class_flow
    return (
        result.global_result.records,
        result.edge_records,
        pickle.dumps((result.global_result.stream, result.edge_streams)),
        None if flow is None else [getattr(flow, row) for row in flow.ROWS],
    )


@pytest.mark.parametrize("metrics", ["records", "streaming"])
@pytest.mark.parametrize("seed", [0, 1])
def test_fleet_scale_churn_is_identical_across_planes_and_rebuilds(
    seed, metrics, monkeypatch
):
    """A churned, migrating, partially failing 480-device federation under
    overload control: the scalar plane equals the array plane, and both
    equal a run that rebuilds every shard from configs every slot."""
    plan = _churn_plan(seed)
    members = [
        [np.flatnonzero(plan.row(t) == e).tolist() for e in range(EDGES)]
        for t in range(SLOTS)
    ]
    assert members[0][0] == [0] and not any(members[t][0] for t in (3, 4, 5))
    assert all(len(members[t][0]) == 120 for t in range(6, SLOTS))
    assert min(len(m) for row in members for m in row[1:] if m) >= 100

    def run(vectorized, provider=fluid._EdgeShards):
        monkeypatch.setattr(fluid, "_EdgeShards", provider)
        policy = FixedRatioPolicy(0.5) if seed else DriftPlusPenaltyPolicy(v=20.0)
        return _outputs(_churn_sim(seed, vectorized).run(policy, SLOTS, metrics=metrics))

    array = run(True)
    assert run(False) == array
    assert run(True, _FromConfigs) == array
    assert run(False, _FromConfigs) == array


#: Per-edge warm pools under a real memory budget (evictions and reloads
#: through the churn) and a shed budget that runs out mid-outage.
CHURN_QOS = QoSConfig(memory_fraction=0.5, cold_start_seconds=0.25, shed_budget=30.0)


@pytest.mark.parametrize("metrics", ["records", "streaming"])
@pytest.mark.parametrize("seed", [0, 1])
def test_fleet_scale_churn_with_qos_is_identical_across_planes_and_rebuilds(
    seed, metrics, monkeypatch
):
    """The churned federation with QoS on: per-edge warm pools, share
    scales and class rungs gathered by member index every slot give the
    same records, streams and per-class flow on both planes and under
    config-rebuilt shards."""

    def run(vectorized, provider=fluid._EdgeShards):
        monkeypatch.setattr(fluid, "_EdgeShards", provider)
        policy = FixedRatioPolicy(0.5) if seed else DriftPlusPenaltyPolicy(v=20.0)
        sim = _churn_sim(seed, vectorized, qos=CHURN_QOS)
        return sim.run(policy, SLOTS, metrics=metrics)

    array = run(True)
    result = array.global_result
    assert result.class_flow is not None and sum(result.class_flow.shed) > 0.0
    gaps = result.class_flow.identity_gaps(result.class_names)
    assert max(abs(g) for g in gaps.values()) < 1e-6
    array = _outputs(array)
    assert _outputs(run(False)) == array
    assert _outputs(run(True, _FromConfigs)) == array
    assert _outputs(run(False, _FromConfigs)) == array


@pytest.mark.parametrize("include_tail", [True, False])
@pytest.mark.parametrize("metrics", ["records", "streaming"])
@pytest.mark.parametrize("policy", ["fixed", "dpp", "balance"])
def test_churn_over_distinct_sites_is_identical_across_planes_and_rebuilds(
    policy, metrics, include_tail, monkeypatch
):
    """The churned federation over sites that differ in overhead,
    capacity and edge→cloud hop, with per-device partitions, overload,
    QoS and a partial outage, every policy's ladder degrading some
    shards: each device is priced at its own serving site on both planes
    and under config-rebuilt shards."""
    policies = {
        "fixed": lambda: FixedRatioPolicy(0.5),
        "dpp": lambda: DriftPlusPenaltyPolicy(v=20.0),
        "balance": BalanceOffloadingPolicy,
    }

    def run(vectorized, provider=fluid._EdgeShards):
        monkeypatch.setattr(fluid, "_EdgeShards", provider)
        sim = _churn_sim(
            2,
            vectorized,
            qos=CHURN_QOS,
            heterogeneous=True,
            include_tail=include_tail,
            queue_high=1.0,  # every policy climbs the ladder
        )
        return sim.run(policies[policy](), SLOTS, metrics=metrics)

    sites = _churn_sim(2, True, heterogeneous=True).topology.sites
    overheads = {site.edge_overhead for site in sites}
    assert len(overheads) == EDGES and min(overheads) > 0.0
    array = run(True)
    if metrics == "records":
        assert max(record.mode for record in array.global_result.records) > 0
    array = _outputs(array)
    assert _outputs(run(False)) == array
    assert _outputs(run(True, _FromConfigs)) == array
    assert _outputs(run(False, _FromConfigs)) == array


def test_fleet_scale_single_edge_equals_the_single_edge_run():
    """E=1 at fleet scale (the uniform-share branch) under overload
    control replays the single-edge simulator on both planes."""
    system = random_fleet(5, 240, max_arrivals=1.0)
    topology = single_edge_topology(system)
    arrivals = [PoissonArrivals(0.8, maximum=2.0)] * 240
    control = OverloadControl(queue_high=2.0, queue_low=1.0, queue_capacity=5.0)
    for vectorized in (False, True):
        for metrics in ("records", "streaming"):
            single = SlotSimulator(
                system=system,
                arrivals=arrivals,
                seed=2,
                vectorized=vectorized,
                overload=control,
            ).run(FixedRatioPolicy(0.5), SLOTS, metrics=metrics)
            federated = FederatedSlotSimulator(
                topology=topology,
                arrivals=arrivals,
                plan=AssignmentPlan(np.zeros((SLOTS, 240)), 1),
                seed=2,
                vectorized=vectorized,
                overload=control,
            ).run(FixedRatioPolicy(0.5), SLOTS, metrics=metrics)
            assert federated.global_result.records == single.records
            assert pickle.dumps(federated.global_result.stream) == pickle.dumps(
                single.stream
            )


def test_churned_array_plane_reads_no_device_config(monkeypatch):
    """Once the topology's columns are read, an array-plane DPP run under
    churn builds its shards, decides and prices every slot without
    reading a ``DeviceConfig`` attribute."""
    sim = _churn_sim(0, True)
    assert len(sim.topology.fleet) == len(sim.topology.mean_arrivals) == DEVICES
    reads = []
    original = DeviceConfig.__getattribute__

    def counted(self, name):
        reads.append(name)
        return original(self, name)

    monkeypatch.setattr(DeviceConfig, "__getattribute__", counted)
    sim.run(DriftPlusPenaltyPolicy(v=20.0), SLOTS)
    monkeypatch.undo()
    assert reads == []


# -- one decision per slot -------------------------------------------------

#: The row-separable policies, fresh per call.
DECIDERS = {
    "fixed": lambda: FixedRatioPolicy(0.5),
    "fixed-unclamped": lambda: FixedRatioPolicy(0.5, respect_constraint=False),
    "dpp": lambda: DriftPlusPenaltyPolicy(v=20.0),
    "balance": BalanceOffloadingPolicy,
}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("policy", sorted(DECIDERS))
def test_one_call_decision_equals_the_per_shard_decisions(policy, seed):
    """A row-separable policy deciding a sharded slot in one call from
    the slot's columns returns, row for row, what each shard's own
    ``decide`` returns on its live system (Python floats, compared with
    ``==``): shards on both sides of the batch thresholds, sites with
    distinct non-zero overheads, per-device partitions, an outage
    collapse, QoS mixed rungs, a uniform overload rung and an empty
    shard."""
    edges, n = 4, 300
    topology = _distinct_sites(_topology(seed, edges, n, True, idle_every=7))
    rng = np.random.default_rng(seed)
    owner = rng.choice(3, n, p=[0.6, 0.06, 0.34])  # edge 3 serves nobody
    expected = np.where(rng.random(n) < 0.1, 0.0, rng.uniform(0.0, 2.5, n))
    queues = FleetState(rng.uniform(0.0, 4.0, n), rng.uniform(0.0, 4.0, n))
    modes = [rng.integers(0, 3, n), None, np.full(n, 1)]
    shards = [None] * edges
    for e in range(3):
        members = np.flatnonzero(owner == e)
        system = topology.build_shard(e, members)
        if e == 1:
            system = edge_down_system(system)
        live = system
        if modes[e] is not None:
            live = degrade_system_by_modes(system, modes[e][members])
        shards[e] = (members, live, live is system)
    sizes = sorted(len(shard[0]) for shard in shards[:3])
    assert sizes[0] < _BALANCE_BATCH_MIN <= sizes[1] < _BATCH_DECIDE_MIN <= sizes[2]
    engine = VectorizedSlotEngine(topology, FleetParams.from_topology(topology))
    columns = engine.columns(topology.fleet, ShardedSlot(owner, shards))
    got = DECIDERS[policy]().decide(columns, queues, expected, None)
    want = [None] * n
    for members, live, _ in shards[:3]:
        ratios = DECIDERS[policy]().decide(
            live,
            LyapunovState(
                queues.queue_local[members].tolist(),
                queues.queue_edge[members].tolist(),
            ),
            expected[members].tolist(),
            topology.fleet.take(members),
        )
        for i, ratio in zip(members.tolist(), ratios):
            want[i] = ratio
    assert got == want
    assert {type(ratio) for ratio in got} == {float}


class _ShardByShard:
    """A policy without its row-separable declaration: the array plane
    consults it once per populated shard."""

    def __init__(self, inner):
        self.inner = inner

    def decide(self, system, state, arrivals, devices=None):
        return self.inner.decide(system, state, arrivals, devices)


@pytest.mark.parametrize("metrics", ["records", "streaming"])
@pytest.mark.parametrize("policy", sorted(DECIDERS))
def test_churned_one_call_runs_equal_shard_by_shard_runs(policy, metrics):
    """On the array plane, the churned federation over distinct sites
    with per-device partitions, overload, QoS and a partial outage
    writes the same records, per-edge records, streams and class flow
    whether the policy decides each slot in one call or shard by
    shard."""

    def run(policy):
        sim = _churn_sim(
            2, True, qos=CHURN_QOS, heterogeneous=True, queue_high=1.0
        )
        return _outputs(sim.run(policy, SLOTS, metrics=metrics))

    assert run(DECIDERS[policy]()) == run(_ShardByShard(DECIDERS[policy]()))


def _counted(monkeypatch, cls) -> list:
    """Record the ``system`` of every ``cls.decide`` call."""
    systems = []
    original = cls.decide

    def decide(self, system, *args, **kwargs):
        systems.append(system)
        return original(self, system, *args, **kwargs)

    monkeypatch.setattr(cls, "decide", decide)
    return systems


def _populated_shard_slots(sim) -> int:
    return sum(len(np.unique(sim.plan.row(t))) for t in range(SLOTS))


@pytest.mark.parametrize("vectorized", [True, False])
def test_a_row_separable_policy_is_consulted_once_per_slot(vectorized, monkeypatch):
    """The array plane hands a row-separable policy each slot's columns
    once; the scalar plane consults it once per populated shard with the
    shard's live system."""
    systems = _counted(monkeypatch, DriftPlusPenaltyPolicy)
    sim = _churn_sim(0, vectorized, qos=CHURN_QOS)
    sim.run(DriftPlusPenaltyPolicy(v=20.0), SLOTS)
    if vectorized:
        assert len(systems) == SLOTS
        assert all(isinstance(system, SlotColumns) for system in systems)
    else:
        assert len(systems) == _populated_shard_slots(sim) > SLOTS
        assert all(isinstance(system, EdgeSystem) for system in systems)


@pytest.mark.parametrize("policy", ["fenced", "bandit"])
def test_other_policies_are_consulted_once_per_populated_shard(policy, monkeypatch):
    """A policy that declares no row-separability — a fenced controller
    over DPP, a learning bandit — keeps one ``decide`` per populated
    shard per slot on the array plane, each with the shard's system."""
    if policy == "fenced":
        cls = FencedController
        instance = FencedController(
            DriftPlusPenaltyPolicy(v=20.0), canonical_coordinator_outage(SLOTS, seed=0)
        )
    else:
        cls, instance = ExitBanditPolicy, ExitBanditPolicy()
    assert not getattr(instance, "row_separable", False)
    systems = _counted(monkeypatch, cls)
    sim = _churn_sim(1, True, qos=CHURN_QOS)
    sim.run(instance, SLOTS)
    assert len(systems) == _populated_shard_slots(sim) > SLOTS
    assert all(isinstance(system, EdgeSystem) for system in systems)
