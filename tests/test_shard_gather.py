"""Federated fluid shards as index gathers.

A shard's system, fleet and engine parameters are the members' rows of
columns read once per run.  These tests pin them to a rebuild from the
device configs: the shard oracle compares every ``EdgeSystem`` field and
every ``FleetParams`` column, and the fleet-scale churn run compares
whole runs against a provider that rebuilds every shard from configs in
every slot.
"""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from repro.core.offloading import (
    DeviceConfig,
    DriftPlusPenaltyPolicy,
    EdgeSystem,
    FixedRatioPolicy,
    LiveFleet,
)
from repro.core.vectorized import FleetParams, VectorizedSlotEngine
from repro.federation import (
    AssignmentPlan,
    FederatedSlotSimulator,
    FederationFaultPlan,
    single_edge_topology,
)
from repro.federation import fluid
from repro.resilience.overload import OverloadControl
from repro.resilience.qos import QoSConfig
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
    ``EdgeSystem`` field and every ``FleetParams`` column of the gathered
    shard equals the rebuild's, bit for bit."""
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
        shard = provider._build(edge, index)
        reference = FleetParams.from_system(_from_configs(topology, edge, members))
        params = shard.engine.params_for(shard.fleet)
        for name in (f.name for f in dataclasses.fields(FleetParams)):
            a, b = getattr(params, name), getattr(reference, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert shard.fleet == shard.system.devices


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


def _churn_sim(seed: int, vectorized: bool, qos=None) -> FederatedSlotSimulator:
    topology = _topology(seed, EDGES, DEVICES, heterogeneous=False, idle_every=11)
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
        seed=seed,
        vectorized=vectorized,
        overload=OverloadControl(
            queue_high=2.0, queue_low=1.0, patience=1, cooldown=2, queue_capacity=5.0
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
        engine = VectorizedSlotEngine(system) if self.vectorized else None
        return FluidShard(members, system, engine, False, LiveFleet.of(system.devices))


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
