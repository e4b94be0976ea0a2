"""Live fleets: a dynamic environment's per-slot devices as columns.

Every environment that overrides devices returns a
:class:`~repro.core.offloading.LiveFleet`; array consumers read its
columns and per-device consumers index it.  These tests pin the
sequence contract (equality, memoised configs, the base config where a
slot changes nothing, today's errors), that both fluid planes and both
event engines stay twins in every environment (a fault plan's overlay
included), that the array plane replays a trace without building a
single config, and that the event engines read a static deployment's
columns once.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from repro.chaos.oracles import event_results_close
from repro.core.offloading import (
    BalanceOffloadingPolicy,
    DeviceConfig,
    DriftPlusPenaltyPolicy,
    FixedRatioPolicy,
    LiveFleet,
)
from repro.core.vectorized import FleetParams, VectorizedSlotEngine
from repro.federation import FederatedSlotSimulator, build_assignment_plan
from repro.federation import fluid
from repro.hardware import NetworkProfile
from repro.resilience.faults import FaultPlanSpec, generate_fault_plan
from repro.resilience.overload import OverloadControl
from repro.sim.arrivals import PoissonArrivals
from repro.sim.environment import RandomWalkEnvironment, StaticEnvironment
from repro.sim.events import EventSimulator
from repro.sim.simulator import SlotSimulator
from repro.traces.generators import WildTraceSpec, generate_trace
from repro.traces.replay import TraceEnvironment, replay_trace
from repro.units import mbps, ms

from tests.helpers import profile_trace, random_federation_topology, random_fleet

SLOTS = 8


def _trace(num_devices: int, seed: int = 0):
    return generate_trace(
        WildTraceSpec(
            num_slots=SLOTS,
            num_devices=num_devices,
            churn_down=0.1,
            churn_up=0.3,
        ),
        seed=seed,
    )


def _environment(name: str, num_devices: int) -> dict:
    """One of the five settings over ``num_devices`` devices, as
    simulator keyword arguments."""
    if name == "static":
        return dict(environment=StaticEnvironment())
    if name == "profile-trace":
        profiles = (
            NetworkProfile(mbps(2.0), ms(30.0)),
            NetworkProfile(mbps(20.0), ms(5.0)),
        )
        return dict(environment=TraceEnvironment(profile_trace(profiles, num_devices)))
    if name == "wild-trace":
        return dict(environment=TraceEnvironment(_trace(num_devices)))
    if name == "random-walk":
        return dict(environment=RandomWalkEnvironment(sigma=0.3))
    plan = generate_fault_plan(
        FaultPlanSpec(
            num_slots=SLOTS,
            num_devices=num_devices,
            drop_prob=0.2,
            corrupt_prob=0.2,
            straggler_prob=0.3,
        ),
        seed=1,
    )
    return dict(environment=TraceEnvironment(_trace(num_devices)), faults=plan)


ENVIRONMENTS = ("static", "profile-trace", "wild-trace", "random-walk", "faulty-trace")


# -- the sequence contract ----------------------------------------------------


def test_fleet_equals_the_configs_it_builds():
    system = random_fleet(0, 5)
    base = system.devices
    fleet = LiveFleet.of(base)
    assert fleet == base and base == fleet and len(fleet) == 5
    assert all(fleet[i] is base[i] for i in range(5))
    live = fleet.with_columns(bandwidth=fleet.bandwidth * 2.0)
    assert live != base
    assert live[1] is live[1]  # memoised
    assert live[1].link.bandwidth == 2.0 * base[1].link.bandwidth
    assert type(live[1].link.bandwidth) is float
    assert live[1].name == base[1].name and live[1].flops == base[1].flops
    assert live[-1] is live[4] and live[1:3] == (live[1], live[2])
    assert hash(live) == hash(tuple(live))
    # Columns are read-only, so a consumer cannot edit the slot.
    with pytest.raises(ValueError):
        live.bandwidth[0] = 1.0
    # Only the columns that moved rebuild a config.
    one = fleet.with_columns(latency=np.where(np.arange(5) == 2, 0.5, fleet.latency))
    assert [one[i] is base[i] for i in range(5)] == [True, True, False, True, True]
    assert one.take([4, 2]) == (base[4], one[2])


def test_fleet_pickles_and_copies():
    base = random_fleet(1, 3).devices
    live = LiveFleet.of(base).with_columns(flops=[1e9, 2e9, 3e9])
    for twin in (pickle.loads(pickle.dumps(live)), copy.deepcopy(live)):
        assert twin == live
        assert twin.flops.tolist() == [1e9, 2e9, 3e9]


@pytest.mark.parametrize(
    "column, value",
    [
        ("bandwidth", 0.0),
        ("bandwidth", np.inf),
        ("bandwidth", np.nan),
        ("latency", -1.0),
        ("latency", np.inf),
        ("flops", 0.0),
        ("flops", np.nan),
    ],
)
def test_fleet_raises_the_configs_own_error(column, value):
    """A bad column value raises what building that device's config
    raises, at construction."""
    base = random_fleet(2, 3).devices
    fleet = LiveFleet.of(base)
    values = getattr(fleet, column).copy()
    values[1] = value
    with pytest.raises(ValueError) as raised:
        fleet.with_columns(**{column: values})
    device = base[1]
    flops = value if column == "flops" else device.flops
    with pytest.raises(ValueError) as expected:
        DeviceConfig(
            device.name,
            flops,
            NetworkProfile(
                value if column == "bandwidth" else device.link.bandwidth,
                value if column == "latency" else device.link.latency,
            ),
            device.mean_arrivals,
            device.overhead,
        )
    assert str(raised.value) == str(expected.value)


def test_fleet_params_read_columns_bit_for_bit():
    """``FleetParams`` from a live fleet equals ``FleetParams`` from the
    tuple of configs it builds, field by field and bit for bit."""
    for heterogeneous in (False, True):
        system = random_fleet(3, 7, heterogeneous=heterogeneous)
        live = TraceEnvironment(_trace(7, seed=3)).devices_at(
            2, system.devices, np.random.default_rng(0)
        )
        columns = FleetParams.from_system(system, live)
        objects = FleetParams.from_system(system, tuple(live))
        for name in FleetParams.__dataclass_fields__:
            a, b = getattr(columns, name), getattr(objects, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        engine = VectorizedSlotEngine(system)
        assert engine.params_for(system.devices) is engine.params_for(None)


# -- twins over the five environments -----------------------------------------


def _policy(name: str):
    if name == "dpp":
        return DriftPlusPenaltyPolicy(v=50.0)
    if name == "balance":
        return BalanceOffloadingPolicy()
    return FixedRatioPolicy(0.5)


@pytest.mark.parametrize("policy", ["dpp", "balance", "fixed"])
@pytest.mark.parametrize("environment", ENVIRONMENTS)
def test_fluid_planes_are_twins_in_every_environment(environment, policy):
    """Scalar and array plane records are ``==`` (and ``repr``-equal, so
    no NumPy scalar leaks into a record): each policy decides from the
    slot's columns on one plane and from the live system on the other."""
    n = 130
    system = random_fleet(4, n, max_arrivals=0.5)

    def run(vectorized):
        return SlotSimulator(
            system=system,
            arrivals=[PoissonArrivals(0.4)] * n,
            seed=5,
            vectorized=vectorized,
            **_environment(environment, n),
        ).run(_policy(policy), SLOTS).records

    scalar, array = run(False), run(True)
    assert scalar == array
    assert repr(scalar) == repr(array)


@pytest.mark.parametrize("shared_uplink", [False, True])
@pytest.mark.parametrize("environment", ENVIRONMENTS)
def test_event_engines_are_twins_in_every_environment(environment, shared_uplink):
    """The fast engine copies a live fleet's link columns; the scalar
    engine reconfigures each link from the configs it indexes."""
    n = 4
    system = random_fleet(6, n, max_arrivals=0.5)

    def run(engine):
        return EventSimulator(
            system=system,
            arrivals=[PoissonArrivals(0.6)] * n,
            seed=7,
            shared_uplink=shared_uplink,
            **_environment(environment, n),
        ).run(FixedRatioPolicy(0.5), SLOTS, drain_limit_factor=100.0, engine=engine)

    assert event_results_close(run("scalar"), run("fast"))


@pytest.mark.parametrize("engine", ["scalar", "fast"])
@pytest.mark.parametrize("policy", ["dpp", "fixed"])
def test_event_decisions_read_the_deployed_columns_once(monkeypatch, policy, engine):
    """On a static environment every slot's decision is handed the
    deployed system and its own devices, so it reads the system's
    cached columns: a 20-slot run builds as many live fleets as a
    5-slot one."""
    n = 4
    built = []
    original = LiveFleet.__init__

    def counted(self, *args):
        built.append(1)
        original(self, *args)

    monkeypatch.setattr(LiveFleet, "__init__", counted)
    counts = []
    for slots in (5, 20):
        built.clear()
        EventSimulator(
            system=random_fleet(6, n, max_arrivals=0.5),
            arrivals=[PoissonArrivals(0.6)] * n,
            seed=7,
        ).run(_policy(policy), slots, engine=engine)
        counts.append(len(built))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("policy", ["dpp", "balance"])
def test_array_plane_replay_builds_no_device_config(monkeypatch, policy):
    """After set-up, an array-plane trace replay (faults on top, too)
    reads columns only: no ``DeviceConfig`` is constructed."""
    n = 30
    system = random_fleet(8, n, max_arrivals=0.5)
    trace = _trace(n, seed=8)
    built = []
    original = DeviceConfig.__post_init__

    def counted(self):
        built.append(self.name)
        original(self)

    monkeypatch.setattr(DeviceConfig, "__post_init__", counted)
    replay_trace(system, trace, _policy(policy), seed=0, vectorized=True)
    faulty = _environment("faulty-trace", n)
    SlotSimulator(
        system=system,
        arrivals=[PoissonArrivals(0.4)] * n,
        seed=0,
        vectorized=True,
        **faulty,
    ).run(_policy(policy), SLOTS)
    assert built == []
    # The counter works: the scalar plane indexes the fleet.
    replay_trace(system, trace, _policy(policy), seed=0, vectorized=False)
    assert built


# -- the federation's shard cache ---------------------------------------------


def test_shard_cache_keeps_one_entry_per_edge(monkeypatch):
    """Under churn an edge serves many member sets; the cache keeps only
    each edge's latest, and the records equal a run that rebuilds every
    shard every slot."""
    edges, n, slots = 3, 48, 12
    topology = random_federation_topology(2, edges, n, max_arrivals=0.5)
    plan = build_assignment_plan(topology, slots, seed=1, churn_per_100=50.0)
    member_sets = {
        (e, tuple(np.flatnonzero(plan.row(t) == e)))
        for t in range(slots)
        for e in range(edges)
    }
    assert len(member_sets) > edges
    providers = []

    class Recorded(fluid._EdgeShards):
        def __init__(self, sim):
            super().__init__(sim)
            providers.append(self)

    class Forgetful(fluid._EdgeShards):
        def at(self, slot, environment):
            self._cache.clear()
            return super().at(slot, environment)

    def run(provider, vectorized):
        monkeypatch.setattr(fluid, "_EdgeShards", provider)
        return FederatedSlotSimulator(
            topology=topology,
            arrivals=[PoissonArrivals(0.5)] * n,
            plan=plan,
            environment=TraceEnvironment(_trace(n, seed=2)),
            seed=3,
            vectorized=vectorized,
        ).run(FixedRatioPolicy(0.5), slots)

    for vectorized in (False, True):
        kept = run(Recorded, vectorized)
        assert len(providers[-1]._cache) <= edges
        rebuilt = run(Forgetful, vectorized)
        assert kept.global_result.records == rebuilt.global_result.records
        assert kept.edge_records == rebuilt.edge_records


def test_federation_gathers_a_plain_sequence_like_its_live_fleet():
    """An environment may hand back any sequence of configs: every shard
    then gathers its members from one live fleet read off it, and the
    records equal those of the run whose environment returns that fleet
    itself, governed, on both planes."""
    edges, n, slots = 3, 48, 8
    topology = random_federation_topology(2, edges, n, max_arrivals=0.5)
    plan = build_assignment_plan(topology, slots, seed=1, churn_per_100=20.0)

    class PlainTuple:
        def __init__(self, inner):
            self.inner = inner

        def devices_at(self, slot, devices, rng):
            return tuple(self.inner.devices_at(slot, devices, rng))

    def run(environment, vectorized):
        return FederatedSlotSimulator(
            topology=topology,
            arrivals=[PoissonArrivals(0.5)] * n,
            plan=plan,
            environment=environment,
            seed=3,
            vectorized=vectorized,
            overload=OverloadControl(),
        ).run(FixedRatioPolicy(0.5), slots)

    for vectorized in (False, True):
        live = run(RandomWalkEnvironment(sigma=0.3), vectorized)
        plain = run(PlainTuple(RandomWalkEnvironment(sigma=0.3)), vectorized)
        assert plain.global_result.records == live.global_result.records
        assert plain.edge_records == live.edge_records
