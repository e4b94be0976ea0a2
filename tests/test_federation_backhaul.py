"""Backhaul as a latency term in every federated task path.

An :class:`~repro.federation.topology.EdgeSite` may charge a
``backhaul_latency``: extra one-way propagation a device homed at a
*different* site pays on every device↔edge transfer to this edge.  The
term rides on the member's link profile inside the shard, so both event
engines and the live runtime price it through their ordinary transfer
machinery — the scalar-vs-fast conformance case pins the engines equal.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.offloading import FixedRatioPolicy
from repro.federation import (
    AssignmentPlan,
    FederatedEventSimulator,
    FederatedRuntime,
)
from repro.sim.arrivals import PoissonArrivals

from .helpers import random_federation_topology

NUM_SLOTS = 8
BACKHAUL_S = 0.25


def _backhaul_world(seed: int, backhaul: float):
    """A 2-edge federation where every device is pinned to edge 0, so
    devices homed at edge 1 are migrated members paying edge 0's
    backhaul."""
    topology = random_federation_topology(seed, 2, 4)
    topology = replace(
        topology,
        sites=(
            replace(topology.sites[0], backhaul_latency=backhaul),
            topology.sites[1],
        ),
    )
    plan = AssignmentPlan(
        matrix=np.zeros((NUM_SLOTS, topology.num_devices), dtype=np.intp),
        num_edges=2,
    )
    arrivals = [PoissonArrivals(0.6) for _ in range(topology.num_devices)]
    return topology, plan, arrivals


@pytest.mark.parametrize("seed", range(3))
def test_zero_backhaul_preserves_shard_identity(seed: int) -> None:
    """With the default zero latency, passing homes must not perturb the
    shard — the E=1 identity contract stays intact."""
    topology, _, _ = _backhaul_world(seed, 0.0)
    members = list(range(topology.num_devices))
    homes = topology.home_assignment()
    assert topology.build_shard(0, members, homes) == topology.build_shard(
        0, members
    )


@pytest.mark.parametrize("seed", range(3))
def test_backhaul_applies_only_to_non_home_members(seed: int) -> None:
    topology, _, _ = _backhaul_world(seed, BACKHAUL_S)
    members = list(range(topology.num_devices))
    homes = topology.home_assignment()
    assert any(h != 0 for h in homes), "fixture needs a migrated member"
    plain = topology.build_shard(0, members)
    shard = topology.build_shard(0, members, homes)
    for i, (before, after) in enumerate(zip(plain.devices, shard.devices)):
        assert after.link.bandwidth == before.link.bandwidth
        if homes[i] == 0:
            assert after.link.latency == before.link.latency
        else:
            assert after.link.latency == pytest.approx(
                before.link.latency + BACKHAUL_S
            )


@pytest.mark.parametrize("seed", range(3))
def test_backhaul_scalar_vs_fast_conformance(seed: int) -> None:
    """The backhaul term must not open a gap between the event engines:
    per-task results stay exactly equal."""
    topology, plan, arrivals = _backhaul_world(seed, BACKHAUL_S)
    results = {}
    for engine in ("scalar", "fast"):
        results[engine] = (
            FederatedEventSimulator(
                topology=topology, arrivals=arrivals, plan=plan, seed=seed
            )
            .run(
                FixedRatioPolicy(0.5),
                NUM_SLOTS,
                drain_limit_factor=100.0,
                engine=engine,
            )
            .merged()
        )
    a, b = results["scalar"].tasks, results["fast"].tasks
    assert len(a) == len(b)
    for ta, tb in zip(a, b):
        assert ta.device == tb.device
        assert ta.created == tb.created
        assert ta.completed == tb.completed
        assert ta.exit_tier == tb.exit_tier
        assert ta.retries == tb.retries
        assert ta.dropped == tb.dropped


@pytest.mark.parametrize("engine", ["scalar", "fast"])
def test_backhaul_slows_migrated_members_only(engine: str) -> None:
    """Adding backhaul strictly increases completion times for migrated
    members' offloaded tasks and changes nothing for home members."""
    seed = 0
    base_t, plan, arrivals = _backhaul_world(seed, 0.0)
    slow_t, _, _ = _backhaul_world(seed, BACKHAUL_S)
    homes = base_t.home_assignment()

    def tct_by_home(topology):
        merged = (
            FederatedEventSimulator(
                topology=topology, arrivals=arrivals, plan=plan, seed=seed
            )
            .run(
                FixedRatioPolicy(0.5),
                NUM_SLOTS,
                drain_limit_factor=100.0,
                engine=engine,
            )
            .merged()
        )
        home = [
            t.completed - t.created
            for t in merged.completed
            if homes[t.device] == 0
        ]
        away = [
            t.completed - t.created
            for t in merged.completed
            if homes[t.device] != 0 and t.offloaded
        ]
        return home, away

    home_base, away_base = tct_by_home(base_t)
    home_slow, away_slow = tct_by_home(slow_t)
    assert away_base, "fixture needs offloaded tasks on migrated members"
    assert home_slow == home_base
    assert sum(away_slow) > sum(away_base)


def test_live_federation_charges_backhaul() -> None:
    """The live federation deploys the same shards as the event wrapper:
    a migrated member's task that crosses its uplink (offloaded, or past
    the first exit) crosses the backhaul, so it cannot complete sooner
    than the backhaul latency."""
    backhaul = 5.0
    topology, plan, arrivals = _backhaul_world(0, backhaul)
    homes = topology.home_assignment()
    federated = FederatedRuntime(
        topology, FixedRatioPolicy(0.5), plan, speedup=500.0, seed=0
    )
    try:
        result = federated.run(arrivals, NUM_SLOTS, drain_timeout=30.0)
    finally:
        federated.shutdown()
    merged = result.merged()
    assert merged.completion_rate == 1.0
    crossed = [
        t.tct
        for t in merged.tasks
        if homes[t.device] != 0 and (t.offloaded or t.exit_tier > 1)
    ]
    assert crossed, "fixture needs migrated members' tasks on the uplink"
    assert min(crossed) >= backhaul
