"""The fleet size picks the fluid data plane.

The choice moves wall-clock only: the two fluid planes write
byte-identical records.  These tests pin which plane an unset choice
takes one device either side of the crossover, and that the run equals
both forced choices.  The plane is read off
``VectorizedSlotEngine.slot_costs`` calls: only the array plane makes
them.
"""

from __future__ import annotations

import pytest

from repro.chaos.checkpoint import Checkpoint
from repro.core import vectorized
from repro.core.offloading import FixedRatioPolicy
from repro.federation import FederatedSlotSimulator
from repro.sim.arrivals import PoissonArrivals
from repro.sim.simulator import ARRAY_PLANE_MIN_DEVICES, SlotSimulator

from tests.helpers import (
    random_federation_topology,
    random_fleet,
    single_edge_fixture,
    static_home_plan,
)

SLOTS = 6
EITHER_SIDE = [(ARRAY_PLANE_MIN_DEVICES - 1, False), (ARRAY_PLANE_MIN_DEVICES, True)]


@pytest.fixture
def slot_cost_calls(monkeypatch):
    """Counts ``VectorizedSlotEngine.slot_costs`` calls, as the
    benchmark suite's tracer does."""
    calls = []
    original = vectorized.VectorizedSlotEngine.slot_costs

    def counted(self, *args, **kwargs):
        calls.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(vectorized.VectorizedSlotEngine, "slot_costs", counted)
    return calls


def _planes(run, calls):
    """``run(vectorized)``'s records forced scalar, forced array and
    unset, plus whether the unset run took the array plane."""
    scalar = run(False)
    assert not calls
    array = run(True)
    assert calls
    calls.clear()
    chosen = run(None)
    return scalar, array, chosen, bool(calls)


@pytest.mark.parametrize("n, array", EITHER_SIDE)
def test_slot_simulator_picks_plane_by_fleet_size(n, array, slot_cost_calls):
    system = random_fleet(n, n, max_arrivals=0.5)

    def run(vectorized):
        return SlotSimulator(
            system=system,
            arrivals=[PoissonArrivals(0.5)] * n,
            seed=3,
            vectorized=vectorized,
        ).run(FixedRatioPolicy(0.5), SLOTS).records

    scalar, forced, chosen, took_array = _planes(run, slot_cost_calls)
    assert took_array == array
    assert chosen == scalar == forced


@pytest.mark.parametrize("per_edge, array", EITHER_SIDE)
def test_federation_picks_plane_by_devices_per_edge(
    per_edge, array, slot_cost_calls
):
    """One plane for every shard, from ``num_devices / num_edges``."""
    num_edges = 3
    n = num_edges * per_edge
    topology = random_federation_topology(n, num_edges, n, max_arrivals=0.5)
    plan = static_home_plan(topology, SLOTS)

    def run(vectorized):
        return FederatedSlotSimulator(
            topology=topology,
            arrivals=[PoissonArrivals(0.5)] * n,
            plan=plan,
            seed=3,
            vectorized=vectorized,
        ).run(FixedRatioPolicy(0.5), SLOTS).global_result.records

    scalar, forced, chosen, took_array = _planes(run, slot_cost_calls)
    assert took_array == array
    assert chosen == scalar == forced


@pytest.mark.parametrize("n, array", EITHER_SIDE)
def test_single_edge_federation_makes_the_single_edge_choice(
    n, array, slot_cost_calls
):
    system, topology, plan = single_edge_fixture(n, n, SLOTS)
    arrivals = [PoissonArrivals(0.5)] * n
    single = SlotSimulator(system=system, arrivals=arrivals, seed=2).run(
        FixedRatioPolicy(0.5), SLOTS
    )
    single_calls = len(slot_cost_calls)
    federated = FederatedSlotSimulator(
        topology=topology, arrivals=arrivals, plan=plan, seed=2
    ).run(FixedRatioPolicy(0.5), SLOTS)
    assert single_calls == (SLOTS if array else 0)
    assert len(slot_cost_calls) == 2 * single_calls
    assert federated.global_result.records == single.records


@pytest.mark.parametrize("n, array", EITHER_SIDE)
def test_checkpoint_path_follows_the_resolved_plane(n, array):
    checkpoints: list[Checkpoint] = []
    SlotSimulator(
        system=random_fleet(n, n, max_arrivals=0.5),
        arrivals=[PoissonArrivals(0.5)] * n,
    ).run(
        FixedRatioPolicy(0.5),
        3,
        checkpoint_every=1,
        checkpoint_sink=checkpoints.append,
    )
    want = "fluid-vectorized" if array else "fluid-scalar"
    assert checkpoints and {c.path for c in checkpoints} == {want}
