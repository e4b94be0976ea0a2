"""What identifies a run: the checkpoint fingerprint and the environment.

A checkpoint's fingerprint digests the run's whole configuration object
(:func:`repro.chaos.checkpoint.config_digest`), so on every entry point
a resume against another deployment, other arrivals or another
environment is refused, while the same configuration rebuilt from equal
inputs — or a simulator that has already run — resumes and reproduces
the uninterrupted run.  Every run also steps its own copy of the
configured environment, so rerunning one simulator repeats itself.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np
import pytest

from repro.chaos import (
    CheckpointError,
    Killed,
    KillSwitch,
    checkpoint_from_bytes,
    checkpoint_to_bytes,
)
from repro.chaos.checkpoint import checkpoint_hook, config_digest
from repro.core.offloading import EdgeSystem, FixedRatioPolicy
from repro.experiments.common import TestbedConfig, edgent_scheme, leime_scheme
from repro.federation import FederatedEventSimulator, FederatedSlotSimulator
from repro.runtime import LeimeRuntime
from repro.sim.arrivals import PoissonArrivals
from repro.sim.environment import RandomWalkEnvironment
from repro.sim.events import EventSimulator
from repro.sim.simulator import SlotSimulator
from repro.traces import TraceEnvironment
from repro.traces.schema import Trace, TraceChannel

from .helpers import random_federation_topology, static_home_plan

SLOTS = 8
KILL = 4
RATE = 0.5
SIGMA = 0.3
PATHS = (
    "fluid",
    "federated-fluid",
    "event-scalar",
    "event-fast",
    "runtime",
    "federated-event",
)


@functools.lru_cache(maxsize=None)
def _testbed():
    """The paper's 4-Pi testbed on LEIME's partition."""
    config = TestbedConfig()
    return config.system(leime_scheme(config).partition)


@functools.lru_cache(maxsize=None)
def _federation():
    topology = random_federation_topology(0, 2, 6, max_arrivals=1.0)
    return topology, static_home_plan(topology, SLOTS)


def _halved(world):
    """The deployment with its (first site's) edge FLOPS halved."""
    if isinstance(world, EdgeSystem):
        return replace(world, edge_flops=world.edge_flops / 2)
    first, *rest = world.sites
    return replace(
        world, sites=(replace(first, edge_flops=first.edge_flops / 2), *rest)
    )


def _entry(path, *, deployment=False, arrivals="shared", sigma=SIGMA):
    """One entry point over configuration A, or A with one change:
    ``deployment`` halves the edge FLOPS, ``arrivals="other"`` triples
    the arrival rate, another ``sigma`` changes the environment;
    ``arrivals="separate"`` rebuilds A's processes as ``n`` equal
    objects instead of ``[p] * n``.  Returns ``run(**hooks)``, bound to
    one simulator (a fresh live runtime per call)."""
    federated = path.startswith("federated")
    if federated:
        topology, plan = _federation()
        world = _halved(topology) if deployment else topology
    else:
        world = _halved(_testbed()) if deployment else _testbed()
    n = world.num_devices
    if arrivals == "separate":
        procs = [PoissonArrivals(RATE) for _ in range(n)]
    else:
        procs = [PoissonArrivals(3 * RATE if arrivals == "other" else RATE)] * n
    environment = RandomWalkEnvironment(sigma=sigma)
    policy = FixedRatioPolicy(0.5)
    if path == "runtime":

        def run(**hooks):
            runtime = LeimeRuntime(world, policy, speedup=2000.0, seed=3)
            try:
                return runtime.run(procs, num_slots=SLOTS, **hooks)
            finally:
                assert runtime.shutdown()

        return run
    if path == "fluid":
        sim = SlotSimulator(world, procs, environment=environment, seed=3)
        return functools.partial(sim.run, policy, SLOTS)
    if path == "federated-fluid":
        sim = FederatedSlotSimulator(
            world, procs, plan, environment=environment, seed=3
        )
        return functools.partial(sim.run, policy, SLOTS)
    if path == "federated-event":
        sim = FederatedEventSimulator(
            world, procs, plan, environment=environment, seed=3
        )
        return functools.partial(sim.run, policy, SLOTS)
    sim = EventSimulator(world, procs, environment=environment, seed=3)
    engine = path.split("-")[1]
    return functools.partial(sim.run, policy, SLOTS, engine=engine)


def _outcome(path, result):
    """What a resumed run must reproduce exactly."""
    if path == "runtime":
        # Worker timing races; the control plane is deterministic.
        return [(t.device, t.offloaded, t.shed) for t in result.tasks]
    if path == "fluid":
        return result.records
    if path == "federated-fluid":
        return result.global_result.records, result.edge_records
    if path == "federated-event":
        return [(r.tasks, r.horizon) for r in result.edge_results]
    return result.tasks, result.horizon


def _killed(path):
    """Kill configuration A's run; its last checkpoint, through bytes."""
    # The federated event run checkpoints per finished edge (2 edges).
    kill = 1 if path == "federated-event" else KILL
    with pytest.raises(Killed) as killed:
        _entry(path)(checkpoint_every=1, checkpoint_sink=KillSwitch(kill))
    return checkpoint_from_bytes(checkpoint_to_bytes(killed.value.checkpoint))


CHANGES = {
    "deployment": dict(deployment=True),
    "arrivals": dict(arrivals="other"),
    "environment": dict(sigma=0.1),
}


@pytest.mark.parametrize(
    "path,change",
    [
        (path, change)
        for path in PATHS
        for change in CHANGES
        # The live runtime takes no environment.
        if not (path == "runtime" and change == "environment")
    ],
)
def test_resume_refuses_another_configuration(path, change):
    checkpoint = _killed(path)
    with pytest.raises(CheckpointError, match="fingerprint"):
        _entry(path, **CHANGES[change])(resume_from=checkpoint)


@pytest.mark.parametrize("path", PATHS)
def test_resume_accepts_the_configuration_rebuilt(path):
    """Equal inputs built separately (``n`` equal processes for ``[p] *
    n``) resume and reproduce the uninterrupted run, and so does a
    simulator that has already run once."""
    first = _entry(path)
    whole = _outcome(path, first())
    checkpoint = _killed(path)
    rebuilt = _entry(path, arrivals="separate")
    assert _outcome(path, rebuilt(resume_from=checkpoint)) == whole
    if path != "runtime":  # a live runtime resumes only when fresh
        assert _outcome(path, first(resume_from=checkpoint)) == whole


def test_fluid_resume_refuses_another_fault_plan():
    """A fluid run's fault plan and recovery budget are part of its
    configuration: a checkpoint resumes under the same plan only."""
    from repro.resilience import RecoveryPolicy, canonical_outage_plan

    system = _testbed()
    n = system.num_devices

    def run(plan_seed, **hooks):
        return SlotSimulator(
            system,
            [PoissonArrivals(RATE)] * n,
            seed=3,
            faults=canonical_outage_plan(num_slots=SLOTS, num_devices=n, seed=plan_seed),
            recovery=RecoveryPolicy.default(),
        ).run(FixedRatioPolicy(0.5), SLOTS, **hooks)

    with pytest.raises(Killed) as killed:
        run(0, checkpoint_every=1, checkpoint_sink=KillSwitch(KILL))
    checkpoint = checkpoint_from_bytes(checkpoint_to_bytes(killed.value.checkpoint))
    with pytest.raises(CheckpointError, match="fingerprint"):
        run(1, resume_from=checkpoint)
    assert run(0, resume_from=checkpoint).records == run(0).records


# -- the digest --------------------------------------------------------------


@dataclass
class _Config:
    values: object
    scale: float = 1.0


class _Holder:
    def __init__(self, value, cache=None):
        self.value = value
        self._cache = cache


def test_digest_is_by_value():
    p = PoissonArrivals(RATE)
    assert config_digest(_Config([p] * 3)) == config_digest(
        _Config([PoissonArrivals(RATE) for _ in range(3)])
    )
    assert config_digest(_Config(np.arange(4.0))) == config_digest(
        _Config(np.arange(4.0))
    )
    assert config_digest(_Config(np.arange(4.0))) != config_digest(
        _Config(np.arange(4))
    )
    assert config_digest(_Config({"a": 1, "b": 2.0})) == config_digest(
        _Config({"a": 1, "b": 2.0})
    )
    # Floats exactly; an int is not a float; private state is skipped.
    assert config_digest(_Config(0.1 + 0.2)) != config_digest(_Config(0.3))
    assert config_digest(_Config(1)) != config_digest(_Config(1.0))
    assert config_digest(_Holder(2.0, cache=[1])) == config_digest(
        _Holder(2.0)
    )
    assert config_digest(_Holder(2.0)) != config_digest(_Holder(3.0))
    assert config_digest(_Config(None, 2.0)) != config_digest(_Config(None))


def test_digest_only_when_checkpointing_or_resuming(monkeypatch):
    from repro.chaos import checkpoint

    calls = []
    monkeypatch.setattr(
        checkpoint, "config_digest", lambda config: calls.append(config) or ""
    )
    checkpoint_hook("config", "fluid-scalar", "state", None, None)
    assert calls == []
    checkpoint_hook("config", "fluid-scalar", "state", 2, print)
    assert calls == ["config"]


# -- environments keep no state between runs or systems ---------------------


def _walk_entry(path):
    system = _testbed()
    arrivals = [PoissonArrivals(RATE)] * system.num_devices
    environment = RandomWalkEnvironment(sigma=SIGMA)
    if path.startswith("fluid"):
        sim = SlotSimulator(
            system,
            arrivals,
            environment=environment,
            seed=0,
            vectorized=path == "fluid-vectorized",
        )
        return lambda: sim.run(FixedRatioPolicy(0.5), 40).records
    sim = EventSimulator(system, arrivals, environment=environment, seed=0)
    engine = path.split("-")[1]
    return lambda: sim.run(FixedRatioPolicy(0.5), 40, engine=engine).tasks


@pytest.mark.parametrize(
    "path", ["fluid-scalar", "fluid-vectorized", "event-scalar", "event-fast"]
)
def test_rerunning_a_simulator_repeats_it(path):
    run = _walk_entry(path)
    assert run() == run()


def test_compare_runs_equal_policies_alike():
    system = _testbed()
    sim = SlotSimulator(
        system,
        [PoissonArrivals(RATE)] * system.num_devices,
        environment=RandomWalkEnvironment(sigma=SIGMA),
    )
    (_, a), (_, b) = sim.compare(
        [("a", FixedRatioPolicy(0.5)), ("b", FixedRatioPolicy(0.5))], 40
    )
    assert a.records == b.records


def test_trace_environment_serves_each_system_its_own():
    """One trace environment reused on a second system (here: another
    partition) matches a fresh one."""
    config = TestbedConfig()
    leime = config.system(leime_scheme(config).partition)
    edgent = config.system(edgent_scheme(config).partition)
    flat = Trace((TraceChannel("edge_flops", np.full(40, 40e9)),))
    shared = TraceEnvironment(flat)
    assert shared.system_at(0, leime).partition is leime.partition
    assert shared.system_at(0, edgent).partition is edgent.partition

    def mean_tct(system, environment):
        return SlotSimulator(
            system,
            [PoissonArrivals(RATE)] * system.num_devices,
            environment=environment,
        ).run(FixedRatioPolicy(0.0), 40).mean_tct

    reused = TraceEnvironment(flat)
    mean_tct(leime, reused)
    assert mean_tct(edgent, reused) == mean_tct(edgent, TraceEnvironment(flat))
