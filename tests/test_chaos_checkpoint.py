"""Kill-at-slot-k + restore ≡ uninterrupted run, on all five paths.

The acceptance harness for the chaos checkpoint layer: for ≥25 seeded
fleets × ≥3 kill points, a run killed at a checkpoint boundary and
resumed from the (bytes-round-tripped) checkpoint must reproduce the
uninterrupted run's records byte-for-byte (fluid paths), per task record
(event paths), or per control-plane record (live runtime, whose
wall-clock timing fields are inherently racy).

Also pins the checkpoint container itself: file round-trip, loud schema
errors, and the hook-validation seams.
"""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from repro.chaos import (
    CheckpointError,
    CheckpointLog,
    Killed,
    KillSwitch,
    checkpoint_from_bytes,
    checkpoint_to_bytes,
    load_checkpoint,
    save_checkpoint,
    snapshot,
)
from repro.chaos.checkpoint import validate_hooks
from repro.core.offloading import DriftPlusPenaltyPolicy
from repro.resilience.faults import canonical_outage_plan
from repro.resilience.overload import OverloadControl
from repro.resilience.recovery import RecoveryPolicy
from repro.sim.arrivals import PoissonArrivals
from repro.sim.events import EventSimulator
from repro.sim.simulator import SlotSimulator

from .helpers import random_fleet, random_federation_topology, static_home_plan

SEEDS = range(25)
KILL_POINTS = (2, 5, 8)
SLOTS = 10
N = 3


def _arrivals(system):
    return [PoissonArrivals(d.mean_arrivals) for d in system.devices]


def _kill_and_resume(make_sim, run, kill_slot):
    """Run with a kill switch at ``kill_slot``, round-trip the checkpoint
    through bytes, and return the resumed result."""
    switch = KillSwitch(kill_slot)
    with pytest.raises(Killed) as killed:
        run(make_sim(), checkpoint_every=1, checkpoint_sink=switch)
    checkpoint = checkpoint_from_bytes(
        checkpoint_to_bytes(killed.value.checkpoint)
    )
    assert checkpoint.slot == kill_slot
    return run(make_sim(), resume_from=checkpoint)


# -- fluid paths (byte-identical records) -----------------------------------


@pytest.mark.parametrize("vectorized", [False, True])
def test_fluid_kill_resume_differential(vectorized):
    failures = []
    for seed in SEEDS:
        system = random_fleet(seed, N, max_arrivals=1.0)
        arrivals = _arrivals(system)
        overload = OverloadControl() if seed % 3 == 0 else None

        def make_sim():
            return SlotSimulator(
                system,
                arrivals,
                seed=seed,
                vectorized=vectorized,
                overload=overload,
            )

        def run(sim, **kwargs):
            return sim.run(
                DriftPlusPenaltyPolicy(v=50.0, vectorized=vectorized),
                SLOTS,
                **kwargs,
            )

        baseline = run(make_sim())
        for kill in KILL_POINTS:
            resumed = _kill_and_resume(make_sim, run, kill)
            if resumed.records != baseline.records:
                failures.append((seed, kill))
    assert not failures, f"fluid (vectorized={vectorized}) diverged: {failures}"


# -- event paths (per-task-record identical) --------------------------------


@pytest.mark.parametrize("engine", ["scalar", "fast"])
def test_event_kill_resume_differential(engine):
    failures = []
    for seed in SEEDS:
        system = random_fleet(seed, N, max_arrivals=1.0)
        arrivals = _arrivals(system)
        faults = canonical_outage_plan(SLOTS, N, seed) if seed % 3 == 1 else None
        overload = OverloadControl() if seed % 3 == 2 else None

        def make_sim():
            return EventSimulator(
                system,
                arrivals,
                seed=seed,
                faults=faults,
                recovery=RecoveryPolicy.default() if faults is not None else None,
                overload=overload,
            )

        def run(sim, **kwargs):
            return sim.run(
                DriftPlusPenaltyPolicy(v=50.0), SLOTS, engine=engine, **kwargs
            )

        baseline = run(make_sim())
        for kill in KILL_POINTS:
            resumed = _kill_and_resume(make_sim, run, kill)
            if resumed.tasks != baseline.tasks or (
                resumed.horizon != baseline.horizon
            ):
                failures.append((seed, kill))
    assert not failures, f"event ({engine}) diverged: {failures}"


# -- federated wrappers ------------------------------------------------------


@pytest.mark.parametrize("vectorized", [False, True])
def test_federated_fluid_kill_resume(vectorized):
    from repro.federation.fluid import FederatedSlotSimulator

    for seed in range(6):
        topology = random_federation_topology(seed, 3, 6, max_arrivals=1.0)
        plan = static_home_plan(topology, SLOTS)
        arrivals = [PoissonArrivals(d.mean_arrivals) for d in topology.devices]

        def make_sim():
            return FederatedSlotSimulator(
                topology=topology,
                arrivals=arrivals,
                plan=plan,
                seed=seed,
                vectorized=vectorized,
            )

        def run(sim, **kwargs):
            return sim.run(
                DriftPlusPenaltyPolicy(v=50.0, vectorized=vectorized),
                SLOTS,
                **kwargs,
            )

        baseline = run(make_sim())
        for kill in (2, 5, 8):
            resumed = _kill_and_resume(make_sim, run, kill)
            assert (
                resumed.global_result.records == baseline.global_result.records
            ), (vectorized, seed, kill)
            assert resumed.edge_records == baseline.edge_records


@pytest.mark.parametrize("engine", ["scalar", "fast"])
def test_federated_event_kill_resume_shard_granular(engine):
    from repro.federation.events import FederatedEventSimulator

    for seed in range(4):
        topology = random_federation_topology(seed, 3, 6, max_arrivals=1.0)
        plan = static_home_plan(topology, SLOTS)
        arrivals = [PoissonArrivals(d.mean_arrivals) for d in topology.devices]

        def make_sim():
            return FederatedEventSimulator(
                topology=topology, arrivals=arrivals, plan=plan, seed=seed
            )

        def run(sim, **kwargs):
            return sim.run(
                DriftPlusPenaltyPolicy(v=50.0), SLOTS, engine=engine, **kwargs
            )

        baseline = run(make_sim())
        for kill_edge in (1, 2):
            resumed = _kill_and_resume(make_sim, run, kill_edge)
            assert resumed.edge_members == baseline.edge_members
            for a, b in zip(resumed.edge_results, baseline.edge_results):
                assert a.tasks == b.tasks, (engine, seed, kill_edge)


def test_federated_resume_refuses_changed_plans():
    """A federated checkpoint pins its fault plan and its assignment
    plan: resuming under another raises instead of continuing silently
    on the new one."""
    from repro.federation import (
        FederatedEventSimulator,
        FederatedSlotSimulator,
        FederationFaultPlan,
        build_assignment_plan,
    )

    topology = random_federation_topology(0, 3, 6, max_arrivals=1.0)
    plan = static_home_plan(topology, SLOTS)
    churned = build_assignment_plan(topology, SLOTS, seed=1, churn_per_100=50.0)
    assert (churned.matrix != plan.matrix).any()
    arrivals = [PoissonArrivals(d.mean_arrivals) for d in topology.devices]

    def outage(edge):
        edge_down = np.zeros((SLOTS, topology.num_edges))
        edge_down[2:6, edge] = 1.0
        return FederationFaultPlan(edge_down=edge_down)

    def killed(sim, kill):
        with pytest.raises(Killed) as stop:
            sim.run(
                DriftPlusPenaltyPolicy(v=50.0),
                SLOTS,
                checkpoint_every=1,
                checkpoint_sink=KillSwitch(kill),
            )
        return stop.value.checkpoint

    def fluid(**overrides):
        config = dict(plan=plan, faults=outage(0), seed=0)
        config.update(overrides)
        return FederatedSlotSimulator(
            topology=topology, arrivals=arrivals, **config
        )

    checkpoint = killed(fluid(), 4)
    for changed in (fluid(faults=None), fluid(plan=churned)):
        with pytest.raises(CheckpointError, match="fingerprint"):
            changed.run(
                DriftPlusPenaltyPolicy(v=50.0), SLOTS, resume_from=checkpoint
            )

    def events(faults):
        return FederatedEventSimulator(
            topology=topology, arrivals=arrivals, plan=plan, seed=0,
            faults=faults,
        )

    checkpoint = killed(events(outage(0)), 1)
    with pytest.raises(CheckpointError, match="fingerprint"):
        events(outage(1)).run(
            DriftPlusPenaltyPolicy(v=50.0), SLOTS, resume_from=checkpoint
        )


@pytest.mark.parametrize("path", ["scalar", "fast", "live"])
def test_resume_refuses_a_rolled_fault_plan(path):
    """A single-edge checkpoint pins its fault plan by content: rolling
    the outage mask one slot keeps every summary statistic of the plan
    but must still refuse the resume."""
    from repro.runtime import LeimeRuntime

    plan = canonical_outage_plan(num_slots=20, num_devices=4, seed=0)
    rolled = dataclasses.replace(plan, edge_down=np.roll(plan.edge_down, 1))
    assert plan.describe() == rolled.describe()
    system = random_fleet(0, 4, max_arrivals=0.5)

    def run(faults, **hooks):
        if path == "live":
            runtime = LeimeRuntime(
                system, DriftPlusPenaltyPolicy(v=50.0), speedup=2000.0
            )
            try:
                return runtime.run(
                    _arrivals(system),
                    num_slots=6,
                    faults=faults,
                    recovery=RecoveryPolicy.default(),
                    **hooks,
                )
            finally:
                runtime.shutdown()
        return EventSimulator(
            system=system,
            arrivals=_arrivals(system),
            faults=faults,
            recovery=RecoveryPolicy.default(),
        ).run(DriftPlusPenaltyPolicy(v=50.0), 6, engine=path, **hooks)

    with pytest.raises(Killed) as killed:
        run(plan, checkpoint_every=1, checkpoint_sink=KillSwitch(2))
    with pytest.raises(CheckpointError, match="fingerprint"):
        run(rolled, resume_from=killed.value.checkpoint)


# -- live runtime (control-plane record identical) ---------------------------


def test_runtime_kill_resume_control_plane():
    from repro.experiments.common import TestbedConfig, leime_scheme
    from repro.runtime import LeimeRuntime

    config = TestbedConfig(num_devices=2, arrival_rate=0.4)
    system = config.system(leime_scheme(config).partition)
    for seed in range(25):

        def fresh():
            return LeimeRuntime(
                system, DriftPlusPenaltyPolicy(v=50.0), speedup=2000.0, seed=seed
            )

        runtime = fresh()
        try:
            baseline = runtime.run(config.arrival_processes(), num_slots=6)
        finally:
            assert runtime.shutdown()
        control = [(t.device, t.offloaded, t.shed) for t in baseline.tasks]
        # One killed run yields the checkpoints for every kill point (the
        # switch retains earlier checkpoints, like a sink that survived
        # the crash on durable storage).
        switch = KillSwitch(4)
        killed_rt = fresh()
        try:
            with pytest.raises(Killed):
                killed_rt.run(
                    config.arrival_processes(),
                    num_slots=6,
                    checkpoint_every=1,
                    checkpoint_sink=switch,
                )
        finally:
            assert killed_rt.shutdown()
        by_slot = {ck.slot: ck for ck in switch.checkpoints}
        for kill in (2, 3, 4):
            checkpoint = checkpoint_from_bytes(
                checkpoint_to_bytes(by_slot[kill])
            )
            assert checkpoint.kind == "replay"
            resumed_rt = fresh()
            try:
                resumed = resumed_rt.run(
                    config.arrival_processes(), num_slots=6, resume_from=checkpoint
                )
            finally:
                assert resumed_rt.shutdown()
            assert [
                (t.device, t.offloaded, t.shed) for t in resumed.tasks
            ] == control, (seed, kill)


def test_runtime_resume_requires_fresh_instance():
    from repro.experiments.common import TestbedConfig, leime_scheme
    from repro.runtime import LeimeRuntime

    config = TestbedConfig(num_devices=2, arrival_rate=0.5)
    system = config.system(leime_scheme(config).partition)
    runtime = LeimeRuntime(
        system, DriftPlusPenaltyPolicy(v=50.0), speedup=2000.0, seed=0
    )
    try:
        with pytest.raises(Killed) as killed:
            runtime.run(
                config.arrival_processes(),
                num_slots=6,
                checkpoint_every=1,
                checkpoint_sink=KillSwitch(2),
            )
        with pytest.raises(CheckpointError, match="fresh runtime"):
            runtime.run(
                config.arrival_processes(),
                num_slots=6,
                resume_from=killed.value.checkpoint,
            )
    finally:
        assert runtime.shutdown()


# -- container contracts -----------------------------------------------------


def test_checkpoint_file_round_trip(tmp_path):
    ck = snapshot("fluid-scalar", "state", 7, "abc123", {"x": [1.0, 2.0]})
    path = save_checkpoint(ck, tmp_path / "run.ckpt")
    loaded = load_checkpoint(path)
    assert loaded == ck
    assert loaded.payload() == {"x": [1.0, 2.0]}
    # payload() hands out fresh copies — mutating one cannot corrupt the
    # checkpoint.
    loaded.payload()["x"].append(3.0)
    assert loaded.payload() == {"x": [1.0, 2.0]}


def test_checkpoint_schema_mismatch_is_loud(tmp_path):
    ck = snapshot("fluid-scalar", "state", 1, "abc", {})
    raw = checkpoint_to_bytes(dataclasses.replace(ck, schema_version=99))
    with pytest.raises(CheckpointError, match="schema"):
        checkpoint_from_bytes(raw)
    (tmp_path / "junk.ckpt").write_bytes(b'{"format": "something-else"}\n')
    with pytest.raises(CheckpointError, match="not a checkpoint"):
        load_checkpoint(tmp_path / "junk.ckpt")
    (tmp_path / "noheader.ckpt").write_bytes(b"garbage-without-newline")
    with pytest.raises(CheckpointError, match="header"):
        load_checkpoint(tmp_path / "noheader.ckpt")


def test_resume_refuses_a_checkpoint_with_a_list_gate():
    """A governed fluid checkpoint written before the admission gate held
    arrays pickles its token buckets and flags as lists.  The fingerprint
    digests the configuration only, so it would match and the run would
    fail mid-slot; the schema version refuses it instead, as an object
    and from bytes."""
    system = random_fleet(0, N, max_arrivals=1.0)
    sim = SlotSimulator(
        system, _arrivals(system), seed=0, vectorized=True, overload=OverloadControl()
    )
    with pytest.raises(Killed) as killed:
        sim.run(
            DriftPlusPenaltyPolicy(v=50.0),
            SLOTS,
            checkpoint_every=1,
            checkpoint_sink=KillSwitch(3),
        )
    payload = killed.value.checkpoint.payload()
    gate = payload["gate"]
    gate.tokens, gate.shedding = gate.tokens.tolist(), gate.shedding.tolist()
    old = dataclasses.replace(
        killed.value.checkpoint, blob=pickle.dumps(payload), schema_version=2
    )
    with pytest.raises(CheckpointError, match="schema"):
        sim.run(DriftPlusPenaltyPolicy(v=50.0), SLOTS, resume_from=old)
    with pytest.raises(CheckpointError, match="schema"):
        checkpoint_from_bytes(checkpoint_to_bytes(old))


def test_resume_refuses_mismatched_checkpoint():
    system = random_fleet(0, N, max_arrivals=1.0)
    arrivals = _arrivals(system)
    sim = SlotSimulator(system, arrivals, seed=0)
    with pytest.raises(Killed) as killed:
        sim.run(
            DriftPlusPenaltyPolicy(v=50.0),
            SLOTS,
            checkpoint_every=1,
            checkpoint_sink=KillSwitch(3),
        )
    checkpoint = killed.value.checkpoint
    # Wrong path: a vectorized simulator must refuse a scalar checkpoint.
    vec = SlotSimulator(system, arrivals, seed=0, vectorized=True)
    with pytest.raises(CheckpointError, match="path"):
        vec.run(
            DriftPlusPenaltyPolicy(v=50.0, vectorized=True),
            SLOTS,
            resume_from=checkpoint,
        )
    # Wrong configuration (different seed) → fingerprint mismatch.
    other = SlotSimulator(system, arrivals, seed=1)
    with pytest.raises(CheckpointError, match="fingerprint"):
        other.run(DriftPlusPenaltyPolicy(v=50.0), SLOTS, resume_from=checkpoint)


def test_hook_validation():
    with pytest.raises(ValueError, match="together"):
        validate_hooks(2, None)
    with pytest.raises(ValueError, match="together"):
        validate_hooks(None, lambda ck: None)
    with pytest.raises(ValueError, match="positive"):
        validate_hooks(0, lambda ck: None)


# -- QoS state under kill/resume ---------------------------------------------

_QOS = None


def _qos():
    """A QoS config aggressive enough that warm-pool evictions and cold
    starts actually happen inside the short checkpoint horizon."""
    global _QOS
    if _QOS is None:
        from repro.resilience.qos import QoSConfig

        _QOS = QoSConfig(
            memory_fraction=0.4, cold_start_seconds=0.3, shed_budget=20.0
        )
    return _QOS


@pytest.mark.parametrize("vectorized", [False, True])
def test_qos_fluid_kill_resume_differential(vectorized):
    """Warm/cold pool state, per-class flow, and the admission plan all
    live in the checkpoint: a killed+resumed QoS run is byte-identical."""
    failures = []
    for seed in range(10):
        system = random_fleet(seed, N, max_arrivals=1.5)
        arrivals = _arrivals(system)

        def make_sim():
            return SlotSimulator(
                system,
                arrivals,
                seed=seed,
                vectorized=vectorized,
                overload=OverloadControl(),
                qos=_qos(),
            )

        def run(sim, **kwargs):
            return sim.run(
                DriftPlusPenaltyPolicy(v=50.0, vectorized=vectorized),
                SLOTS,
                **kwargs,
            )

        baseline = run(make_sim())
        for kill in KILL_POINTS:
            resumed = _kill_and_resume(make_sim, run, kill)
            if resumed.records != baseline.records:
                failures.append((seed, kill))
            flow, base = resumed.class_flow, baseline.class_flow
            if (
                flow.generated != base.generated
                or flow.admitted != base.admitted
                or flow.shed != base.shed
                or flow.time != base.time
            ):
                failures.append((seed, kill, "flow"))
    assert not failures, f"qos fluid (vectorized={vectorized}): {failures}"


@pytest.mark.parametrize("engine", ["scalar", "fast"])
def test_qos_event_kill_resume_differential(engine):
    """The event engines checkpoint the warm pool too — resuming after a
    kill must not silently restart every partition warm (or cold)."""
    failures = []
    for seed in range(10):
        system = random_fleet(seed, N, max_arrivals=1.5)
        arrivals = _arrivals(system)
        faults = canonical_outage_plan(SLOTS, N, seed) if seed % 2 else None

        def make_sim():
            return EventSimulator(
                system,
                arrivals,
                seed=seed,
                faults=faults,
                recovery=RecoveryPolicy.default() if faults is not None else None,
                overload=OverloadControl(),
                qos=_qos(),
            )

        def run(sim, **kwargs):
            return sim.run(
                DriftPlusPenaltyPolicy(v=50.0), SLOTS, engine=engine, **kwargs
            )

        baseline = run(make_sim())
        for kill in KILL_POINTS:
            resumed = _kill_and_resume(make_sim, run, kill)
            if resumed.tasks != baseline.tasks:
                failures.append((seed, kill))
    assert not failures, f"qos event ({engine}): {failures}"


def test_qos_federated_fluid_kill_resume():
    from repro.federation.fluid import FederatedSlotSimulator

    for seed in range(3):
        topology = random_federation_topology(seed, 3, 6, max_arrivals=1.5)
        plan = static_home_plan(topology, SLOTS)
        arrivals = [PoissonArrivals(d.mean_arrivals) for d in topology.devices]

        def make_sim():
            return FederatedSlotSimulator(
                topology=topology,
                arrivals=arrivals,
                plan=plan,
                seed=seed,
                overload=OverloadControl(),
                qos=_qos(),
            )

        def run(sim, **kwargs):
            return sim.run(DriftPlusPenaltyPolicy(v=50.0), SLOTS, **kwargs)

        baseline = run(make_sim())
        for kill in (2, 5, 8):
            resumed = _kill_and_resume(make_sim, run, kill)
            assert (
                resumed.global_result.records == baseline.global_result.records
            ), (seed, kill)
            assert (
                resumed.global_result.class_flow.generated
                == baseline.global_result.class_flow.generated
            )


def test_qos_runtime_kill_resume_control_plane():
    """The live path replays its per-slot decisions from the checkpoint;
    with QoS attached the replayed control plane (device, offload, class
    tag) must still match the uninterrupted run.  No governor here: live
    shedding reads real thread backlogs, which are timing-dependent by
    design — the deterministic contract covers the QoS plan and the
    warm pool, not racy queue observations."""
    from repro.experiments.common import TestbedConfig, leime_scheme
    from repro.runtime import LeimeRuntime

    from repro.resilience.qos import QoSConfig

    # Light load and modest speedup: the policy reads real thread
    # backlogs, so determinism needs every queue drained (holds
    # included) well before each slot boundary.
    config = TestbedConfig(num_devices=2, arrival_rate=0.3)
    system = config.system(leime_scheme(config).partition)
    runtime_qos = QoSConfig(memory_fraction=0.3, cold_start_seconds=0.1)
    for seed in range(5):

        def fresh():
            return LeimeRuntime(
                system, DriftPlusPenaltyPolicy(v=50.0), speedup=500.0, seed=seed
            )

        def run(runtime, **kwargs):
            try:
                return runtime.run(
                    config.arrival_processes(),
                    num_slots=6,
                    qos=runtime_qos,
                    **kwargs,
                )
            finally:
                assert runtime.shutdown()

        baseline = run(fresh())
        control = [
            (t.device, t.offloaded, t.shed, t.qos) for t in baseline.tasks
        ]
        assert any(t.qos for t in baseline.tasks)
        switch = KillSwitch(4)
        with pytest.raises(Killed):
            run(fresh(), checkpoint_every=1, checkpoint_sink=switch)
        by_slot = {ck.slot: ck for ck in switch.checkpoints}
        for kill in (2, 4):
            checkpoint = checkpoint_from_bytes(
                checkpoint_to_bytes(by_slot[kill])
            )
            resumed = run(fresh(), resume_from=checkpoint)
            assert [
                (t.device, t.offloaded, t.shed, t.qos) for t in resumed.tasks
            ] == control, (seed, kill)


def test_qos_config_mismatch_refuses_resume():
    """The QoS config is part of the run fingerprint on every path: a
    checkpoint taken under one class/memory regime must not silently
    resume under another."""
    from dataclasses import replace as dc_replace

    system = random_fleet(0, N, max_arrivals=1.0)
    arrivals = _arrivals(system)
    sim = SlotSimulator(system, arrivals, seed=0, qos=_qos())
    with pytest.raises(Killed) as killed:
        sim.run(
            DriftPlusPenaltyPolicy(v=50.0),
            SLOTS,
            checkpoint_every=1,
            checkpoint_sink=KillSwitch(3),
        )
    checkpoint = killed.value.checkpoint
    # Different memory budget → different fingerprint.
    other = SlotSimulator(
        system,
        arrivals,
        seed=0,
        qos=dc_replace(_qos(), memory_fraction=0.9),
    )
    with pytest.raises(CheckpointError, match="fingerprint"):
        other.run(DriftPlusPenaltyPolicy(v=50.0), SLOTS, resume_from=checkpoint)
    # Dropping QoS entirely must refuse too.
    bare = SlotSimulator(system, arrivals, seed=0)
    with pytest.raises(CheckpointError, match="fingerprint"):
        bare.run(DriftPlusPenaltyPolicy(v=50.0), SLOTS, resume_from=checkpoint)
    # Event path honours the same contract.
    esim = EventSimulator(system, arrivals, seed=0, qos=_qos())
    with pytest.raises(Killed) as killed:
        esim.run(
            DriftPlusPenaltyPolicy(v=50.0),
            SLOTS,
            checkpoint_every=1,
            checkpoint_sink=KillSwitch(3),
        )
    other_e = EventSimulator(
        system, arrivals, seed=0, qos=dc_replace(_qos(), cold_start_seconds=9.9)
    )
    with pytest.raises(CheckpointError, match="fingerprint"):
        other_e.run(
            DriftPlusPenaltyPolicy(v=50.0),
            SLOTS,
            resume_from=killed.value.checkpoint,
        )


def test_checkpoint_log_collects_cadence():
    system = random_fleet(1, N, max_arrivals=1.0)
    sim = SlotSimulator(system, _arrivals(system), seed=1)
    log = CheckpointLog()
    sim.run(
        DriftPlusPenaltyPolicy(v=50.0),
        SLOTS,
        checkpoint_every=3,
        checkpoint_sink=log,
    )
    assert [ck.slot for ck in log.checkpoints] == [3, 6, 9]
    assert log.latest.slot == 9
