"""Engine auto-selection and checkpoint fingerprint hardening.

``engine="auto"`` is a pure wall-clock heuristic: it must resolve to the
scalar reference loop for small fleets (≤ ``AUTO_ENGINE_THRESHOLD``
devices) and can never change results, because the engines are per-task
identical.  Checkpoint fingerprints carry the metric mode, so a
checkpoint taken under one configuration refuses a silent resume under
another — resuming a record-mode run in streaming mode would otherwise
silently return a result with no tasks.
"""

from __future__ import annotations

import pytest

from repro.chaos import CheckpointError, Killed, KillSwitch
from repro.core.offloading import FixedRatioPolicy
from repro.sim.arrivals import PoissonArrivals
from repro.sim.events import (
    AUTO_ENGINE_THRESHOLD,
    EventSimulator,
    resolve_engine,
)
from repro.sim.simulator import SlotSimulator

from .helpers import random_fleet

SLOTS = 8
N = 3


def _arrivals(system):
    return [PoissonArrivals(d.mean_arrivals) for d in system.devices]


# -- auto resolution --------------------------------------------------------


@pytest.mark.parametrize("devices", [1, 10, 100, AUTO_ENGINE_THRESHOLD])
def test_small_fleets_resolve_to_scalar(devices: int) -> None:
    assert resolve_engine("auto", devices) == "scalar"


def test_large_fleets_resolve_to_fast() -> None:
    assert resolve_engine("auto", AUTO_ENGINE_THRESHOLD + 1) == "fast"


@pytest.mark.parametrize("engine", ["scalar", "fast"])
def test_concrete_engines_pass_through(engine: str) -> None:
    assert resolve_engine(engine, 10) == engine
    assert resolve_engine(engine, 10**6) == engine


@pytest.mark.parametrize("seed", range(3))
def test_auto_results_byte_identical_to_scalar(seed: int) -> None:
    """A small fleet under ``engine="auto"`` replays the scalar engine's
    run byte-for-byte — auto-selection is invisible in the results."""
    system = random_fleet(seed, N, max_arrivals=1.0)

    def run(engine: str):
        return EventSimulator(system, _arrivals(system), seed=seed).run(
            FixedRatioPolicy(0.5),
            SLOTS,
            drain_limit_factor=100.0,
            engine=engine,
        )

    auto, scalar = run("auto"), run("scalar")
    assert auto.tasks == scalar.tasks
    assert auto.horizon == scalar.horizon


def test_run_scheme_defaults_to_auto() -> None:
    import inspect

    from repro.experiments.common import run_scheme

    assert inspect.signature(run_scheme).parameters["engine"].default == "auto"


def test_unknown_engine_is_a_loud_error() -> None:
    system = random_fleet(0, N, max_arrivals=1.0)
    with pytest.raises(ValueError, match="engine"):
        EventSimulator(system, _arrivals(system), seed=0).run(
            FixedRatioPolicy(0.5), SLOTS, engine="turbo"
        )


# -- fingerprint hardening --------------------------------------------------


def _killed_checkpoint(run, kill_slot: int = 2):
    switch = KillSwitch(kill_slot)
    with pytest.raises(Killed) as killed:
        run(checkpoint_every=1, checkpoint_sink=switch)
    return killed.value.checkpoint


@pytest.mark.parametrize("engine", ["scalar", "fast"])
def test_event_resume_refuses_metric_mode_change(engine: str) -> None:
    system = random_fleet(1, N, max_arrivals=1.0)

    def run(metrics="records", **kwargs):
        return EventSimulator(system, _arrivals(system), seed=1).run(
            FixedRatioPolicy(0.5),
            SLOTS,
            drain_limit_factor=100.0,
            engine=engine,
            metrics=metrics,
            **kwargs,
        )

    checkpoint = _killed_checkpoint(run)
    with pytest.raises(CheckpointError):
        run(metrics="streaming", resume_from=checkpoint)
    # Same mode resumes fine.
    resumed = run(resume_from=checkpoint)
    assert resumed.tasks == run().tasks


def test_fluid_resume_refuses_metric_mode_change() -> None:
    system = random_fleet(2, N, max_arrivals=1.0)

    def run(metrics="records", **kwargs):
        return SlotSimulator(system, _arrivals(system), seed=2).run(
            FixedRatioPolicy(0.5), SLOTS, metrics=metrics, **kwargs
        )

    checkpoint = _killed_checkpoint(run)
    with pytest.raises(CheckpointError):
        run(metrics="streaming", resume_from=checkpoint)
