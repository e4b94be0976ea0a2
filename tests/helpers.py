"""Shared factories for the test suite (and ``bench_fleet_scale.py``).

Centralises the device/system construction that several test modules used
to copy-paste, plus the randomized-instance factories the differential and
property harnesses sweep over:

* :func:`make_device` / :func:`make_system` — the canonical 2-Pi fixture
  pieces (previously duplicated in ``test_offloading.py`` and
  ``conftest.py``);
* :func:`random_fleet` — a seeded random :class:`EdgeSystem` of ``n``
  devices drawn from the paper's "wild" ranges (§II-A: 1-30 Mbps,
  10-200 ms), optionally heterogeneous;
* :func:`random_environment` — a seeded random
  :class:`AverageEnvironment` for exit-setting property tests;
* :func:`random_queue_state` — a seeded random Lyapunov backlog vector.

Every factory is deterministic in its ``seed`` so failures reproduce from
the seed alone.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.core.exit_setting import AverageEnvironment
from repro.core.offloading import DeviceConfig, EdgeSystem, LyapunovState
from repro.hardware import (
    CLOUD_V100,
    EDGE_I7_3770,
    INTERNET_EDGE_CLOUD,
    NetworkProfile,
    RASPBERRY_PI_3B,
)
from repro.models.multi_exit import MultiExitDNN, PartitionedModel
from repro.models.exit_rates import ParametricExitCurve
from repro.models.zoo import build_model
from repro.units import mbps, ms


@lru_cache(maxsize=None)
def inception_partition(first: int = 5, second: int = 14) -> PartitionedModel:
    """The suite's workhorse partition: Inception v3 cut at (5, 14)."""
    return MultiExitDNN(build_model("inception-v3")).partition_at(first, second)


def make_device(
    bandwidth_mbps: float = 10.0,
    latency_ms: float = 20.0,
    arrivals: float = 0.5,
    flops: float = RASPBERRY_PI_3B.flops,
    name: str = "pi",
    overhead: float = RASPBERRY_PI_3B.per_task_overhead,
) -> DeviceConfig:
    """One Raspberry-Pi-class device on a configurable WiFi hop."""
    return DeviceConfig(
        name=name,
        flops=flops,
        link=NetworkProfile(mbps(bandwidth_mbps), ms(latency_ms)),
        mean_arrivals=arrivals,
        overhead=overhead,
    )


def make_system(
    partition: PartitionedModel | None = None,
    devices: tuple[DeviceConfig, ...] | None = None,
    **overrides,
) -> EdgeSystem:
    """The canonical small test system: 2 Pis behind an i7 edge and a V100
    cloud; any :class:`EdgeSystem` field can be overridden."""
    if partition is None:
        partition = inception_partition()
    if devices is None:
        devices = (make_device(name="pi-0"), make_device(name="pi-1"))
    settings = dict(
        devices=tuple(devices),
        edge_flops=EDGE_I7_3770.flops,
        cloud_flops=CLOUD_V100.flops,
        edge_cloud=INTERNET_EDGE_CLOUD,
        partition=partition,
    )
    settings.update(overrides)
    return EdgeSystem(**settings)


def random_fleet(
    seed: int,
    n: int,
    heterogeneous: bool = False,
    max_arrivals: float = 2.0,
) -> EdgeSystem:
    """A seeded random fleet of ``n`` devices in the paper's wild ranges.

    Device throughput spans Pi-class to Jetson-class (0.5-10× a Pi), links
    draw from 1-30 Mbps / 10-200 ms, per-slot arrival means from
    ``[0.1, max_arrivals]``.  ``heterogeneous=True`` additionally gives
    each device its own exit triple of the shared backbone.
    """
    rng = np.random.default_rng(seed)
    devices = tuple(
        DeviceConfig(
            name=f"dev-{i}",
            flops=RASPBERRY_PI_3B.flops * float(rng.uniform(0.5, 10.0)),
            link=NetworkProfile(
                mbps(float(rng.uniform(1.0, 30.0))),
                ms(float(rng.uniform(10.0, 200.0))),
            ),
            mean_arrivals=float(rng.uniform(0.1, max_arrivals)),
            overhead=float(rng.uniform(0.0, 0.1)),
        )
        for i in range(n)
    )
    device_partitions: tuple[PartitionedModel, ...] = ()
    if heterogeneous:
        me_dnn = MultiExitDNN(build_model("inception-v3"))
        m = me_dnn.num_exits
        cuts = []
        for _ in range(n):
            first = int(rng.integers(1, m - 2))
            second = int(rng.integers(first + 1, m))
            cuts.append(me_dnn.partition_at(first, second))
        device_partitions = tuple(cuts)
    return EdgeSystem(
        devices=devices,
        edge_flops=EDGE_I7_3770.flops * float(rng.uniform(0.5, 2.0)),
        cloud_flops=CLOUD_V100.flops,
        edge_cloud=INTERNET_EDGE_CLOUD,
        partition=inception_partition(),
        device_partitions=device_partitions,
    )


def profile_trace(profiles, num_devices: int):
    """A trace applying one :class:`NetworkProfile` per slot to every
    device: global link channels, widened to the fleet by an all-up
    churn mask."""
    from repro.traces.schema import Trace, TraceChannel

    return Trace(
        (
            TraceChannel("bandwidth", np.array([p.bandwidth for p in profiles])),
            TraceChannel("latency", np.array([p.latency for p in profiles])),
            TraceChannel("up", np.ones((len(profiles), num_devices))),
        )
    )


def random_federation_topology(
    seed: int,
    num_edges: int,
    n: int,
    max_arrivals: float = 2.0,
):
    """A seeded random federation of ``num_edges`` sites over ``n``
    devices on the suite's workhorse partition (wild ranges as
    :func:`random_fleet`)."""
    from repro.federation import random_federation

    return random_federation(
        seed=seed,
        num_edges=num_edges,
        num_devices=n,
        partition=inception_partition(),
        max_arrivals=max_arrivals,
    )


def static_home_plan(topology, num_slots: int):
    """The static nearest-home assignment plan (no spill/churn/failover)."""
    from repro.federation import build_assignment_plan

    return build_assignment_plan(topology, num_slots)


def single_edge_fixture(seed: int, n: int, num_slots: int):
    """The E=1 conformance fixture: a random fleet, its federation
    wrapper, and the static single-edge plan, as
    ``(system, topology, plan)``."""
    from repro.federation import build_assignment_plan, single_edge_topology

    system = random_fleet(seed, n)
    topology = single_edge_topology(system)
    plan = build_assignment_plan(topology, num_slots)
    return system, topology, plan


def random_environment(seed: int) -> AverageEnvironment:
    """A seeded random average-conditions row (the Table I quantities)."""
    rng = np.random.default_rng(seed)
    return AverageEnvironment(
        device_flops=RASPBERRY_PI_3B.flops * float(rng.uniform(0.3, 12.0)),
        edge_flops=EDGE_I7_3770.flops * float(rng.uniform(0.1, 1.0)),
        cloud_flops=CLOUD_V100.flops * float(rng.uniform(0.5, 2.0)),
        device_edge=NetworkProfile(
            mbps(float(rng.uniform(1.0, 30.0))),
            ms(float(rng.uniform(10.0, 200.0))),
        ),
        edge_cloud=NetworkProfile(
            mbps(float(rng.uniform(5.0, 100.0))),
            ms(float(rng.uniform(10.0, 100.0))),
        ),
        device_overhead=float(rng.uniform(0.0, 0.1)),
        edge_overhead=float(rng.uniform(0.0, 0.02)),
        cloud_overhead=float(rng.uniform(0.0, 0.01)),
    )


def random_exit_curve(seed: int) -> ParametricExitCurve:
    """A seeded random exit-rate curve."""
    rng = np.random.default_rng(seed)
    return ParametricExitCurve.from_complexity(float(rng.uniform(0.05, 0.95)))


def random_queue_state(seed: int, n: int, scale: float = 10.0) -> LyapunovState:
    """A seeded random backlog vector ``Θ = [Q, H]``."""
    rng = np.random.default_rng(seed)
    return LyapunovState(
        queue_local=[float(v) for v in rng.uniform(0.0, scale, n)],
        queue_edge=[float(v) for v in rng.uniform(0.0, scale, n)],
    )


def random_arrivals(seed: int, n: int, high: float = 3.0) -> list[float]:
    """Seeded random per-device arrival counts for one slot."""
    rng = np.random.default_rng(seed)
    return [float(v) for v in rng.uniform(0.0, high, n)]
