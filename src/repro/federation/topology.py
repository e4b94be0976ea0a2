"""Multi-edge federation topology: E edge clusters sharing one cloud.

The paper deploys one shared edge server (§II); the roadmap's
production-scale target needs a *fleet* of them.  A
:class:`FederationTopology` describes E :class:`EdgeSite` clusters — each
with its own capacity ``F^e_k``, edge→cloud backhaul, and per-task
overhead — plus the global device population with planar positions for
nearest-edge assignment.

Federation is built by **composition**: given a device→edge assignment
(see :mod:`repro.federation.assignment`), :meth:`FederationTopology.
build_shard` materialises each edge's member devices as an ordinary
:class:`~repro.core.offloading.EdgeSystem` whose shares are the per-edge
KKT water-filling of Appendix B (``EdgeSystem``'s default
:func:`~repro.core.resource_allocation.floored_edge_allocation` over the
members against *that edge's* capacity, solved on the members' rows of
the topology's FLOPS and mean-arrival columns, which are read once).
Every existing execution path —
fluid scalar/vectorized, both event engines, the live runtime — then runs
each shard unchanged, which is what makes the E=1 conformance contract
(`tests/test_federation_conformance.py`) hold byte-identically: a
single-edge federation builds exactly the original system and consumes
exactly the original RNG streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from operator import itemgetter
from typing import Sequence

import numpy as np

from ..core.offloading import DeviceConfig, EdgeSystem, LiveFleet
from ..core.resource_allocation import floored_edge_allocation
from ..hardware import (
    EDGE_I7_3770,
    INTERNET_EDGE_CLOUD,
    NetworkProfile,
    RASPBERRY_PI_3B,
)
from ..models.multi_exit import PartitionedModel
from ..units import mbps, ms

def _gather(values: tuple, members: list[int]) -> tuple:
    """The entries of ``values`` at the (non-empty) ``members``, as a
    tuple, in one C-level pass."""
    picked = itemgetter(*members)(values)
    return picked if len(members) > 1 else (picked,)


#: Seed stride between edge shards: shard ``e`` of a seed-``s`` federated
#: run uses ``s + SHARD_SEED_STRIDE·e``.  Edge 0 keeps the base seed, so a
#: single-edge federation replays the original run's RNG streams exactly.
SHARD_SEED_STRIDE = 7919


@dataclass(frozen=True)
class EdgeSite:
    """One edge cluster of the federation.

    Attributes:
        name: Unique site name (CLI tables, summaries).
        edge_flops: ``F^e_k`` — this cluster's total throughput.
        edge_cloud: This cluster's backhaul hop to the shared cloud.
        position: Planar coordinates for nearest-edge assignment.
        edge_overhead: Per-task framework overhead on this edge, seconds.
        backhaul_latency: Extra one-way propagation (seconds) a device
            homed at a *different* site pays to reach this edge — the
            metro backhaul hop an offloaded/migrated member traverses on
            top of its access link.  Applied as a latency term on the
            member's device↔edge hop (not a capacity scalar), so every
            transfer of a non-home member pays it per attempt, on both
            event engines identically.  Home members never pay it.
    """

    name: str
    edge_flops: float
    edge_cloud: NetworkProfile
    position: tuple[float, float] = (0.0, 0.0)
    edge_overhead: float = 0.0
    backhaul_latency: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("site name must be non-empty")
        # Chained comparisons are False for NaN, so NaN fails too.
        if not 0 < self.edge_flops < math.inf:
            raise ValueError("edge FLOPS must be finite and positive")
        if not 0 <= self.edge_overhead < math.inf:
            raise ValueError("edge overhead must be finite and non-negative")
        if not 0 <= self.backhaul_latency < math.inf:
            raise ValueError("backhaul latency must be finite and non-negative")
        if not all(-math.inf < p < math.inf for p in self.position):
            raise ValueError("site position must be finite")

    def distance_to(self, position: tuple[float, float]) -> float:
        return math.hypot(
            self.position[0] - position[0], self.position[1] - position[1]
        )


@dataclass(frozen=True)
class FederationTopology:
    """E edge clusters, one cloud, and the global device population.

    Attributes:
        sites: The edge clusters (≥ 1; unique names).
        devices: The fleet, in global device order.  Per-edge shards
            preserve this order within their member subset, so shard
            results scatter back into global order deterministically.
        partition: The deployed ME-DNN partition (shared fleet-wide, as
            in the paper).
        cloud_flops: ``F^c`` of the single shared cloud.
        device_positions: Planar coordinates per device for nearest-edge
            assignment; empty means every device sits at the origin (all
            home to the first site — the single-edge degenerate case).
        slot_length: τ in seconds, shared by every shard.
        cloud_overhead: Per-task overhead on the cloud, seconds.
        device_partitions: Optional per-device partitions (the
            heterogeneous extension), global order like ``devices``.
    """

    sites: tuple[EdgeSite, ...]
    devices: tuple[DeviceConfig, ...]
    partition: PartitionedModel
    cloud_flops: float
    device_positions: tuple[tuple[float, float], ...] = ()
    slot_length: float = 1.0
    cloud_overhead: float = 0.0
    device_partitions: tuple[PartitionedModel, ...] = ()

    def __post_init__(self) -> None:
        if not self.sites:
            raise ValueError("need at least one edge site")
        if not self.devices:
            raise ValueError("need at least one device")
        names = [s.name for s in self.sites]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate site names in {names}")
        if self.cloud_flops <= 0:
            raise ValueError("cloud FLOPS must be positive")
        if self.slot_length <= 0:
            raise ValueError("slot length must be positive")
        if self.device_positions and len(self.device_positions) != len(
            self.devices
        ):
            raise ValueError("device_positions must match devices")
        if self.device_partitions and len(self.device_partitions) != len(
            self.devices
        ):
            raise ValueError("device_partitions must match devices")

    @property
    def num_edges(self) -> int:
        return len(self.sites)

    @property
    def num_devices(self) -> int:
        return len(self.devices)

    def position_of(self, device: int) -> tuple[float, float]:
        if self.device_positions:
            return self.device_positions[device]
        return (0.0, 0.0)

    def home_assignment(self) -> tuple[int, ...]:
        """Nearest-site home edge per device (ties → lower site index)."""
        homes = []
        for i in range(self.num_devices):
            position = self.position_of(i)
            best, best_distance = 0, math.inf
            for e, site in enumerate(self.sites):
                distance = site.distance_to(position)
                if distance < best_distance - 1e-12:
                    best, best_distance = e, distance
            homes.append(best)
        return tuple(homes)

    def nearest_alive(
        self, device: int, alive: Sequence[int]
    ) -> int | None:
        """The nearest site among ``alive`` edge indices (failover
        target; ties → lower index), or ``None`` when nothing is alive."""
        position = self.position_of(device)
        best: int | None = None
        best_distance = math.inf
        for e in alive:
            distance = self.sites[e].distance_to(position)
            if distance < best_distance - 1e-12:
                best, best_distance = e, distance
        return best

    @cached_property
    def fleet(self) -> LiveFleet:
        """The devices' FLOPS, link and overhead columns, read once: the
        rows each shard gathers."""
        return LiveFleet.of(self.devices)

    @cached_property
    def mean_arrivals(self) -> np.ndarray:
        """Each device's ``k_i``, read once, for the shards' shares."""
        return np.array([d.mean_arrivals for d in self.devices], dtype=np.float64)

    def shard_seed(self, seed: int, edge: int) -> int:
        """The RNG seed edge ``edge``'s shard derives from a base run
        seed (stride :data:`SHARD_SEED_STRIDE`; edge 0 keeps ``seed``)."""
        return seed + SHARD_SEED_STRIDE * edge

    def build_shard(
        self, edge: int, members: Sequence[int], homes: Sequence[int] | None = None
    ) -> EdgeSystem:
        """The :class:`EdgeSystem` edge ``edge`` runs for ``members``.

        Shares are ``EdgeSystem``'s default — the floored KKT allocation
        of Appendix B over the member devices against this site's
        capacity, i.e. per-edge resource allocation — solved on the
        members' rows of :attr:`fleet` and :attr:`mean_arrivals`, so a
        new member set reads no config attribute.  ``members`` must be
        ascending global device indices (a sequence or an integer
        array); the shard preserves that order.

        ``homes`` (per global device, usually :meth:`home_assignment`)
        enables the site's ``backhaul_latency`` term: members homed
        elsewhere get it added to their device↔edge link latency.  With
        ``homes=None`` (or a zero-latency site) the shard is built from
        the devices verbatim, preserving the E=1 identity contract.
        """
        if not 0 <= edge < self.num_edges:
            raise ValueError(f"edge must be in [0, {self.num_edges})")
        index = np.asarray(members, dtype=np.intp)
        if not index.size:
            raise ValueError("a shard needs at least one member device")
        if (index[1:] <= index[:-1]).any():
            raise ValueError("members must be ascending unique indices")
        if index[0] < 0 or index[-1] >= self.num_devices:
            raise ValueError("member index out of range")
        members = index.tolist()
        site = self.sites[edge]
        devices = _gather(self.devices, members)
        if homes is not None and site.backhaul_latency != 0.0:
            devices = [
                device
                if homes[i] == edge
                else replace(
                    device,
                    link=NetworkProfile(
                        bandwidth=device.link.bandwidth,
                        latency=device.link.latency + site.backhaul_latency,
                    ),
                )
                for i, device in zip(members, devices)
            ]
        return EdgeSystem(
            devices=tuple(devices),
            edge_flops=site.edge_flops,
            cloud_flops=self.cloud_flops,
            edge_cloud=site.edge_cloud,
            partition=self.partition,
            slot_length=self.slot_length,
            shares=tuple(
                floored_edge_allocation(
                    self.fleet.flops[index],
                    self.mean_arrivals[index],
                    site.edge_flops,
                )
            ),
            edge_overhead=site.edge_overhead,
            cloud_overhead=self.cloud_overhead,
            device_partitions=_gather(self.device_partitions, members)
            if self.device_partitions
            else (),
        )


def single_edge_topology(system: EdgeSystem) -> FederationTopology:
    """Wrap an existing single-edge :class:`EdgeSystem` as an E=1
    federation.

    ``build_shard(0, range(N))`` of the result reconstructs ``system``
    field-for-field (shares included, since both run the same default
    KKT allocation over the same members) — the anchor of the E=1
    conformance suite.  Systems with hand-set non-KKT shares are not
    representable; federation always allocates per-edge KKT shares.
    """
    return FederationTopology(
        sites=(
            EdgeSite(
                name="edge-0",
                edge_flops=system.edge_flops,
                edge_cloud=system.edge_cloud,
                edge_overhead=system.edge_overhead,
            ),
        ),
        devices=system.devices,
        partition=system.partition,
        cloud_flops=system.cloud_flops,
        slot_length=system.slot_length,
        cloud_overhead=system.cloud_overhead,
        device_partitions=system.device_partitions,
    )


def random_federation(
    seed: int,
    num_edges: int,
    num_devices: int,
    partition: PartitionedModel,
    max_arrivals: float = 2.0,
    cloud_flops: float | None = None,
) -> FederationTopology:
    """A seeded random federation in the paper's wild ranges (§II-A).

    Sites sit on the unit circle with capacities 0.5-2× an i7-3770 edge;
    devices scatter uniformly in the unit square with Pi-to-Jetson-class
    throughput, 1-30 Mbps / 10-200 ms uplinks, and per-slot arrival
    means in ``[0.1, max_arrivals]``.  Deterministic in ``seed``.
    """
    if num_edges < 1 or num_devices < 1:
        raise ValueError("need at least one edge and one device")
    rng = np.random.default_rng(seed)
    sites = tuple(
        EdgeSite(
            name=f"edge-{e}",
            edge_flops=EDGE_I7_3770.flops * float(rng.uniform(0.5, 2.0)),
            edge_cloud=NetworkProfile(
                mbps(float(rng.uniform(20.0, 100.0))),
                ms(float(rng.uniform(10.0, 60.0))),
            ),
            position=(
                0.5 + 0.5 * math.cos(2 * math.pi * e / num_edges),
                0.5 + 0.5 * math.sin(2 * math.pi * e / num_edges),
            ),
        )
        for e in range(num_edges)
    )
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
        for i in range(num_devices)
    )
    positions = tuple(
        (float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 1.0)))
        for _ in range(num_devices)
    )
    from ..hardware import CLOUD_V100

    return FederationTopology(
        sites=sites,
        devices=devices,
        partition=partition,
        cloud_flops=cloud_flops if cloud_flops is not None else CLOUD_V100.flops,
        device_positions=positions,
    )
