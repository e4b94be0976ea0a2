"""Device→edge assignment: the federation's pre-realised control plane.

Following the repo's "failures as data" idiom (fault plans are realised
(S, N) arrays, not online coin flips), every federation control decision
— home assignment, saturation spill, churn, failover migration — is
computed up front into an :class:`AssignmentPlan`: an ``(S, N)`` integer
matrix mapping each device to its serving edge per slot.  All five
execution paths then *replay* the same plan, which is what makes
federated runs byte-identical across paths and trivially seeded.

:func:`build_assignment_plan` composes four deterministic stages:

1. **Nearest home** — each device homes to its nearest site.
2. **Saturation spill** (edge-peer offloading) — while an edge's
   utilisation exceeds ``saturation`` × the federation mean, its
   hungriest member spills to the least-utilised peer.
3. **Sticky churn** — with rate ``churn_per_100`` per device per 100
   slots, a device re-homes to a seeded random other edge and stays.
4. **Failover migration** — during a per-edge outage window
   (``outages[t, e]``), members of a dead edge are rewritten to the
   nearest alive site for exactly the down slots (they return home when
   the edge recovers); with ``migrate=False`` they stay pointed at the
   dead edge, which is the no-failover baseline the
   ``fig_federation`` demo contrasts.

The plan also round-trips through the trace schema as an
``edge_assignment`` per-device channel column
(:meth:`AssignmentPlan.to_channel` / :func:`assignment_from_trace`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np

from ..traces.schema import Trace, TraceChannel
from .topology import FederationTopology

#: Channel name under which a plan serialises into a trace.
ASSIGNMENT_CHANNEL = "edge_assignment"


@dataclass(frozen=True)
class AssignmentPlan:
    """A realised ``(S, N)`` device→edge schedule.

    Attributes:
        matrix: ``matrix[t, i]`` is the edge serving device ``i`` during
            slot ``t``.  Slots past the horizon clamp to the last row
            (drain phases generate no new tasks, so the clamp only
            affects bookkeeping lookups).
        num_edges: Federation width ``E``; every entry is in ``[0, E)``.
        meta: Free-form provenance (builder knobs, seed).
    """

    matrix: np.ndarray
    num_edges: int
    meta: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        matrix = np.asarray(self.matrix, dtype=np.intp)
        object.__setattr__(self, "matrix", matrix)
        if matrix.ndim != 2 or matrix.shape[0] == 0 or matrix.shape[1] == 0:
            raise ValueError(
                f"matrix needs a non-empty (S, N) shape, got {matrix.shape}"
            )
        if self.num_edges < 1:
            raise ValueError("need at least one edge")
        if matrix.min() < 0 or matrix.max() >= self.num_edges:
            raise ValueError(
                f"assignment entries must be in [0, {self.num_edges})"
            )
        object.__setattr__(self, "meta", dict(self.meta))

    @property
    def num_slots(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def num_devices(self) -> int:
        return int(self.matrix.shape[1])

    @property
    def static(self) -> bool:
        """True when no device ever changes edge."""
        return bool((self.matrix == self.matrix[0]).all())

    def row(self, slot: int) -> np.ndarray:
        """The assignment in effect during ``slot`` (clamped past the
        horizon)."""
        if slot < 0:
            raise ValueError("slot must be non-negative")
        return self.matrix[min(slot, self.num_slots - 1)]

    def members(self, slot: int, edge: int) -> np.ndarray:
        """Ascending global indices of the devices edge ``edge`` serves
        during ``slot``."""
        return np.flatnonzero(self.row(slot) == edge)

    def member_union(self, edge: int) -> tuple[int, ...]:
        """Every device ever assigned to ``edge`` (ascending) — the
        shard's device set for the event/runtime paths."""
        return tuple(
            int(i) for i in np.flatnonzero((self.matrix == edge).any(axis=0))
        )

    def slot_mask(self, edge: int, device: int) -> tuple[bool, ...]:
        """Per-slot membership of ``device`` at ``edge`` — the arrival
        mask the event paths wrap around the device's arrival process.
        Masks over all edges partition the slot axis (each slot's demand
        is generated at exactly one edge), which is the no-loss /
        no-duplication half of migration conservation."""
        return tuple(bool(v) for v in self.matrix[:, device] == edge)

    def epochs(self) -> Iterator[tuple[int, int, np.ndarray]]:
        """Maximal constant-assignment slot ranges ``(start, stop, row)``
        — the granularity at which the fluid coordinator re-shards."""
        start = 0
        for slot in range(1, self.num_slots):
            if not (self.matrix[slot] == self.matrix[start]).all():
                yield start, slot, self.matrix[start]
                start = slot
        yield start, self.num_slots, self.matrix[start]

    def migrations(self) -> tuple[tuple[int, int, int, int], ...]:
        """Every ``(slot, device, src, dst)`` re-assignment event."""
        moves = []
        for slot in range(1, self.num_slots):
            changed = np.flatnonzero(self.matrix[slot] != self.matrix[slot - 1])
            for i in changed:
                moves.append(
                    (
                        slot,
                        int(i),
                        int(self.matrix[slot - 1, i]),
                        int(self.matrix[slot, i]),
                    )
                )
        return tuple(moves)

    # -- trace round-trip ---------------------------------------------------

    def to_channel(self) -> TraceChannel:
        """The plan as an ``edge_assignment`` per-device trace channel."""
        return TraceChannel(
            name=ASSIGNMENT_CHANNEL,
            values=self.matrix.astype(np.float64),
            units="edge index",
        )


def assignment_from_trace(
    trace: Trace, num_edges: int | None = None
) -> AssignmentPlan:
    """Rebuild an :class:`AssignmentPlan` from a trace carrying an
    ``edge_assignment`` channel (the inverse of
    :meth:`AssignmentPlan.to_channel`)."""
    channel = trace.channel(ASSIGNMENT_CHANNEL)
    values = channel.values
    if values.ndim != 2:
        raise ValueError("edge_assignment must be a per-device channel")
    if np.isnan(values).any() or (values != np.round(values)).any():
        raise ValueError("edge_assignment entries must be whole numbers")
    matrix = values.astype(np.intp)
    if num_edges is None:
        num_edges = int(matrix.max()) + 1
    return AssignmentPlan(
        matrix=matrix, num_edges=num_edges, meta=dict(trace.meta)
    )


def build_assignment_plan(
    topology: FederationTopology,
    num_slots: int,
    *,
    seed: int = 0,
    churn_per_100: float = 0.0,
    saturation: float | None = None,
    outages: np.ndarray | None = None,
    migrate: bool = True,
) -> AssignmentPlan:
    """Realise the seeded assignment policy over ``num_slots`` slots.

    Args:
        topology: The federation (site/device positions and capacities).
        num_slots: Plan horizon.
        seed: Seed for churn draws (stages 1, 2, 4 are RNG-free).
        churn_per_100: Expected re-homes per device per 100 slots, in
            ``[0, 100]`` (``churn_per_100 / 100`` is a per-slot
            probability).
        saturation: Spill threshold — an edge whose load-per-FLOPS
            exceeds ``saturation`` × the federation-wide mean sheds its
            hungriest member to the least-utilised peer until balanced.
            ``None`` (or a single-edge federation) disables spilling;
            otherwise it must be finite and positive.
        outages: ``(num_slots, E)`` 0/1 per-edge down mask (e.g.
            :attr:`~repro.federation.faults.FederationFaultPlan.
            edge_down`); drives stage 4.
        migrate: Rewrite members of a down edge to their nearest alive
            site for the outage slots.  ``False`` keeps them pointed at
            the dead edge — the no-failover baseline.
    """
    # Chained comparisons are False for NaN, so NaN fails too.
    if not 0 < num_slots < math.inf:
        raise ValueError("need a positive number of slots")
    n, num_edges = topology.num_devices, topology.num_edges
    if not 0 <= churn_per_100 <= 100:
        raise ValueError("churn_per_100 must be in [0, 100]")
    if saturation is not None and not 0 < saturation < math.inf:
        raise ValueError("saturation must be finite and positive")
    if outages is not None:
        outages = np.asarray(outages)
        if outages.shape != (num_slots, num_edges):
            raise ValueError(
                f"outages must have shape {(num_slots, num_edges)}, "
                f"got {outages.shape}"
            )

    home = np.array(topology.home_assignment(), dtype=np.intp)
    if saturation is not None and num_edges > 1:
        home = _spill_saturated(topology, home, saturation)
    matrix = np.tile(home, (num_slots, 1))

    if churn_per_100 > 0.0 and num_edges > 1:
        rng = np.random.default_rng(seed)
        p = churn_per_100 / 100.0
        for slot in range(1, num_slots):
            movers = np.flatnonzero(rng.random(n) < p)
            for i in movers:
                current = int(matrix[slot, i])
                # Draw among the E-1 other edges, skipping the current one.
                alt = int(rng.integers(0, num_edges - 1))
                if alt >= current:
                    alt += 1
                matrix[slot:, i] = alt  # sticky: the device re-homes

    if outages is not None and migrate:
        for slot in range(num_slots):
            down = np.flatnonzero(outages[slot] != 0)
            if down.size == 0:
                continue
            alive = [e for e in range(num_edges) if outages[slot, e] == 0]
            if not alive:
                continue  # nowhere to go: assignments stand
            down_set = set(int(e) for e in down)
            for i in range(n):
                if int(matrix[slot, i]) in down_set:
                    target = topology.nearest_alive(i, alive)
                    if target is not None:
                        matrix[slot, i] = target

    return AssignmentPlan(
        matrix=matrix,
        num_edges=num_edges,
        meta={
            "seed": seed,
            "churn_per_100": churn_per_100,
            "saturation": saturation,
            "migrate": migrate,
            "outages": outages is not None,
        },
    )


def _spill_saturated(
    topology: FederationTopology,
    home: np.ndarray,
    saturation: float,
) -> np.ndarray:
    """Edge-peer offloading: deterministically rebalance overloaded homes.

    Utilisation is expected load per FLOPS.  While the hottest edge
    exceeds ``saturation`` × the federation mean and still has more than
    one member, its member with the highest arrival rate (ties → lower
    index) moves to the least-utilised peer.  Bounded by N·E moves.
    """
    assignment = home.copy()
    rates = np.array([d.mean_arrivals for d in topology.devices])
    caps = np.array([s.edge_flops for s in topology.sites])
    mean_util = float(rates.sum() / caps.sum())
    if mean_util <= 0.0:
        return assignment
    for _ in range(len(assignment) * topology.num_edges):
        loads = np.array(
            [
                rates[assignment == e].sum()
                for e in range(topology.num_edges)
            ]
        )
        utils = loads / caps
        hot = int(utils.argmax())
        if utils[hot] <= saturation * mean_util:
            break
        members = np.flatnonzero(assignment == hot)
        if members.size <= 1:
            break
        mover = int(members[int(rates[members].argmax())])
        target = int(utils.argmin())
        if target == hot:
            break
        assignment[mover] = target
    return assignment
