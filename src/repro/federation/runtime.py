"""The federated live path: one :class:`LeimeRuntime` per edge cluster.

Each edge's shard (:func:`~repro.federation.events.task_shards`, the
builder the federated event simulator uses) deploys on its own live
threaded runtime (virtual clock, worker threads, two-stream RNG) with
the shard seed, the member devices and their backhaul, and
:class:`~repro.federation.events.MaskedArrivals` gating the global
arrival processes to the shard's assignment slots.  Shards run
sequentially — each owns its own virtual clock, so wall-clock ordering
between shards carries no meaning; only the per-shard control planes
(task id, device, offload decision) are reproducible, exactly as for the
single-edge runtime.

With one edge the shard *is* the original deployment: same system, same
seed, same arrival draws — the conformance suite pins the control planes
equal.
"""

from __future__ import annotations

import copy
import math
from typing import TYPE_CHECKING, Sequence

from ..core.offloading import OffloadingPolicy
from ..runtime.system import LeimeRuntime
from ..sim.arrivals import ArrivalProcess
from ..sim.events import EventSimResult
from ..sim.streaming import TaskLedger
from .assignment import AssignmentPlan
from .events import FederatedEventResult, check_federation, task_shards
from .faults import FederationFaultPlan
from .topology import FederationTopology

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..resilience.overload import OverloadControl
    from ..resilience.qos import QoSConfig
    from ..resilience.recovery import RecoveryPolicy


class FederatedRuntime:
    """Deploy a federation on live threads, one runtime per edge.

    Args:
        topology: The federation.
        policy: The per-slot offloading policy (deep-copied per shard —
            policies may carry per-run state).
        plan: The realised device→edge assignment.
        speedup: Virtual seconds per wall second, shared by all shards.
        seed: Base seed; shard ``e`` derives
            :meth:`~repro.federation.topology.FederationTopology.
            shard_seed`.
    """

    def __init__(
        self,
        topology: FederationTopology,
        policy: OffloadingPolicy,
        plan: AssignmentPlan,
        speedup: float = 200.0,
        seed: int = 0,
    ):
        check_federation(topology, plan)
        # Chained comparisons are False for NaN, so NaN fails too.
        if not 0 < speedup < math.inf:
            raise ValueError("speedup must be finite and positive")
        if not 0 <= seed < math.inf:
            raise ValueError("seed must be non-negative")
        self.topology = topology
        self.policy = policy
        self.plan = plan
        self.speedup = speedup
        self.seed = seed
        self._runtimes: list[LeimeRuntime] = []

    def run(
        self,
        arrivals: Sequence[ArrivalProcess],
        num_slots: int,
        drain_timeout: float = 30.0,
        faults: FederationFaultPlan | None = None,
        recovery: "RecoveryPolicy | None" = None,
        overload: "OverloadControl | None" = None,
        qos: "QoSConfig | None" = None,
    ) -> FederatedEventResult:
        """Run every shard live, sequentially, and collect the per-edge
        results.

        ``qos`` assigns classes over *global* device ids with the base
        seed (shard membership does not reshuffle anyone's class), then
        hands each shard the slice it serves via an explicit
        ``class_map`` — the same convention as the federated event and
        fluid wrappers.
        """
        results: list[EventSimResult] = []
        members_per_edge: list[tuple[int, ...]] = []
        shards = task_shards(
            self.topology,
            self.plan,
            arrivals,
            num_slots,
            self.seed,
            faults,
            recovery,
            qos,
        )
        for shard in shards:
            members_per_edge.append(shard.members)
            if shard.system is None:
                results.append(TaskLedger(streaming=False).result(0.0))
                continue
            runtime = LeimeRuntime(
                shard.system,
                copy.deepcopy(self.policy),
                speedup=self.speedup,
                seed=shard.seed,
            )
            self._runtimes.append(runtime)
            try:
                results.append(
                    runtime.run(
                        list(shard.arrivals),
                        num_slots=num_slots,
                        drain_timeout=drain_timeout,
                        faults=shard.faults,
                        recovery=shard.recovery,
                        overload=overload,
                        qos=shard.qos,
                    )
                )
            finally:
                runtime.shutdown()
        return FederatedEventResult(
            edge_results=tuple(results),
            edge_members=tuple(members_per_edge),
            plan=self.plan,
        )

    def shutdown(self) -> bool:
        """Shut down any shard runtimes still alive (idempotent)."""
        ok = True
        for runtime in self._runtimes:
            ok = runtime.shutdown() and ok
        self._runtimes.clear()
        return ok
