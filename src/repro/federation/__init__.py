"""Multi-edge federation: E edge clusters under a sharded control plane.

The paper's deployment has a single shared edge server; this package
scales it out to a federation of edge sites sharing one cloud.  The
design is *composition over modification*: every control decision —
device→edge assignment, saturation spill, churn, failover migration,
partial outages — is realised up front as plan data (the repo's
"failures as data" idiom), and each edge's shard then runs through the
existing, already-verified engines unchanged:

* :mod:`~repro.federation.topology` — sites, the global device
  population, per-edge KKT shard construction.
* :mod:`~repro.federation.assignment` — the ``(S, N)`` assignment plan
  and its seeded builder (nearest home, spill, churn, failover).
* :mod:`~repro.federation.faults` — ``(S, E)`` partial-outage schedules
  slicing into ordinary per-shard fault plans.
* :mod:`~repro.federation.fluid` — the sharded fluid paths (scalar and
  vectorized) under a thin coordinator.
* :mod:`~repro.federation.events` — per-edge task-level simulation on
  both event engines.
* :mod:`~repro.federation.runtime` — one live runtime per edge.
* :mod:`~repro.federation.slo` — per-edge SLO accounting with the
  NaN-on-empty convention.

A single-edge federation is byte-identical to the corresponding
single-edge run on all five execution paths
(`tests/test_federation_conformance.py`).
"""

from .assignment import (
    ASSIGNMENT_CHANNEL,
    AssignmentPlan,
    assignment_from_trace,
    build_assignment_plan,
)
from .events import (
    FederatedEventResult,
    FederatedEventSimulator,
    MaskedArrivals,
)
from .faults import (
    FederationFaultPlan,
    canonical_partial_outage,
    lift_fault_plan,
)
from .fluid import FederatedFluidResult, FederatedSlotSimulator
from .runtime import FederatedRuntime
from .slo import federated_fluid_summary, federated_slo_summary
from .topology import (
    SHARD_SEED_STRIDE,
    EdgeSite,
    FederationTopology,
    random_federation,
    single_edge_topology,
)

__all__ = [
    "ASSIGNMENT_CHANNEL",
    "AssignmentPlan",
    "EdgeSite",
    "FederatedEventResult",
    "FederatedEventSimulator",
    "FederatedFluidResult",
    "FederatedRuntime",
    "FederatedSlotSimulator",
    "FederationFaultPlan",
    "FederationTopology",
    "MaskedArrivals",
    "SHARD_SEED_STRIDE",
    "assignment_from_trace",
    "build_assignment_plan",
    "canonical_partial_outage",
    "federated_fluid_summary",
    "federated_slo_summary",
    "lift_fault_plan",
    "random_federation",
    "single_edge_topology",
]
