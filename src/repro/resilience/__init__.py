"""Resilience: seeded fault injection, recovery policies, SLO accounting.

The wild edge does not just drift (PR 2's traces) — it *breaks*: uplinks
drop transfers, edge slices crash and take seconds to come back,
stragglers stall first blocks, and controllers act on stale telemetry.
This package makes those failures first-class and replayable:

* :mod:`~repro.resilience.faults` — :class:`FaultPlan`, a seeded,
  trace-composable schedule of realised fault events;
* :mod:`~repro.resilience.environment` — :class:`FaultyEnvironment`,
  replaying a plan through the slot simulator's ``devices_at`` /
  ``system_at`` seam (scalar and vectorized paths byte-identical);
* :mod:`~repro.resilience.recovery` — :class:`RecoveryPolicy` budgets
  (deadline / bounded exponential-backoff retries / local fallback) and
  the :class:`ResilientPolicy` control wrapper (dead-edge exclusion,
  telemetry watchdog);
* :mod:`~repro.resilience.slo` — time-to-recovery and the shared SLO
  summary block;
* :mod:`~repro.resilience.overload` — admission control
  (:class:`AdmissionGate`), backpressure, and the multi-exit degradation
  ladder (:class:`OverloadGovernor`), keeping every execution path
  inside its stability region under flash crowds;
* :mod:`~repro.resilience.qos` — QoS classes (:class:`QoSConfig`),
  the model-memory warm pool with seeded cold starts
  (:class:`QoSState`), and class-/cost-aware degradation planning
  (:meth:`QoSState.plan_modes`), so gold traffic keeps its deadline while
  batch absorbs the shedding;
* :mod:`~repro.resilience.control` — :class:`SlotController`, which
  makes each slot's ladder, QoS, backpressure and admission decisions
  once for every execution path.

The same plan drives the event simulator (``EventSimulator(faults=...)``)
and the live runtime (``LeimeRuntime.run(faults=...)``), so a chaos
scenario reproduces across every execution path from one seed.
"""

from .environment import FaultyEnvironment
from .faults import (
    FAULT_CHANNELS,
    FaultPlan,
    FaultPlanError,
    FaultPlanSpec,
    attach_faults,
    canonical_outage_plan,
    extract_faults,
    generate_fault_plan,
    load_fault_plan,
    plans_equal,
    save_fault_plan,
)
from .overload import (
    MODE_FIRST_EXIT,
    MODE_FULL,
    MODE_NAMES,
    MODE_SECOND_EXIT,
    MODE_SHED,
    AdmissionGate,
    OverloadControl,
    OverloadGovernor,
    apply_backpressure,
    clamp_queues,
    degrade_partition,
    degraded_exit_params,
)
from .qos import (
    DEFAULT_CLASSES,
    QoSClass,
    QoSConfig,
    QoSFlow,
    QoSState,
    apply_backpressure_by_mode,
    assign_classes,
    class_counts,
    class_identity_gaps,
    class_summary,
    degrade_system_by_modes,
    drain_stranded_edge_by_mode,
    partition_footprint,
)
from .control import SlotController
from .recovery import RecoveryPolicy, ResilientPolicy, resolve_recovery
from .slo import slo_summary, time_to_recovery

__all__ = [
    "FAULT_CHANNELS",
    "MODE_FIRST_EXIT",
    "MODE_FULL",
    "MODE_NAMES",
    "MODE_SECOND_EXIT",
    "MODE_SHED",
    "AdmissionGate",
    "DEFAULT_CLASSES",
    "FaultPlan",
    "FaultPlanError",
    "FaultPlanSpec",
    "FaultyEnvironment",
    "OverloadControl",
    "OverloadGovernor",
    "QoSClass",
    "QoSConfig",
    "QoSFlow",
    "QoSState",
    "RecoveryPolicy",
    "ResilientPolicy",
    "SlotController",
    "apply_backpressure",
    "apply_backpressure_by_mode",
    "assign_classes",
    "attach_faults",
    "canonical_outage_plan",
    "clamp_queues",
    "class_counts",
    "class_identity_gaps",
    "class_summary",
    "degrade_partition",
    "degrade_system_by_modes",
    "degraded_exit_params",
    "drain_stranded_edge_by_mode",
    "extract_faults",
    "generate_fault_plan",
    "load_fault_plan",
    "partition_footprint",
    "plans_equal",
    "resolve_recovery",
    "save_fault_plan",
    "slo_summary",
    "time_to_recovery",
]
