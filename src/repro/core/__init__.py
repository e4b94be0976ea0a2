"""LEIME's two contributions: exit setting and online task offloading.

* :mod:`repro.core.exit_setting` — the model-level contribution (§III-C):
  the expected-latency cost ``T(E)`` of an exit triple and the
  branch-and-bound search that minimises it in ``O(m log m)``.
* :mod:`repro.core.offloading` — the computation-level contribution
  (§III-D): the per-slot cost model, Lyapunov queues, and the decentralized
  drift-plus-penalty offloading policies.
* :mod:`repro.core.resource_allocation` — the KKT edge-compute allocation of
  Appendix B.
* :mod:`repro.core.baselines` — the paper's comparison systems (DDNN,
  Neurosurgeon, Edgent) and ablation strategies.
* :mod:`repro.core.leime` — the glued-together controller.
"""

from .exit_setting import (
    AverageEnvironment,
    ExitCostModel,
    ExitSettingResult,
    branch_and_bound_exit_setting,
    brute_force_exit_setting,
)
from .resource_allocation import (
    floored_edge_allocation,
    kkt_edge_allocation,
    proportional_allocation,
    uniform_allocation,
)
from .offloading import (
    DeviceConfig,
    DeviceSlotCost,
    EdgeSystem,
    LyapunovState,
    OffloadingPolicy,
    BalanceOffloadingPolicy,
    DriftPlusPenaltyPolicy,
    FixedRatioPolicy,
    CapabilityBasedPolicy,
    feasible_ratio_interval,
    slot_cost,
)
from .vectorized import (
    BatchSlotCost,
    FleetParams,
    FleetState,
    VectorizedSlotEngine,
    feasible_ratio_intervals,
    slot_cost_batch,
)
from .baselines import (
    ddnn_exit_setting,
    edgent_exit_setting,
    mean_exit_setting,
    min_comp_exit_setting,
    min_tran_exit_setting,
    neurosurgeon_partition,
)
from .leime import LeimeController
from .centralized import CentralizedDriftPlusPenaltyPolicy
from .heterogeneous import heterogeneous_system, plan_per_class
from .adaptation import AdaptiveExitController, ExitRateEstimator

__all__ = [
    "AverageEnvironment",
    "ExitCostModel",
    "ExitSettingResult",
    "branch_and_bound_exit_setting",
    "brute_force_exit_setting",
    "kkt_edge_allocation",
    "floored_edge_allocation",
    "proportional_allocation",
    "uniform_allocation",
    "DeviceConfig",
    "DeviceSlotCost",
    "EdgeSystem",
    "LyapunovState",
    "OffloadingPolicy",
    "BalanceOffloadingPolicy",
    "DriftPlusPenaltyPolicy",
    "FixedRatioPolicy",
    "CapabilityBasedPolicy",
    "feasible_ratio_interval",
    "slot_cost",
    "BatchSlotCost",
    "FleetParams",
    "FleetState",
    "VectorizedSlotEngine",
    "feasible_ratio_intervals",
    "slot_cost_batch",
    "ddnn_exit_setting",
    "edgent_exit_setting",
    "mean_exit_setting",
    "min_comp_exit_setting",
    "min_tran_exit_setting",
    "neurosurgeon_partition",
    "LeimeController",
    "CentralizedDriftPlusPenaltyPolicy",
    "heterogeneous_system",
    "plan_per_class",
    "AdaptiveExitController",
    "ExitRateEstimator",
]
