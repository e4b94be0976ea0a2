"""The named policy registry behind ``repro policy list`` and the
tournament harness.

Every offloading policy in the repo — the paper's controllers, the
naive baselines, the resilience wrapper, and the learned zoo — is
registered here under a stable CLI-friendly name.  Registration stores
a *factory*, not an instance: policies may be stateful (slot cursors,
learned tables, private RNG streams), so every tournament cell, CLI
run, and conformance test builds a fresh instance via
:func:`build_policy` and never shares state across runs.

Factories receive the keyword context of :func:`build_policy` (``v``,
``seed``, ``vectorized``) and are free to ignore the parts they do not
use; the built object must satisfy the runtime-checkable
:class:`~repro.core.offloading.OffloadingPolicy` protocol or
registration is considered broken and :func:`build_policy` raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.offloading import (
    BalanceOffloadingPolicy,
    CapabilityBasedPolicy,
    DriftPlusPenaltyPolicy,
    FixedRatioPolicy,
    OffloadingPolicy,
)
from ..resilience.faults import FaultPlan
from ..resilience.recovery import RecoveryPolicy, ResilientPolicy
from .bandit import ExitBanditPolicy
from .probabilistic import ProbabilisticPolicy
from .tabular import TabularQPolicy


@dataclass(frozen=True)
class PolicySpec:
    """One registry entry: how to build a policy and how to present it."""

    name: str
    factory: Callable[..., OffloadingPolicy]
    description: str
    kind: str  # "paper" | "baseline" | "wrapper" | "learned"


_REGISTRY: dict[str, PolicySpec] = {}


def register_policy(
    name: str,
    factory: Callable[..., OffloadingPolicy],
    description: str,
    kind: str = "custom",
    *,
    replace: bool = False,
) -> PolicySpec:
    """Register ``factory`` under ``name``; returns the stored spec.

    Re-registering an existing name requires ``replace=True`` so a typo
    cannot silently shadow a built-in entry.
    """
    if not name or name != name.strip():
        raise ValueError(f"policy name {name!r} must be non-empty and trimmed")
    if name in _REGISTRY and not replace:
        raise ValueError(f"policy {name!r} already registered")
    spec = PolicySpec(name=name, factory=factory, description=description, kind=kind)
    _REGISTRY[name] = spec
    return spec


def policy_names() -> tuple[str, ...]:
    """All registered names, sorted for stable CLI/tournament ordering."""
    return tuple(sorted(_REGISTRY))


def policy_spec(name: str) -> PolicySpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(policy_names())
        raise ValueError(f"unknown policy {name!r}; registered: {known}") from None


def build_policy(
    name: str,
    *,
    v: float = 50.0,
    seed: int = 0,
    vectorized: bool = False,
) -> OffloadingPolicy:
    """Build a fresh instance of the registered policy ``name``.

    ``v`` parameterises every cost-model-driven policy the same way so a
    tournament compares controllers, not tunings; ``seed`` feeds
    policy-private exploration RNGs; ``vectorized`` opts Balance into its
    batched bisection (decisions pinned identical by the differential
    harness).  LEIME's DPP policy always decides in one batched call, so
    the flag does not reach it.
    """
    policy = policy_spec(name).factory(v=v, seed=seed, vectorized=vectorized)
    if not isinstance(policy, OffloadingPolicy):
        raise TypeError(
            f"factory for {name!r} built {type(policy).__name__}, which does "
            "not implement the OffloadingPolicy protocol"
        )
    return policy


def reset_policy(policy: OffloadingPolicy) -> None:
    """Rewind a policy's internal state if it carries any (no-op for
    stateless policies) — the hook tournament cells call between runs."""
    reset = getattr(policy, "reset", None)
    if callable(reset):
        reset()


def healthy_fault_plan() -> FaultPlan:
    """A minimal all-healthy plan for the standalone resilient wrapper.

    :class:`~repro.resilience.recovery.ResilientPolicy` requires a plan;
    outside the plan's (single, fault-free) slot the accessors report a
    healthy world, so this wrapper adds dead-edge exclusion and the
    telemetry watchdog as *capabilities* without scheduling any faults.
    Scenario runs that want real faults pass their plan through
    ``EventSimulator(faults=..., recovery=...)``, which wraps the inner
    policy itself.
    """
    zeros = np.zeros((1, 1))
    return FaultPlan(
        uplink_drop=zeros,
        uplink_corrupt=zeros.copy(),
        edge_down=np.zeros(1),
        straggler=np.ones((1, 1)),
        telemetry_stale=np.zeros(1),
        meta={"generator": "healthy"},
    )


def _register_builtins() -> None:
    register_policy(
        "leime",
        lambda *, v=50.0, **_: DriftPlusPenaltyPolicy(v=v),
        "drift-plus-penalty exact minimisation of Eq. 19 (the paper's LEIME)",
        kind="paper",
    )
    register_policy(
        "balance",
        lambda *, vectorized=False, **_: BalanceOffloadingPolicy(
            vectorized=vectorized
        ),
        "closed-form balance rule T_d(x) = T_e(x) (Eq. 20 discussion)",
        kind="paper",
    )
    register_policy(
        "device-only",
        lambda **_: FixedRatioPolicy(0.0),
        "never offload: every first block runs on the device",
        kind="baseline",
    )
    register_policy(
        "edge-only",
        lambda **_: FixedRatioPolicy(1.0),
        "always offload: every first block runs on the edge slice",
        kind="baseline",
    )
    register_policy(
        "cap-based",
        lambda **_: CapabilityBasedPolicy(),
        "static split proportional to where the compute sits (Test Case 4)",
        kind="baseline",
    )
    register_policy(
        "resilient-leime",
        lambda *, v=50.0, **_: ResilientPolicy(
            inner=DriftPlusPenaltyPolicy(v=v),
            plan=healthy_fault_plan(),
            recovery=RecoveryPolicy.default(),
        ),
        "LEIME under the fault-aware wrapper (dead-edge exclusion, watchdog)",
        kind="wrapper",
    )
    register_policy(
        "probabilistic",
        lambda **_: ProbabilisticPolicy(),
        "rate-solved (p_local, p_edge, p_drop) vectors, faas-offloading-sim style",
        kind="learned",
    )
    register_policy(
        "bandit",
        lambda *, v=50.0, **_: ExitBanditPolicy(v=v),
        "contextual UCB over split settings with channel context (SplitEE spirit)",
        kind="learned",
    )
    register_policy(
        "tabular-q",
        lambda *, v=50.0, seed=0, **_: TabularQPolicy(v=v, seed=seed),
        "tabular Q-learning over (queue, bandwidth, capacity) buckets",
        kind="learned",
    )


_register_builtins()
