"""The chaos campaign: a seeded fuzzer over faults × engines × kill-points.

Each *case* is a small, fully-described configuration sampled
deterministically from ``(campaign seed, case index)`` — fleet size,
horizon, arrival model, policy, data-plane faults, control-plane faults,
overload, and a kill point.  :func:`run_case` executes the case on its
execution level and replays every invariant oracle against it:

* SLO conservation (``generated = completed + dropped + shed +
  in-flight`` at the task level, ``generated = admitted + shed`` fluid);
* cross-path conformance (fluid scalar vs vectorized byte-identical,
  event scalar vs fast per-task identical, per federated shard);
* determinism under reseed (an identical fresh run reproduces the first
  byte-for-byte);
* kill-at-slot-k + restore identity (checkpoint through a byte
  round-trip, resume, compare against the uninterrupted run);
* NaN sentinels over every raw record.

:func:`run_campaign` sweeps ``num_samples`` cases and emits a JSON
report (no wall-clock fields — the artefact is byte-reproducible from
the campaign seed) plus a markdown digest.  :func:`shrink_case` greedily
minimises a violating case — fewer slots, fewer devices, fault layers
stripped — while the violation persists, so a red campaign hands the
investigator the smallest reproducer, not the fuzzer's original draw.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterator, Mapping

import numpy as np

from .checkpoint import (
    Killed,
    KillSwitch,
    checkpoint_from_bytes,
    checkpoint_to_bytes,
    run_fingerprint,
)
from .control_faults import FencedController, canonical_coordinator_outage
from .oracles import (
    event_conservation,
    fluid_conservation,
    nan_sentinels,
    records_diff,
    tasks_diff,
)

#: Version stamp of the campaign report layout.
CAMPAIGN_SCHEMA_VERSION = 1

#: Execution levels the fuzzer samples over.
LEVELS = ("fluid", "event", "federated-event")

ARRIVAL_KINDS = ("poisson", "constant", "uniform")
POLICY_KINDS = ("dpp", "balance", "fixed")


@dataclass(frozen=True)
class ChaosSpec:
    """Campaign knobs.  Every case is a pure function of
    ``(seed, index)``, so two campaigns with equal specs are
    byte-identical."""

    seed: int = 0
    num_samples: int = 50
    max_devices: int = 4
    min_slots: int = 6
    max_slots: int = 14
    levels: tuple[str, ...] = LEVELS

    def __post_init__(self) -> None:
        if not 0 <= self.seed < math.inf:
            raise ValueError("seed must be finite and non-negative")
        if not 0 < self.num_samples < math.inf:
            raise ValueError("num_samples must be finite and positive")
        if not 1 <= self.max_devices < math.inf:
            raise ValueError("max_devices must be finite and >= 1")
        if not 2 <= self.min_slots <= self.max_slots < math.inf:
            raise ValueError("need 2 <= min_slots <= max_slots, finite")
        unknown = set(self.levels) - set(LEVELS)
        if unknown:
            raise ValueError(f"unknown levels: {sorted(unknown)}")


# -- fixtures (self-contained: the campaign ships in ``src``, so it
# -- cannot lean on the test suite's factories) ------------------------------


@lru_cache(maxsize=None)
def _partition():
    from ..models.multi_exit import MultiExitDNN
    from ..models.zoo import build_model

    return MultiExitDNN(build_model("inception-v3")).partition_at(5, 14)


def _fleet(seed: int, n: int):
    """A seeded random fleet in the paper's wild ranges (§II-A) — the
    same distribution the differential test harness sweeps."""
    from ..core.offloading import DeviceConfig, EdgeSystem
    from ..hardware import (
        CLOUD_V100,
        EDGE_I7_3770,
        INTERNET_EDGE_CLOUD,
        NetworkProfile,
        RASPBERRY_PI_3B,
    )
    from ..units import mbps, ms

    rng = np.random.default_rng([seed, 0x0C_A0_5])
    devices = tuple(
        DeviceConfig(
            name=f"dev-{i}",
            flops=RASPBERRY_PI_3B.flops * float(rng.uniform(0.5, 10.0)),
            link=NetworkProfile(
                mbps(float(rng.uniform(1.0, 30.0))),
                ms(float(rng.uniform(10.0, 200.0))),
            ),
            mean_arrivals=float(rng.uniform(0.1, 1.0)),
            overhead=float(rng.uniform(0.0, 0.1)),
        )
        for i in range(n)
    )
    return EdgeSystem(
        devices=devices,
        edge_flops=EDGE_I7_3770.flops * float(rng.uniform(0.5, 2.0)),
        cloud_flops=CLOUD_V100.flops,
        edge_cloud=INTERNET_EDGE_CLOUD,
        partition=_partition(),
    )


def _arrival_processes(case: Mapping[str, object], count: int):
    from ..sim.arrivals import ConstantArrivals, PoissonArrivals, UniformArrivals

    kind = case["arrivals"]
    rate = case["rate"]
    if kind == "poisson":
        make = lambda: PoissonArrivals(rate)  # noqa: E731
    elif kind == "constant":
        make = lambda: ConstantArrivals(rate)  # noqa: E731
    elif kind == "uniform":
        make = lambda: UniformArrivals(0.0, max(1.0, round(2 * rate)))  # noqa: E731
    else:
        raise ValueError(f"unknown arrival kind {kind!r}")
    return [make() for _ in range(count)]


def _base_policy(case: Mapping[str, object]):
    from ..core.offloading import (
        BalanceOffloadingPolicy,
        DriftPlusPenaltyPolicy,
        FixedRatioPolicy,
    )

    name = case["policy"]
    if name == "dpp":
        return DriftPlusPenaltyPolicy(v=case["v"])
    if name == "balance":
        return BalanceOffloadingPolicy()
    if name == "fixed":
        return FixedRatioPolicy(case["ratio"])
    raise ValueError(f"unknown policy kind {name!r}")


def _policy(case: Mapping[str, object]):
    """A fresh policy per run (wrappers carry per-run state)."""
    base = _base_policy(case)
    if case["control_faults"]:
        return FencedController(
            base,
            canonical_coordinator_outage(case["num_slots"], seed=case["seed"]),
        )
    return base


def _overload(case: Mapping[str, object]):
    if not case["overload"]:
        return None
    from ..resilience.overload import OverloadControl

    return OverloadControl(queue_high=6.0, queue_low=2.0)


def _roundtrip(checkpoint):
    """Push every checkpoint the campaign resumes from through the byte
    format, so the serialization layer is exercised on each sample."""
    return checkpoint_from_bytes(checkpoint_to_bytes(checkpoint))


# -- sampling ----------------------------------------------------------------


def sample_case(spec: ChaosSpec, index: int) -> dict:
    """The ``index``-th case of the campaign — a pure function of
    ``(spec.seed, index)``."""
    rng = np.random.default_rng([spec.seed, index])
    level = spec.levels[int(rng.integers(len(spec.levels)))]
    num_slots = int(rng.integers(spec.min_slots, spec.max_slots + 1))
    num_devices = int(rng.integers(2, max(spec.max_devices, 2) + 1))
    case = {
        "index": index,
        "level": level,
        "seed": int(rng.integers(2**31 - 1)),
        "num_devices": num_devices,
        "num_slots": num_slots,
        "arrivals": ARRIVAL_KINDS[int(rng.integers(len(ARRIVAL_KINDS)))],
        "rate": round(float(rng.uniform(0.2, 1.0)), 3),
        "policy": POLICY_KINDS[int(rng.integers(len(POLICY_KINDS)))],
        "v": round(float(rng.uniform(10.0, 80.0)), 1),
        "ratio": round(float(rng.uniform(0.1, 0.6)), 2),
        "faults": bool(rng.random() < 0.4),
        "control_faults": bool(rng.random() < 0.4),
        "overload": bool(rng.random() < 0.3),
        "kill_slot": int(rng.integers(1, num_slots)),
        "num_edges": 2 if level == "federated-event" else 1,
    }
    if level == "federated-event":
        # Shard checkpoints are edge-granular; with two edges the only
        # interior kill point is after edge 0.
        case["kill_slot"] = 1
        # Data-plane federation faults are exercised by the federation
        # suite; the campaign stresses control faults + overload here.
        case["faults"] = False
    return case


# -- case execution ----------------------------------------------------------


def _run_fluid_case(case: Mapping[str, object]) -> list[str]:
    from ..resilience.faults import canonical_outage_plan
    from ..resilience.recovery import RecoveryPolicy
    from ..sim.simulator import SlotSimulator

    n = case["num_devices"]
    slots = case["num_slots"]
    system = _fleet(case["seed"], n)
    # The run's ResilientPolicy keeps its own slot cursor that assumes it
    # is the outermost per-slot callee, so the fluid level runs
    # data-plane faults only when the fenced wrapper is off.
    data_faults = case["faults"] and not case["control_faults"]
    plan = (
        canonical_outage_plan(num_slots=slots, num_devices=n, seed=case["seed"])
        if data_faults
        else None
    )

    def simulate(vectorized: bool, **hooks):
        return SlotSimulator(
            system=system,
            arrivals=_arrival_processes(case, n),
            seed=case["seed"],
            vectorized=vectorized,
            overload=_overload(case),
            faults=plan,
            recovery=None if plan is None else RecoveryPolicy.default(),
        ).run(_policy(case), slots, **hooks)

    scalar = simulate(False)
    vectorized = simulate(True)
    violations = []
    violations += fluid_conservation(scalar)
    violations += fluid_conservation(vectorized)
    violations += nan_sentinels(scalar)
    violations += records_diff(
        scalar.records, vectorized.records, "conformance fluid scalar vs vectorized"
    )
    violations += records_diff(
        vectorized.records, simulate(True).records, "determinism under reseed"
    )
    switch = KillSwitch(case["kill_slot"])
    try:
        simulate(True, checkpoint_every=1, checkpoint_sink=switch)
    except Killed as killed:
        resumed = simulate(True, resume_from=_roundtrip(killed.checkpoint))
        violations += records_diff(
            vectorized.records,
            resumed.records,
            f"kill/resume at slot {killed.checkpoint.slot}",
        )
    else:
        violations.append(
            f"kill/resume: kill switch never fired at slot {case['kill_slot']}"
        )
    return violations


def _run_event_case(case: Mapping[str, object]) -> list[str]:
    from ..resilience.faults import canonical_outage_plan
    from ..resilience.recovery import RecoveryPolicy
    from ..sim.events import EventSimulator

    n = case["num_devices"]
    slots = case["num_slots"]
    system = _fleet(case["seed"], n)
    plan = (
        canonical_outage_plan(num_slots=slots, num_devices=n, seed=case["seed"])
        if case["faults"]
        else None
    )

    def simulate(engine: str, **hooks):
        return EventSimulator(
            system=system,
            arrivals=_arrival_processes(case, n),
            seed=case["seed"],
            faults=plan,
            recovery=RecoveryPolicy.default() if plan is not None else None,
            overload=_overload(case),
        ).run(
            _policy(case),
            slots,
            drain_limit_factor=100.0,
            engine=engine,
            **hooks,
        )

    scalar = simulate("scalar")
    fast = simulate("fast")
    violations = []
    violations += event_conservation(scalar)
    violations += event_conservation(fast)
    violations += nan_sentinels(scalar)
    violations += tasks_diff(
        scalar.tasks, fast.tasks, "conformance event scalar vs fast"
    )
    violations += tasks_diff(
        fast.tasks, simulate("fast").tasks, "determinism under reseed"
    )
    switch = KillSwitch(case["kill_slot"])
    try:
        simulate("fast", checkpoint_every=1, checkpoint_sink=switch)
    except Killed as killed:
        resumed = simulate("fast", resume_from=_roundtrip(killed.checkpoint))
        violations += tasks_diff(
            fast.tasks,
            resumed.tasks,
            f"kill/resume at slot {killed.checkpoint.slot}",
        )
    else:
        violations.append(
            f"kill/resume: kill switch never fired at slot {case['kill_slot']}"
        )
    return violations


def _run_federated_event_case(case: Mapping[str, object]) -> list[str]:
    from ..federation import build_assignment_plan, random_federation
    from ..federation.events import FederatedEventSimulator

    slots = case["num_slots"]
    topology = random_federation(
        seed=case["seed"],
        num_edges=case["num_edges"],
        num_devices=case["num_devices"] * case["num_edges"],
        partition=_partition(),
        max_arrivals=1.0,
    )
    plan = build_assignment_plan(topology, slots)

    def simulate(engine: str, **hooks):
        return FederatedEventSimulator(
            topology=topology,
            arrivals=_arrival_processes(case, topology.num_devices),
            plan=plan,
            seed=case["seed"],
            overload=_overload(case),
        ).run(
            _policy(case),
            slots,
            drain_limit_factor=100.0,
            engine=engine,
            **hooks,
        )

    scalar = simulate("scalar")
    fast = simulate("fast")
    violations = []
    if not scalar.identity_holds():
        violations.append("federated conservation: per-edge identity violated")
    for edge, (a, b) in enumerate(zip(scalar.edge_results, fast.edge_results)):
        violations += event_conservation(a)
        violations += nan_sentinels(a)
        violations += tasks_diff(
            a.tasks, b.tasks, f"conformance federated edge {edge} scalar vs fast"
        )
    merged = scalar.merged()
    violations += event_conservation(merged)
    switch = KillSwitch(case["kill_slot"])
    try:
        simulate("fast", checkpoint_every=1, checkpoint_sink=switch)
    except Killed as killed:
        resumed = simulate("fast", resume_from=_roundtrip(killed.checkpoint))
        for edge, (a, b) in enumerate(
            zip(fast.edge_results, resumed.edge_results)
        ):
            violations += tasks_diff(
                a.tasks,
                b.tasks,
                f"kill/resume (edge granularity) edge {edge}",
            )
    else:
        violations.append(
            f"kill/resume: kill switch never fired at edge {case['kill_slot']}"
        )
    return violations


_RUNNERS: dict[str, Callable[[Mapping[str, object]], list[str]]] = {
    "fluid": _run_fluid_case,
    "event": _run_event_case,
    "federated-event": _run_federated_event_case,
}


def run_case(case: Mapping[str, object]) -> dict:
    """Execute one case against every applicable oracle."""
    runner = _RUNNERS.get(case["level"])
    if runner is None:
        violations = [f"unknown level {case['level']!r}"]
    else:
        violations = runner(case)
    return {
        "index": case["index"],
        "level": case["level"],
        "case": dict(case),
        "violations": list(violations),
    }


# -- the campaign ------------------------------------------------------------


def run_campaign(
    spec: ChaosSpec, progress: Callable[[str], None] | None = None
) -> dict:
    """Sweep ``spec.num_samples`` sampled cases and build the report.

    The report carries no wall-clock fields, so re-running the same spec
    yields a byte-identical artefact — ``fingerprint`` pins that.
    """
    case_rows = []
    violating = []
    level_counts: dict[str, int] = {}
    for index in range(spec.num_samples):
        case = sample_case(spec, index)
        result = run_case(case)
        level_counts[case["level"]] = level_counts.get(case["level"], 0) + 1
        case_rows.append(
            {
                "index": index,
                "level": case["level"],
                "ok": not result["violations"],
                "violations": len(result["violations"]),
            }
        )
        if result["violations"]:
            violating.append(result)
            if progress is not None:
                progress(
                    f"case {index} ({case['level']}): "
                    f"{len(result['violations'])} violation(s)"
                )
        elif progress is not None and (index + 1) % 25 == 0:
            progress(f"{index + 1}/{spec.num_samples} cases clean")
    report = {
        "format": "repro-chaos-report",
        "schema_version": CAMPAIGN_SCHEMA_VERSION,
        "spec": {**asdict(spec), "levels": list(spec.levels)},
        "samples": spec.num_samples,
        "clean": sum(1 for row in case_rows if row["ok"]),
        "level_counts": dict(sorted(level_counts.items())),
        "violating_cases": violating,
        "cases": case_rows,
    }
    report["fingerprint"] = run_fingerprint(
        body=json.dumps(report, sort_keys=True)
    )
    return report


# -- shrinking ---------------------------------------------------------------


def _shrink_candidates(case: Mapping[str, object]) -> Iterator[dict]:
    """Simpler variants of ``case``, biggest simplification first."""
    if case["num_slots"] > 4:
        slots = max(4, case["num_slots"] // 2)
        yield {
            **case,
            "num_slots": slots,
            "kill_slot": min(case["kill_slot"], slots - 1),
        }
    if case["num_devices"] > 1:
        yield {**case, "num_devices": case["num_devices"] - 1}
    for flag in ("overload", "faults", "control_faults"):
        if case[flag]:
            yield {**case, flag: False}
    if case["arrivals"] != "constant":
        yield {**case, "arrivals": "constant"}
    if case["policy"] != "fixed":
        yield {**case, "policy": "fixed"}
    if case["kill_slot"] > 1:
        yield {**case, "kill_slot": 1}


def shrink_case(
    case: Mapping[str, object],
    runner: Callable[[Mapping[str, object]], dict] = run_case,
) -> tuple[dict, dict]:
    """Greedily minimise a violating case while the violation persists.

    Returns ``(smallest case, its run result)``.  A case that does not
    violate is returned unchanged.
    """
    case = dict(case)
    result = runner(case)
    if not result["violations"]:
        return case, result
    progressed = True
    while progressed:
        progressed = False
        for candidate in _shrink_candidates(case):
            attempt = runner(candidate)
            if attempt["violations"]:
                case, result = dict(candidate), attempt
                progressed = True
                break
    return case, result


# -- reporting ---------------------------------------------------------------


def render_markdown(report: Mapping[str, object]) -> str:
    """A human-readable digest of a campaign report."""
    spec = report["spec"]
    lines = [
        "# Chaos campaign report",
        "",
        f"- seed: {spec['seed']}",
        f"- samples: {report['samples']} "
        f"(clean: {report['clean']}, "
        f"violating: {report['samples'] - report['clean']})",
        f"- levels: "
        + ", ".join(
            f"{level} ×{count}"
            for level, count in report["level_counts"].items()
        ),
        f"- fingerprint: `{report['fingerprint']}`",
        "",
    ]
    if not report["violating_cases"]:
        lines.append("All invariant oracles held on every sampled case.")
        lines.append("")
        return "\n".join(lines)
    lines.append("## Violations")
    lines.append("")
    for entry in report["violating_cases"]:
        lines.append(f"### case {entry['index']} ({entry['level']})")
        lines.append("")
        lines.append("```json")
        lines.append(json.dumps(entry["case"], indent=2, sort_keys=True))
        lines.append("```")
        lines.append("")
        for violation in entry["violations"]:
            lines.append(f"- {violation}")
        lines.append("")
    return "\n".join(lines)


def write_reports(
    report: Mapping[str, object],
    json_path: str | Path,
    markdown_path: str | Path | None = None,
) -> list[Path]:
    """Write the JSON artefact (and optionally the markdown digest)."""
    written = []
    json_path = Path(json_path)
    json_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    written.append(json_path)
    if markdown_path is not None:
        markdown_path = Path(markdown_path)
        markdown_path.write_text(render_markdown(report))
        written.append(markdown_path)
    return written
