"""The tournament runner: seeded, resumable policy × scenario × engine cells.

A tournament is a grid of *cells*.  One cell runs one registered policy
(:mod:`repro.policies`) on one registered scenario
(:mod:`repro.tournament.scenarios`) through one event engine
(``"scalar"`` or ``"fast"``), and reduces the task log to the standard
SLO block plus latency percentiles.  Three properties make the league
defensible:

* **Seeded** — every cell of a scenario shares the simulation seed
  (common random numbers), and policy-private exploration RNGs derive
  from the spec seed, so reruns are byte-identical and gaps between
  policies are controller signal, not sampling noise.  The two engines
  replay the same seeded streams, so a scalar/fast metric mismatch in a
  league is itself a conformance failure.
* **Resumable** — the artifact is written after every cell; re-running
  against an existing artifact with a matching spec fingerprint skips
  finished cells and computes only the remainder.
* **Deterministic ranking** — policies are ranked per (scenario,
  engine) group by a fixed metric tuple (completion first, then tail
  latency), and the league orders by mean rank with lexicographic
  policy-name tie-breaks; all floats are rounded before serialisation.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass

from ..experiments.common import TestbedConfig, leime_scheme
from ..hardware import NetworkProfile
from ..policies import build_policy, policy_names
from ..units import mbps, ms
from ..resilience import (
    OverloadControl,
    QoSConfig,
    RecoveryPolicy,
    canonical_outage_plan,
    slo_summary,
)
from ..sim.arrivals import TraceArrivals
from ..sim.events import EventSimulator
from ..traces.generators import (
    WildTraceSpec,
    canonical_flash_crowd,
    canonical_mixed_qos_burst,
    generate_trace,
)
from ..traces.replay import replay_trace
from .scenarios import ScenarioSpec, scenario_names, scenario_spec

#: Artifact schema tag — bump on incompatible layout changes.
SCHEMA = "repro.tournament/v1"

#: Engines a cell may run on.
ENGINES = ("scalar", "fast")

#: Decimal places every metric is rounded to before serialisation; the
#: byte-identity guarantee is defined at this precision.
ROUND_DIGITS = 9


@dataclass(frozen=True)
class TournamentSpec:
    """The full, fingerprintable description of one tournament.

    Attributes:
        policies: Registered policy names to race (defaults to all).
        scenarios: Registered scenario names (defaults to all).
        engines: Event engines per cell (default both).
        num_slots: Horizon per cell.
        num_devices: Fleet width per cell.
        seed: Master seed — simulation streams and policy exploration.
        v: Lyapunov weight handed to every cost-model policy.
        deadline: SLO deadline (seconds) for the miss-rate column.
    """

    policies: tuple[str, ...] = ()
    scenarios: tuple[str, ...] = ()
    engines: tuple[str, ...] = ENGINES
    num_slots: int = 80
    num_devices: int = 4
    seed: int = 0
    v: float = 50.0
    deadline: float = 5.0

    def __post_init__(self) -> None:
        if not self.policies:
            object.__setattr__(self, "policies", policy_names())
        if not self.scenarios:
            object.__setattr__(self, "scenarios", scenario_names())
        object.__setattr__(self, "policies", tuple(self.policies))
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        object.__setattr__(self, "engines", tuple(self.engines))
        for name in self.policies:  # fail fast on typos, not mid-sweep
            if name not in policy_names():
                raise ValueError(f"unknown policy {name!r}")
        for name in self.scenarios:
            scenario_spec(name)
        for engine in self.engines:
            if engine not in ENGINES:
                raise ValueError(f"unknown engine {engine!r}; use {ENGINES}")
        if not (1 <= self.num_slots < math.inf and 1 <= self.num_devices < math.inf):
            raise ValueError("num_slots and num_devices must be finite and >= 1")
        if not (0 <= self.seed < math.inf and 0 <= self.v < math.inf):
            raise ValueError("seed and v must be finite and non-negative")
        if not 0 < self.deadline < math.inf:
            raise ValueError("deadline must be finite and positive")

    def fingerprint(self) -> str:
        """Stable hash of the spec — the resume compatibility key."""
        payload = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def cell_key(scenario: str, policy: str, engine: str) -> str:
    return f"{scenario}|{policy}|{engine}"


def _round(value: float) -> float | None:
    """Round for stable serialisation; NaN (empty-fleet sentinel) → None."""
    value = float(value)
    if math.isnan(value):
        return None
    return round(value, ROUND_DIGITS)


def _world(spec: TournamentSpec, scenario: ScenarioSpec):
    """The (config, system) every policy of a scenario shares: one
    testbed, one branch-and-bound partition — the fair-grounds rule."""
    kwargs: dict = {}
    if scenario.bandwidth_mbps is not None:
        kwargs["device_edge"] = NetworkProfile(
            bandwidth=mbps(scenario.bandwidth_mbps), latency=ms(20.0)
        )
    config = TestbedConfig(
        num_devices=spec.num_devices,
        arrival_rate=scenario.arrival_rate,
        v=spec.v,
        **kwargs,
    )
    return config, config.system(leime_scheme(config).partition)


def run_cell(
    spec: TournamentSpec, scenario: ScenarioSpec, policy_name: str, engine: str
) -> dict:
    """Execute one tournament cell and reduce it to its metric row."""
    config, system = _world(spec, scenario)
    policy = build_policy(policy_name, v=spec.v, seed=spec.seed)
    if scenario.kind == "wild-trace":
        trace = generate_trace(
            WildTraceSpec(
                num_slots=spec.num_slots,
                num_devices=spec.num_devices,
                arrival_rate=scenario.arrival_rate,
            ),
            seed=spec.seed,
        )
        result = replay_trace(
            system,
            trace,
            policy,
            num_slots=spec.num_slots,
            seed=spec.seed,
            events=True,
            engine=engine,
        )
    elif scenario.kind == "faults":
        result = EventSimulator(
            system,
            config.arrival_processes(),
            seed=spec.seed,
            faults=canonical_outage_plan(
                spec.num_slots, spec.num_devices, seed=spec.seed
            ),
            recovery=RecoveryPolicy.default(),
        ).run(policy, spec.num_slots, engine=engine)
    elif scenario.kind == "overload":
        # Scale the crowd window to the horizon so short smoke brackets
        # still contain a calm phase, the surge, and the aftermath.
        rates = canonical_flash_crowd(
            num_slots=spec.num_slots,
            num_devices=spec.num_devices,
            base_rate=scenario.arrival_rate,
            magnitude=scenario.overload_magnitude,
            crowd_start=spec.num_slots // 4,
            crowd_stop=max(spec.num_slots // 4 + 1, (spec.num_slots * 5) // 8),
        )
        result = EventSimulator(
            system,
            [TraceArrivals.from_series(rates[:, i]) for i in range(rates.shape[1])],
            seed=spec.seed,
            overload=OverloadControl(),
        ).run(policy, spec.num_slots, engine=engine)
    elif scenario.kind == "qos":
        # Same canonical world for every policy: a deterministic flash
        # crowd plus a cold echo burst, default QoS classes, class-aware
        # governor — the cell where gold-protection is measurable.
        rates = canonical_mixed_qos_burst(
            num_slots=spec.num_slots,
            num_devices=spec.num_devices,
            base_rate=scenario.arrival_rate,
            magnitude=scenario.overload_magnitude,
        )
        # Pinned class map (not the seeded draw): device 0 — the quiet
        # tenant of the canonical burst — is gold, the rest alternate
        # standard/batch, so every class is populated at any fleet size
        # and the gold league columns never hit the empty-class NaN
        # sentinel on small brackets.
        qos = QoSConfig(
            class_map=(0,)
            + tuple(1 + (i % 2) for i in range(1, spec.num_devices))
        )
        result = EventSimulator(
            system,
            [TraceArrivals.from_series(rates[:, i]) for i in range(rates.shape[1])],
            seed=spec.seed,
            overload=OverloadControl(),
            qos=qos,
        ).run(policy, spec.num_slots, engine=engine)
    else:  # stationary
        result = EventSimulator(
            system, config.arrival_processes(), seed=spec.seed
        ).run(policy, spec.num_slots, engine=engine)
    metrics = {
        key: (_round(value) if isinstance(value, float) else value)
        for key, value in slo_summary(result, deadline=spec.deadline).items()
    }
    metrics["p50_tct"] = _round(result.tct_percentile(50))
    metrics["p99_tct"] = _round(result.tct_percentile(99))
    if scenario.kind == "qos":
        per_class = result.class_summary(
            deadlines={c.name: c.deadline for c in qos.classes}
        )
        for name, row in per_class.items():
            metrics[f"{name}_p99_tct"] = _round(row["p99_tct"])
            metrics[f"{name}_shed_rate"] = _round(row["shed_rate"])
            metrics[f"{name}_deadline_miss_rate"] = _round(
                row["deadline_miss_rate"]
            )
    return {
        "scenario": scenario.name,
        "policy": policy_name,
        "engine": engine,
        "metrics": metrics,
    }


#: Ranking order within one (scenario, engine) group: completion first
#: (an SLO miss outranks any latency), then the latency tail, then the
#: terminal-loss rates, then the name as the deterministic final word.
def _rank_key(cell: dict) -> tuple:
    metrics = cell["metrics"]

    def worst_if_none(value: float | None) -> float:
        return math.inf if value is None else value

    return (
        -(metrics["completion_rate"] if metrics["completion_rate"] is not None else -1.0),
        worst_if_none(metrics["p99_tct"]),
        worst_if_none(metrics["p50_tct"]),
        worst_if_none(metrics["drop_rate"]),
        worst_if_none(metrics["shed_rate"]),
        worst_if_none(metrics["mean_tct"]),
        cell["policy"],
    )


def league_table(spec: TournamentSpec, cells: dict[str, dict]) -> list[dict]:
    """Rank policies by mean per-group rank across every finished group."""
    ranks: dict[str, list[int]] = {name: [] for name in spec.policies}
    for scenario in spec.scenarios:
        for engine in spec.engines:
            group = [
                cells[cell_key(scenario, name, engine)]
                for name in spec.policies
                if cell_key(scenario, name, engine) in cells
            ]
            for position, cell in enumerate(sorted(group, key=_rank_key), start=1):
                ranks[cell["policy"]].append(position)
    rows: list[dict] = []
    for name in spec.policies:
        # Canonical (sorted-key) order: float summation must not depend
        # on whether a cell was computed this run or loaded from disk.
        cell_rows = [
            cells[key]
            for key in sorted(cells)
            if cells[key]["policy"] == name
        ]
        if not ranks[name] or not cell_rows:
            continue

        def mean_of(metric: str) -> float | None:
            # .get(): per-class QoS metrics exist only on qos-kind cells.
            values = [
                row["metrics"].get(metric)
                for row in cell_rows
                if row["metrics"].get(metric) is not None
            ]
            return _round(sum(values) / len(values)) if values else None

        rows.append(
            {
                "policy": name,
                "mean_rank": _round(sum(ranks[name]) / len(ranks[name])),
                "groups": len(ranks[name]),
                "completion_rate": mean_of("completion_rate"),
                "p50_tct": mean_of("p50_tct"),
                "p99_tct": mean_of("p99_tct"),
                "drop_rate": mean_of("drop_rate"),
                "shed_rate": mean_of("shed_rate"),
                "deadline_miss_rate": mean_of("deadline_miss_rate"),
                # The QoS column: gold-class tail latency and miss rate
                # over qos-kind cells (None for a spec without one).
                "gold_p99_tct": mean_of("gold_p99_tct"),
                "gold_deadline_miss_rate": mean_of("gold_deadline_miss_rate"),
            }
        )
    rows.sort(key=lambda row: (row["mean_rank"], row["policy"]))
    for rank, row in enumerate(rows, start=1):
        row["rank"] = rank
    return rows


def _serialise(artifact: dict) -> str:
    return json.dumps(artifact, indent=2, sort_keys=True) + "\n"


def save_artifact(artifact: dict, path: str) -> None:
    """Atomic write so an interrupted run never truncates the artifact
    it would later resume from."""
    tmp = f"{path}.tmp"
    with open(tmp, "w") as handle:
        handle.write(_serialise(artifact))
    os.replace(tmp, path)


def load_artifact(path: str) -> dict | None:
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        return json.load(handle)


def run_tournament(
    spec: TournamentSpec,
    output: str | None = None,
    resume: bool = True,
    progress=None,
) -> dict:
    """Run (or resume) the full cell grid and return the final artifact.

    ``output`` names the JSON artifact; when it already exists with a
    matching spec fingerprint and ``resume`` is true, finished cells are
    reused verbatim and only the remainder executes.  ``progress`` is an
    optional ``callable(message: str)`` for CLI narration.
    """
    say = progress if progress is not None else (lambda message: None)
    fingerprint = spec.fingerprint()
    cells: dict[str, dict] = {}
    if output and resume:
        previous = load_artifact(output)
        if previous is not None:
            if previous.get("fingerprint") == fingerprint:
                cells = dict(previous.get("cells", {}))
                say(f"resuming: {len(cells)} finished cells reused from {output}")
            else:
                say(
                    f"{output} was produced by a different spec "
                    f"({previous.get('fingerprint')} != {fingerprint}); starting fresh"
                )
    artifact = {
        "schema": SCHEMA,
        "fingerprint": fingerprint,
        "spec": asdict(spec),
        "cells": cells,
        "league": [],
    }
    total = len(spec.scenarios) * len(spec.policies) * len(spec.engines)
    done = 0
    for scenario_name in spec.scenarios:
        scenario = scenario_spec(scenario_name)
        for engine in spec.engines:
            for policy_name in spec.policies:
                done += 1
                key = cell_key(scenario_name, policy_name, engine)
                if key in cells:
                    continue
                cells[key] = run_cell(spec, scenario, policy_name, engine)
                say(
                    f"[{done}/{total}] {scenario_name} × {policy_name} × {engine}: "
                    f"completion {cells[key]['metrics']['completion_rate']}"
                )
                if output:
                    artifact["league"] = league_table(spec, cells)
                    save_artifact(artifact, output)
    artifact["league"] = league_table(spec, cells)
    if output:
        save_artifact(artifact, output)
    return artifact
