"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``models`` — list the model zoo.
* ``describe MODEL`` — per-layer profile of a zoo model.
* ``plan`` — run LEIME's exit setting for a configurable testbed.
* ``simulate`` — run a policy through the slot or event simulator.
* ``experiment NAME`` — regenerate a paper figure (``fig2``..``fig11``,
  ``motivation``).
* ``analyze {complexity,v-sweep}`` — empirical checks of Theorems 2-3.
* ``trace {generate,describe,replay}`` — synthesise, inspect, and replay
  wild traces (:mod:`repro.traces`).
* ``faults {generate,describe,replay}`` — synthesise, inspect, and
  replay seeded fault plans (:mod:`repro.resilience`).
* ``chaos {run,report,replay}`` — seeded chaos campaign over faults ×
  engines × kill-points against invariant oracles, with shrinking
  replay of violating cases (:mod:`repro.chaos`).
* ``overload`` — replay the canonical flash crowd governed vs
  ungoverned (admission gate, backpressure, degradation ladder).
* ``qos`` — replay the canonical mixed-QoS burst + cold failover,
  class-aware vs uniform governance (QoS classes, model memory,
  cold starts).
* ``federation`` — partial-outage failover demo across edge sites.
* ``policy list`` — enumerate the policy registry
  (:mod:`repro.policies`).
* ``tournament`` — race registered policies across scenario axes and
  emit a league table (:mod:`repro.tournament`).
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Sequence

from .core.analysis import measure_search_complexity, measure_v_tradeoff
from .core.exit_setting import branch_and_bound_exit_setting
from .experiments.common import TestbedConfig, run_scheme, Scheme
from .policies import build_policy, policy_names, policy_spec
from .tournament.scenarios import scenario_names
from .hardware import NetworkProfile, PLATFORMS, platform
from .models.exit_rates import ParametricExitCurve
from .models.zoo import MODEL_BUILDERS, build_model
from .units import mbps, ms, to_ms

#: Experiment names accepted by the ``experiment`` command.
EXPERIMENTS = (
    "fig2",
    "fig3",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig_wild",
    "fig_faults",
    "fig_federation",
    "fig_overload",
    "fig_qos",
    "fig_tournament",
    "motivation",
    "pareto",
)

#: Offloading policies available to ``simulate``, ``tournament``, and
#: the replay commands — everything in the registry.
POLICIES = policy_names()

#: Trace presets accepted by ``trace generate`` — each enables one (or
#: every) generator of :class:`repro.traces.generators.WildTraceSpec`.
TRACE_PRESETS = ("wild", "diurnal", "gilbert-elliott", "flash-crowd")

#: Fault-plan presets accepted by ``faults generate``: ``random`` draws
#: every channel from :class:`repro.resilience.FaultPlanSpec`
#: probabilities; ``canonical-outage`` is the acceptance scenario with a
#: pinned edge outage (:func:`repro.resilience.canonical_outage_plan`).
FAULT_PRESETS = ("random", "canonical-outage")


def _build_policy(name: str, v: float, seed: int = 0):
    return build_policy(name, v=v, seed=seed)


def _add_testbed_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--model", default="inception-v3", choices=sorted(MODEL_BUILDERS)
    )
    parser.add_argument(
        "--device", default="raspberry-pi", choices=sorted(PLATFORMS)
    )
    parser.add_argument("--edge", default="edge-i7", choices=sorted(PLATFORMS))
    parser.add_argument("--cloud", default="cloud-v100", choices=sorted(PLATFORMS))
    parser.add_argument("--bandwidth-mbps", type=float, default=10.0)
    parser.add_argument("--latency-ms", type=float, default=20.0)
    parser.add_argument("--devices", type=int, default=4)
    parser.add_argument("--arrival-rate", type=float, default=0.4)
    parser.add_argument(
        "--complexity",
        type=float,
        default=0.5,
        help="data-complexity knob in [0, 1] for the exit-rate curve",
    )


def _testbed_from_args(args: argparse.Namespace) -> TestbedConfig:
    return TestbedConfig(
        model=args.model,
        device=platform(args.device),
        edge=platform(args.edge),
        cloud=platform(args.cloud),
        num_devices=args.devices,
        arrival_rate=args.arrival_rate,
        device_edge=NetworkProfile(mbps(args.bandwidth_mbps), ms(args.latency_ms)),
        exit_curve=ParametricExitCurve.from_complexity(args.complexity),
    )


def _cmd_models(args: argparse.Namespace) -> int:
    for name in sorted(MODEL_BUILDERS):
        profile = build_model(name)
        print(
            f"{name:<16} m={profile.num_layers:<3} "
            f"{profile.total_flops / 1e9:7.2f} GFLOPs  "
            f"final {profile.layers[-1].output_shape}"
        )
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    print(build_model(args.model).describe())
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    config = _testbed_from_args(args)
    me_dnn = config.me_dnn()
    result = branch_and_bound_exit_setting(me_dnn, config.average_environment())
    partition = result.partition
    print(f"model          : {args.model}")
    print(f"exit selection : {result.selection.as_tuple()}")
    print(f"expected TCT   : {to_ms(result.cost):.0f} ms/task")
    print(f"evaluations    : {result.evaluations}")
    print(
        "blocks (GFLOPs): "
        + ", ".join(f"{f / 1e9:.2f}" for f in partition.block_flops)
    )
    print(f"transfers (B)  : {partition.transfer_bytes}")
    print(
        "exit rates     : "
        + ", ".join(f"{s:.2f}" for s in partition.sigma)
    )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _testbed_from_args(args)
    me_dnn = config.me_dnn()
    partition = branch_and_bound_exit_setting(
        me_dnn, config.average_environment()
    ).partition
    scheme = Scheme(
        name=args.policy,
        partition=partition,
        policy=_build_policy(args.policy, args.v),
    )
    result = run_scheme(
        config,
        scheme,
        num_slots=args.slots,
        seed=args.seed,
        simulator=args.simulator,
        engine=args.engine,
    )
    print(f"policy    : {args.policy}")
    if args.simulator == "event":
        print(f"simulator : {args.simulator} ({args.engine} engine)")
    else:
        print(f"simulator : {args.simulator}")
    print(f"mean TCT  : {result.mean_tct:.3f} s")
    if args.simulator == "event":
        print(f"p95 TCT   : {result.tct_percentile(95):.3f} s")
        tiers = result.exit_fractions()
        print(
            f"exits     : {tiers[0]:.0%} device / {tiers[1]:.0%} edge / "
            f"{tiers[2]:.0%} cloud"
        )
        print(f"offloaded : {result.offloaded_fraction():.0%}")
        if args.deadline_ms is not None:
            rate = result.deadline_hit_rate(args.deadline_ms / 1e3)
            print(f"SLO       : {rate:.1%} within {args.deadline_ms:.0f} ms")
    else:
        print(f"p95 TCT   : {result.tct_percentile(95):.3f} s")
        print(f"backlog   : {result.final_backlog:.1f} tasks")
        print(f"stable    : {result.is_stable()}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    module = importlib.import_module(f"repro.experiments.{args.name}")
    module.main()
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    if args.what == "complexity":
        for search in ("branch-and-bound", "brute-force"):
            fit = measure_search_complexity(search=search)
            model = "m·ln m" if search == "branch-and-bound" else "m²"
            print(
                f"{search:<17} evaluations ~ {fit.coefficient:.2f}·{model} + "
                f"{fit.intercept:.1f}  (R² = {fit.r_squared:.3f})"
            )
            for m, count in zip(fit.chain_lengths, fit.mean_evaluations):
                print(f"  m={m:<3} mean evaluations {count:8.1f}")
        return 0
    # v-sweep
    config = _testbed_from_args(args)
    me_dnn = config.me_dnn()
    partition = branch_and_bound_exit_setting(
        me_dnn, config.average_environment()
    ).partition
    system = config.system(partition)
    points = measure_v_tradeoff(system, arrival_rate=args.arrival_rate)
    print(f"{'V':>8}  {'mean TCT (s)':>12}  {'mean backlog':>12}  {'max backlog':>11}")
    for point in points:
        print(
            f"{point.v:>8.1f}  {point.mean_tct:>12.3f}  "
            f"{point.mean_backlog:>12.1f}  {point.max_backlog:>11.1f}"
        )
    return 0


def _trace_spec_from_args(args: argparse.Namespace):
    """A :class:`WildTraceSpec` for the chosen preset: ``wild`` enables
    every dynamic, each other preset isolates one generator."""
    from .traces.generators import WildTraceSpec

    spec = WildTraceSpec(
        num_slots=args.slots,
        num_devices=args.devices,
        bandwidth=mbps(args.bandwidth_mbps),
        latency=ms(args.latency_ms),
        arrival_rate=args.arrival_rate,
    )
    if args.preset == "wild":
        return spec
    calm = dict(
        diurnal_amplitude=0.0,
        noise_sigma=0.0,
        ge_p_bad=0.0,
        flash_rate=0.0,
        churn_down=0.0,
    )
    if args.preset == "diurnal":
        calm.update(diurnal_amplitude=0.5, noise_sigma=0.15)
    elif args.preset == "gilbert-elliott":
        calm.update(ge_p_bad=0.05)
    elif args.preset == "flash-crowd":
        calm.update(flash_rate=2.0)
    return replace(spec, **calm)


def _cmd_trace_generate(args: argparse.Namespace) -> int:
    from .traces.generators import generate_trace
    from .traces.serialize import save_trace

    trace = generate_trace(_trace_spec_from_args(args), seed=args.seed)
    path = save_trace(trace, args.output)
    print(
        f"wrote {path}: {trace.num_slots} slots x {trace.num_devices} "
        f"devices ({args.preset} preset, seed {args.seed})"
    )
    return 0


def _cmd_trace_describe(args: argparse.Namespace) -> int:
    from .traces.serialize import load_trace

    trace = load_trace(args.trace)
    print(
        f"trace     : {args.trace}\n"
        f"slots     : {trace.num_slots} (slot length {trace.slot_length} s)\n"
        f"devices   : {trace.num_devices}"
    )
    if trace.meta:
        generator = trace.meta.get("generator", "?")
        seed = trace.meta.get("seed", "?")
        print(f"generated : {generator} (seed {seed})")
    print(f"{'channel':<14} {'units':<11} {'min':>12} {'mean':>12} "
          f"{'max':>12} {'NaN%':>6}")
    for channel in trace.channels:
        stats = trace.describe()[channel.name]
        print(
            f"{channel.name:<14} {channel.units:<11} "
            f"{stats['min']:>12.4g} {stats['mean']:>12.4g} "
            f"{stats['max']:>12.4g} {stats['nan_fraction']:>6.1%}"
        )
    return 0


def _cmd_trace_replay(args: argparse.Namespace) -> int:
    from .traces.replay import replay_trace
    from .traces.serialize import load_trace

    trace = load_trace(args.trace)
    config = replace(_testbed_from_args(args), num_devices=trace.num_devices)
    me_dnn = config.me_dnn()
    partition = branch_and_bound_exit_setting(
        me_dnn, config.average_environment()
    ).partition
    system = config.system(partition)
    num_slots = args.slots if args.slots else trace.num_slots

    # A fresh policy per replay: a learning policy carries per-run state.
    start = time.perf_counter()
    fast = replay_trace(
        system, trace, _build_policy(args.policy, args.v),
        num_slots=num_slots, seed=args.seed, vectorized=True,
    )
    fast_elapsed = time.perf_counter() - start
    start = time.perf_counter()
    scalar = replay_trace(
        system, trace, _build_policy(args.policy, args.v),
        num_slots=num_slots, seed=args.seed, vectorized=False,
    )
    scalar_elapsed = time.perf_counter() - start
    from .chaos.oracles import fluid_conservation, records_equal

    identical = records_equal(scalar.records, fast.records)
    conservation = []
    for label, run in (("vectorized", fast), ("scalar", scalar)):
        conservation += [
            f"[{label}] {line}" for line in fluid_conservation(run)
        ]

    print(f"trace     : {args.trace} ({num_slots} slots replayed)")
    print(f"policy    : {args.policy}")
    print(f"mean TCT  : {fast.mean_tct:.3f} s")
    print(f"p95 TCT   : {fast.tct_percentile(95):.3f} s")
    print(f"backlog   : {fast.final_backlog:.1f} tasks")
    print(f"stable    : {fast.is_stable()}")
    print(f"paths     : {'byte-identical' if identical else 'DIVERGED'}")
    print(
        "conserved : "
        + ("generated = arrivals + shed" if not conservation else "VIOLATED")
    )
    for line in conservation:
        print(f"  - {line}")
    if args.output is not None:
        payload = {
            "benchmark": "trace_replay",
            "trace": str(args.trace),
            "policy": args.policy,
            "slots": num_slots,
            "devices": trace.num_devices,
            "seed": args.seed,
            "mean_tct_s": round(fast.mean_tct, 6),
            "p95_tct_s": round(fast.tct_percentile(95), 6),
            "final_backlog": round(fast.final_backlog, 3),
            "stable": fast.is_stable(),
            "paths_identical": identical,
            "vectorized_slots_per_sec": round(num_slots / fast_elapsed, 2),
            "scalar_slots_per_sec": round(num_slots / scalar_elapsed, 2),
            "conservation_holds": not conservation,
        }
        Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote     : {args.output}")
    if not identical:
        return 1
    return 1 if conservation and args.strict else 0


def _cmd_faults_generate(args: argparse.Namespace) -> int:
    from .resilience import (
        FaultPlanSpec,
        canonical_outage_plan,
        generate_fault_plan,
        save_fault_plan,
    )

    if args.preset == "canonical-outage":
        plan = canonical_outage_plan(
            num_slots=args.slots, num_devices=args.devices, seed=args.seed
        )
    else:
        spec = FaultPlanSpec(
            num_slots=args.slots,
            num_devices=args.devices,
            drop_prob=args.drop_prob,
            corrupt_prob=args.corrupt_prob,
            crash_rate=args.crash_rate,
            crash_recovery_mean=args.crash_recovery_mean,
            straggler_prob=args.straggler_prob,
            stale_prob=args.stale_prob,
        )
        plan = generate_fault_plan(spec, seed=args.seed)
    path = save_fault_plan(plan, args.output)
    outages = plan.outage_windows()
    print(
        f"wrote {path}: {plan.num_slots} slots x {plan.num_devices} devices "
        f"({args.preset} preset, seed {args.seed}, "
        f"{len(outages)} edge outage(s))"
    )
    return 0


def _cmd_faults_describe(args: argparse.Namespace) -> int:
    from .resilience import load_fault_plan

    plan = load_fault_plan(args.plan)
    print(
        f"plan      : {args.plan}\n"
        f"slots     : {plan.num_slots} (slot length {plan.slot_length} s)\n"
        f"devices   : {plan.num_devices}"
    )
    if plan.meta:
        generator = plan.meta.get("generator", "?")
        seed = plan.meta.get("seed", "?")
        print(f"generated : {generator} (seed {seed})")
    for name, value in plan.describe().items():
        if name.endswith("_fraction"):
            print(f"{name:<22} {value:>8.1%}")
        else:
            print(f"{name:<22} {value:>8.3g}")
    windows = plan.outage_windows()
    if windows:
        print(
            "edge outages          : "
            + ", ".join(f"[{start}, {stop})" for start, stop in windows)
        )
    return 0


def _cmd_faults_replay(args: argparse.Namespace) -> int:
    from .resilience import RecoveryPolicy, load_fault_plan, slo_summary
    from .sim.events import EventSimulator
    from .sim.simulator import SlotSimulator

    plan = load_fault_plan(args.plan)
    config = _testbed_from_args(args)
    config = replace(config, num_devices=plan.num_devices)
    me_dnn = config.me_dnn()
    partition = branch_and_bound_exit_setting(
        me_dnn, config.average_environment()
    ).partition
    system = config.system(partition)
    num_slots = args.slots if args.slots else plan.num_slots

    # Fluid level: both slot-simulator paths must replay the plan
    # byte-identically (a fresh policy per run: it carries per-run state).
    def fluid(vectorized: bool):
        return SlotSimulator(
            system=system,
            arrivals=config.arrival_processes(),
            seed=args.seed,
            vectorized=vectorized,
            faults=plan,
            recovery=RecoveryPolicy.default(),
        ).run(_build_policy(args.policy, args.v), num_slots)

    start = time.perf_counter()
    fast = fluid(vectorized=True)
    fast_elapsed = time.perf_counter() - start
    scalar = fluid(vectorized=False)
    from .chaos.oracles import (
        event_conservation,
        event_results_close,
        fluid_conservation,
        records_equal,
    )

    identical = records_equal(scalar.records, fast.records)

    # Task level: recovery vs. first-fault-drops through the event
    # simulator, under common randomness.  Resolve "auto" up front so
    # the twin run below cross-checks the *other* concrete engine.
    from .sim.events import resolve_engine

    engine = resolve_engine(args.engine, system.num_devices)
    summaries = {}
    engine_results: dict[str, object] = {}
    for label, recovery in (
        ("recovery", RecoveryPolicy.default()),
        ("no-recovery", RecoveryPolicy.none()),
    ):
        result = EventSimulator(
            system=system,
            arrivals=config.arrival_processes(),
            seed=args.seed,
            faults=plan,
            recovery=recovery,
        ).run(
            _build_policy(args.policy, args.v),
            num_slots,
            drain_limit_factor=100.0,
            engine=engine,
        )
        summaries[label] = slo_summary(result, deadline=args.deadline_s)
        engine_results[label] = result

    # Event level: the scalar reference loop and the array-backed fast
    # lane must replay the plan to per-task-identical records.
    twin = EventSimulator(
        system=system,
        arrivals=config.arrival_processes(),
        seed=args.seed,
        faults=plan,
        recovery=RecoveryPolicy.default(),
    ).run(
        _build_policy(args.policy, args.v),
        num_slots,
        drain_limit_factor=100.0,
        engine="fast" if engine == "scalar" else "scalar",
    )
    engines_agree = event_results_close(engine_results["recovery"], twin)
    conservation = [f"[fluid] {line}" for line in fluid_conservation(fast)]
    for label, result in engine_results.items():
        conservation += [
            f"[{label}] {line}" for line in event_conservation(result)
        ]

    print(f"plan      : {args.plan} ({num_slots} slots replayed)")
    print(f"policy    : {args.policy}")
    print(f"fluid TCT : {fast.mean_tct:.3f} s (max backlog {fast.max_backlog:.1f})")
    for label, summary in summaries.items():
        print(
            f"{label:<10}: completion {summary['completion_rate']:.3f}, "
            f"dropped {summary['dropped']}, retries {summary['total_retries']}, "
            f"miss@{args.deadline_s:.0f}s {summary['deadline_miss_rate']:.1%}"
        )
    print(f"paths     : {'byte-identical' if identical else 'DIVERGED'}")
    print(
        "engines   : "
        f"{'per-task identical' if engines_agree else 'DIVERGED'} "
        f"(scalar vs fast)"
    )
    print(
        "conserved : "
        + (
            "generated = completed + dropped + shed + in-flight"
            if not conservation
            else "VIOLATED"
        )
    )
    for line in conservation:
        print(f"  - {line}")
    if args.output is not None:
        payload = {
            "benchmark": "fault_replay",
            "plan": str(args.plan),
            "policy": args.policy,
            "slots": num_slots,
            "devices": plan.num_devices,
            "seed": args.seed,
            "deadline_s": args.deadline_s,
            "engine": engine,
            "fluid_mean_tct_s": round(fast.mean_tct, 6),
            "fluid_max_backlog": round(fast.max_backlog, 3),
            "paths_identical": identical,
            "engines_identical": engines_agree,
            "vectorized_slots_per_sec": round(num_slots / fast_elapsed, 2),
            "results": summaries,
            "conservation_holds": not conservation,
        }
        Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote     : {args.output}")
    if not (identical and engines_agree):
        return 1
    return 1 if conservation and args.strict else 0


def _cmd_chaos_run(args: argparse.Namespace) -> int:
    from .chaos import ChaosSpec, run_campaign, write_reports

    spec = ChaosSpec(seed=args.seed, num_samples=args.samples)
    report = run_campaign(spec, progress=None if args.quiet else print)
    bad = report["samples"] - report["clean"]
    written = write_reports(report, args.output, args.report)
    print(
        f"campaign  : {report['samples']} cases (seed {args.seed}), "
        + ", ".join(
            f"{level} x{count}"
            for level, count in report["level_counts"].items()
        )
    )
    print(
        "oracles   : "
        + (
            "all held"
            if bad == 0
            else f"VIOLATED on {bad} case(s) — replay with "
            f"`repro chaos replay --seed {args.seed} --case "
            f"{report['violating_cases'][0]['index']}`"
        )
    )
    print(f"reproduce : fingerprint {report['fingerprint']}")
    for path in written:
        print(f"wrote     : {path}")
    return 1 if bad and args.strict else 0


def _cmd_chaos_report(args: argparse.Namespace) -> int:
    from .chaos.campaign import CAMPAIGN_SCHEMA_VERSION
    from .chaos import render_markdown

    report = json.loads(Path(args.artifact).read_text())
    if report.get("format") != "repro-chaos-report":
        print(f"{args.artifact} is not a chaos campaign artifact", file=sys.stderr)
        return 2
    if report.get("schema_version") != CAMPAIGN_SCHEMA_VERSION:
        print(
            f"artifact schema v{report.get('schema_version')} != supported "
            f"v{CAMPAIGN_SCHEMA_VERSION}; refusing to misparse",
            file=sys.stderr,
        )
        return 2
    print(render_markdown(report), end="")
    bad = report["samples"] - report["clean"]
    return 1 if bad and args.strict else 0


def _cmd_chaos_replay(args: argparse.Namespace) -> int:
    from .chaos import ChaosSpec, run_case, sample_case, shrink_case

    spec = ChaosSpec(seed=args.seed, num_samples=args.case + 1)
    case = sample_case(spec, args.case)
    print(f"case      : {json.dumps(case, sort_keys=True)}")
    result = run_case(case)
    if not result["violations"]:
        print("oracles   : all held")
        return 0
    print(f"oracles   : {len(result['violations'])} violation(s)")
    for violation in result["violations"]:
        print(f"  - {violation}")
    if not args.no_shrink:
        shrunk, shrunk_result = shrink_case(case)
        print(f"shrunk    : {json.dumps(shrunk, sort_keys=True)}")
        for violation in shrunk_result["violations"]:
            print(f"  - {violation}")
    return 1


def _cmd_policy_list(args: argparse.Namespace) -> int:
    print(f"{'name':<16} {'kind':<9} description")
    for name in policy_names():
        spec = policy_spec(name)
        print(f"{spec.name:<16} {spec.kind:<9} {spec.description}")
    return 0


def _cmd_tournament(args: argparse.Namespace) -> int:
    from .tournament import TournamentSpec, league_markdown, run_tournament

    spec = TournamentSpec(
        policies=tuple(args.policies or ()),
        scenarios=tuple(args.scenarios or ()),
        engines=tuple(args.engines),
        num_slots=args.slots,
        num_devices=args.devices,
        seed=args.seed,
        v=args.v,
        deadline=args.deadline_s,
    )
    artifact = run_tournament(
        spec,
        output=str(args.output) if args.output is not None else None,
        resume=not args.fresh,
        progress=None if args.quiet else print,
    )
    report = league_markdown(artifact)
    if args.report is not None:
        Path(args.report).write_text(report)
    print(report, end="")
    if args.output is not None:
        print(f"\nwrote artifact: {args.output}")
    if args.report is not None:
        print(f"wrote report  : {args.report}")
    return 0


def _cmd_overload(args: argparse.Namespace) -> int:
    from .experiments.fig_overload import run_fig_overload
    from .resilience import MODE_NAMES

    result = run_fig_overload(
        num_slots=args.slots,
        seed=args.seed,
        num_devices=args.devices,
        magnitude=args.magnitude,
    )
    governed = result.by_scheme("LEIME + governor")
    ungoverned = result.by_scheme("LEIME (ungoverned)")
    governed_fluid = result.fluid_by_scheme("LEIME + governor")
    ungoverned_fluid = result.fluid_by_scheme("LEIME (ungoverned)")
    checks_ok = (
        result.fluid_paths_identical
        and result.event_engines_identical
        and result.fluid_conservation
        and governed.identity_holds
        and ungoverned.identity_holds
    )

    print(
        f"crowd     : {result.magnitude:.0f}x demand over slots "
        f"{result.crowd_start}-{result.crowd_stop} "
        f"({args.slots} slots, {args.devices} devices, seed {args.seed})"
    )
    print(
        f"governed  : p99 TCT {governed.p99_tct:.2f} s, "
        f"{governed.completed}/{governed.tasks} completed, "
        f"{governed.shed} shed, max rung "
        f"{governed.max_mode} ({MODE_NAMES[governed.max_mode]})"
    )
    print(
        f"ungoverned: p99 TCT {ungoverned.p99_tct:.2f} s, "
        f"{ungoverned.completed}/{ungoverned.tasks} completed, "
        f"max backlog {ungoverned_fluid.max_backlog:.0f} tasks "
        f"(governed {governed_fluid.max_backlog:.0f})"
    )
    recovery = governed_fluid.mode_recovery_slots
    print(
        "recovery  : ladder back to full "
        + (
            "never"
            if math.isinf(recovery)
            else f"{recovery:.0f} slots after the crowd"
        )
    )
    print(
        "checks    : "
        + ("all identities hold" if checks_ok else "IDENTITY VIOLATION")
        + " (fluid paths, event engines, conservation)"
    )
    if args.output is not None:
        payload = {
            "benchmark": "overload_demo",
            "slots": args.slots,
            "devices": args.devices,
            "seed": args.seed,
            "magnitude": args.magnitude,
            "crowd_start": result.crowd_start,
            "crowd_stop": result.crowd_stop,
            "governed": {
                "tasks": governed.tasks,
                "completed": governed.completed,
                "shed": governed.shed,
                "dropped": governed.dropped,
                "p99_tct_s": round(governed.p99_tct, 6),
                "max_mode": governed.max_mode,
                "max_backlog": round(governed_fluid.max_backlog, 3),
                "mode_recovery_slots": recovery,
            },
            "ungoverned": {
                "tasks": ungoverned.tasks,
                "completed": ungoverned.completed,
                "p99_tct_s": round(ungoverned.p99_tct, 6),
                "max_backlog": round(ungoverned_fluid.max_backlog, 3),
                "crowd_monotone": ungoverned_fluid.crowd_monotone,
            },
            "fluid_paths_identical": result.fluid_paths_identical,
            "event_engines_identical": result.event_engines_identical,
            "fluid_conservation": result.fluid_conservation,
        }
        Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote     : {args.output}")
    return 0 if checks_ok else 1


def _cmd_qos(args: argparse.Namespace) -> int:
    from .experiments.fig_qos import run_fig_qos

    result = run_fig_qos(
        num_slots=args.slots,
        seed=args.seed,
        magnitude=args.magnitude,
        cold_start_seconds=args.cold_start,
    )
    aware_gold = result.class_row("class-aware", "gold")
    uniform_gold = result.class_row("uniform", "gold")
    aware = result.by_scheme("class-aware")
    uniform = result.by_scheme("uniform")
    checks_ok = (
        result.event_engines_identical
        and result.fluid_paths_identical
        and result.fluid_class_conservation
        and aware.identity_holds
        and uniform.identity_holds
    )

    print(
        f"burst      : {result.magnitude:.0f}x mixed-class demand over "
        f"slots {result.burst[0]}-{result.burst[1]}, "
        f"{result.echo_magnitude:.0f}x echo over "
        f"{result.echo[0]}-{result.echo[1]}, edge outage "
        f"{result.outage[0]}-{result.outage[1]} "
        f"({args.slots} slots, seed {args.seed})"
    )
    print(
        f"class-aware: gold p99 {aware_gold.p99_tct:.2f} s "
        f"(deadline {aware_gold.deadline:.0f} s), "
        f"{aware_gold.shed} gold shed, fleet "
        f"{aware.completed}/{aware.tasks} completed, max rung "
        f"{aware.max_mode}"
    )
    print(
        f"uniform    : gold p99 {uniform_gold.p99_tct:.2f} s, "
        f"{uniform_gold.shed} gold shed, fleet "
        f"{uniform.completed}/{uniform.tasks} completed, max rung "
        f"{uniform.max_mode}"
    )
    print(
        "headline   : gold "
        + ("protected" if result.gold_protected else "NOT PROTECTED")
        + " under class-aware governance; uniform baseline "
        + (
            "violates the gold SLO"
            if result.uniform_gold_violated
            else "DOES NOT violate the gold SLO"
        )
    )
    print(
        "checks     : "
        + ("all identities hold" if checks_ok else "IDENTITY VIOLATION")
        + " (event engines, fluid paths, per-class conservation)"
    )
    headline_ok = result.gold_protected and result.uniform_gold_violated
    if args.output is not None:
        payload = {
            "benchmark": "qos_demo",
            "slots": args.slots,
            "seed": args.seed,
            "magnitude": args.magnitude,
            "cold_start_seconds": args.cold_start,
            "class_aware": {
                "gold_p99_tct_s": round(aware_gold.p99_tct, 6),
                "gold_shed": aware_gold.shed,
                "gold_deadline_miss_rate": round(
                    aware_gold.deadline_miss_rate, 6
                ),
                "completed": aware.completed,
                "tasks": aware.tasks,
                "max_mode": aware.max_mode,
            },
            "uniform": {
                "gold_p99_tct_s": round(uniform_gold.p99_tct, 6),
                "gold_shed": uniform_gold.shed,
                "gold_deadline_miss_rate": round(
                    uniform_gold.deadline_miss_rate, 6
                ),
                "completed": uniform.completed,
                "tasks": uniform.tasks,
                "max_mode": uniform.max_mode,
            },
            "gold_protected": result.gold_protected,
            "uniform_gold_violated": result.uniform_gold_violated,
            "event_engines_identical": result.event_engines_identical,
            "fluid_paths_identical": result.fluid_paths_identical,
            "fluid_class_conservation": result.fluid_class_conservation,
        }
        Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote      : {args.output}")
    return 0 if checks_ok and headline_ok else 1


def _cmd_federation(args: argparse.Namespace) -> int:
    from .experiments.fig_federation import run_fig_federation

    result = run_fig_federation(
        num_slots=args.slots,
        seed=args.seed,
        num_edges=args.edges,
        num_devices=args.devices,
    )
    failover = result.by_scheme("failover")
    stay = result.by_scheme("no failover")
    start = result.faults.meta["outage_start"]
    stop = result.faults.meta["outage_stop"]
    checks_ok = result.migration_gain > 0 and result.fluid_paths_identical

    print(
        f"federation : {args.edges} edges, {args.devices} devices, "
        f"edge {result.faults.meta['edge']} down slots {start}-{stop} "
        f"({args.slots} slots, seed {args.seed})"
    )
    print(
        f"failover   : {failover.completed}/{failover.generated} completed, "
        f"{failover.dropped} dropped, {failover.migrations} migrations"
    )
    print(
        f"no failover: {stay.completed}/{stay.generated} completed, "
        f"{stay.dropped} dropped"
    )
    print(
        f"gain       : +{result.migration_gain} completed tasks with "
        "migration"
    )
    print(
        "checks     : "
        + (
            "failover strictly wins, fluid paths byte-identical"
            if checks_ok
            else "CHECK FAILED"
        )
    )
    if args.output is not None:
        payload = {
            "benchmark": "federation_demo",
            "slots": args.slots,
            "edges": args.edges,
            "devices": args.devices,
            "seed": args.seed,
            "outage": {
                "edge": result.faults.meta["edge"],
                "start": start,
                "stop": stop,
            },
            "failover": {
                "generated": failover.generated,
                "completed": failover.completed,
                "dropped": failover.dropped,
                "migrations": failover.migrations,
            },
            "no_failover": {
                "generated": stay.generated,
                "completed": stay.completed,
                "dropped": stay.dropped,
            },
            "migration_gain": result.migration_gain,
            "per_edge": result.failover_summary["edges"],
            "fluid_paths_identical": result.fluid_paths_identical,
        }
        Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote      : {args.output}")
    return 0 if checks_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LEIME reproduction (ICDCS 2021): exit setting + online "
        "offloading for multi-exit DNNs at the edge.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="list the model zoo").set_defaults(
        func=_cmd_models
    )

    describe = sub.add_parser("describe", help="per-layer profile of a model")
    describe.add_argument("model", choices=sorted(MODEL_BUILDERS))
    describe.set_defaults(func=_cmd_describe)

    plan = sub.add_parser("plan", help="run LEIME's exit setting")
    _add_testbed_arguments(plan)
    plan.set_defaults(func=_cmd_plan)

    simulate = sub.add_parser("simulate", help="simulate an offloading policy")
    _add_testbed_arguments(simulate)
    simulate.add_argument("--policy", default="leime", choices=POLICIES)
    simulate.add_argument("--simulator", default="slot", choices=("slot", "event"))
    simulate.add_argument(
        "--engine",
        default="auto",
        choices=("auto", "scalar", "fast"),
        help="event-simulator implementation: the scalar reference loop "
        "or the array-backed fast lane (identical seeded results); "
        "auto picks by fleet size",
    )
    simulate.add_argument("--slots", type=int, default=200)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--v", type=float, default=50.0)
    simulate.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="report the SLO hit rate for this deadline (event simulator)",
    )
    simulate.set_defaults(func=_cmd_simulate)

    experiment = sub.add_parser("experiment", help="regenerate a paper figure")
    experiment.add_argument("name", choices=EXPERIMENTS)
    experiment.set_defaults(func=_cmd_experiment)

    analyze = sub.add_parser("analyze", help="verify Theorems 2-3 empirically")
    analyze.add_argument("what", choices=("complexity", "v-sweep"))
    _add_testbed_arguments(analyze)
    analyze.set_defaults(func=_cmd_analyze)

    trace = sub.add_parser(
        "trace", help="generate, inspect, and replay wild traces"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    generate = trace_sub.add_parser(
        "generate", help="synthesise a seeded wild trace"
    )
    generate.add_argument(
        "--output",
        type=Path,
        default=Path("wild.npz"),
        help="trace file to write (.jsonl or .npz)",
    )
    generate.add_argument("--preset", default="wild", choices=TRACE_PRESETS)
    generate.add_argument("--slots", type=int, default=200)
    generate.add_argument("--devices", type=int, default=4)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--bandwidth-mbps", type=float, default=10.0)
    generate.add_argument("--latency-ms", type=float, default=20.0)
    generate.add_argument("--arrival-rate", type=float, default=0.4)
    generate.set_defaults(func=_cmd_trace_generate)

    describe_trace = trace_sub.add_parser(
        "describe", help="per-channel summary of a trace file"
    )
    describe_trace.add_argument("trace", type=Path)
    describe_trace.set_defaults(func=_cmd_trace_describe)

    replay = trace_sub.add_parser(
        "replay",
        help="replay a trace through the slot simulator (both paths, "
        "verifying they agree byte-for-byte)",
    )
    replay.add_argument("trace", type=Path)
    _add_testbed_arguments(replay)
    replay.add_argument("--policy", default="leime", choices=POLICIES)
    replay.add_argument(
        "--slots",
        type=int,
        default=None,
        help="slots to replay (default: the trace length)",
    )
    replay.add_argument("--seed", type=int, default=0)
    replay.add_argument("--v", type=float, default=50.0)
    replay.add_argument(
        "--output",
        type=Path,
        default=None,
        help="write a BENCH_traces.json-style summary here",
    )
    replay.add_argument(
        "--strict",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="exit non-zero if the SLO conservation identity is violated "
        "(default: on, for CI)",
    )
    replay.set_defaults(func=_cmd_trace_replay)

    faults = sub.add_parser(
        "faults", help="generate, inspect, and replay seeded fault plans"
    )
    faults_sub = faults.add_subparsers(dest="faults_command", required=True)

    faults_generate = faults_sub.add_parser(
        "generate", help="synthesise a seeded fault plan"
    )
    faults_generate.add_argument(
        "--output",
        type=Path,
        default=Path("faults.npz"),
        help="plan file to write (.jsonl or .npz)",
    )
    faults_generate.add_argument("--preset", default="random", choices=FAULT_PRESETS)
    faults_generate.add_argument("--slots", type=int, default=160)
    faults_generate.add_argument("--devices", type=int, default=4)
    faults_generate.add_argument("--seed", type=int, default=0)
    faults_generate.add_argument("--drop-prob", type=float, default=0.02)
    faults_generate.add_argument("--corrupt-prob", type=float, default=0.01)
    faults_generate.add_argument(
        "--crash-rate",
        type=float,
        default=1.0,
        help="expected edge crashes per 100 slots",
    )
    faults_generate.add_argument("--crash-recovery-mean", type=float, default=10.0)
    faults_generate.add_argument("--straggler-prob", type=float, default=0.02)
    faults_generate.add_argument("--stale-prob", type=float, default=0.02)
    faults_generate.set_defaults(func=_cmd_faults_generate)

    faults_describe = faults_sub.add_parser(
        "describe", help="per-channel summary of a fault plan"
    )
    faults_describe.add_argument("plan", type=Path)
    faults_describe.set_defaults(func=_cmd_faults_describe)

    faults_replay = faults_sub.add_parser(
        "replay",
        help="replay a fault plan through the slot simulator (both paths, "
        "verifying they agree byte-for-byte) and the event simulator "
        "(recovery vs. none)",
    )
    faults_replay.add_argument("plan", type=Path)
    _add_testbed_arguments(faults_replay)
    faults_replay.add_argument("--policy", default="leime", choices=POLICIES)
    faults_replay.add_argument(
        "--slots",
        type=int,
        default=None,
        help="slots to replay (default: the plan length)",
    )
    faults_replay.add_argument("--seed", type=int, default=0)
    faults_replay.add_argument("--v", type=float, default=50.0)
    faults_replay.add_argument(
        "--engine",
        default="auto",
        choices=("auto", "scalar", "fast"),
        help="event engine for the reported runs (auto picks by fleet "
        "size); the other engine is run once more to verify per-task "
        "agreement",
    )
    faults_replay.add_argument(
        "--deadline-s",
        type=float,
        default=10.0,
        help="task deadline for the reported SLO miss rates",
    )
    faults_replay.add_argument(
        "--output",
        type=Path,
        default=None,
        help="write a BENCH_faults.json-style summary here",
    )
    faults_replay.add_argument(
        "--strict",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="exit non-zero if the SLO conservation identity is violated "
        "(default: on, for CI)",
    )
    faults_replay.set_defaults(func=_cmd_faults_replay)

    overload = sub.add_parser(
        "overload",
        help="replay the canonical flash crowd governed vs ungoverned "
        "(admission gate, backpressure, degradation ladder)",
    )
    overload.add_argument("--slots", type=int, default=160)
    overload.add_argument("--devices", type=int, default=4)
    overload.add_argument("--seed", type=int, default=0)
    overload.add_argument(
        "--magnitude",
        type=float,
        default=80.0,
        help="flash-crowd demand multiplier",
    )
    overload.add_argument(
        "--output",
        type=Path,
        default=None,
        help="write a JSON summary here",
    )
    overload.set_defaults(func=_cmd_overload)

    qos = sub.add_parser(
        "qos",
        help="replay the canonical mixed-QoS burst + cold failover, "
        "class-aware vs uniform governance (QoS classes, model "
        "memory, cold starts)",
    )
    qos.add_argument("--slots", type=int, default=160)
    qos.add_argument("--seed", type=int, default=0)
    qos.add_argument(
        "--magnitude",
        type=float,
        default=30.0,
        help="mixed-class burst demand multiplier (device 0 stays quiet)",
    )
    qos.add_argument(
        "--cold-start",
        type=float,
        default=0.5,
        help="base partition load latency in seconds",
    )
    qos.add_argument(
        "--output",
        type=Path,
        default=None,
        help="write a JSON summary here",
    )
    qos.set_defaults(func=_cmd_qos)

    federation = sub.add_parser(
        "federation",
        help="replay the canonical partial outage over a multi-edge "
        "federation, with vs without failover migration",
    )
    federation.add_argument("--slots", type=int, default=96)
    federation.add_argument("--edges", type=int, default=3)
    federation.add_argument("--devices", type=int, default=9)
    federation.add_argument("--seed", type=int, default=0)
    federation.add_argument(
        "--output",
        type=Path,
        default=None,
        help="write a JSON summary here",
    )
    federation.set_defaults(func=_cmd_federation)

    chaos = sub.add_parser(
        "chaos",
        help="seeded chaos campaign: faults x engines x kill-points "
        "replayed against invariant oracles",
    )
    chaos_sub = chaos.add_subparsers(dest="chaos_command", required=True)

    chaos_run = chaos_sub.add_parser(
        "run", help="run a seeded campaign and write JSON + markdown reports"
    )
    chaos_run.add_argument("--samples", type=int, default=200)
    chaos_run.add_argument("--seed", type=int, default=0)
    chaos_run.add_argument(
        "--output",
        type=Path,
        default=Path("chaos_report.json"),
        help="JSON artifact to write",
    )
    chaos_run.add_argument(
        "--report",
        type=Path,
        default=Path("chaos_report.md"),
        help="markdown violation digest to write",
    )
    chaos_run.add_argument(
        "--strict",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="exit non-zero on any oracle violation (default: on, for CI)",
    )
    chaos_run.add_argument("--quiet", action="store_true")
    chaos_run.set_defaults(func=_cmd_chaos_run)

    chaos_report = chaos_sub.add_parser(
        "report", help="render a campaign artifact as markdown"
    )
    chaos_report.add_argument("artifact", type=Path)
    chaos_report.add_argument(
        "--strict",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="exit non-zero if the artifact records violations",
    )
    chaos_report.set_defaults(func=_cmd_chaos_report)

    chaos_replay = chaos_sub.add_parser(
        "replay",
        help="re-run one sampled case by index, shrinking any violation "
        "to a minimal reproducer",
    )
    chaos_replay.add_argument("--case", type=int, required=True)
    chaos_replay.add_argument("--seed", type=int, default=0)
    chaos_replay.add_argument(
        "--no-shrink",
        action="store_true",
        help="report the violation without minimising the case",
    )
    chaos_replay.set_defaults(func=_cmd_chaos_replay)

    policy = sub.add_parser("policy", help="inspect the policy registry")
    policy_sub = policy.add_subparsers(dest="policy_command", required=True)
    policy_sub.add_parser(
        "list", help="list registered offloading policies"
    ).set_defaults(func=_cmd_policy_list)

    tournament = sub.add_parser(
        "tournament",
        help="race the policy zoo across scenarios and emit a league table",
    )
    tournament.add_argument(
        "--policies",
        nargs="+",
        default=None,
        choices=POLICIES,
        help="policies to race (default: every registered policy)",
    )
    tournament.add_argument(
        "--scenarios",
        nargs="+",
        default=None,
        choices=scenario_names(),
        help="scenarios to race on (default: every registered scenario)",
    )
    tournament.add_argument(
        "--engines",
        nargs="+",
        default=["scalar", "fast"],
        choices=("scalar", "fast"),
        help="event engines per cell (default: both, cross-checking them)",
    )
    tournament.add_argument("--slots", type=int, default=80)
    tournament.add_argument("--devices", type=int, default=4)
    tournament.add_argument("--seed", type=int, default=0)
    tournament.add_argument("--v", type=float, default=50.0)
    tournament.add_argument("--deadline-s", type=float, default=5.0)
    tournament.add_argument(
        "--output",
        type=Path,
        default=None,
        help="JSON artifact to write (and resume from when it exists)",
    )
    tournament.add_argument(
        "--report",
        type=Path,
        default=None,
        help="markdown league report to write",
    )
    tournament.add_argument(
        "--fresh",
        action="store_true",
        help="ignore an existing artifact instead of resuming from it",
    )
    tournament.add_argument("--quiet", action="store_true")
    tournament.set_defaults(func=_cmd_tournament)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
