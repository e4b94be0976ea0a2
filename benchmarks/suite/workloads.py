"""The benchmark's five seeded workloads.

Every input is generated here from the workload seed (fleets, traces,
fault plans, federations); the program under test only receives them
through its public entry points.  A workload is prepared in three timed
set-up phases (``inputs``, ``schemes`` / ``assignment`` where they
exist, ``construct``), then its run call(s) and the post-run summary
are timed as one run.
"""

from __future__ import annotations

import hashlib
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields, is_dataclass
from typing import Any, Callable

import numpy as np

from repro.chaos.checkpoint import (
    CheckpointLog,
    Killed,
    KillSwitch,
    checkpoint_from_bytes,
    checkpoint_to_bytes,
)
from repro.core.exit_setting import branch_and_bound_exit_setting
from repro.core.offloading import (
    DeviceConfig,
    DriftPlusPenaltyPolicy,
    EdgeSystem,
    FixedRatioPolicy,
)
from repro.experiments import common
from repro.federation import (
    EdgeSite,
    FederatedSlotSimulator,
    FederationTopology,
    build_assignment_plan,
    canonical_partial_outage,
    federated_fluid_summary,
    single_edge_topology,
)
from repro.hardware import (
    CLOUD_V100,
    EDGE_I7_3770,
    INTERNET_EDGE_CLOUD,
    NetworkProfile,
    RASPBERRY_PI_3B,
)
from repro.models.multi_exit import MultiExitDNN
from repro.models.zoo import build_model
from repro.resilience import (
    FaultPlanSpec,
    OverloadControl,
    QoSConfig,
    RecoveryPolicy,
    generate_fault_plan,
)
from repro.sim.arrivals import PoissonArrivals, TraceArrivals
from repro.sim.environment import StaticEnvironment
from repro.sim.events import EventSimulator
from repro.sim.simulator import SlotSimulator
from repro.traces import (
    TraceEnvironment,
    WildTraceSpec,
    arrival_processes,
    canonical_mixed_qos_burst,
    generate_trace,
)
from repro.units import mbps, ms

#: Fleet sizes.  ``full`` is calibrated so one run takes about 0.8 s on
#: a 2-core host: a measurement times many short runs, so host-speed
#: drift averages out; ``quick`` only exercises the code paths.
SIZES = {
    "wild-fleet-fluid": {
        "full": dict(devices=400, slots=100),
        "quick": dict(devices=40, slots=24),
    },
    "faulty-fleet-events": {
        "full": dict(devices=800, slots=40),
        "quick": dict(devices=60, slots=20),
    },
    "qos-burst-fluid": {
        "full": dict(devices=400, slots=120),
        "quick": dict(devices=30, slots=24),
    },
    "federated-failover": {
        "full": dict(devices=1500, slots=60),
        "quick": dict(devices=120, slots=24),
    },
    "paper-testbed-grid": {
        "full": dict(slots=40),
        "quick": dict(slots=30),
    },
}

#: Per-device mean arrivals per slot.
WILD_RATE = 0.3
EVENT_RATE = 2.0
QOS_BASE_RATE = 0.5
QOS_BURST = 10.0
FEDERATION_RATE = 0.5
FEDERATION_EDGES = 8
#: QoS layer with a real memory budget (half the fleet's partitions fit,
#: so slices load cold throughout) and a shed budget.
QOS = QoSConfig(memory_fraction=0.5, cold_start_seconds=0.25, shed_budget=50.0)

#: Salts for the independent input streams drawn from one seed.
_FLEET, _SITES = 11, 13


class Clock:
    """Accumulates wall time per named set-up phase."""

    def __init__(self) -> None:
        self.phases: dict[str, float] = {}

    @contextmanager
    def __call__(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.phases[name] = (
                self.phases.get(name, 0.0) + time.perf_counter() - start
            )


@dataclass
class Prepared:
    """One workload, set up and ready to run.

    Attributes:
        run: The timed run call(s); returns the raw result.
        summarize: The post-run metric calls (also timed); returns the
            simulated outputs as a flat dict.
        check: Cheap per-run correctness checks over the raw result and
            its summary; returns failure messages.
        inputs: Everything the program receives, for ``inputs_sha``.
        tasks: Expected tasks in the input (per-device mean arrivals
            summed over slots): the work throughput is measured in, a
            function of the inputs alone.
        protocol_types: Policy, arrival and environment classes whose
            protocol methods the traced run wraps.
    """

    run: Callable[[], Any]
    summarize: Callable[[Any], dict]
    check: Callable[[Any, dict], list[str]]
    inputs: Any
    tasks: float
    protocol_types: tuple[type, ...]


# -- seeded inputs ------------------------------------------------------------


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt])


def inception_partition():
    """The workhorse deployment: Inception v3 cut at exits (5, 14)."""
    return MultiExitDNN(build_model("inception-v3")).partition_at(5, 14)


def random_devices(
    rng: np.random.Generator,
    n: int,
    pi_multiple: tuple[float, float] = (0.5, 10.0),
    uplink_mbps: tuple[float, float] = (1.0, 30.0),
) -> tuple[DeviceConfig, ...]:
    """``n`` devices in the paper's wild ranges (§II-A): Pi- to
    Jetson-class throughput, 1-30 Mbps / 10-200 ms uplinks."""
    flops = RASPBERRY_PI_3B.flops * rng.uniform(*pi_multiple, n)
    bandwidth = rng.uniform(*uplink_mbps, n)
    latency = rng.uniform(10.0, 200.0, n)
    arrivals = rng.uniform(0.1, 2.0, n)
    overhead = rng.uniform(0.0, 0.1, n)
    return tuple(
        DeviceConfig(
            name=f"dev-{i}",
            flops=float(flops[i]),
            link=NetworkProfile(mbps(float(bandwidth[i])), ms(float(latency[i]))),
            mean_arrivals=float(arrivals[i]),
            overhead=float(overhead[i]),
        )
        for i in range(n)
    )


def provisioned_system(
    seed: int, n: int, rate: float, partition, **device_ranges
) -> EdgeSystem:
    """A random fleet whose shared edge, cloud and backhaul grow with
    the fleet and its load, so the base load is stable and drains (a
    single i7 edge box diverges at thousands of devices).  Only the
    devices are random: a random edge size would make each seed a
    different system, not a different sample of one."""
    devices = random_devices(_rng(seed, _FLEET), n, **device_ranges)
    scale = max(1.0, n / 4.0) * rate / 0.5
    return EdgeSystem(
        devices=devices,
        edge_flops=EDGE_I7_3770.flops * scale,
        cloud_flops=CLOUD_V100.flops * scale,
        edge_cloud=NetworkProfile(
            INTERNET_EDGE_CLOUD.bandwidth * scale, INTERNET_EDGE_CLOUD.latency
        ),
        partition=partition,
    )


def provisioned_federation(
    seed: int, num_edges: int, n: int, rate: float, partition
) -> FederationTopology:
    """``num_edges`` sites on a circle over ``n`` devices scattered in
    the unit square.  Each site is sized for the devices that home to it
    (nearest site), so the base load is stable everywhere; unscaled
    sites give a diverging queue at this fleet size."""
    rng = _rng(seed, _SITES)
    angles = 2 * math.pi * np.arange(num_edges) / num_edges
    site_xy = np.stack([0.5 + 0.5 * np.cos(angles), 0.5 + 0.5 * np.sin(angles)], 1)
    positions = rng.uniform(0.0, 1.0, (n, 2))
    distance = np.linalg.norm(positions[:, None, :] - site_xy[None, :, :], axis=2)
    members = np.bincount(distance.argmin(axis=1), minlength=num_edges)
    load = np.maximum(1.0, members / 4.0) * rate / 0.5
    sites = tuple(
        EdgeSite(
            name=f"edge-{e}",
            edge_flops=EDGE_I7_3770.flops * float(load[e]),
            edge_cloud=NetworkProfile(
                INTERNET_EDGE_CLOUD.bandwidth * float(load[e]),
                INTERNET_EDGE_CLOUD.latency,
            ),
            position=(float(site_xy[e, 0]), float(site_xy[e, 1])),
        )
        for e in range(num_edges)
    )
    devices = random_devices(_rng(seed, _FLEET), n)
    return FederationTopology(
        sites=sites,
        devices=devices,
        partition=partition,
        cloud_flops=CLOUD_V100.flops * max(1.0, n / 4.0) * rate / 0.5,
        device_positions=tuple(
            (float(x), float(y)) for x, y in positions.tolist()
        ),
    )


def wild_trace_spec(n: int, slots: int) -> WildTraceSpec:
    """§II-A's wild ranges: diurnal load and edge capacity, per-device
    Gilbert-Elliott links and churn; the mean edge capacity scales with
    the fleet like the deployed edge does.  Flash crowds are off: a
    fleet-wide burst's random count and timing would dominate the
    seed-to-seed spread (bursts are ``qos-burst-fluid``'s job)."""
    return WildTraceSpec(
        num_slots=slots,
        num_devices=n,
        bandwidth=mbps(10.0),
        latency=ms(20.0),
        edge_flops=60e9 * n / 4.0,
        arrival_rate=WILD_RATE,
        diurnal_period=max(slots // 2, 2),
        diurnal_amplitude=0.6,
        noise_sigma=0.2,
        flash_rate=0.0,
        churn_down=0.01,
        churn_up=0.25,
    )


def testbed_fleet(n: int, partition) -> EdgeSystem:
    """The §IV-A testbed (Pis on WiFi behind an i7 edge) widened to ``n``
    devices, with the edge scaled so each device keeps its 4-Pi slice."""
    config = common.TestbedConfig(num_devices=n, arrival_rate=WILD_RATE)
    return EdgeSystem(
        devices=config.devices(),
        edge_flops=config.edge.flops * n / 4.0,
        cloud_flops=config.cloud.flops * n / 4.0,
        edge_cloud=config.edge_cloud,
        partition=partition,
        edge_overhead=config.edge.per_task_overhead,
        cloud_overhead=config.cloud.per_task_overhead,
    )


def digest(value: Any) -> str:
    """A stable SHA-256 over nested inputs: arrays by their bytes,
    floats by their exact hex form, dataclasses field by field."""
    h = hashlib.sha256()

    def feed(v: Any) -> None:
        if isinstance(v, np.ndarray):
            h.update(f"a{v.dtype.str}{v.shape}".encode())
            h.update(np.ascontiguousarray(v).tobytes())
        elif isinstance(v, float):
            h.update(b"f" + v.hex().encode())
        elif isinstance(v, (bool, int, str, type(None))):
            h.update(f"{type(v).__name__}:{v!r};".encode())
        elif isinstance(v, dict):
            h.update(b"{")
            for key in sorted(v, key=repr):
                feed(key)
                feed(v[key])
            h.update(b"}")
        elif isinstance(v, (list, tuple)):
            h.update(f"[{len(v)}".encode())
            for item in v:
                feed(item)
            h.update(b"]")
        elif is_dataclass(v):
            h.update(type(v).__name__.encode())
            feed({f.name: getattr(v, f.name) for f in fields(v)})
        elif hasattr(v, "__dict__"):
            h.update(type(v).__name__.encode())
            feed({k: x for k, x in vars(v).items() if not k.startswith("_")})
        else:
            h.update(repr(v).encode())

    feed(value)
    return h.hexdigest()[:16]


# -- summaries and per-run checks ---------------------------------------------


def fluid_summary(result) -> dict:
    """Fluid task mass: admitted work minus the final backlog completes;
    the backlog is in flight; overload control sheds the rest."""
    backlog = result.final_backlog
    return dict(
        tct_mean_s=result.mean_tct,
        tct_p99_s=None,
        generated=result.total_generated,
        completed=result.total_arrivals - backlog,
        dropped=0.0,
        shed=result.total_shed,
        in_flight=backlog,
        retries=0,
    )


def event_summary(result) -> dict:
    return dict(
        tct_mean_s=result.mean_tct,
        tct_p99_s=result.tct_percentile(99),
        generated=result.generated_count,
        completed=result.completed_count,
        dropped=result.dropped_count,
        shed=result.shed_count,
        in_flight=result.in_flight_count,
        retries=result.total_retries,
    )


def identity_failures(result, label: str) -> list[str]:
    """The SLO identity ``generated = completed + dropped + shed +
    in_flight`` (and the streaming aggregate's own gap) on a task run."""
    s = event_summary(result)
    failures = []
    books = s["completed"] + s["dropped"] + s["shed"] + s["in_flight"]
    if s["generated"] != books:
        failures.append(f"{label}: generated {s['generated']} != {books}")
    if result.stats is not None and result.stats.identity_gap != 0:
        failures.append(f"{label}: identity_gap {result.stats.identity_gap}")
    return failures


def series_tasks(arrivals) -> float:
    """Expected tasks of trace-replay arrivals (one mean per slot)."""
    return float(sum(sum(process.trace) for process in arrivals))


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


# -- the five workloads -------------------------------------------------------


def wild_fleet_fluid(seed: int, size: dict, clock: Clock) -> Prepared:
    n, slots = size["devices"], size["slots"]
    with clock("schemes"):
        # LEIME's exit setting for the testbed's per-device edge slice.
        config = common.TestbedConfig(arrival_rate=WILD_RATE)
        partition = branch_and_bound_exit_setting(
            config.me_dnn(), config.average_environment()
        ).partition
    with clock("inputs"):
        trace = generate_trace(wild_trace_spec(n, slots), seed=seed)
        arrivals = arrival_processes(trace, poisson=True)
        environment = TraceEnvironment(trace)
        system = testbed_fleet(n, partition)
    with clock("construct"):
        sim = SlotSimulator(
            system=system,
            arrivals=arrivals,
            environment=environment,
            seed=seed,
            vectorized=True,
        )
        policy = DriftPlusPenaltyPolicy(v=common.DEFAULT_V, vectorized=True)

    def check(result, summary: dict) -> list[str]:
        # is_stable's default tolerance (0.05 tasks/slot) is per device.
        if result.is_stable(tolerance_per_slot=0.05 * n):
            return []
        return ["wild fleet backlog is not stable"]

    return Prepared(
        run=lambda: sim.run(policy, slots, metrics="streaming"),
        summarize=fluid_summary,
        check=check,
        inputs=(seed, system, trace),
        tasks=series_tasks(arrivals),
        protocol_types=(DriftPlusPenaltyPolicy, TraceArrivals, TraceEnvironment),
    )


def _faulty_simulator(seed: int, n: int, slots: int) -> EventSimulator:
    spec = FaultPlanSpec(
        num_slots=slots,
        num_devices=n,
        drop_prob=0.04,
        corrupt_prob=0.02,
        straggler_prob=0.05,
        # No edge crashes: when a crash lands would dominate the
        # seed-to-seed spread of every simulated metric.
        crash_rate=0.0,
    )
    # A Pi's first block takes 0.75 s and the intermediate upload is
    # 0.94 MB, so at 2 tasks/slot slow devices saturate; a few saturated
    # devices would carry a fifth of all TCT and make the mean measure
    # which devices saturate.  Draw from the fast end of the wild ranges.
    system = provisioned_system(
        seed, n, EVENT_RATE, inception_partition(),
        pi_multiple=(2.0, 10.0), uplink_mbps=(15.0, 30.0),
    )
    return EventSimulator(
        system=system,
        arrivals=[PoissonArrivals(EVENT_RATE)] * n,
        seed=seed,
        faults=generate_fault_plan(spec, seed=seed),
        recovery=RecoveryPolicy.default(),
    )


def faulty_fleet_events(seed: int, size: dict, clock: Clock) -> Prepared:
    n, slots = size["devices"], size["slots"]
    with clock("inputs"):
        sim = _faulty_simulator(seed, n, slots)
    with clock("construct"):
        policy = FixedRatioPolicy(0.5)
        sink = CheckpointLog()

    def run():
        return sim.run(
            policy,
            slots,
            drain_limit_factor=200.0,
            engine="fast",
            metrics="streaming",
            checkpoint_every=10,
            checkpoint_sink=sink,
        )

    def check(result, summary: dict) -> list[str]:
        failures = identity_failures(result, "faulty fleet")
        expected = (slots - 1) // 10
        if len(sink.checkpoints) != expected:
            failures.append(
                f"{len(sink.checkpoints)} checkpoints, expected {expected}"
            )
        return failures

    return Prepared(
        run=run,
        summarize=event_summary,
        check=check,
        inputs=(seed, sim.system, sim.faults, sim.arrivals[0]),
        tasks=n * slots * EVENT_RATE,
        protocol_types=(FixedRatioPolicy, PoissonArrivals, StaticEnvironment),
    )


def _qos_simulator(seed: int, n: int, slots: int, vectorized: bool) -> SlotSimulator:
    rates = canonical_mixed_qos_burst(
        num_slots=slots, num_devices=n, base_rate=QOS_BASE_RATE, magnitude=QOS_BURST
    )
    return SlotSimulator(
        system=provisioned_system(seed, n, QOS_BASE_RATE, inception_partition()),
        arrivals=[TraceArrivals.from_series(rates[:, i]) for i in range(n)],
        seed=seed,
        vectorized=vectorized,
        overload=OverloadControl(),
        qos=QOS,
    )


def qos_burst_fluid(seed: int, size: dict, clock: Clock) -> Prepared:
    n, slots = size["devices"], size["slots"]
    with clock("inputs"):
        sim = _qos_simulator(seed, n, slots, vectorized=True)
    with clock("construct"):
        policy = FixedRatioPolicy(0.5)

    def summarize(result) -> dict:
        summary = fluid_summary(result)
        gaps = result.class_identity_gaps()
        summary["class_identity_gap"] = max(abs(g) for g in gaps.values())
        summary["class_flow_gap"] = abs(
            sum(result.class_flow.generated)
            - (result.total_arrivals + result.total_shed)
        )
        return summary

    def check(result, summary: dict) -> list[str]:
        tolerance = 1e-9 * max(summary["generated"], 1.0)
        return [
            f"per-class {key} {summary[key]}"
            for key in ("class_identity_gap", "class_flow_gap")
            if summary[key] > tolerance
        ]

    return Prepared(
        run=lambda: sim.run(policy, slots, metrics="streaming"),
        summarize=summarize,
        check=check,
        inputs=(seed, sim.system, [a.trace for a in sim.arrivals], QOS),
        tasks=series_tasks(sim.arrivals),
        protocol_types=(FixedRatioPolicy, TraceArrivals, StaticEnvironment),
    )


def federated_failover(seed: int, size: dict, clock: Clock) -> Prepared:
    n, slots = size["devices"], size["slots"]
    with clock("inputs"):
        topology = provisioned_federation(
            seed, FEDERATION_EDGES, n, FEDERATION_RATE, inception_partition()
        )
        faults = canonical_partial_outage(slots, FEDERATION_EDGES, edge=0, seed=seed)
    with clock("assignment"):
        plan = build_assignment_plan(
            topology,
            slots,
            seed=seed,
            churn_per_100=1.0,
            saturation=1.5,
            outages=faults.edge_down,
            migrate=True,
        )
    with clock("construct"):
        sim = FederatedSlotSimulator(
            topology=topology,
            arrivals=[PoissonArrivals(FEDERATION_RATE)] * n,
            plan=plan,
            seed=seed,
            vectorized=True,
            overload=OverloadControl(),
            faults=faults,
        )
        policy = FixedRatioPolicy(0.5)

    def summarize(result) -> dict:
        summary = fluid_summary(result.global_result)
        per_edge = federated_fluid_summary(result)
        summary["edge_identity_gap"] = per_edge["identity_gap"]
        summary["edge_tct_s"] = [e["mean_tct"] for e in per_edge["edges"]]
        return summary

    def check(result, summary: dict) -> list[str]:
        if summary["edge_identity_gap"] > 1e-6 * max(summary["generated"], 1.0):
            return [f"per-edge sums differ by {summary['edge_identity_gap']}"]
        return []

    return Prepared(
        run=lambda: sim.run(policy, slots, metrics="streaming"),
        summarize=summarize,
        check=check,
        inputs=(seed, topology, plan.matrix, faults.edge_down),
        tasks=n * slots * FEDERATION_RATE,
        protocol_types=(FixedRatioPolicy, PoissonArrivals, StaticEnvironment),
    )


def paper_testbed_grid(seed: int, size: dict, clock: Clock) -> Prepared:
    slots = size["slots"]
    with clock("inputs"):
        configs = {m: common.TestbedConfig(model=m) for m in common.MODEL_NAMES}
        # One seed per model; its four schemes share it (common random
        # numbers, as compare_schemes runs them).  Four Pis draw few
        # tasks, so one draw for the whole grid would swing every cell
        # together from seed to seed.
        seeds = {m: seed * len(configs) + k for k, m in enumerate(configs)}
    with clock("schemes"):
        schemes = {
            (model, name): builder(configs[model])
            for model in common.MODEL_NAMES
            for name, builder in common.SCHEME_BUILDERS.items()
        }

    def run() -> dict:
        # The grid entry point's loop, with the scheme builders hoisted
        # into set-up; the once-per-run check pins it to compare_schemes.
        return {
            (simulator, model, name): common.run_scheme(
                configs[model],
                scheme,
                num_slots=slots,
                seed=seeds[model],
                simulator=simulator,
            )
            for simulator in ("slot", "event")
            for (model, name), scheme in schemes.items()
        }

    def summarize(results: dict) -> dict:
        totals = dict(generated=0.0, completed=0.0, dropped=0.0, shed=0.0,
                      in_flight=0.0, retries=0)
        cells: dict[str, dict[str, float]] = {}
        for (simulator, model, name), result in results.items():
            part = (
                fluid_summary(result) if simulator == "slot" else event_summary(result)
            )
            for key in totals:
                totals[key] += part[key]
            cells.setdefault(f"{simulator}/{model}", {})[name] = part["tct_mean_s"]
        leime = [cell["LEIME"] for cell in cells.values()]
        return dict(
            tct_mean_s=sum(leime) / len(leime), tct_p99_s=None, cells=cells, **totals
        )

    def check(results: dict, summary: dict) -> list[str]:
        failures = [
            f"LEIME is not fastest in {cell}: {tcts}"
            for cell, tcts in summary["cells"].items()
            if min(tcts, key=tcts.get) != "LEIME"
        ]
        for (simulator, model, name), result in results.items():
            if simulator == "event":
                failures += identity_failures(result, f"{model}/{name}")
        return failures

    return Prepared(
        run=run,
        summarize=summarize,
        check=check,
        inputs=(seeds, slots, configs, schemes),
        tasks=2 * sum(
            configs[model].num_devices * configs[model].arrival_rate * slots
            for model, _ in schemes
        ),
        protocol_types=(
            DriftPlusPenaltyPolicy,
            FixedRatioPolicy,
            PoissonArrivals,
            StaticEnvironment,
        ),
    )


PREPARE = {
    "wild-fleet-fluid": wild_fleet_fluid,
    "faulty-fleet-events": faulty_fleet_events,
    "qos-burst-fluid": qos_burst_fluid,
    "federated-failover": federated_failover,
    "paper-testbed-grid": paper_testbed_grid,
}


# -- reduced-size checks, once per invocation ----------------------------------


def check_wild(seed: int) -> list[str]:
    """Fluid scalar == vectorized, byte for byte, on a wild trace."""
    n, slots = 12, 24
    trace = generate_trace(wild_trace_spec(n, slots), seed=seed)
    system = testbed_fleet(n, inception_partition())
    records = []
    for vectorized in (False, True):
        sim = SlotSimulator(
            system=system,
            arrivals=arrival_processes(trace, poisson=True),
            environment=TraceEnvironment(trace),
            seed=seed,
            vectorized=vectorized,
        )
        policy = DriftPlusPenaltyPolicy(v=common.DEFAULT_V, vectorized=vectorized)
        records.append(sim.run(policy, slots).records)
    return [] if records[0] == records[1] else ["fluid scalar != vectorized"]


def check_faulty(seed: int) -> list[str]:
    """Event scalar == fast per task with faults, and kill/resume from a
    fast-engine checkpoint reproduces the uninterrupted run."""
    failures = []
    scalar, fast = [
        _faulty_simulator(seed, 16, 10).run(
            FixedRatioPolicy(0.5), 10, drain_limit_factor=200.0, engine=engine
        )
        for engine in ("scalar", "fast")
    ]
    same = len(scalar.tasks) == len(fast.tasks) and all(
        (a.task_id, a.exit_tier, a.retries, a.dropped, a.shed)
        == (b.task_id, b.exit_tier, b.retries, b.dropped, b.shed)
        and (
            a.completed == b.completed
            or None not in (a.completed, b.completed)
            and _close(a.completed, b.completed)
        )
        for a, b in zip(scalar.tasks, fast.tasks)
    )
    if not same:
        failures.append("event scalar != fast per task")

    n, slots = 120, 20

    def run(**hooks):
        return _faulty_simulator(seed, n, slots).run(
            FixedRatioPolicy(0.5),
            slots,
            drain_limit_factor=200.0,
            engine="fast",
            metrics="streaming",
            **hooks,
        )

    whole = run()
    try:
        run(checkpoint_every=5, checkpoint_sink=KillSwitch(kill_slot=10))
        failures.append("kill switch never fired")
    except Killed as killed:
        restored = checkpoint_from_bytes(checkpoint_to_bytes(killed.checkpoint))
        resumed = run(resume_from=restored)
        a, b = whole.stats, resumed.stats
        counters = ("generated", "completed", "dropped", "shed", "in_flight", "retries")
        if any(getattr(a, c) != getattr(b, c) for c in counters) or a.tct_sum != b.tct_sum:
            failures.append("resumed run != uninterrupted run")
    return failures


def check_qos(seed: int) -> list[str]:
    """Fluid scalar == vectorized with overload control and QoS on."""
    records = [
        _qos_simulator(seed, 10, 32, vectorized).run(FixedRatioPolicy(0.5), 32).records
        for vectorized in (False, True)
    ]
    return [] if records[0] == records[1] else ["QoS fluid scalar != vectorized"]


def check_federated(seed: int) -> list[str]:
    """An E=1 federation equals the single-edge run, byte for byte."""
    slots = 16
    system = provisioned_system(seed, 8, FEDERATION_RATE, inception_partition())
    arrivals = [PoissonArrivals(FEDERATION_RATE)] * 8
    single = SlotSimulator(
        system=system, arrivals=arrivals, seed=seed, vectorized=True,
        overload=OverloadControl(),
    ).run(FixedRatioPolicy(0.5), slots)
    topology = single_edge_topology(system)
    federated = FederatedSlotSimulator(
        topology=topology,
        arrivals=arrivals,
        plan=build_assignment_plan(topology, slots),
        seed=seed,
        vectorized=True,
        overload=OverloadControl(),
    ).run(FixedRatioPolicy(0.5), slots)
    if single.records != federated.global_result.records:
        return ["E=1 federation != single edge"]
    return []


def check_grid(seed: int) -> list[str]:
    """The grid's hoisted scheme builders give what ``compare_schemes``
    (the grid entry point) gives, on both simulators."""
    config = common.TestbedConfig()
    failures = []
    for simulator in ("slot", "event"):
        reference = common.compare_schemes(
            config, num_slots=30, seed=seed, simulator=simulator
        )
        for name, builder in common.SCHEME_BUILDERS.items():
            mine = common.run_scheme(
                config, builder(config), num_slots=30, seed=seed, simulator=simulator
            )
            if mine.mean_tct != reference[name].mean_tct:
                failures.append(f"{simulator}/{name} differs from compare_schemes")
    return failures


ONCE_CHECKS = {
    "wild-fleet-fluid": check_wild,
    "faulty-fleet-events": check_faulty,
    "qos-burst-fluid": check_qos,
    "federated-failover": check_federated,
    "paper-testbed-grid": check_grid,
}
