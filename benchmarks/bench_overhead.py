"""Control-plane overhead: each layer's run time over its baseline's.

One case table times what each control-plane layer costs:

* ``overload``: the overload layer (admission gate, backpressure,
  degradation ladder) against an ungoverned run, through the canonical
  flash crowd;
* ``qos``: the QoS layer (classes, warm pool, class-aware ladder) on top
  of overload control against overload control alone, through the
  canonical mixed-QoS burst;
* ``checkpoint``: a checkpoint every slot into an in-memory
  :class:`~repro.chaos.checkpoint.CheckpointLog` against no hooks;
* ``sharding``: the E-edge federated fluid path against the single-edge
  vectorized simulator over the same device count.

The first three run the fast event engine and the vectorized slot path
at 10, 100 and 1,000 devices for 40 slots; sharding runs 1,000 devices
over 4 edges and 10,000 over 8 for 10 slots.

Every row is timed the same way.  Each side of a pair runs the same R
back-to-back fresh runs, R being the smallest count whose baseline
total clears the 0.2 s timing floor; 15 pairs alternate which side goes
first.  A row's ``overhead`` is the median of the per-pair ratios
(feature time over baseline time, machine-independent unlike absolute
seconds); the JSON also keeps the quartiles and each side's median
seconds per run.

Before timing a row, its case checks that the layer keeps the books it
must keep: SLO identities, fluid conservation, scalar-vs-fast engine
twins, checkpoint kill/resume, the E=1 federation against the single
edge.  A violation exits non-zero without writing.  Results land in
``BENCH_overhead.json`` at the repo root, with the host and git commit.

Run directly::

    PYTHONPATH=src python benchmarks/bench_overhead.py
    PYTHONPATH=src python benchmarks/bench_overhead.py --case qos --output /tmp/o.json

Regression gate (CI): fail when a fresh row's overhead exceeds its
committed row's by more than 30%, or has no committed row::

    PYTHONPATH=src python benchmarks/bench_overhead.py --check BENCH_overhead.json

``--check`` alone writes nothing; with ``--output`` too, one sweep is
gated first and then written (the CI form).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, replace
from functools import partial
from operator import attrgetter
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:  # for `tests.helpers` when run as a script
    sys.path.insert(0, str(REPO_ROOT))

from hostinfo import host_record

from repro.chaos.checkpoint import (
    CheckpointLog,
    Killed,
    KillSwitch,
    checkpoint_from_bytes,
    checkpoint_to_bytes,
)
from repro.chaos.oracles import event_conservation
from repro.core.offloading import FixedRatioPolicy
from repro.federation import (
    FederatedSlotSimulator,
    build_assignment_plan,
    federated_fluid_summary,
    random_federation,
    single_edge_topology,
)
from repro.resilience.overload import OverloadControl
from repro.resilience.qos import QoSConfig
from repro.sim.arrivals import ConstantArrivals, PoissonArrivals, TraceArrivals
from repro.sim.events import EventSimulator
from repro.sim.simulator import SlotSimulator
from repro.traces.generators import canonical_flash_crowd, canonical_mixed_qos_burst

from tests.helpers import inception_partition, random_fleet, static_home_plan

EVENTS, FLUID = "events-fast", "fluid-vec"
#: Pairs per row, alternating which side runs first.  Seven let the
#: median of the 1,000-device checkpointed event row (single runs) drift
#: past the 30% tolerance on an unchanged tree.
PAIRS = 15
#: Baseline seconds each side of a pair is timed over, at least.
TIMING_FLOOR_S = 0.2
#: Allowed relative growth in a row's overhead before --check fails.
REGRESSION_TOLERANCE = 0.30
#: Scalar-engine twin and kill/resume checks only up to this fleet size
#: (they rerun the scenario; the scalar engine is pointless to wait on at
#: 1,000 devices).
SMALL_FLEET_MAX_DEVICES = 100
#: Base tasks per device per slot; the crowd and the burst multiply it.
RATE = 0.5
MAGNITUDE = 10.0
#: The QoS layer under test: a real memory budget (so the warm pool
#: evicts and reloads throughout the burst) and a shed budget (so the
#: utility-per-cost ordering runs every degraded slot).
QOS = QoSConfig(memory_fraction=0.5, cold_start_seconds=0.25, shed_budget=50.0)


class Row(NamedTuple):
    path: str
    devices: int
    edges: int | None = None


@dataclass(frozen=True)
class Case:
    """A control-plane layer timed against its baseline on each row.

    ``setup(row, slots, seed, feature)`` builds a fresh simulator with
    (``feature=True``) or without the layer and returns it with the
    keyword arguments of its ``run``; ``check(case, row, seed)`` returns
    the violations of the books the layer must keep.
    """

    name: str
    about: str
    slots: int
    rows: tuple[Row, ...]
    setup: Callable[[Row, int, int, bool], tuple[object, dict]]
    check: Callable[["Case", Row, int], list[str]]

    def run(self, row: Row, seed: int, feature: bool, **extra):
        """One fresh run; returns its seconds (the ``run`` call alone)
        and its result."""
        sim, kwargs = self.setup(row, self.slots, seed, feature)
        start = time.perf_counter()
        result = sim.run(FixedRatioPolicy(0.5), self.slots, **{**kwargs, **extra})
        return time.perf_counter() - start, result


def row_name(case: str, row: Row) -> str:
    size = f"{row.devices}x{row.edges}" if row.edges else str(row.devices)
    return f"{case} {row.path} {size}"


# -- scenarios ----------------------------------------------------------------


def _scaled_fleet(seed: int, n: int):
    # random_fleet's backend is a single edge box; scale it with the fleet
    # (as bench_events does) so the base load stays stable per device.
    fleet = random_fleet(seed, n)
    scale = max(1.0, n / 4.0)
    return replace(
        fleet,
        edge_flops=fleet.edge_flops * scale,
        cloud_flops=fleet.cloud_flops * scale,
    )


def _simulator(row: Row, system, arrivals, seed: int, **layers):
    if row.path == EVENTS:
        sim = EventSimulator(
            system=system, arrivals=arrivals, seed=seed + 12, **layers
        )
        return sim, {"drain_limit_factor": 200.0, "engine": "fast"}
    sim = SlotSimulator(
        system=system, arrivals=arrivals, seed=seed + 12, vectorized=True, **layers
    )
    return sim, {}


def _traced(rates: np.ndarray) -> list[TraceArrivals]:
    return [TraceArrivals.from_series(rates[:, i]) for i in range(rates.shape[1])]


def _overload_setup(row: Row, slots: int, seed: int, feature: bool):
    rates = canonical_flash_crowd(
        num_slots=slots,
        num_devices=row.devices,
        base_rate=RATE,
        magnitude=MAGNITUDE,
        crowd_start=slots // 4,
        crowd_stop=slots // 2,
    )
    return _simulator(
        row,
        _scaled_fleet(seed + 31, row.devices),
        _traced(rates),
        seed,
        overload=OverloadControl() if feature else None,
    )


def _qos_setup(row: Row, slots: int, seed: int, feature: bool):
    rates = canonical_mixed_qos_burst(
        num_slots=slots,
        num_devices=row.devices,
        base_rate=RATE,
        magnitude=MAGNITUDE,
    )
    return _simulator(
        row,
        _scaled_fleet(seed + 31, row.devices),
        _traced(rates),
        seed,
        overload=OverloadControl(),
        qos=QOS if feature else None,
    )


def _checkpoint_setup(row: Row, slots: int, seed: int, feature: bool):
    sim, kwargs = _simulator(
        row,
        _scaled_fleet(seed + 47, row.devices),
        [PoissonArrivals(RATE)] * row.devices,
        seed,
    )
    if feature:
        kwargs.update(checkpoint_every=1, checkpoint_sink=CheckpointLog())
    return sim, kwargs


def _sharding_setup(row: Row, slots: int, seed: int, feature: bool):
    arrivals = [ConstantArrivals(RATE)] * row.devices
    if not feature:
        system = random_fleet(seed + 31, row.devices)
        return SlotSimulator(
            system=system, arrivals=arrivals, seed=seed, vectorized=True
        ), {}
    topology = random_federation(
        seed=seed,
        num_edges=row.edges,
        num_devices=row.devices,
        partition=inception_partition(),
    )
    sim = FederatedSlotSimulator(
        topology=topology,
        arrivals=arrivals,
        plan=build_assignment_plan(topology, slots, seed=seed),
        seed=seed,
        vectorized=True,
    )
    return sim, {}


# -- checks (each runs once per row, before timing) ----------------------------

_TWIN = attrgetter("exit_tier", "completed", "shed", "dropped", "qos")


def _engines_agree(a, b) -> bool:
    return (
        a.modes == b.modes
        and len(a.tasks) == len(b.tasks)
        and all(_TWIN(x) == _TWIN(y) for x, y in zip(a.tasks, b.tasks))
    )


def _fluid_books(result, classes: bool) -> list[str]:
    """``generated = admitted + shed``, summed over classes under QoS."""
    admitted = result.total_arrivals + result.total_shed
    if classes:
        flow = result.class_flow
        generated = math.nan if flow is None else sum(flow.generated)
        balanced = math.isclose(generated, admitted, rel_tol=1e-9, abs_tol=1e-6)
    else:
        generated = result.total_generated
        balanced = abs(generated - admitted) <= 1e-6 * max(generated, 1.0)
    if balanced:
        return []
    return [f"generated {generated!r} != admitted + shed {admitted!r}"]


def _governed_check(case: Case, row: Row, seed: int, classes: bool = False):
    """The governed run's books balance (per class under QoS), and on
    small fleets the scalar event engine replays the fast one task for
    task."""
    _, result = case.run(row, seed, True)
    if row.path == FLUID:
        return _fluid_books(result, classes)
    violations = event_conservation(result)
    if classes:
        violations += [
            f"class {name} identity gap {gap}"
            for name, gap in result.class_identity_gaps().items()
            if abs(gap) >= 1e-9
        ]
    if row.devices <= SMALL_FLEET_MAX_DEVICES:
        _, scalar = case.run(row, seed, True, engine="scalar")
        if not _engines_agree(scalar, result):
            violations.append("the scalar and fast event engines diverged")
    return violations


def _checkpoint_check(case: Case, row: Row, seed: int) -> list[str]:
    """Hooks change no answer, and on small fleets a run killed at
    mid-run and resumed from its checkpoint's bytes ends where the plain
    run does."""

    def answer(result):
        return result.tasks if row.path == EVENTS else list(result.records)

    _, hooked = case.run(row, seed, True)
    _, plain = case.run(row, seed, False)
    violations = []
    if answer(hooked) != answer(plain):
        violations.append("checkpoint hooks changed the answer")
    if row.devices <= SMALL_FLEET_MAX_DEVICES:
        switch = KillSwitch(case.slots // 2)
        try:
            case.run(row, seed, False, checkpoint_every=1, checkpoint_sink=switch)
            return violations + ["the kill switch never fired"]
        except Killed as killed:
            checkpoint = checkpoint_from_bytes(checkpoint_to_bytes(killed.checkpoint))
        _, resumed = case.run(row, seed, False, resume_from=checkpoint)
        if answer(resumed) != answer(plain):
            violations.append("the resumed run diverged from the plain run")
    return violations


def _one_edge_conforms(seed: int) -> bool:
    """E=1 federated fluid records equal the single-edge records."""
    system = random_fleet(seed + 77, 4)
    arrivals = [ConstantArrivals(RATE)] * 4
    single = SlotSimulator(
        system=system, arrivals=arrivals, seed=seed, vectorized=True
    ).run(FixedRatioPolicy(0.5), 12)
    topology = single_edge_topology(system)
    federated = FederatedSlotSimulator(
        topology=topology,
        arrivals=arrivals,
        plan=static_home_plan(topology, 12),
        seed=seed,
        vectorized=True,
    ).run(FixedRatioPolicy(0.5), 12)
    return single.records == federated.global_result.records


def _sharding_check(case: Case, row: Row, seed: int) -> list[str]:
    """The E=1 federation conforms to the single edge, and the sharded
    run's per-edge books add up to the fleet's."""
    violations = []
    if not _one_edge_conforms(seed):
        violations.append("the E=1 federation diverged from the single edge")
    _, result = case.run(row, seed, True)
    gap = federated_fluid_summary(result)["identity_gap"]
    if not gap < 1e-6 * max(result.global_result.total_generated, 1.0):
        violations.append(f"per-edge books miss the fleet's by {gap!r}")
    return violations


LAYER_ROWS = tuple(Row(path, n) for path in (EVENTS, FLUID) for n in (10, 100, 1000))

CASES = {
    case.name: case
    for case in (
        Case(
            "overload",
            "governed vs ungoverned; canonical flash crowd "
            f"(base {RATE}, x{MAGNITUDE})",
            40,
            LAYER_ROWS,
            _overload_setup,
            _governed_check,
        ),
        Case(
            "qos",
            f"QoS + overload vs overload only; canonical mixed-QoS burst "
            f"(base {RATE}, x{MAGNITUDE}); {QOS!r}",
            40,
            LAYER_ROWS,
            _qos_setup,
            partial(_governed_check, classes=True),
        ),
        Case(
            "checkpoint",
            f"checkpoint_every=1 into a CheckpointLog vs no hooks; "
            f"PoissonArrivals({RATE})",
            40,
            LAYER_ROWS,
            _checkpoint_setup,
            _checkpoint_check,
        ),
        Case(
            "sharding",
            f"E-edge federation vs the single edge; ConstantArrivals({RATE})",
            10,
            (Row(FLUID, 1000, 4), Row(FLUID, 10000, 8)),
            _sharding_setup,
            _sharding_check,
        ),
    )
}


# -- timing and gate -------------------------------------------------------------


def time_row(case: Case, row: Row, seed: int) -> dict:
    """Time one row by the rule in the module docstring."""
    runs, total = 0, 0.0
    while total < TIMING_FLOOR_S:
        total += case.run(row, seed, False)[0]
        runs += 1
    ratios, per_run = [], {True: [], False: []}
    for pair in range(PAIRS):
        totals = {
            feature: sum(case.run(row, seed, feature)[0] for _ in range(runs))
            for feature in ((False, True) if pair % 2 == 0 else (True, False))
        }
        ratios.append(totals[True] / totals[False])
        for feature, seconds in totals.items():
            per_run[feature].append(seconds / runs)
    q1, median, q3 = np.percentile(ratios, (25, 50, 75))
    return {
        "row": row_name(case.name, row),
        "case": case.name,
        **row._asdict(),
        "slots": case.slots,
        "runs": runs,
        "pairs": PAIRS,
        "feature_s": round(float(np.median(per_run[True])), 4),
        "baseline_s": round(float(np.median(per_run[False])), 4),
        "overhead": round(float(median), 3),
        "q1": round(float(q1), 3),
        "q3": round(float(q3), 3),
    }


def sweep(names: list[str], seed: int = 0) -> list[dict]:
    results = []
    for case in (CASES[name] for name in names):
        for row in case.rows:
            violations = case.check(case, row, seed)
            if violations:
                raise SystemExit(
                    f"{row_name(case.name, row)}: {'; '.join(violations)} "
                    "— refusing to write benchmark results"
                )
            result = time_row(case, row, seed)
            results.append(result)
            print(
                f"{result['row']:<30} overhead {result['overhead']:6.3f}x "
                f"(IQR {result['q1']:.3f}-{result['q3']:.3f}), "
                f"{result['feature_s']:.4f}s vs {result['baseline_s']:.4f}s "
                f"per run, {result['runs']} runs x {PAIRS} pairs"
            )
    return results


def check(baseline_path: Path, results: list[dict]) -> int:
    """Fail when a fresh row's overhead exceeds its committed row's by
    more than the tolerance, or has no committed row."""
    committed = {
        r["row"]: r for r in json.loads(baseline_path.read_text())["results"]
    }
    failures = []
    for result in results:
        name = result["row"]
        base = committed.get(name)
        if base is None:
            failures.append(f"{name}: no committed row")
            continue
        ceiling = base["overhead"] * (1.0 + REGRESSION_TOLERANCE)
        if result["overhead"] > ceiling:
            failures.append(
                f"{name}: overhead {result['overhead']:.3f}x > {ceiling:.3f}x "
                f"(committed {base['overhead']:.3f}x + {REGRESSION_TOLERANCE:.0%})"
            )
    if failures:
        print(f"REGRESSION in {len(failures)} rows:\n  " + "\n  ".join(failures))
        return 1
    print(f"all {len(results)} overheads within tolerance of the committed rows")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--case",
        nargs="+",
        choices=list(CASES),
        default=list(CASES),
        help="cases to sweep (default: all)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="where to write the JSON results; defaults to the repo-root "
        "BENCH_overhead.json, which --check alone never writes",
    )
    parser.add_argument(
        "--check",
        type=Path,
        default=None,
        metavar="BASELINE",
        help="gate every row's overhead against this committed baseline; "
        "exit 1 on a >30%% growth or a missing row",
    )
    args = parser.parse_args(argv)

    results = sweep([name for name in CASES if name in args.case], args.seed)
    # Gate before writing, so an --output naming the baseline is still
    # checked against the committed numbers.
    status = 0 if args.check is None else check(args.check, results)
    if args.output is None and args.check is not None:
        return status
    payload = {
        "benchmark": "control_plane_overhead",
        "policy": "FixedRatioPolicy(0.5)",
        "seed": args.seed,
        "timing_floor_s": TIMING_FLOOR_S,
        "cases": {name: case.about for name, case in CASES.items()},
        "host": host_record(),
        "results": results,
    }
    output = args.output or REPO_ROOT / "BENCH_overhead.json"
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {output}")
    return status


# -- pytest-benchmark entry point (small configurations) ------------------------

#: case -> (row, slots, extra_info key); the feature side's throughput.
SMALL = {
    "overload": (Row(EVENTS, 100), 20, "governed_tasks_per_sec_100dev"),
    "qos": (Row(EVENTS, 100), 20, "qos_tasks_per_sec_100dev"),
    "checkpoint": (Row(EVENTS, 100), 20, "checkpointed_tasks_per_sec_100dev"),
    "sharding": (Row(FLUID, 200, 4), 10, "sharded_device_slots_per_sec_200dev"),
}


def pytest_generate_tests(metafunc):
    # A module-level pytest hook, so the script itself needs no pytest.
    if "case_name" in metafunc.fixturenames:
        metafunc.parametrize("case_name", list(SMALL))


def bench_overhead(benchmark, case_name):
    row, slots, key = SMALL[case_name]
    case = replace(CASES[case_name], slots=slots)

    def run():
        elapsed, result = case.run(row, 0, True)
        work = row.devices * slots if row.edges else len(result.tasks)
        return work / elapsed

    benchmark.extra_info[key] = round(benchmark(run), 1)


if __name__ == "__main__":
    raise SystemExit(main())
