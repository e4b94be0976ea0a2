"""QoS-layer overhead: class-aware vs overload-only replay under a burst.

Sweeps fleet sizes through the canonical mixed-QoS burst
(:func:`repro.traces.generators.canonical_mixed_qos_burst`) and times
the identical scenario with the full QoS layer (classes + warm pool +
class-aware ladder) against the PR 5 overload-only baseline on the fast
event engine and the vectorized slot path.  Every event row verifies
the extended SLO identity ``generated = completed + dropped + shed +
in-flight`` plus the per-class identity gaps, and — at small fleets,
where the scalar reference is affordable — per-task equality (QoS tags
included) between the two event engines; every fluid row verifies the
per-class conservation ``sum_c generated_c = admitted + shed``.
Results land in ``BENCH_qos.json`` at the repo root.

Run directly::

    PYTHONPATH=src python benchmarks/bench_qos.py
    PYTHONPATH=src python benchmarks/bench_qos.py --devices 10 --slots 20

Each fluid configuration is timed over enough back-to-back fresh runs
that its overload-only total clears the 0.2 s timing floor; fluid rows
report seconds per run and how many runs they averaged.

Soft regression gate (CI): compare a fresh sweep against the committed
baseline and fail when any row's *overhead ratio* (QoS-governed time
over overload-only time — machine-independent, unlike absolute
seconds) grew by more than 30%::

    PYTHONPATH=src python benchmarks/bench_qos.py --check BENCH_qos.json

``--check`` alone writes nothing; with ``--output`` too, one sweep is
gated first and then written (the CI form).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:  # for `tests.helpers` when run as a script
    sys.path.insert(0, str(REPO_ROOT))

from repro.core.offloading import FixedRatioPolicy
from repro.resilience.overload import OverloadControl
from repro.resilience.qos import QoSConfig
from repro.sim.arrivals import TraceArrivals
from repro.sim.events import EventSimulator
from repro.sim.simulator import SlotSimulator
from repro.traces.generators import canonical_mixed_qos_burst

from tests.helpers import random_fleet

DEFAULT_DEVICES = (10, 100, 1000)
#: Base tasks per device per slot; the burst multiplies this.
BASE_RATE = 0.5
BURST_MAGNITUDE = 10.0
#: Scalar-engine identity checks only below this fleet size (the scalar
#: reference is O(tasks·hops) Python closures — fine at 10 devices,
#: pointless to wait on at 1,000).
SCALAR_CHECK_MAX_DEVICES = 100
#: Allowed relative growth in a row's overhead ratio before --check fails.
REGRESSION_TOLERANCE = 0.30
#: Overload-only seconds a row must be timed over before --check gates
#: it; fluid rows repeat fresh runs until their total clears it.
TIMING_FLOOR_S = 0.2

#: The QoS layer under test: a real memory budget (so the warm pool
#: evicts and reloads throughout the burst) and a shed budget (so the
#: utility-per-cost ordering runs every degraded slot).
QOS = QoSConfig(
    memory_fraction=0.5, cold_start_seconds=0.25, shed_budget=50.0
)


def _scaled_fleet(n: int, seed: int):
    # random_fleet's backend is a single edge box; scale it with the fleet
    # (as bench_events does) so the *base* load is stable and only the
    # burst window overloads.
    fleet = random_fleet(seed + 31, n)
    backend_scale = max(1.0, n / 4.0) * (BASE_RATE / 0.5)
    return replace(
        fleet,
        edge_flops=fleet.edge_flops * backend_scale,
        cloud_flops=fleet.cloud_flops * backend_scale,
    )


def _arrivals(n: int, slots: int) -> list[TraceArrivals]:
    rates = canonical_mixed_qos_burst(
        num_slots=slots,
        num_devices=n,
        base_rate=BASE_RATE,
        magnitude=BURST_MAGNITUDE,
    )
    return [TraceArrivals.from_series(rates[:, i]) for i in range(n)]


def _event_run(
    n: int,
    slots: int,
    qos: bool,
    seed: int,
    engine: str = "fast",
):
    sim = EventSimulator(
        system=_scaled_fleet(n, seed),
        arrivals=_arrivals(n, slots),
        seed=seed + 12,
        overload=OverloadControl(),
        qos=QOS if qos else None,
    )
    start = time.perf_counter()
    result = sim.run(
        FixedRatioPolicy(0.5), slots, drain_limit_factor=200.0, engine=engine
    )
    return time.perf_counter() - start, result


def _fluid_run(n: int, slots: int, qos: bool, seed: int):
    sim = SlotSimulator(
        system=_scaled_fleet(n, seed),
        arrivals=_arrivals(n, slots),
        seed=seed + 12,
        vectorized=True,
        overload=OverloadControl(),
        qos=QOS if qos else None,
    )
    start = time.perf_counter()
    result = sim.run(FixedRatioPolicy(0.5), slots)
    return time.perf_counter() - start, result


def _fluid_timing(n: int, slots: int, seed: int):
    """Seconds per run of the QoS and overload-only fluid configurations,
    each timed over the same number of back-to-back fresh runs: as many
    as the overload-only total needs to clear :data:`TIMING_FLOOR_S`."""
    runs, base_total = 0, 0.0
    while base_total < TIMING_FLOOR_S:
        elapsed, _ = _fluid_run(n, slots, qos=False, seed=seed)
        base_total += elapsed
        runs += 1
    qos_total = 0.0
    for _ in range(runs):
        elapsed, result = _fluid_run(n, slots, qos=True, seed=seed)
        qos_total += elapsed
    return runs, qos_total / runs, base_total / runs, result


def sweep(device_counts: list[int], slots: int, seed: int = 0) -> list[dict]:
    rows = []
    for n in device_counts:
        qos_s, rq = _event_run(n, slots, qos=True, seed=seed)
        base_s, _ = _event_run(n, slots, qos=False, seed=seed)
        identity = len(rq.tasks) == (
            len(rq.completed)
            + rq.dropped_count
            + rq.shed_count
            + rq.in_flight_count
        )
        class_identity = all(
            abs(gap) < 1e-9 for gap in rq.class_identity_gaps().values()
        )
        exact = None
        if n <= SCALAR_CHECK_MAX_DEVICES:
            _, rs = _event_run(n, slots, qos=True, seed=seed, engine="scalar")
            exact = (
                len(rs.tasks) == len(rq.tasks)
                and rs.modes == rq.modes
                and all(
                    a.exit_tier == b.exit_tier
                    and a.completed == b.completed
                    and a.shed == b.shed
                    and a.dropped == b.dropped
                    and a.qos == b.qos
                    for a, b in zip(rs.tasks, rq.tasks)
                )
            )
        row = {
            "path": "events",
            "devices": n,
            "tasks": len(rq.tasks),
            "shed": rq.shed_count,
            "max_mode": max(rq.modes) if rq.modes else 0,
            "runs": 1,
            "qos_s": round(qos_s, 3),
            "baseline_s": round(base_s, 3),
            "overhead": round(qos_s / base_s, 3),
            "identity": identity and class_identity,
            "exact": exact,
        }
        rows.append(row)
        print(
            f"events {n:>6} devices: {row['tasks']:>7} tasks, "
            f"qos {qos_s:7.3f}s, overload-only {base_s:7.3f}s, "
            f"overhead {row['overhead']:5.3f}x, shed {row['shed']}, "
            f"identity={row['identity']}, exact={exact}"
        )
        if not row["identity"] or exact is False:
            raise SystemExit(
                "QoS accounting violated an identity or the engines "
                "diverged — refusing to write benchmark results"
            )

        runs, qos_s, base_s, fq = _fluid_timing(n, slots, seed)
        flow = fq.class_flow
        conserved = flow is not None and math.isclose(
            sum(flow.generated),
            fq.total_arrivals + fq.total_shed,
            rel_tol=1e-9,
            abs_tol=1e-6,
        )
        row = {
            "path": "fluid",
            "devices": n,
            "tasks": round(fq.total_generated, 1),
            "shed": round(fq.total_shed, 1),
            "max_mode": int(fq.mode_timeline().max()),
            "runs": runs,
            "qos_s": round(qos_s, 4),
            "baseline_s": round(base_s, 4),
            "overhead": round(qos_s / base_s, 3),
            "identity": conserved,
            "exact": None,
        }
        rows.append(row)
        print(
            f"fluid  {n:>6} devices: {row['tasks']:>7} tasks, "
            f"qos {qos_s:7.3f}s, overload-only {base_s:7.3f}s per run "
            f"({runs} runs), overhead {row['overhead']:5.3f}x, "
            f"shed {row['shed']}, conserved={conserved}"
        )
        if not conserved:
            raise SystemExit(
                "per-class fluid conservation violated — refusing to "
                "write benchmark results"
            )
    return rows


def check(baseline_path: Path, rows: list[dict]) -> int:
    """Soft regression gate: fail when a row's qos/overload-only
    overhead ratio grew >30% against the committed baseline (matched on
    path × devices)."""
    baseline = json.loads(baseline_path.read_text())
    by_key = {
        (r["path"], r["devices"]): r for r in baseline.get("results", [])
    }
    failures = []
    for row in rows:
        base = by_key.get((row["path"], row["devices"]))
        if base is None or base.get("overhead") is None:
            continue
        # A single run under the floor is timing noise, not signal;
        # repeated (fluid) rows cleared the floor in total.
        if row["runs"] == 1 and row["baseline_s"] < TIMING_FLOOR_S:
            continue
        ceiling = base["overhead"] * (1.0 + REGRESSION_TOLERANCE)
        if row["overhead"] > ceiling:
            failures.append(
                f"{row['path']} {row['devices']} devices: overhead "
                f"{row['overhead']:.3f}x > {ceiling:.3f}x "
                f"(baseline {base['overhead']:.3f}x + {REGRESSION_TOLERANCE:.0%})"
            )
    if failures:
        print("REGRESSION: " + "; ".join(failures))
        return 1
    print("overhead ratios within tolerance of the committed baseline")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--devices",
        type=int,
        nargs="+",
        default=list(DEFAULT_DEVICES),
        help="fleet sizes to sweep",
    )
    parser.add_argument("--slots", type=int, default=40, help="slots per run")
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="where to write the JSON results; defaults to the repo-root "
        "BENCH_qos.json, which --check alone never writes",
    )
    parser.add_argument(
        "--check",
        type=Path,
        default=None,
        metavar="BASELINE",
        help="compare overhead ratios against this committed baseline; "
        "exit 1 on a >30%% growth",
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    rows = sweep(args.devices, args.slots, seed=args.seed)
    # Gate before writing, so an --output naming the baseline is still
    # checked against the committed numbers.
    status = 0 if args.check is None else check(args.check, rows)
    if args.output is None and args.check is not None:
        return status
    payload = {
        "benchmark": "qos_layer",
        "policy": "FixedRatioPolicy(0.5)",
        "arrivals": (
            f"canonical_mixed_qos_burst(base={BASE_RATE}, "
            f"magnitude={BURST_MAGNITUDE})"
        ),
        "qos": repr(QOS),
        "slots": args.slots,
        "seed": args.seed,
        "results": rows,
    }
    output = args.output or REPO_ROOT / "BENCH_qos.json"
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {output}")
    return status


# -- pytest-benchmark entry point (small configuration) -------------------------


def bench_qos_governed(benchmark):
    def run():
        elapsed, result = _event_run(100, 20, qos=True, seed=0)
        return len(result.tasks) / elapsed

    tasks_per_sec = benchmark(run)
    benchmark.extra_info["qos_tasks_per_sec_100dev"] = round(
        tasks_per_sec, 1
    )


if __name__ == "__main__":
    raise SystemExit(main())
