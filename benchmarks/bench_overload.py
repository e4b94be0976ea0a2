"""Overload-layer overhead: governed vs ungoverned replay under a crowd.

Sweeps fleet sizes through the canonical flash crowd
(:func:`repro.traces.generators.canonical_flash_crowd`) and times the
identical scenario with and without the overload layer (admission gate +
backpressure + degradation ladder) on the fast event engine and the
vectorized slot path.  Every event row also verifies the extended SLO
identity ``generated = completed + dropped + shed + in-flight`` and —
at small fleets, where the scalar reference is affordable — per-task
equality between the two event engines; every fluid row verifies
``generated = admitted + shed`` conservation.  Results land in
``BENCH_overload.json`` at the repo root.

Run directly::

    PYTHONPATH=src python benchmarks/bench_overload.py
    PYTHONPATH=src python benchmarks/bench_overload.py --devices 10 --slots 20

Soft regression gate (CI): compare a fresh sweep against the committed
baseline and fail when any row's *overhead ratio* (governed time over
ungoverned time — machine-independent, unlike absolute seconds) grew by
more than 30%::

    PYTHONPATH=src python benchmarks/bench_overload.py --check BENCH_overload.json

``--check`` alone writes nothing; with ``--output`` too, one sweep is
gated first and then written (the CI form).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:  # for `tests.helpers` when run as a script
    sys.path.insert(0, str(REPO_ROOT))

from repro.core.offloading import FixedRatioPolicy
from repro.resilience.overload import OverloadControl
from repro.sim.arrivals import TraceArrivals
from repro.sim.events import EventSimulator
from repro.sim.simulator import SlotSimulator
from repro.traces.generators import canonical_flash_crowd

from tests.helpers import random_fleet

DEFAULT_DEVICES = (10, 100, 1000)
#: Base tasks per device per slot; the crowd multiplies this.
BASE_RATE = 0.5
CROWD_MAGNITUDE = 10.0
#: Scalar-engine identity checks only below this fleet size (the scalar
#: reference is O(tasks·hops) Python closures — fine at 10 devices,
#: pointless to wait on at 1,000).
SCALAR_CHECK_MAX_DEVICES = 100
#: Allowed relative growth in a row's overhead ratio before --check fails.
REGRESSION_TOLERANCE = 0.30


def _scaled_fleet(n: int, seed: int):
    # random_fleet's backend is a single edge box; scale it with the fleet
    # (as bench_events does) so the *base* load is stable and only the
    # crowd window overloads.
    fleet = random_fleet(seed + 31, n)
    backend_scale = max(1.0, n / 4.0) * (BASE_RATE / 0.5)
    return replace(
        fleet,
        edge_flops=fleet.edge_flops * backend_scale,
        cloud_flops=fleet.cloud_flops * backend_scale,
    )


def _arrivals(n: int, slots: int) -> list[TraceArrivals]:
    rates = canonical_flash_crowd(
        num_slots=slots,
        num_devices=n,
        base_rate=BASE_RATE,
        magnitude=CROWD_MAGNITUDE,
        crowd_start=slots // 4,
        crowd_stop=slots // 2,
    )
    return [TraceArrivals.from_series(rates[:, i]) for i in range(n)]


def _event_run(
    n: int,
    slots: int,
    governed: bool,
    seed: int,
    engine: str = "fast",
):
    sim = EventSimulator(
        system=_scaled_fleet(n, seed),
        arrivals=_arrivals(n, slots),
        seed=seed + 12,
        overload=OverloadControl() if governed else None,
    )
    start = time.perf_counter()
    result = sim.run(
        FixedRatioPolicy(0.5), slots, drain_limit_factor=200.0, engine=engine
    )
    return time.perf_counter() - start, result


def _fluid_run(n: int, slots: int, governed: bool, seed: int):
    sim = SlotSimulator(
        system=_scaled_fleet(n, seed),
        arrivals=_arrivals(n, slots),
        seed=seed + 12,
        vectorized=True,
        overload=OverloadControl() if governed else None,
    )
    start = time.perf_counter()
    result = sim.run(FixedRatioPolicy(0.5), slots)
    return time.perf_counter() - start, result


def sweep(device_counts: list[int], slots: int, seed: int = 0) -> list[dict]:
    rows = []
    for n in device_counts:
        governed_s, rg = _event_run(n, slots, governed=True, seed=seed)
        ungoverned_s, ru = _event_run(n, slots, governed=False, seed=seed)
        identity = len(rg.tasks) == (
            len(rg.completed)
            + rg.dropped_count
            + rg.shed_count
            + rg.in_flight_count
        )
        exact = None
        if n <= SCALAR_CHECK_MAX_DEVICES:
            _, rs = _event_run(n, slots, governed=True, seed=seed, engine="scalar")
            exact = (
                len(rs.tasks) == len(rg.tasks)
                and rs.modes == rg.modes
                and all(
                    a.exit_tier == b.exit_tier
                    and a.completed == b.completed
                    and a.shed == b.shed
                    and a.dropped == b.dropped
                    for a, b in zip(rs.tasks, rg.tasks)
                )
            )
        row = {
            "path": "events",
            "devices": n,
            "tasks": len(rg.tasks),
            "shed": rg.shed_count,
            "max_mode": max(rg.modes) if rg.modes else 0,
            "governed_s": round(governed_s, 3),
            "ungoverned_s": round(ungoverned_s, 3),
            "overhead": round(governed_s / ungoverned_s, 3),
            "identity": identity,
            "exact": exact,
        }
        rows.append(row)
        print(
            f"events {n:>6} devices: {row['tasks']:>7} tasks, "
            f"governed {governed_s:7.3f}s, ungoverned {ungoverned_s:7.3f}s, "
            f"overhead {row['overhead']:5.3f}x, shed {row['shed']}, "
            f"identity={identity}, exact={exact}"
        )
        if not identity or exact is False:
            raise SystemExit(
                "overload accounting violated the SLO identity or the "
                "engines diverged — refusing to write benchmark results"
            )

        governed_s, fg = _fluid_run(n, slots, governed=True, seed=seed)
        ungoverned_s, _ = _fluid_run(n, slots, governed=False, seed=seed)
        conserved = (
            abs(fg.total_generated - (fg.total_arrivals + fg.total_shed))
            <= 1e-6 * max(fg.total_generated, 1.0)
        )
        row = {
            "path": "fluid",
            "devices": n,
            "tasks": round(fg.total_generated, 1),
            "shed": round(fg.total_shed, 1),
            "max_mode": int(fg.mode_timeline().max()),
            "governed_s": round(governed_s, 3),
            "ungoverned_s": round(ungoverned_s, 3),
            "overhead": round(governed_s / ungoverned_s, 3),
            "identity": conserved,
            "exact": None,
        }
        rows.append(row)
        print(
            f"fluid  {n:>6} devices: {row['tasks']:>7} tasks, "
            f"governed {governed_s:7.3f}s, ungoverned {ungoverned_s:7.3f}s, "
            f"overhead {row['overhead']:5.3f}x, shed {row['shed']}, "
            f"conserved={conserved}"
        )
        if not conserved:
            raise SystemExit(
                "fluid conservation violated — refusing to write "
                "benchmark results"
            )
    return rows


def check(baseline_path: Path, rows: list[dict]) -> int:
    """Soft regression gate: fail when a row's governed/ungoverned
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
        # Sub-second rows are timing noise, not signal.
        if row["ungoverned_s"] < 0.2:
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
        "BENCH_overload.json, which --check alone never writes",
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
        "benchmark": "overload_layer",
        "policy": "FixedRatioPolicy(0.5)",
        "arrivals": (
            f"canonical_flash_crowd(base={BASE_RATE}, "
            f"magnitude={CROWD_MAGNITUDE})"
        ),
        "slots": args.slots,
        "seed": args.seed,
        "results": rows,
    }
    output = args.output or REPO_ROOT / "BENCH_overload.json"
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {output}")
    return status


# -- pytest-benchmark entry point (small configuration) -------------------------


def bench_overload_governed(benchmark):
    def run():
        elapsed, result = _event_run(100, 20, governed=True, seed=0)
        return len(result.tasks) / elapsed

    tasks_per_sec = benchmark(run)
    benchmark.extra_info["governed_tasks_per_sec_100dev"] = round(
        tasks_per_sec, 1
    )


if __name__ == "__main__":
    raise SystemExit(main())
