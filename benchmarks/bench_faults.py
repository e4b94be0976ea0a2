"""Chaos replay: the canonical outage plan through every execution path.

Generates the seeded canonical outage plan (background uplink drops,
corruption, stragglers, plus one pinned edge outage), then:

* replays it through the slot simulator on both paths (scalar vs.
  vectorized) with the resilient LEIME policy and asserts the
  trajectories are byte-identical;
* replays it through the event simulator with and without recovery and
  records the SLO contrast (completion/drops/retries/deadline misses);
* times both replays.  Results land in ``BENCH_faults.json`` at the repo
  root.

Run directly::

    PYTHONPATH=src python benchmarks/bench_faults.py
    PYTHONPATH=src python benchmarks/bench_faults.py --slots 80 --devices 8

or through the benchmark suite (small configuration)::

    PYTHONPATH=src python -m pytest benchmarks/bench_faults.py --benchmark-only
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from repro.chaos.oracles import records_equal
from repro.core.offloading import DriftPlusPenaltyPolicy
from repro.experiments.common import TestbedConfig, leime_scheme
from repro.resilience import (
    RecoveryPolicy,
    canonical_outage_plan,
    slo_summary,
    time_to_recovery,
)
from repro.sim.events import EventSimulator
from repro.sim.simulator import SlotSimulator

#: Deadline used for the reported miss rates (seconds of TCT).
DEADLINE_S = 10.0


def run(
    num_slots: int,
    num_devices: int,
    arrival_rate: float,
    seed: int,
    skip_scalar: bool = False,
) -> dict:
    config = TestbedConfig(
        model="inception-v3",
        num_devices=num_devices,
        arrival_rate=arrival_rate,
    )
    system = config.system(leime_scheme(config).partition)
    plan = canonical_outage_plan(
        num_slots=num_slots, num_devices=num_devices, seed=seed
    )

    # --- Fluid level: resilient LEIME through both slot-simulator paths.
    def fluid(vectorized: bool):
        return SlotSimulator(
            system=system,
            arrivals=config.arrival_processes(),
            seed=seed,
            vectorized=vectorized,
            faults=plan,
            recovery=RecoveryPolicy.default(),
        ).run(DriftPlusPenaltyPolicy(v=config.v), num_slots)

    start = time.perf_counter()
    fast = fluid(vectorized=True)
    fast_elapsed = time.perf_counter() - start
    fluid_entry = {
        "mean_tct_s": round(fast.mean_tct, 6),
        "max_backlog": round(fast.max_backlog, 3),
        "recovery_slots": time_to_recovery(
            fast, int(plan.meta["outage_start"]), int(plan.meta["outage_stop"])
        ),
        "stable": fast.is_stable(),
        "vectorized_slots_per_sec": round(num_slots / fast_elapsed, 2),
    }
    if not skip_scalar:
        start = time.perf_counter()
        scalar = fluid(vectorized=False)
        scalar_elapsed = time.perf_counter() - start
        fluid_entry["scalar_slots_per_sec"] = round(num_slots / scalar_elapsed, 2)
        fluid_entry["paths_identical"] = records_equal(
            scalar.records, fast.records
        )
        if not fluid_entry["paths_identical"]:
            raise AssertionError(
                "scalar and vectorized fault replays diverged"
            )
    print(
        f"fluid          TCT {fluid_entry['mean_tct_s']:.3f} s, "
        f"max backlog {fluid_entry['max_backlog']:.1f}, "
        f"{fluid_entry['vectorized_slots_per_sec']:.0f} slots/s vectorized"
        + (
            ", paths byte-identical"
            if fluid_entry.get("paths_identical")
            else ""
        )
    )

    # --- Task level: recovery vs. none through the event simulator.
    task_entries = []
    for name, recovery in (
        ("recovery", RecoveryPolicy.default()),
        ("no-recovery", RecoveryPolicy.none()),
    ):
        start = time.perf_counter()
        result = EventSimulator(
            system=system,
            arrivals=config.arrival_processes(),
            seed=seed,
            faults=plan,
            recovery=recovery,
        ).run(
            DriftPlusPenaltyPolicy(v=config.v),
            num_slots,
            drain_limit_factor=100.0,
        )
        elapsed = time.perf_counter() - start
        entry = {"scheme": name, "elapsed_s": round(elapsed, 3)}
        entry.update(
            {
                key: (round(value, 6) if isinstance(value, float) else value)
                for key, value in slo_summary(result, deadline=DEADLINE_S).items()
            }
        )
        task_entries.append(entry)
        print(
            f"{name:<14} completion {entry['completion_rate']:.3f}, "
            f"dropped {entry['dropped']}, retries {entry['total_retries']}, "
            f"miss@{DEADLINE_S:.0f}s {entry['deadline_miss_rate']:.1%}"
        )

    return {
        "benchmark": "faults",
        "slots": num_slots,
        "devices": num_devices,
        "arrival_rate": arrival_rate,
        "seed": seed,
        "deadline_s": DEADLINE_S,
        "plan": plan.describe(),
        "fluid": fluid_entry,
        "results": task_entries,
    }


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--slots", type=int, default=160)
    parser.add_argument("--devices", type=int, default=4)
    parser.add_argument("--arrival-rate", type=float, default=0.3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--skip-scalar",
        action="store_true",
        help="time only the vectorized path (skips the identity check)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_faults.json",
        help="where to write the JSON results",
    )
    args = parser.parse_args(argv)
    payload = run(
        args.slots,
        args.devices,
        args.arrival_rate,
        args.seed,
        skip_scalar=args.skip_scalar,
    )
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")


# -- pytest-benchmark entry point (small configuration) -------------------------


def bench_fault_replay(benchmark):
    payload = benchmark(lambda: run(40, 4, 0.3, seed=0, skip_scalar=True))
    recovery = payload["results"][0]
    benchmark.extra_info["completion_rate"] = recovery["completion_rate"]
    benchmark.extra_info["total_retries"] = recovery["total_retries"]
    benchmark.extra_info["fluid_slots_per_sec"] = payload["fluid"][
        "vectorized_slots_per_sec"
    ]


if __name__ == "__main__":
    main()
