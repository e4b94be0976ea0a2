"""Fleet-scale throughput: scalar slot loop vs the vectorized engine.

Sweeps fleet sizes (10 → 5,000 devices by default) and reports how many
simulated slots per second each fluid path sustains with the
drift-plus-penalty policy deciding every slot.  Both paths decide through
the batched ``dpp_decide`` search; they differ in the rest of the slot.
The vectorized path prices costs and advances queues for the whole fleet
in NumPy; the scalar path does it one device at a time.  Results land in
``BENCH_fleet.json`` at the repo root.

Run directly::

    PYTHONPATH=src python benchmarks/bench_fleet_scale.py
    PYTHONPATH=src python benchmarks/bench_fleet_scale.py --devices 50 --slots 20

or through the benchmark suite (small configuration)::

    PYTHONPATH=src python -m pytest benchmarks/bench_fleet_scale.py --benchmark-only
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:  # for `tests.helpers` when run as a script
    sys.path.insert(0, str(REPO_ROOT))

from repro.core.offloading import DriftPlusPenaltyPolicy
from repro.sim.arrivals import PoissonArrivals
from repro.sim.simulator import SlotSimulator

from tests.helpers import random_fleet

DEFAULT_DEVICES = (10, 50, 100, 500, 1000, 5000)


def _slots_per_sec(system, num_slots: int, vectorized: bool, seed: int) -> float:
    sim = SlotSimulator(
        system=system,
        arrivals=[PoissonArrivals(d.mean_arrivals) for d in system.devices],
        seed=seed,
        vectorized=vectorized,
    )
    policy = DriftPlusPenaltyPolicy(v=50.0)
    start = time.perf_counter()
    sim.run(policy, num_slots)
    elapsed = time.perf_counter() - start
    return num_slots / elapsed


def sweep(
    device_counts: list[int],
    num_slots: int,
    scalar_limit: int,
    seed: int = 0,
) -> list[dict]:
    results = []
    for n in device_counts:
        system = random_fleet(seed, n, max_arrivals=1.0)
        fast = _slots_per_sec(system, num_slots, vectorized=True, seed=seed)
        entry = {
            "devices": n,
            "slots": num_slots,
            "vectorized_slots_per_sec": round(fast, 2),
        }
        if n <= scalar_limit:
            slow = _slots_per_sec(system, num_slots, vectorized=False, seed=seed)
            entry["scalar_slots_per_sec"] = round(slow, 2)
            entry["speedup"] = round(fast / slow, 2)
        else:
            entry["scalar_slots_per_sec"] = None
            entry["speedup"] = None
        results.append(entry)
        scalar = entry["scalar_slots_per_sec"]
        print(
            f"{n:>6} devices: vectorized {fast:>10.1f} slots/s"
            + (
                f", scalar {scalar:>8.1f} slots/s, speedup {entry['speedup']:.1f}x"
                if scalar is not None
                else "  (scalar skipped above --scalar-limit)"
            )
        )
    return results


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--devices",
        type=int,
        nargs="+",
        default=list(DEFAULT_DEVICES),
        help="fleet sizes to sweep",
    )
    parser.add_argument("--slots", type=int, default=20, help="slots per run")
    parser.add_argument(
        "--scalar-limit",
        type=int,
        default=1000,
        help="largest fleet the scalar fluid loop is timed at",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_fleet.json",
        help="where to write the JSON results",
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    results = sweep(args.devices, args.slots, args.scalar_limit, seed=args.seed)
    payload = {
        "benchmark": "fleet_scale",
        "policy": "DriftPlusPenaltyPolicy(v=50)",
        "slots": args.slots,
        "seed": args.seed,
        "results": results,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")


# -- pytest-benchmark entry point (small configuration) -------------------------


def bench_fleet_scale_vectorized(benchmark):
    system = random_fleet(0, 200, max_arrivals=1.0)
    result = benchmark(
        lambda: _slots_per_sec(system, 10, vectorized=True, seed=0)
    )
    benchmark.extra_info["vectorized_slots_per_sec_200dev"] = round(result, 1)


if __name__ == "__main__":
    main()
