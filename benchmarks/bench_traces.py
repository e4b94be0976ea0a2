"""Wild-trace replay: DPP vs. the baselines under dynamic conditions.

Generates a seeded wild trace (diurnal + Gilbert-Elliott bandwidth,
flash-crowd arrivals, Poisson churn), replays it through every scheme on
both slot-simulator paths, verifies the scalar and vectorized
trajectories are byte-identical, and records each scheme's wild-trace
TCT, backlog, and the vectorized replay throughput.  Results land in
``BENCH_traces.json`` at the repo root.

Run directly::

    PYTHONPATH=src python benchmarks/bench_traces.py
    PYTHONPATH=src python benchmarks/bench_traces.py --slots 80 --devices 8

or through the benchmark suite (small configuration)::

    PYTHONPATH=src python -m pytest benchmarks/bench_traces.py --benchmark-only
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
from repro.experiments.common import SCHEME_BUILDERS, TestbedConfig
from repro.experiments.fig_wild import wild_spec
from repro.traces.generators import generate_trace
from repro.traces.replay import replay_trace


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
    spec = wild_spec(num_slots, num_devices, arrival_rate)
    trace = generate_trace(spec, seed=seed)
    results = []
    for name, builder in SCHEME_BUILDERS.items():
        scheme = builder(config)
        system = config.system(scheme.partition)
        start = time.perf_counter()
        fast = replay_trace(
            system, trace, scheme.policy, seed=seed, vectorized=True
        )
        fast_elapsed = time.perf_counter() - start
        entry = {
            "scheme": name,
            "mean_tct_s": round(fast.mean_tct, 6),
            "p95_tct_s": round(fast.tct_percentile(95), 6),
            "final_backlog": round(fast.final_backlog, 3),
            "stable": fast.is_stable(),
            "vectorized_slots_per_sec": round(num_slots / fast_elapsed, 2),
        }
        if not skip_scalar:
            start = time.perf_counter()
            scalar = replay_trace(
                system, trace, scheme.policy, seed=seed, vectorized=False
            )
            scalar_elapsed = time.perf_counter() - start
            entry["scalar_slots_per_sec"] = round(
                num_slots / scalar_elapsed, 2
            )
            entry["paths_identical"] = records_equal(
                scalar.records, fast.records
            )
            if not entry["paths_identical"]:
                raise AssertionError(
                    f"scalar and vectorized replays diverged for {name}"
                )
        results.append(entry)
        print(
            f"{name:<14} wild TCT {entry['mean_tct_s']:.3f} s, "
            f"backlog {entry['final_backlog']:.1f}, "
            f"{entry['vectorized_slots_per_sec']:.0f} slots/s vectorized"
            + (
                ", paths byte-identical"
                if entry.get("paths_identical")
                else ""
            )
        )
    return {
        "benchmark": "wild_traces",
        "slots": num_slots,
        "devices": num_devices,
        "arrival_rate": arrival_rate,
        "seed": seed,
        "trace": {
            "channels": list(trace.names),
            "summary": trace.describe(),
        },
        "results": results,
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
        default=REPO_ROOT / "BENCH_traces.json",
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


def bench_wild_trace_replay(benchmark):
    payload = benchmark(
        lambda: run(40, 4, 0.3, seed=0, skip_scalar=True)
    )
    leime = payload["results"][0]
    benchmark.extra_info["leime_wild_tct_s"] = leime["mean_tct_s"]
    benchmark.extra_info["leime_slots_per_sec"] = leime[
        "vectorized_slots_per_sec"
    ]


if __name__ == "__main__":
    main()
