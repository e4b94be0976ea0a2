"""Sharded-coordinator throughput: federated vs single-edge fluid path.

Times the federated vectorized slot path — E per-edge shards stepped
through their own :class:`~repro.core.vectorized.VectorizedSlotEngine`
under the thin coordinator — against the single-edge vectorized
simulator over the same device count, up to fleets of 10,000+ devices.
The machine-independent gate metric is the *sharding overhead ratio*
(federated time over single-edge time at equal N): the coordinator's
gather/scatter and per-edge bookkeeping should stay a small constant
factor, not grow with fleet size.

Before timing anything, an E=1 conformance gate re-checks the package's
core promise on a small fleet (federated records == single-edge records,
byte-for-byte) and a federated run re-checks the per-edge SLO identity;
a violation refuses to write results.

Each row is timed over enough back-to-back fresh runs that its
single-edge total clears the 0.2 s timing floor, and the sharded side
over as many; rows report seconds per run and how many runs they
averaged.  The JSON records the host (Python, NumPy, CPU count) and the
git commit it measured.

Run directly::

    PYTHONPATH=src python benchmarks/bench_federation.py
    PYTHONPATH=src python benchmarks/bench_federation.py --devices 2000 --edges 4

Soft regression gate (CI): compare a fresh sweep against the committed
baseline and fail when any row's sharding overhead grew by more than
30%::

    PYTHONPATH=src python benchmarks/bench_federation.py --check BENCH_federation.json

``--check`` alone writes nothing; with ``--output`` too, one sweep is
gated first and then written (the CI form).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:  # for `tests.helpers` when run as a script
    sys.path.insert(0, str(REPO_ROOT))

from repro.core.offloading import FixedRatioPolicy
from repro.federation import (
    FederatedSlotSimulator,
    build_assignment_plan,
    federated_fluid_summary,
    random_federation,
    single_edge_topology,
)
from repro.sim.arrivals import ConstantArrivals
from repro.sim.simulator import SlotSimulator

from tests.helpers import inception_partition, random_fleet, static_home_plan

#: (fleet size, federation width) sweep; the second row is the
#: acceptance-criteria 10k-device sharded run.
DEFAULT_SWEEP = ((1000, 4), (10000, 8))
ARRIVAL_RATE = 0.5
#: Allowed relative growth in a row's sharding overhead before --check fails.
REGRESSION_TOLERANCE = 0.30
#: Single-edge seconds a row must be timed over before --check gates it;
#: rows repeat fresh runs until their single-edge total clears it.
TIMING_FLOOR_S = 0.2


def _conformance_gate(seed: int = 0) -> bool:
    """E=1 federated fluid records must equal the single-edge records."""
    system = random_fleet(seed + 77, 4)
    arrivals = [ConstantArrivals(ARRIVAL_RATE)] * 4
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


def _sharded_run(n: int, edges: int, slots: int, seed: int):
    topology = random_federation(
        seed=seed,
        num_edges=edges,
        num_devices=n,
        partition=inception_partition(),
    )
    plan = build_assignment_plan(topology, slots, seed=seed)
    sim = FederatedSlotSimulator(
        topology=topology,
        arrivals=[ConstantArrivals(ARRIVAL_RATE)] * n,
        plan=plan,
        seed=seed,
        vectorized=True,
    )
    start = time.perf_counter()
    result = sim.run(FixedRatioPolicy(0.5), slots)
    return time.perf_counter() - start, result


def _single_run(n: int, slots: int, seed: int):
    system = random_fleet(seed + 31, n)
    sim = SlotSimulator(
        system=system,
        arrivals=[ConstantArrivals(ARRIVAL_RATE)] * n,
        seed=seed,
        vectorized=True,
    )
    start = time.perf_counter()
    result = sim.run(FixedRatioPolicy(0.5), slots)
    return time.perf_counter() - start, result


def _row_timing(n: int, edges: int, slots: int, seed: int):
    """Seconds per run of the single-edge and sharded configurations, each
    timed over the same number of back-to-back fresh runs: as many as the
    single-edge total needs to clear :data:`TIMING_FLOOR_S`."""
    runs, single_total = 0, 0.0
    while single_total < TIMING_FLOOR_S:
        elapsed, _ = _single_run(n, slots, seed)
        single_total += elapsed
        runs += 1
    sharded_total = 0.0
    for _ in range(runs):
        elapsed, result = _sharded_run(n, edges, slots, seed)
        sharded_total += elapsed
    return runs, sharded_total / runs, single_total / runs, result


def _git_sha() -> str:
    """HEAD's commit, suffixed ``-dirty`` when tracked files differ from
    it; ``unknown`` outside a git checkout."""

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=REPO_ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()

    try:
        sha = git("rev-parse", "HEAD")
        dirty = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return f"{sha}-dirty" if dirty else sha


def sweep(configs, slots: int, seed: int = 0) -> list[dict]:
    if not _conformance_gate(seed):
        raise SystemExit(
            "E=1 conformance gate failed — the federated coordinator "
            "diverged from the single-edge path; refusing to write results"
        )
    print("E=1 conformance gate: byte-identical")
    rows = []
    for n, edges in configs:
        runs, sharded_s, single_s, result = _row_timing(n, edges, slots, seed)
        summary = federated_fluid_summary(result)
        conserved = summary["identity_gap"] < 1e-6 * max(
            result.global_result.total_generated, 1.0
        )
        row = {
            "path": "fluid-sharded",
            "devices": n,
            "edges": edges,
            "slots": slots,
            "runs": runs,
            "sharded_s": round(sharded_s, 4),
            "single_s": round(single_s, 4),
            "overhead": round(sharded_s / single_s, 3),
            "device_slots_per_s": round(n * slots / sharded_s, 1),
            "conserved": conserved,
        }
        rows.append(row)
        print(
            f"fluid {n:>6} devices x {edges} edges: sharded {sharded_s:7.4f}s,"
            f" single {single_s:7.4f}s ({runs} runs), "
            f"overhead {row['overhead']:5.3f}x, "
            f"{row['device_slots_per_s']:>10.1f} device-slots/s, "
            f"conserved={conserved}"
        )
        if not conserved:
            raise SystemExit(
                "federated fluid accounting violated conservation — "
                "refusing to write benchmark results"
            )
    return rows


def check(baseline_path: Path, rows: list[dict]) -> int:
    """Soft regression gate: fail when a row's sharding overhead grew
    >30% against the committed baseline (matched on devices × edges)."""
    baseline = json.loads(baseline_path.read_text())
    by_key = {
        (r["devices"], r["edges"]): r for r in baseline.get("results", [])
    }
    failures = []
    for row in rows:
        base = by_key.get((row["devices"], row["edges"]))
        if base is None or base.get("overhead") is None:
            continue
        # A row timed over less than the floor is noise, not signal.
        if row["single_s"] * row["runs"] < TIMING_FLOOR_S:
            continue
        ceiling = base["overhead"] * (1.0 + REGRESSION_TOLERANCE)
        if row["overhead"] > ceiling:
            failures.append(
                f"{row['devices']}x{row['edges']}: overhead "
                f"{row['overhead']:.3f}x > {ceiling:.3f}x "
                f"(baseline {base['overhead']:.3f}x + {REGRESSION_TOLERANCE:.0%})"
            )
    if failures:
        print("REGRESSION: " + "; ".join(failures))
        return 1
    print("sharding overheads within tolerance of the committed baseline")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--devices",
        type=int,
        default=None,
        help="single fleet size to run instead of the default sweep",
    )
    parser.add_argument(
        "--edges",
        type=int,
        default=4,
        help="federation width when --devices is given",
    )
    parser.add_argument("--slots", type=int, default=10, help="slots per run")
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="where to write the JSON results; defaults to the repo-root "
        "BENCH_federation.json, which --check alone never writes",
    )
    parser.add_argument(
        "--check",
        type=Path,
        default=None,
        metavar="BASELINE",
        help="compare sharding overheads against this committed baseline; "
        "exit 1 on a >30%% growth",
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    configs = (
        [(args.devices, args.edges)]
        if args.devices is not None
        else list(DEFAULT_SWEEP)
    )
    rows = sweep(configs, args.slots, seed=args.seed)
    # Gate before writing, so an --output naming the baseline is still
    # checked against the committed numbers.
    status = 0 if args.check is None else check(args.check, rows)
    if args.output is None and args.check is not None:
        return status
    payload = {
        "benchmark": "federation_sharded_coordinator",
        "policy": "FixedRatioPolicy(0.5)",
        "arrivals": f"ConstantArrivals({ARRIVAL_RATE})",
        "slots": args.slots,
        "seed": args.seed,
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpus": os.cpu_count(),
        },
        "git_sha": _git_sha(),
        "results": rows,
    }
    output = args.output or REPO_ROOT / "BENCH_federation.json"
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {output}")
    return status


# -- pytest-benchmark entry point (small configuration) -------------------------


def bench_federation_sharded(benchmark):
    def run():
        elapsed, result = _sharded_run(200, 4, 10, seed=0)
        return 200 * 10 / elapsed

    device_slots_per_sec = benchmark(run)
    benchmark.extra_info["sharded_device_slots_per_sec_200dev"] = round(
        device_slots_per_sec, 1
    )


if __name__ == "__main__":
    raise SystemExit(main())
