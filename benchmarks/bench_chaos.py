"""Checkpoint overhead: hooked vs plain replay on the hot execution paths.

Sweeps fleet sizes and times the identical scenario with and without
per-slot checkpointing (``checkpoint_every=1`` into an in-memory sink)
on the vectorized slot path and the fast event engine.  Every hooked
event row also verifies kill-at-mid-slot/resume identity against the
unhooked run, and every fluid row verifies byte-identical records —
checkpoints that change the answer are worse than no checkpoints, so a
divergence refuses to write results.  Results land in
``BENCH_chaos.json`` at the repo root.

Run directly::

    PYTHONPATH=src python benchmarks/bench_chaos.py
    PYTHONPATH=src python benchmarks/bench_chaos.py --devices 10 --slots 20

Soft regression gate (CI): compare a fresh sweep against the committed
baseline and fail when any row's *overhead ratio* (hooked time over
plain time — machine-independent, unlike absolute seconds) grew by more
than 30%::

    PYTHONPATH=src python benchmarks/bench_chaos.py --check BENCH_chaos.json

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

from repro.chaos.checkpoint import (
    CheckpointLog,
    Killed,
    KillSwitch,
    checkpoint_from_bytes,
    checkpoint_to_bytes,
)
from repro.core.offloading import FixedRatioPolicy
from repro.sim.arrivals import PoissonArrivals
from repro.sim.events import EventSimulator
from repro.sim.simulator import SlotSimulator

from tests.helpers import random_fleet

DEFAULT_DEVICES = (10, 100, 1000)
RATE = 0.5
#: Kill/resume identity checks only below this fleet size (the check
#: runs the scenario twice more).
RESUME_CHECK_MAX_DEVICES = 100
#: Allowed relative growth in a row's overhead ratio before --check fails.
REGRESSION_TOLERANCE = 0.30


def _scaled_fleet(n: int, seed: int):
    # random_fleet's backend is a single edge box; scale it with the
    # fleet (as bench_events does) so the load stays stable per device.
    fleet = random_fleet(seed + 47, n)
    backend_scale = max(1.0, n / 4.0)
    return replace(
        fleet,
        edge_flops=fleet.edge_flops * backend_scale,
        cloud_flops=fleet.cloud_flops * backend_scale,
    )


def _event_run(n: int, slots: int, seed: int, hooks: bool, **kwargs):
    sim = EventSimulator(
        system=_scaled_fleet(n, seed),
        arrivals=[PoissonArrivals(RATE)] * n,
        seed=seed + 12,
    )
    if hooks and "checkpoint_sink" not in kwargs:
        kwargs = dict(kwargs, checkpoint_every=1, checkpoint_sink=CheckpointLog())
    start = time.perf_counter()
    result = sim.run(
        FixedRatioPolicy(0.5),
        slots,
        drain_limit_factor=200.0,
        engine="fast",
        **kwargs,
    )
    return time.perf_counter() - start, result


def _fluid_run(n: int, slots: int, seed: int, hooks: bool, **kwargs):
    sim = SlotSimulator(
        system=_scaled_fleet(n, seed),
        arrivals=[PoissonArrivals(RATE)] * n,
        seed=seed + 12,
        vectorized=True,
    )
    if hooks and "checkpoint_sink" not in kwargs:
        kwargs = dict(kwargs, checkpoint_every=1, checkpoint_sink=CheckpointLog())
    start = time.perf_counter()
    result = sim.run(FixedRatioPolicy(0.5), slots, **kwargs)
    return time.perf_counter() - start, result


def _resume_identical(runner, n: int, slots: int, seed: int, plain) -> bool:
    """Kill at mid-slot, round-trip the checkpoint through bytes, resume,
    and compare against the plain run."""
    switch = KillSwitch(slots // 2)
    try:
        runner(n, slots, seed, hooks=False, checkpoint_every=1,
               checkpoint_sink=switch)
        return False  # the kill switch never fired
    except Killed as killed:
        checkpoint = checkpoint_from_bytes(
            checkpoint_to_bytes(killed.checkpoint)
        )
    _, resumed = runner(n, slots, seed, hooks=False, resume_from=checkpoint)
    if hasattr(plain, "tasks"):
        return resumed.tasks == plain.tasks
    return list(resumed.records) == list(plain.records)


def sweep(device_counts: list[int], slots: int, seed: int = 0) -> list[dict]:
    rows = []
    for path, runner in (("events-fast", _event_run), ("fluid-vec", _fluid_run)):
        for n in device_counts:
            hooked_s, hooked = runner(n, slots, seed, hooks=True)
            plain_s, plain = runner(n, slots, seed, hooks=False)
            if hasattr(plain, "tasks"):
                identical = hooked.tasks == plain.tasks
                tasks = len(plain.tasks)
            else:
                identical = list(hooked.records) == list(plain.records)
                tasks = round(plain.total_generated, 1)
            resume_ok = None
            if n <= RESUME_CHECK_MAX_DEVICES:
                resume_ok = _resume_identical(runner, n, slots, seed, plain)
            row = {
                "path": path,
                "devices": n,
                "tasks": tasks,
                "hooked_s": round(hooked_s, 3),
                "plain_s": round(plain_s, 3),
                "overhead": round(hooked_s / plain_s, 3),
                "identical": identical,
                "resume_ok": resume_ok,
            }
            rows.append(row)
            print(
                f"{path:>11} {n:>6} devices: {tasks:>8} tasks, "
                f"hooked {hooked_s:7.3f}s, plain {plain_s:7.3f}s, "
                f"overhead {row['overhead']:5.3f}x, "
                f"identical={identical}, resume_ok={resume_ok}"
            )
            if not identical or resume_ok is False:
                raise SystemExit(
                    "checkpoint hooks changed the answer or resume "
                    "diverged — refusing to write benchmark results"
                )
    return rows


def check(baseline_path: Path, rows: list[dict]) -> int:
    """Soft regression gate: fail when a row's hooked/plain overhead
    ratio grew >30% against the committed baseline (matched on
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
        if row["plain_s"] < 0.2:
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
        "BENCH_chaos.json, which --check alone never writes",
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
        "benchmark": "chaos_checkpoints",
        "policy": "FixedRatioPolicy(0.5)",
        "arrivals": f"PoissonArrivals({RATE})",
        "checkpoint_every": 1,
        "slots": args.slots,
        "seed": args.seed,
        "results": rows,
    }
    output = args.output or REPO_ROOT / "BENCH_chaos.json"
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {output}")
    return status


# -- pytest-benchmark entry point (small configuration) -------------------------


def bench_chaos_checkpointed(benchmark):
    def run():
        elapsed, result = _event_run(100, 20, seed=0, hooks=True)
        return len(result.tasks) / elapsed

    tasks_per_sec = benchmark(run)
    benchmark.extra_info["checkpointed_tasks_per_sec_100dev"] = round(
        tasks_per_sec, 1
    )


if __name__ == "__main__":
    raise SystemExit(main())
