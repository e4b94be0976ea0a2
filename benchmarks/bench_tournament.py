"""Tournament bracket benchmark: the committed league as a regression gate.

Runs a fixed mid-size bracket — five policies (the paper's DPP, the
Balance rule, the probabilistic vector policy, the UCB exit bandit, and
the device-only floor) across four scenario axes on both event engines —
and records per-engine wall time plus the full deterministic artifact
(cells + league).

Unlike the throughput benches, the headline gate here is *exactness*,
not speed: every cell metric and the league table are seeded simulation
outputs, identical on any machine, so ``--check`` recomputes the bracket
and fails on ANY difference from the committed cells or league — a
byte-level seed-reproducibility gate.  Engine wall times ride along as
informational context and are never gated.

Run directly::

    PYTHONPATH=src python benchmarks/bench_tournament.py
    PYTHONPATH=src python benchmarks/bench_tournament.py --check BENCH_tournament.json
    PYTHONPATH=src python benchmarks/bench_tournament.py \
        --output BENCH_tournament_ci.json --check BENCH_tournament.json

A markdown league report lands next to the JSON (same stem, ``.md``).
Without ``--output`` the run writes ``BENCH_tournament.json`` in the repo
root, except under ``--check``, which never overwrites the baseline; with
both flags the one bracket run is written *and* gated.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from repro.tournament import (
    TournamentSpec,
    league_markdown,
    league_table,
    run_tournament,
)

#: The committed bracket: ≥5 policies × all four scenario axes.
BENCH_SPEC = TournamentSpec(
    policies=("leime", "balance", "probabilistic", "bandit", "device-only"),
    scenarios=("stationary", "diurnal-wild", "edge-outage", "flash-crowd"),
    num_slots=60,
    num_devices=4,
    seed=0,
)


def run_bracket() -> dict:
    """The bracket artifact plus per-engine wall seconds."""
    elapsed: dict[str, float] = {}
    cells: dict[str, dict] = {}
    for engine in BENCH_SPEC.engines:
        single = TournamentSpec(
            policies=BENCH_SPEC.policies,
            scenarios=BENCH_SPEC.scenarios,
            engines=(engine,),
            num_slots=BENCH_SPEC.num_slots,
            num_devices=BENCH_SPEC.num_devices,
            seed=BENCH_SPEC.seed,
        )
        start = time.perf_counter()
        part = run_tournament(single)
        elapsed[engine] = round(time.perf_counter() - start, 3)
        cells.update(part["cells"])
    return {
        "benchmark": "tournament",
        "fingerprint": BENCH_SPEC.fingerprint(),
        "spec": asdict(BENCH_SPEC),
        "elapsed_s": elapsed,
        "cells": cells,
        "league": league_table(BENCH_SPEC, cells),
    }


def check(baseline_path: Path, payload: dict) -> int:
    """Exactness gate: the recomputed bracket must reproduce the
    committed cells and league byte-for-byte (timings excluded)."""
    baseline = json.loads(baseline_path.read_text())
    failures = []
    if baseline.get("fingerprint") != payload["fingerprint"]:
        failures.append(
            f"spec fingerprint {payload['fingerprint']} != committed "
            f"{baseline.get('fingerprint')} (bracket definition changed; "
            "refresh the baseline deliberately)"
        )
    else:
        for section in ("cells", "league"):
            if baseline.get(section) != payload[section]:
                failures.append(
                    f"{section} diverged from the committed baseline — "
                    "the seeded bracket is no longer reproducible"
                )
    if failures:
        print("REGRESSION: " + "; ".join(failures))
        return 1
    print("bracket reproduces the committed cells and league exactly")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="where to write the JSON results (a .md league report lands "
        "next to it); defaults to the repo-root BENCH_tournament.json, "
        "which --check alone never writes",
    )
    parser.add_argument(
        "--check",
        type=Path,
        default=None,
        metavar="BASELINE",
        help="recompute the bracket and fail unless cells + league match "
        "this committed baseline exactly",
    )
    args = parser.parse_args(argv)

    payload = run_bracket()
    print(
        "engines: "
        + ", ".join(f"{k} {v:.3f}s" for k, v in payload["elapsed_s"].items())
    )
    # Gate before writing, so an --output naming the baseline is still
    # checked against the committed bytes.
    status = 0 if args.check is None else check(args.check, payload)
    if args.output is None and args.check is not None:
        return status
    output = args.output or REPO_ROOT / "BENCH_tournament.json"
    output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    report = output.with_suffix(".md")
    report.write_text(
        league_markdown(
            {
                "fingerprint": payload["fingerprint"],
                "spec": payload["spec"],
                "cells": payload["cells"],
                "league": payload["league"],
            }
        )
    )
    print(f"wrote {output} and {report}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
