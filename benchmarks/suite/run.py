"""One seeded benchmark for the LEIME simulators.

Five workloads run through the public entry points of every simulator
path.  Each worker is a fresh single-threaded subprocess that times its
own set-up (import included); a timed worker then discards one warm-up
run and times short runs for its time slice.  Outputs are checked on
every run, and reduced-size twin checks (scalar == vectorized, scalar ==
fast, kill/resume, E=1 federation, the grid entry point) run once per
invocation in a separate worker.  See README.md in this directory.

Usage (from the repository root)::

    python3 benchmarks/suite/run.py --workload wild-fleet-fluid --seed 0 \\
        --seconds 10 --trace 0
    python3 benchmarks/suite/run.py suite [--seed 0] [--quick] [--output F]
    python3 benchmarks/suite/run.py compare OLD.json NEW.json

The first form measures one workload for ``--seconds`` and prints, as its
last line, ``{"correct", "attempted", "failed", "metrics"}`` with the
end-to-end metrics of ``BENCHMARK.json`` (``--trace 1``: its per-layer
metrics, from one extra traced worker).  ``suite`` runs every workload
round-robin and writes every metric to a JSON file that ``compare``
reads.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402  (the worker's set-up clock starts above)
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"
#: Workers are single-threaded and use the NumPy kernel tier; a fixed
#: hash seed keeps any set/dict iteration order identical across runs.
WORKER_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "REPRO_KERNELS": "numpy",
    "PYTHONHASHSEED": "0",
}
#: Rounds per measurement: a set-up-only worker, then a timed worker;
#: set-up (one sample per process) is measured twice per round.
ROUNDS = 3
SUITE_ROUNDS = 5
SUITE_SLICE_S = 3.0
MIN_RUNS = 2
MAX_RUNS = 60
WORKER_TIMEOUT_S = 120
#: Traced self times must add up to the traced run's wall time.
SELF_TIME_TOLERANCE = 0.05
#: The reference kernel's time on the 2-core host the baseline was
#: measured on.  Host times are reported at this reference speed (see
#: :func:`reference_kernel`).
REFERENCE_S = 0.03


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def workload_names() -> list[str]:
    return [w["name"] for w in benchmark_spec()["workloads"]]


# -- worker (one fresh subprocess) ---------------------------------------------


def reference_kernel() -> float:
    """Seconds taken by a fixed interpreter + NumPy workload.

    The shared host's speed drifts by ±20% over seconds as neighbours
    come and go, which makes raw medians of one measurement wander.  The
    kernel is timed around every measured interval, and host times are
    scaled by ``REFERENCE_S / kernel time``: the program's cost at the
    reference speed.  The kernel lives here, so no program change can
    move it."""
    import numpy as np

    start = time.perf_counter()
    acc = 0.0
    table = {}
    for i in range(120_000):
        acc += (i * 0.5) % 7.0
        table[i & 255] = acc
    values = np.linspace(0.0, 1.0, 4_000)
    for _ in range(600):
        values = np.sort(np.sqrt(values * values + 1.0) - 1.0)
    return time.perf_counter() - start


def worker(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py worker")
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--mode", choices=("once", "setup", "repeat", "trace"), required=True
    )
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="time slice for timed runs (repeat mode)")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    import workloads

    import_s = time.perf_counter() - _STARTED
    if args.mode == "once":
        import numpy

        from repro.core.kernels import kernel_tier

        print(json.dumps({
            "failures": workloads.ONCE_CHECKS[args.workload](args.seed),
            "numpy": numpy.__version__,
            "kernel_tier": kernel_tier(),
        }))
        return 0

    size = workloads.SIZES[args.workload]["quick" if args.quick else "full"]

    def prepare():
        clock = workloads.Clock()
        return workloads.PREPARE[args.workload](args.seed, size, clock), clock

    prepared, clock = prepare()
    setup_wall = time.perf_counter() - _STARTED
    probe = reference_kernel()
    scale = REFERENCE_S / probe
    phases = {"import": import_s, **clock.phases}
    report = {
        "setup_s": setup_wall * scale,
        "phases": {name: t * scale for name, t in phases.items()},
        "host_speed": scale,
        "inputs_sha": workloads.digest(prepared.inputs),
        "failures": [],
    }
    if args.mode == "setup":
        print(json.dumps(report))
        return 0
    # Warm-up: fills caches and lazy state.  Checked, not timed.
    result = prepared.run()
    summary = prepared.summarize(result)
    failures = prepared.check(result, summary)
    report.update(
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        tasks=prepared.tasks,
        sim=summary,
        sim_sha=workloads.digest(summary),
    )

    def plain(prepared):
        start = time.perf_counter()
        out = prepared.run()
        out_summary = prepared.summarize(out)
        return out, out_summary, time.perf_counter() - start

    def timed_run(call=plain):
        """A fresh set-up, then ``call`` times the run and summary, then a
        probe; returns (wall s, the probe's kernel s, summary).  The
        previous run's result is released first so two never coexist."""
        nonlocal result, prepared
        del result
        prepared, _ = prepare()
        result, run_summary, wall = call(prepared)
        after = reference_kernel()
        failures.extend(prepared.check(result, run_summary))
        if workloads.digest(run_summary) != report["sim_sha"]:
            failures.append("a repeat's simulated outputs differ from the first run's")
        return wall, after, run_summary

    if args.mode == "trace":
        import tracing

        tracer = tracing.Tracer()

        def traced(prepared):
            patches = tracing.instrument(tracer, prepared.protocol_types)
            try:
                start = time.perf_counter()
                out = tracer.call(tracer.name_id("bench.run"), prepared.run, (), {})
                out_summary = tracer.call(
                    tracer.name_id("sim.metrics.summary"), prepared.summarize, (out,), {}
                )
                return out, out_summary, time.perf_counter() - start
            finally:
                patches.restore()

        before = reference_kernel()
        wall, after, run_summary = timed_run(traced)
        scale = 2 * REFERENCE_S / (before + after)
        totals = tracing.layer_totals(tracer)
        accounted = sum(t["self_s"] for t in totals.values())
        if abs(accounted - wall) > SELF_TIME_TOLERANCE * wall:
            failures.append(
                f"self times add up to {accounted:.4f} s, traced run took {wall:.4f} s"
            )
        tracer.dump(OUT / f"{args.workload}.trace.jsonl")
        report.update(
            run_s=wall * scale,
            layers=tracing.layer_metrics(tracer, run_summary, wall, scale),
            self_s={name: t["self_s"] * scale for name, t in totals.items()},
            spans=len(tracer.name),
        )
    else:
        runs, walls = [], []
        before = probe
        loop_start = time.perf_counter()
        min_runs = 1 if args.quick else MIN_RUNS
        while len(runs) < min_runs or (
            time.perf_counter() - loop_start < args.seconds and len(runs) < MAX_RUNS
        ):
            wall, after, _ = timed_run()
            runs.append(wall * 2 * REFERENCE_S / (before + after))
            walls.append(wall)
            before = after
        report.update(runs=runs, walls=walls)
    report["failures"] = failures
    print(json.dumps(report))
    return 0


# -- parent: spawning, checking and aggregating --------------------------------


class Session:
    """The worker subprocesses of one workload, with their outcomes."""

    def __init__(self, workload: str, seed: int, quick: bool) -> None:
        self.workload, self.seed, self.quick = workload, seed, quick
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.environment: dict = {}
        self.setups: list[dict] = []
        self.repeats: list[dict] = []
        self.traced: dict | None = None

    def spawn(self, mode: str, seconds: float = 0.0) -> dict | None:
        """One worker subprocess; ``None`` when it crashed."""
        cmd = [sys.executable, str(Path(__file__).resolve()), "worker",
               self.workload, "--seed", str(self.seed), "--mode", mode,
               "--seconds", str(seconds)]
        if self.quick:
            cmd.append("--quick")
        env = dict(os.environ, **WORKER_ENV)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
        )
        self.attempted += 1
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                timeout=WORKER_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return self._fail(f"{mode} worker timed out after {WORKER_TIMEOUT_S} s")
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            return self._fail(f"{mode} worker exited {proc.returncode}: {tail[0]}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        if report["failures"]:
            self._fail(f"{mode}: " + "; ".join(report["failures"]))
        return report

    def _fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)
        print(f"[{self.workload}] FAILED {message}", file=sys.stderr)

    def once(self) -> None:
        report = self.spawn("once")
        if report is not None:
            self.environment = {k: report[k] for k in ("numpy", "kernel_tier")}

    def run_round(self, seconds: float) -> bool:
        """One set-up-only worker, then one timed worker with a slice of
        ``seconds``; False when either crashed."""
        report = self.spawn("setup")
        if report is None:
            return False
        self._agree(report, "set-up worker")
        self.setups.append(report)
        report = self.spawn("repeat", seconds)
        if report is None:
            return False
        self._agree(report, "worker")
        self.setups.append(report)
        self.repeats.append(report)
        print(
            f"[{self.workload}] set-up {self.setups[-2]['setup_s']:.3f} "
            f"{report['setup_s']:.3f} s, runs "
            + " ".join(f"{r:.3f}" for r in report["runs"])
            + f" s, host speed {report['host_speed']:.2f}",
            file=sys.stderr,
        )
        return True

    def trace(self) -> None:
        report = self.spawn("trace")
        if report is not None:
            self._agree(report, "traced run")
            self.traced = report

    def _agree(self, report: dict, what: str) -> None:
        """Every run of one seed must see the same inputs and produce the
        same simulated outputs (the traced run included)."""
        for key, firsts in (("inputs_sha", self.setups), ("sim_sha", self.repeats)):
            if key in report and firsts and report[key] != firsts[0][key]:
                self._fail(f"{what} {key} {report[key]} != {firsts[0][key]}")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and bool(self.repeats)

    def samples(self) -> dict[str, list[float]]:
        """Per end-to-end metric, its samples: one per timed run for run
        times, one per worker for set-up and memory."""
        first = self.repeats[0]
        sim = first["sim"]
        runs = [r for w in self.repeats for r in w["runs"]]
        lost = sim["dropped"] + sim["shed"]
        return {
            "setup_s": [w["setup_s"] for w in self.setups],
            "run_s": runs,
            "tasks_per_s": [first["tasks"] / r for r in runs],
            "peak_rss_mb": [w["peak_rss_mb"] for w in self.repeats],
            "sim_tct_mean_s": [sim["tct_mean_s"]],
            "sim_served_ratio": [(sim["generated"] - lost) / sim["generated"]],
            "sim_loss_ratio": [lost / sim["generated"]],
            "wall_run_s": [r for w in self.repeats for r in w["walls"]],
            "host_speed": [w["host_speed"] for w in self.repeats],
        }

    def per_layer(self) -> dict[str, float]:
        layers = dict(self.traced["layers"])
        for phase, name in (
            ("import", "setup.import_s"),
            ("inputs", "setup.inputs_s"),
            ("construct", "setup.construct_s"),
            ("schemes", "core.exit_setting.schemes_s"),
            ("assignment", "federation.assignment_s"),
        ):
            layers[name] = statistics.median(
                w["phases"].get(phase, 0.0) for w in self.setups
            )
        untraced = statistics.median(r for w in self.repeats for r in w["runs"])
        layers["trace.overhead_ratio"] = self.traced["run_s"] / untraced
        return layers

    def result(self) -> dict:
        """Everything measured for the workload (the suite's JSON row)."""
        samples = self.samples() if self.repeats else {}

        def median(name: str):
            return statistics.median(samples[name]) if samples else None

        metrics = {
            m["name"]: {
                "value": median(m["name"]),
                "unit": m["unit"],
                "runs": samples[m["name"]],
            }
            for m in benchmark_spec()["end_to_end"]
        } if samples else {}

        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
            "inputs_sha": self.repeats[0]["inputs_sha"] if self.repeats else None,
            "metrics": metrics,
            "extra": {
                "sim_tct_p99_s": self.repeats[0]["sim"]["tct_p99_s"] if self.repeats else None,
                "sim_loss_ratio": median("sim_loss_ratio"),
                "failed_ratio": self.failed / self.attempted if self.attempted else 0.0,
                "wall_run_s": median("wall_run_s"),
                "host_speed": median("host_speed"),
            },
            "layers": self.per_layer() if self.traced and self.repeats else {},
            "self_s": self.traced["self_s"] if self.traced else {},
        }


def git_sha() -> str:
    """HEAD's commit from ``.git`` files (no git process; a source
    checkout without ``.git`` reports ``unknown``)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(session: Session) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": session.environment.get("numpy"),
        "kernel_tier": session.environment.get("kernel_tier"),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: v for k, v in WORKER_ENV.items() if k.endswith("THREADS")},
        "git_sha": git_sha(),
    }


def require_program() -> None:
    """Exit (without a result) when the program under test is absent."""
    if not (SRC / "repro" / "__init__.py").exists():
        print(f"no program to benchmark: {SRC / 'repro'} is missing", file=sys.stderr)
        raise SystemExit(2)


# -- the driver's single-workload measurement ---------------------------------


def measure(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    require_program()
    if args.workload not in workload_names():
        parser.error(f"unknown workload {args.workload!r}; pick from {workload_names()}")

    session = Session(args.workload, args.seed, args.quick)
    session.once()
    print(json.dumps({"environment": environment(session)}))
    rounds = 1 if args.quick else ROUNDS
    for _ in range(rounds):
        if not session.run_round(args.seconds / rounds):
            break
    if args.trace and session.repeats:
        session.trace()
    result = session.result()
    print(json.dumps({
        "inputs_sha": result["inputs_sha"],
        "failures": result["failures"],
        "extra": result["extra"],
    }))

    spec = benchmark_spec()
    if args.trace:
        layers = result["layers"]
        metrics = {
            m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
            for m in spec["per_layer"]
            if m["name"] in layers
        }
    else:
        metrics = {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in result["metrics"].items()
        }
    correct = session.correct and (not args.trace or session.traced is not None)
    print(json.dumps({
        "correct": correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


# -- the whole suite ------------------------------------------------------------


def _table(header: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(str(row[c])) for row in [header, *rows]) for c in range(len(header))]
    lines = ["  ".join(str(h).ljust(w) for h, w in zip(header, widths))]
    lines.append("  ".join("-" * w for w in widths))
    lines += ["  ".join(str(v).ljust(w) for v, w in zip(row, widths)) for row in rows]
    return "\n".join(lines)


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def suite(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py suite")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes, one round of one run")
    parser.add_argument("--output", type=Path, default=OUT / "results.json")
    args = parser.parse_args(argv)
    require_program()
    rounds = 1 if args.quick else SUITE_ROUNDS
    slice_s = 0.0 if args.quick else SUITE_SLICE_S
    names = workload_names()
    sessions = {w: Session(w, args.seed, args.quick) for w in names}
    began = time.perf_counter()
    for s in sessions.values():
        s.once()
    # Round-robin, so a noisy minute does not land on one workload.
    for _ in range(rounds):
        for s in sessions.values():
            s.run_round(slice_s)
    for s in sessions.values():
        if s.repeats:
            s.trace()
    results = {w: s.result() for w, s in sessions.items()}
    env = environment(next(iter(sessions.values())))

    spec = benchmark_spec()
    columns = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    extra = [("sim_tct_p99_s", "s"), ("sim_loss_ratio", "ratio"),
             ("failed_ratio", "ratio"), ("wall_run_s", "s")]
    header = ["workload", *(f"{c} ({u})" for c, u in columns + extra)]
    rows = [
        [w, *(_fmt(r["metrics"].get(c, {}).get("value")) for c, _ in columns),
         *(_fmt(r["extra"][c]) for c, _ in extra)]
        for w, r in results.items()
    ]
    print(json.dumps({"environment": env}))
    print(_table(header, rows))
    for w, r in results.items():
        top = sorted(r["self_s"].items(), key=lambda kv: -kv[1])[:5]
        if top:
            print(f"{w}: self time " + ", ".join(f"{n} {t:.3f} s" for n, t in top))
        print(f"{w}: inputs_sha {r['inputs_sha']}")
        for failure in r["failures"]:
            print(f"{w}: FAILED {failure}")
    elapsed = time.perf_counter() - began
    print(f"suite took {elapsed:.1f} s")
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps({
        "environment": env,
        "seed": args.seed,
        "rounds": rounds,
        "quick": args.quick,
        "elapsed_s": elapsed,
        "workloads": results,
    }, indent=1) + "\n")
    print(f"wrote {args.output}")
    return 0 if all(r["correct"] for r in results.values()) else 1


# -- compare two suite results --------------------------------------------------


def _spread(runs: list[float]) -> float:
    """Quartile distance over the median (0 for fewer than two runs)."""
    if len(runs) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(runs, n=4)
    return (q3 - q1) / abs(statistics.median(runs))


def verdict(old: list[float], new: list[float], better: str, bound: float) -> tuple[float, str]:
    """Relative change of the medians and its verdict under ``bound``."""
    a, b = statistics.median(old), statistics.median(new)
    delta = (b - a) / abs(a) if a else 0.0
    worse = delta if better == "lower" else -delta
    if max(_spread(old), _spread(new)) > bound:
        improved = min(new) > max(old) if better == "higher" else max(new) < min(old)
        return delta, "better" if improved else "unresolved"
    if worse > bound:
        return delta, "worse"
    if worse < -bound:
        return delta, "better"
    return delta, "same"


def compare(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare")
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    old = json.loads(args.old.read_text())["workloads"]
    new = json.loads(args.new.read_text())["workloads"]
    rows = []
    worse = False
    for w in [w for w in old if w in new]:
        for m in benchmark_spec()["end_to_end"]:
            a = old[w]["metrics"].get(m["name"])
            b = new[w]["metrics"].get(m["name"])
            if a is None or b is None:
                continue
            delta, v = verdict(a["runs"], b["runs"], m["better"], m["bound"])
            worse |= v == "worse"
            rows.append([w, m["name"], _fmt(a["value"]), _fmt(b["value"]),
                         f"{delta:+.2%}", f"±{m['bound']:.0%}", v])
        fa, fb = old[w]["extra"]["failed_ratio"], new[w]["extra"]["failed_ratio"]
        v = "worse" if fb > fa else "same"
        worse |= v == "worse"
        rows.append([w, "failed_ratio", _fmt(fa), _fmt(fb), f"{fb - fa:+.3f}", "any increase", v])
    print(_table(["workload", "metric", "old", "new", "delta", "bound", "verdict"], rows))
    return 1 if worse else 0


def main(argv: list[str]) -> int:
    commands = {"worker": worker, "suite": suite, "compare": compare}
    if argv and argv[0] in commands:
        return commands[argv[0]](argv[1:])
    return measure(argv)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
