"""Smoke tests for the benchmark suite (``--quick`` sizes, under 30 s).

Run with ``python -m pytest benchmarks/suite``; tier-1's ``testpaths``
does not include this directory.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "suite" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=150,
    )


def test_quick_suite_reports_every_metric(tmp_path):
    out = tmp_path / "quick.json"
    proc = _run("suite", "--quick", "--output", str(out))
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    results = json.loads(out.read_text())["workloads"]
    assert list(results) == [w["name"] for w in SPEC["workloads"]]
    for name, result in results.items():
        assert result["correct"] and result["failed"] == 0, (name, result["failures"])
        assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
        assert all(m["value"] > 0 for m in result["metrics"].values()), name
        assert set(result["layers"]) == {m["name"] for m in SPEC["per_layer"]}


def test_driver_mode_prints_the_contract_line():
    for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
        proc = _run("--workload", "qos-burst-fluid", "--seed", "3",
                    "--seconds", "0", "--trace", trace, "--quick")
        assert proc.returncode == 0, proc.stderr[-2000:]
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
        assert [*last["metrics"]] == [m["name"] for m in SPEC[group]]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        RUN.parent, tmp_path / "benchmarks" / "suite",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = _run("--workload", "wild-fleet-fluid", "--seed", "0",
                "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_compare_verdicts():
    spec = importlib.util.spec_from_file_location("suite_run", RUN)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    steady = [1.0, 1.01, 0.99, 1.0]
    assert run.verdict(steady, [1.3, 1.31, 1.29, 1.3], "lower", 0.1)[1] == "worse"
    assert run.verdict(steady, [0.7, 0.71, 0.69, 0.7], "lower", 0.1)[1] == "better"
    assert run.verdict(steady, [1.3, 1.31, 1.29, 1.3], "higher", 0.1)[1] == "better"
    assert run.verdict(steady, [1.02, 1.0, 1.01, 1.0], "lower", 0.1)[1] == "same"
    noisy = [0.5, 1.0, 1.5, 2.0]
    assert run.verdict(steady, noisy, "lower", 0.1)[1] == "unresolved"
