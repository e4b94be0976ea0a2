"""The command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main


def test_models_lists_zoo(capsys):
    assert main(["models"]) == 0
    out = capsys.readouterr().out
    for name in ("vgg-16", "resnet-34", "inception-v3", "squeezenet-1.0"):
        assert name in out


def test_describe(capsys):
    assert main(["describe", "squeezenet-1.0"]) == 0
    out = capsys.readouterr().out
    assert "fire2" in out and "GFLOPs" in out


def test_describe_rejects_unknown_model():
    with pytest.raises(SystemExit):
        main(["describe", "alexnet"])


def test_plan_prints_selection(capsys):
    assert main(["plan", "--model", "squeezenet-1.0"]) == 0
    out = capsys.readouterr().out
    assert "exit selection" in out
    assert "expected TCT" in out


def test_plan_device_changes_selection(capsys):
    main(["plan", "--model", "inception-v3", "--device", "raspberry-pi"])
    pi_out = capsys.readouterr().out
    main(["plan", "--model", "inception-v3", "--device", "jetson-nano"])
    nano_out = capsys.readouterr().out
    assert pi_out != nano_out


def test_simulate_slot(capsys):
    assert (
        main(
            [
                "simulate",
                "--model",
                "squeezenet-1.0",
                "--policy",
                "leime",
                "--slots",
                "30",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "mean TCT" in out and "stable" in out


def test_simulate_event(capsys):
    assert (
        main(
            [
                "simulate",
                "--model",
                "squeezenet-1.0",
                "--policy",
                "edge-only",
                "--simulator",
                "event",
                "--slots",
                "30",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "offloaded" in out and "exits" in out


def test_simulate_rejects_unknown_policy():
    with pytest.raises(SystemExit):
        main(["simulate", "--policy", "magic"])


def test_experiment_dispatch(capsys):
    assert main(["experiment", "fig2"]) == 0
    out = capsys.readouterr().out
    assert "Fig. 2(a)" in out


def test_experiment_rejects_unknown():
    with pytest.raises(SystemExit):
        main(["experiment", "fig99"])


def test_requires_command():
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize("policy", ["leime", "bandit", "tabular-q"])
def test_trace_generate_describe_replay(tmp_path, capsys, policy):
    """The full trace pipeline through the CLI: synthesise, inspect,
    replay, and export the benchmark summary.  Learning policies carry
    per-run state, so each plane must replay a fresh one."""
    trace_path = tmp_path / "wild.npz"
    summary_path = tmp_path / "out.json"
    assert (
        main(
            [
                "trace",
                "generate",
                "--output",
                str(trace_path),
                "--slots",
                "24",
                "--devices",
                "2",
                "--seed",
                "3",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert trace_path.exists()
    assert "24 slots" in out

    assert main(["trace", "describe", str(trace_path)]) == 0
    out = capsys.readouterr().out
    for channel in ("bandwidth", "arrival_rate", "up"):
        assert channel in out

    assert (
        main(
            [
                "trace",
                "replay",
                str(trace_path),
                "--model",
                "squeezenet-1.0",
                "--policy",
                policy,
                "--output",
                str(summary_path),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "byte-identical" in out

    import json

    payload = json.loads(summary_path.read_text())
    assert payload["paths_identical"] is True
    assert payload["slots"] == 24


def test_trace_generate_presets_differ(tmp_path, capsys):
    paths = {}
    for preset in ("diurnal", "flash-crowd"):
        path = tmp_path / f"{preset}.jsonl"
        assert (
            main(
                [
                    "trace",
                    "generate",
                    "--output",
                    str(path),
                    "--preset",
                    preset,
                    "--slots",
                    "20",
                    "--devices",
                    "2",
                ]
            )
            == 0
        )
        paths[preset] = path
    capsys.readouterr()
    assert (
        paths["diurnal"].read_text() != paths["flash-crowd"].read_text()
    )


def test_trace_describe_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        main(["trace", "describe", str(tmp_path / "nope.npz")])


def test_trace_requires_subcommand():
    with pytest.raises(SystemExit):
        main(["trace"])


def test_experiment_fig_wild_listed():
    from repro.cli import EXPERIMENTS

    assert "fig_wild" in EXPERIMENTS


def test_analyze_vsweep(capsys):
    assert (
        main(
            [
                "analyze",
                "v-sweep",
                "--model",
                "squeezenet-1.0",
                "--devices",
                "2",
                "--arrival-rate",
                "0.5",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "mean TCT" in out and "backlog" in out


@pytest.mark.parametrize("policy", ["leime", "bandit", "tabular-q"])
def test_faults_generate_describe_replay(tmp_path, capsys, policy):
    """The full chaos pipeline through the CLI: synthesise a plan,
    inspect it, replay it through both simulators, export the summary.
    Every run starts a fresh policy, so learning policies replay
    byte-identically on both planes too."""
    plan_path = tmp_path / "faults.npz"
    summary_path = tmp_path / "out.json"
    assert (
        main(
            [
                "faults",
                "generate",
                "--output",
                str(plan_path),
                "--preset",
                "canonical-outage",
                "--slots",
                "40",
                "--devices",
                "2",
                "--seed",
                "3",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert plan_path.exists()
    assert "40 slots" in out and "1 edge outage" in out

    assert main(["faults", "describe", str(plan_path)]) == 0
    out = capsys.readouterr().out
    for field in ("drop_fraction", "edge_outages", "edge outages"):
        assert field in out

    assert (
        main(
            [
                "faults",
                "replay",
                str(plan_path),
                "--model",
                "squeezenet-1.0",
                "--policy",
                policy,
                "--arrival-rate",
                "0.3",
                "--output",
                str(summary_path),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "byte-identical" in out
    assert "recovery" in out and "no-recovery" in out

    import json

    payload = json.loads(summary_path.read_text())
    assert payload["paths_identical"] is True
    assert payload["slots"] == 40
    recovery = payload["results"]["recovery"]
    assert recovery["tasks"] == (
        recovery["completed"] + recovery["dropped"] + recovery["in_flight"]
    )


def test_faults_generate_seeds_differ(tmp_path, capsys):
    blobs = {}
    for seed in ("0", "1"):
        path = tmp_path / f"plan-{seed}.jsonl"
        assert (
            main(
                [
                    "faults",
                    "generate",
                    "--output",
                    str(path),
                    "--slots",
                    "30",
                    "--devices",
                    "2",
                    "--seed",
                    seed,
                    "--drop-prob",
                    "0.1",
                ]
            )
            == 0
        )
        blobs[seed] = path.read_text()
    capsys.readouterr()
    assert blobs["0"] != blobs["1"]


def test_faults_describe_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        main(["faults", "describe", str(tmp_path / "nope.npz")])


def test_faults_requires_subcommand():
    with pytest.raises(SystemExit):
        main(["faults"])


def test_experiment_fig_faults_listed():
    from repro.cli import EXPERIMENTS

    assert "fig_faults" in EXPERIMENTS
