"""The wild-trace subsystem: schema, serialization, and generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.traces.generators import (
    WildTraceSpec,
    diurnal_series,
    flash_crowd_rates,
    generate_trace,
    gilbert_elliott_bandwidth,
    poisson_churn,
)
from repro.traces.schema import Trace, TraceChannel, TraceValidationError
from repro.traces.serialize import (
    load_jsonl,
    load_npz,
    load_trace,
    save_jsonl,
    save_npz,
    save_trace,
    traces_equal,
)


def _small_trace(num_slots: int = 6, num_devices: int = 2) -> Trace:
    return generate_trace(
        WildTraceSpec(num_slots=num_slots, num_devices=num_devices), seed=0
    )


# -- schema ---------------------------------------------------------------------


def test_trace_shape_accessors():
    trace = _small_trace(8, 3)
    assert trace.num_slots == 8
    assert trace.num_devices == 3
    assert trace.channel("bandwidth").per_device
    assert not trace.channel("edge_flops").per_device
    assert set(trace.names) >= {
        "bandwidth",
        "latency",
        "edge_flops",
        "arrival_rate",
        "up",
    }


def test_channel_rejects_empty_and_bad_shapes():
    with pytest.raises(TraceValidationError):
        TraceChannel("bandwidth", np.zeros((0,)))
    with pytest.raises(TraceValidationError):
        TraceChannel("bandwidth", np.zeros((2, 2, 2)))


def test_trace_rejects_mismatched_slot_axes():
    with pytest.raises(TraceValidationError):
        Trace(
            channels=(
                TraceChannel("bandwidth", np.ones((4, 2))),
                TraceChannel("arrival_rate", np.ones((5, 2))),
            )
        )


def test_trace_rejects_mismatched_device_counts():
    with pytest.raises(TraceValidationError):
        Trace(
            channels=(
                TraceChannel("bandwidth", np.ones((4, 2))),
                TraceChannel("arrival_rate", np.ones((4, 3))),
            )
        )


def test_trace_rejects_duplicate_channels():
    with pytest.raises(TraceValidationError):
        Trace(
            channels=(
                TraceChannel("bandwidth", np.ones((4, 2))),
                TraceChannel("bandwidth", np.ones((4, 2))),
            )
        )


def test_nan_allowed_only_where_down():
    up = np.ones((3, 2))
    up[1, 0] = 0.0
    bandwidth = np.full((3, 2), 1e6)
    bandwidth[1, 0] = np.nan
    # NaN exactly where down: fine.
    Trace(
        channels=(
            TraceChannel("bandwidth", bandwidth),
            TraceChannel("up", up),
        )
    )
    # NaN on an up device: rejected.
    bad = bandwidth.copy()
    bad[2, 1] = np.nan
    with pytest.raises(TraceValidationError):
        Trace(
            channels=(
                TraceChannel("bandwidth", bad),
                TraceChannel("up", up),
            )
        )
    # +inf passes every sign test, so it is rejected on its own, in each
    # canonical channel, at construction rather than at replay.
    for name in ("bandwidth", "latency", "arrival_rate"):
        values = bandwidth.copy()
        values[2, 1] = np.inf
        with pytest.raises(TraceValidationError, match="inf"):
            Trace(
                channels=(
                    TraceChannel(name, values),
                    TraceChannel("up", up),
                )
            )
        # ... but an offline device's samples stay unconstrained.
        values = bandwidth.copy()
        values[1, 0] = np.inf
        Trace(channels=(TraceChannel(name, values), TraceChannel("up", up)))
    edge = np.full(3, 1e9)
    edge[1] = np.inf
    with pytest.raises(TraceValidationError, match="inf"):
        Trace(channels=(TraceChannel("edge_flops", edge),))


def test_up_channel_must_be_binary():
    with pytest.raises(TraceValidationError):
        Trace(channels=(TraceChannel("up", np.full((3, 2), 0.5)),))


def test_bandwidth_must_be_positive_where_up():
    with pytest.raises(TraceValidationError):
        Trace(channels=(TraceChannel("bandwidth", np.zeros((3, 2))),))


def test_up_at_and_window():
    trace = _small_trace(10, 2)
    mask = trace.up_at(0)
    assert mask.shape == (2,) and mask.dtype == bool
    sub = trace.window(2, 7)
    assert sub.num_slots == 5
    assert sub.num_devices == 2
    np.testing.assert_array_equal(
        sub.channel("edge_flops").values,
        trace.channel("edge_flops").values[2:7],
    )
    with pytest.raises(ValueError):
        trace.window(5, 3)


def test_describe_reports_nan_fraction():
    trace = generate_trace(
        WildTraceSpec(num_slots=200, num_devices=3, churn_down=0.1), seed=1
    )
    stats = trace.describe()
    assert stats["bandwidth"]["nan_fraction"] > 0
    assert stats["up"]["nan_fraction"] == 0.0
    assert stats["bandwidth"]["min"] > 0


# -- serialization --------------------------------------------------------------


@pytest.mark.parametrize("suffix", [".jsonl", ".npz"])
def test_round_trip(tmp_path, suffix):
    trace = generate_trace(
        WildTraceSpec(num_slots=30, num_devices=3, churn_down=0.1), seed=5
    )
    assert np.isnan(trace.channel("bandwidth").values).any(), (
        "fixture should exercise NaN churn masking"
    )
    path = save_trace(trace, tmp_path / f"trace{suffix}")
    back = load_trace(path)
    assert traces_equal(trace, back)
    assert dict(back.meta)["seed"] == 5


def test_cross_format_round_trip(tmp_path):
    trace = _small_trace(12, 2)
    via_jsonl = load_jsonl(save_jsonl(trace, tmp_path / "t.jsonl"))
    via_npz = load_npz(save_npz(via_jsonl, tmp_path / "t.npz"))
    assert traces_equal(trace, via_npz)


def test_jsonl_is_standards_compliant_json(tmp_path):
    import json

    trace = generate_trace(
        WildTraceSpec(num_slots=50, num_devices=2, churn_down=0.2), seed=2
    )
    path = save_jsonl(trace, tmp_path / "t.jsonl")
    for line in path.read_text().splitlines():
        json.loads(line)  # would fail on bare NaN tokens
    assert "NaN" not in path.read_text()


def test_load_rejects_foreign_files(tmp_path):
    bad = tmp_path / "t.jsonl"
    bad.write_text('{"format": "something-else"}\n')
    with pytest.raises(TraceValidationError):
        load_jsonl(bad)
    with pytest.raises(ValueError):
        load_trace(tmp_path / "t.csv")


def test_version_mismatch_rejected(tmp_path):
    import json

    trace = _small_trace()
    path = save_jsonl(trace, tmp_path / "t.jsonl")
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    header["version"] = 99
    path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    with pytest.raises(TraceValidationError):
        load_jsonl(path)


def test_traces_equal_is_nan_aware_and_strict():
    trace = generate_trace(
        WildTraceSpec(num_slots=20, num_devices=2, churn_down=0.2), seed=3
    )
    assert traces_equal(trace, trace)
    other = generate_trace(
        WildTraceSpec(num_slots=20, num_devices=2, churn_down=0.2), seed=4
    )
    assert not traces_equal(trace, other)


# -- generators -----------------------------------------------------------------


def test_generate_trace_is_deterministic():
    spec = WildTraceSpec(num_slots=40, num_devices=3)
    assert traces_equal(generate_trace(spec, seed=9), generate_trace(spec, seed=9))
    assert not traces_equal(
        generate_trace(spec, seed=9), generate_trace(spec, seed=10)
    )


def test_channel_streams_are_independent():
    """Disabling churn must not perturb the other channels' draws (the
    split-stream discipline)."""
    base = WildTraceSpec(num_slots=60, num_devices=2, churn_down=0.3)
    calm = WildTraceSpec(num_slots=60, num_devices=2, churn_down=0.0)
    with_churn = generate_trace(base, seed=6)
    without = generate_trace(calm, seed=6)
    # Where the churny trace has a live sample, it matches the calm one.
    chan = with_churn.channel("arrival_rate").values
    ref = without.channel("arrival_rate").values
    live = ~np.isnan(chan)
    np.testing.assert_array_equal(chan[live], ref[live])
    assert not np.isnan(ref).any()


def test_diurnal_series_shape_and_positivity():
    rng = np.random.default_rng(0)
    series = diurnal_series(10.0, 50, 25, 0.5, 0.1, rng, num_series=3)
    assert series.shape == (50, 3)
    assert (series > 0).all()
    with pytest.raises(ValueError):
        diurnal_series(-1.0, 50, 25, 0.5, 0.1, rng)


def test_gilbert_elliott_only_degrades():
    rng = np.random.default_rng(1)
    base = np.full((200, 4), 8e5)
    out = gilbert_elliott_bandwidth(base, 0.2, 0.3, 0.25, rng)
    assert out.shape == base.shape
    assert (out <= base).all()
    assert (out < base).any(), "bad states should occur at these rates"
    untouched = gilbert_elliott_bandwidth(base, 0.0, 0.3, 0.25, rng)
    np.testing.assert_array_equal(untouched, base)


def test_flash_crowd_boosts_whole_fleet():
    rng = np.random.default_rng(2)
    rates = flash_crowd_rates(0.5, 400, 3, 5.0, 4.0, 10, rng)
    assert set(np.unique(rates)) <= {0.5, 2.0}
    boosted_slots = (rates == 2.0).all(axis=1)
    plain_slots = (rates == 0.5).all(axis=1)
    assert (boosted_slots | plain_slots).all(), "bursts are fleet-wide"
    assert boosted_slots.any()


def test_poisson_churn_starts_up_and_recovers():
    rng = np.random.default_rng(3)
    up = poisson_churn(500, 4, 0.05, 0.5, rng)
    assert set(np.unique(up)) <= {0.0, 1.0}
    assert (up == 0.0).any()
    # With recovery probability 0.5, devices come back.
    downs = np.flatnonzero(up[:, 0] == 0.0)
    if downs.size:
        assert up[downs[0] :, 0].max() == 1.0


def test_spec_validation():
    with pytest.raises(ValueError):
        WildTraceSpec(num_slots=0)
    with pytest.raises(ValueError):
        WildTraceSpec(diurnal_amplitude=1.5)
    with pytest.raises(ValueError):
        WildTraceSpec(ge_p_bad=1.5)
    with pytest.raises(ValueError):
        WildTraceSpec(ge_bad_factor=0.0)
    with pytest.raises(ValueError):
        WildTraceSpec(min_bandwidth=5.0, max_bandwidth=1.0)
