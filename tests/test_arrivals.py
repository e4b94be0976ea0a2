"""Arrival processes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.arrivals import (
    BATCH_DRAW_MIN,
    ArrivalProcess,
    ConstantArrivals,
    PiecewiseRateArrivals,
    PoissonArrivals,
    SinusoidalRateArrivals,
    SlotDraw,
    TraceArrivals,
    UniformArrivals,
    mean_series,
)


def test_constant_arrivals():
    process = ConstantArrivals(2.5)
    rng = np.random.default_rng(0)
    assert process.mean(0) == 2.5
    assert process.sample(7, rng) == 2.5
    with pytest.raises(ValueError):
        ConstantArrivals(-1.0)


def test_poisson_mean_converges():
    process = PoissonArrivals(3.0)
    rng = np.random.default_rng(1)
    samples = [process.sample(t, rng) for t in range(5000)]
    assert np.mean(samples) == pytest.approx(3.0, rel=0.05)


def test_poisson_truncation():
    process = PoissonArrivals(3.0, maximum=4.0)
    rng = np.random.default_rng(2)
    assert max(process.sample(t, rng) for t in range(2000)) <= 4.0
    with pytest.raises(ValueError):
        PoissonArrivals(5.0, maximum=1.0)


def test_uniform_arrivals_bounds():
    process = UniformArrivals(1, 4)
    rng = np.random.default_rng(3)
    samples = [process.sample(t, rng) for t in range(500)]
    assert min(samples) >= 1 and max(samples) <= 4
    assert process.mean(0) == 2.5
    with pytest.raises(ValueError):
        UniformArrivals(4, 1)


def test_trace_arrivals_cycles():
    process = TraceArrivals((1.0, 2.0, 3.0))
    rng = np.random.default_rng(4)
    assert process.sample(0, rng) == 1.0
    assert process.sample(4, rng) == 2.0
    assert process.mean(5) == 3.0
    with pytest.raises(ValueError):
        TraceArrivals(())


def test_piecewise_phases():
    process = PiecewiseRateArrivals(((10, 1.0), (5, 6.0)))
    assert process.mean(0) == 1.0
    assert process.mean(9) == 1.0
    assert process.mean(10) == 6.0
    assert process.mean(14) == 6.0
    assert process.mean(15) == 1.0  # cycles
    with pytest.raises(ValueError):
        PiecewiseRateArrivals(((0, 1.0),))
    with pytest.raises(ValueError):
        PiecewiseRateArrivals(())


def test_piecewise_samples_follow_phase_rate():
    process = PiecewiseRateArrivals(((50, 0.0), (50, 8.0)))
    rng = np.random.default_rng(5)
    calm = [process.sample(t, rng) for t in range(50)]
    busy = [process.sample(t, rng) for t in range(50, 100)]
    assert max(calm) == 0.0
    assert np.mean(busy) == pytest.approx(8.0, rel=0.2)


def test_sinusoidal_clamps_at_zero():
    process = SinusoidalRateArrivals(base=1.0, amplitude=3.0, period=20)
    rates = [process.mean(t) for t in range(40)]
    assert min(rates) == 0.0
    assert max(rates) == pytest.approx(4.0, abs=0.1)
    with pytest.raises(ValueError):
        SinusoidalRateArrivals(base=1.0, amplitude=1.0, period=0)


# -- protocol conformance --------------------------------------------------------


@pytest.mark.parametrize(
    "process",
    [
        ConstantArrivals(1.0),
        PoissonArrivals(2.0),
        UniformArrivals(1, 3),
        TraceArrivals((1.0, 2.0)),
        PiecewiseRateArrivals(((5, 1.0),)),
        SinusoidalRateArrivals(base=1.0, amplitude=0.5, period=10),
    ],
    ids=lambda p: type(p).__name__,
)
def test_processes_satisfy_arrival_protocol(process):
    assert isinstance(process, ArrivalProcess)
    rng = np.random.default_rng(0)
    for t in (0, 3, 17):
        assert process.mean(t) >= 0.0
        assert process.sample(t, rng) >= 0.0


def test_mean_series_matches_per_slot_means():
    process = TraceArrivals((1.0, 2.0, 3.0))
    series = mean_series(process, 5)
    np.testing.assert_array_equal(series, [1.0, 2.0, 3.0, 1.0, 2.0])
    assert series.dtype == np.float64


def test_trace_arrivals_hold_last():
    process = TraceArrivals((1.0, 2.0, 3.0), cycle=False)
    assert process.mean(2) == 3.0
    assert process.mean(10) == 3.0  # holds the last slot instead of wrapping


def test_trace_arrivals_poisson_sampling():
    process = TraceArrivals((4.0,) * 2000, poisson=True)
    rng = np.random.default_rng(6)
    samples = [process.sample(t, rng) for t in range(2000)]
    assert process.mean(0) == 4.0  # mean stays the deterministic rate
    assert np.mean(samples) == pytest.approx(4.0, rel=0.1)
    assert any(s != 4.0 for s in samples)


def test_trace_arrivals_from_series_validates():
    series = np.array([0.5, 1.5])
    process = TraceArrivals.from_series(series)
    assert process.trace == (0.5, 1.5)
    with pytest.raises(ValueError):
        TraceArrivals.from_series(np.array([1.0, -2.0]))
    with pytest.raises(ValueError):
        TraceArrivals.from_series(np.array([1.0, np.nan]))


# -- one draw per slot ---------------------------------------------------------


class _Counting:
    """A process without a ``count_law``: it must keep its own ``sample``,
    called in place."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def mean(self, slot):
        return self.inner.mean(slot)

    def sample(self, slot, rng):
        self.calls += 1
        return self.inner.sample(slot, rng)


def _mixed_processes(seed: int, n: int) -> list:
    rng = np.random.default_rng(seed)
    kinds = [
        lambda: PoissonArrivals(float(rng.uniform(0.0, 4.0))),
        lambda: PoissonArrivals(float(rng.uniform(0.5, 2.0)), maximum=2),
        lambda: PoissonArrivals(0.0),
        lambda: PoissonArrivals(1.5, maximum=1.5),
        lambda: TraceArrivals(tuple(rng.uniform(0.0, 3.0, 5).tolist()), poisson=True),
        lambda: TraceArrivals((0.0, 2.0, 0.5), poisson=True, cycle=False),
        lambda: TraceArrivals(tuple(rng.uniform(0.0, 3.0, 4).tolist())),
        lambda: ConstantArrivals(float(rng.uniform(0.0, 2.0))),
        lambda: ConstantArrivals(2),
        lambda: PiecewiseRateArrivals(((2, 0.3), (1, 0.0), (3, 2.5))),
        lambda: SinusoidalRateArrivals(0.4, 0.9, 5),
        lambda: UniformArrivals(0, 3),
        lambda: _Counting(PoissonArrivals(1.0)),
    ]
    picks = rng.integers(0, len(kinds), n)
    # Forty Poisson-law processes in a row: runs long enough for one
    # array draw, next to the short runs the random picks make.
    picks[5:45] = rng.integers(0, 6, 40)
    picks[[12, 30]] = 9, 10
    processes = [kinds[k]() for k in picks]
    # A process that samples itself in the middle of a Poisson run.
    processes[n // 2] = UniformArrivals(1, 4)
    return processes


@pytest.mark.parametrize("seed", range(8))
def test_slot_draw_equals_the_per_process_loop(seed):
    """One draw per Poisson run gives the per-process ``sample`` loop's
    counts — values and Python types — and leaves the generator in the
    same state, slot after slot."""
    processes = _mixed_processes(seed, 60 + 40 * seed)
    draw = SlotDraw(processes)
    runs = [stop - start for start, stop in draw.steps if stop is not None]
    assert max(runs) >= BATCH_DRAW_MIN > min(runs)
    batched, looped = np.random.default_rng(seed), np.random.default_rng(seed)
    for slot in range(12):
        means = [p.mean(slot) for p in processes]
        want = [p.sample(slot, looped) for p in processes]
        got = draw(slot, means, batched)
        assert got == want
        assert [type(v) for v in got] == [type(v) for v in want]
        assert batched.bit_generator.state == looped.bit_generator.state


def test_slot_draw_batches_by_declared_law(monkeypatch):
    """Poisson and deterministic processes never call ``sample`` — even
    one an instrumented run has replaced on the class — while a process
    that declares no law calls it once per slot, in place."""
    calls = []

    def recorded(self, slot, rng):
        calls.append(type(self).__name__)
        return 0.0

    for cls in (PoissonArrivals, TraceArrivals, ConstantArrivals):
        monkeypatch.setattr(cls, "sample", recorded)
    own = _Counting(UniformArrivals(0, 2))
    processes = [
        PoissonArrivals(1.0),
        TraceArrivals((1.0, 2.0), poisson=True),
        own,
        TraceArrivals((1.0, 2.0)),
        ConstantArrivals(3.0),
        PoissonArrivals(2.0, maximum=2.5),
    ]
    draw = SlotDraw(processes)
    assert draw.steps == [(0, 2), (2, None), (5, 6)]
    rng = np.random.default_rng(0)
    for slot in range(3):
        counts = draw(slot, [p.mean(slot) for p in processes], rng)
        assert counts[3:5] == [processes[3].mean(slot), 3.0]
        assert counts[5] <= 2.5
    assert calls == [] and own.calls == 3
