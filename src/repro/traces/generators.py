"""Seeded wild-trace generators.

Each generator synthesises one canonical dynamic of the paper's §II-A
"wild" measurements:

* :func:`diurnal_series` — sinusoid + log-normal noise, the daily rhythm
  of shared WiFi capacity and edge tenancy;
* :func:`gilbert_elliott_bandwidth` — a two-state good/bad Markov link
  (the classic bursty-loss wireless model), degrading bandwidth during
  bad runs;
* :func:`flash_crowd_rates` — Poisson-seeded arrival bursts that multiply
  the base rate for a bounded duration (Fig. 9's dynamic load, made
  spiky);
* :func:`poisson_churn` — per-device up/down two-state Markov churn with
  geometric (memoryless, i.e. Poisson-event) sojourns.

:func:`generate_trace` composes them into a full :class:`Trace` under the
repo's split-stream RNG discipline: one :class:`numpy.random.SeedSequence`
child per channel, so e.g. adding churn cannot perturb the bandwidth
series drawn from the same seed.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from ..units import mbps, ms
from .schema import Trace, TraceChannel


@dataclass(frozen=True)
class WildTraceSpec:
    """Knobs for :func:`generate_trace`, defaulting to §II-A's wild ranges.

    Attributes:
        num_slots: Trace horizon.
        num_devices: Fleet width.
        slot_length: τ in seconds.
        bandwidth: Mean uplink bandwidth, bytes/s.
        latency: Uplink latency, seconds (held constant per device).
        edge_flops: Mean shared edge capacity, FLOPS.
        arrival_rate: Mean per-device arrivals per slot.
        diurnal_period: Slots per diurnal cycle (0 disables the sinusoid).
        diurnal_amplitude: Relative swing of the sinusoid in [0, 1).
        noise_sigma: Log-normal jitter σ on bandwidth/edge series.
        ge_p_bad: Per-slot good→bad transition probability (0 disables).
        ge_p_good: Per-slot bad→good recovery probability.
        ge_bad_factor: Bandwidth multiplier while a link is bad.
        flash_rate: Expected flash crowds per 100 slots (0 disables).
        flash_magnitude: Arrival-rate multiplier during a flash crowd.
        flash_duration: Slots a flash crowd lasts.
        churn_down: Per-slot up→down probability (0 disables churn).
        churn_up: Per-slot down→up recovery probability.
        min_bandwidth: Clamp floor for the bandwidth series, bytes/s.
        max_bandwidth: Clamp ceiling for the bandwidth series, bytes/s.
    """

    num_slots: int = 200
    num_devices: int = 4
    slot_length: float = 1.0
    bandwidth: float = mbps(10.0)
    latency: float = ms(20.0)
    edge_flops: float = 60e9
    arrival_rate: float = 0.5
    diurnal_period: int = 100
    diurnal_amplitude: float = 0.5
    noise_sigma: float = 0.15
    ge_p_bad: float = 0.05
    ge_p_good: float = 0.3
    ge_bad_factor: float = 0.2
    flash_rate: float = 1.5
    flash_magnitude: float = 3.0
    flash_duration: int = 10
    churn_down: float = 0.01
    churn_up: float = 0.2
    min_bandwidth: float = mbps(1.0)
    max_bandwidth: float = mbps(30.0)

    def __post_init__(self) -> None:
        # Chained comparisons are False for NaN, so NaN fails too.
        if not (0 < self.num_slots < math.inf and 0 < self.num_devices < math.inf):
            raise ValueError("num_slots and num_devices must be positive")
        for name in ("slot_length", "bandwidth", "edge_flops", "flash_duration"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        for name in (
            "latency",
            "arrival_rate",
            "diurnal_period",
            "noise_sigma",
            "flash_rate",
        ):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and non-negative")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ValueError("diurnal_amplitude must be in [0, 1)")
        for name in ("ge_p_bad", "ge_p_good", "churn_down", "churn_up"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be a probability")
        if not 0.0 < self.ge_bad_factor <= 1.0:
            raise ValueError("ge_bad_factor must be in (0, 1]")
        if not 1.0 <= self.flash_magnitude < math.inf:
            raise ValueError("flash_magnitude must be finite and >= 1")
        if not 0 < self.min_bandwidth <= self.max_bandwidth < math.inf:
            raise ValueError("need 0 < min_bandwidth <= max_bandwidth < inf")


def diurnal_series(
    base: float,
    num_slots: int,
    period: int,
    amplitude: float,
    noise_sigma: float,
    rng: np.random.Generator,
    num_series: int = 1,
    phase: np.ndarray | None = None,
) -> np.ndarray:
    """``(num_slots, num_series)`` sinusoid-plus-noise around ``base``.

    ``value(t) = base · (1 + amplitude·sin(2πt/period + φ)) · lognormal``;
    each series gets its own uniform phase unless ``phase`` pins them.
    """
    if base <= 0:
        raise ValueError("base must be positive")
    t = np.arange(num_slots, dtype=np.float64)[:, None]
    if phase is None:
        phase = rng.uniform(0.0, 2.0 * np.pi, num_series)
    swing = (
        1.0 + amplitude * np.sin(2.0 * np.pi * t / period + phase[None, :])
        if period > 0 and amplitude > 0
        else np.ones((num_slots, num_series))
    )
    noise = (
        np.exp(rng.normal(0.0, noise_sigma, (num_slots, num_series)))
        if noise_sigma > 0
        else np.ones((num_slots, num_series))
    )
    return base * swing * noise


def gilbert_elliott_bandwidth(
    bandwidth: np.ndarray,
    p_bad: float,
    p_good: float,
    bad_factor: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Degrade a ``(S, N)`` bandwidth series through a two-state Markov
    link: while in the bad state, bandwidth is multiplied by
    ``bad_factor``.  Returns the degraded copy."""
    num_slots, num_devices = bandwidth.shape
    if p_bad <= 0:
        return bandwidth.copy()
    bad = np.zeros(num_devices, dtype=bool)
    out = bandwidth.copy()
    for t in range(num_slots):
        draws = rng.random(num_devices)
        bad = np.where(bad, draws >= p_good, draws < p_bad)
        out[t, bad] *= bad_factor
    return out


def flash_crowd_rates(
    base_rate: float,
    num_slots: int,
    num_devices: int,
    flash_rate: float,
    magnitude: float,
    duration: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """``(S, N)`` arrival-rate series: ``base_rate`` with fleet-wide flash
    crowds.  Burst starts are Poisson with mean ``flash_rate`` per 100
    slots; overlapping bursts do not stack beyond ``magnitude``."""
    rates = np.full((num_slots, num_devices), base_rate, dtype=np.float64)
    if flash_rate <= 0 or base_rate == 0:
        return rates
    starts = rng.random(num_slots) < flash_rate / 100.0
    boosted = np.zeros(num_slots, dtype=bool)
    for t in np.flatnonzero(starts):
        boosted[t : t + duration] = True
    rates[boosted] *= magnitude
    return rates


def canonical_flash_crowd(
    num_slots: int = 120,
    num_devices: int = 4,
    base_rate: float = 0.3,
    magnitude: float = 8.0,
    crowd_start: int = 30,
    crowd_stop: int = 70,
) -> np.ndarray:
    """The pinned ``(S, N)`` flash-crowd rate matrix the overload
    experiments share: ``base_rate`` everywhere except a fleet-wide burst
    of ``base_rate × magnitude`` over ``[crowd_start, crowd_stop)``.

    Deterministic by construction (no RNG), so governed vs ungoverned
    comparisons in :mod:`repro.experiments.fig_overload`, the overload
    benchmark, and the CI gate all replay the identical demand — the
    overload twin of :func:`repro.resilience.faults.canonical_outage_plan`.
    Feed each column to
    :meth:`repro.sim.arrivals.TraceArrivals.from_series`."""
    if not 0 <= crowd_start < crowd_stop <= num_slots:
        raise ValueError("need 0 <= crowd_start < crowd_stop <= num_slots")
    if base_rate < 0 or magnitude < 1.0:
        raise ValueError("need base_rate >= 0 and magnitude >= 1")
    rates = np.full((num_slots, num_devices), base_rate, dtype=np.float64)
    rates[crowd_start:crowd_stop] = base_rate * magnitude
    return rates


def canonical_mixed_qos_burst(
    num_slots: int = 120,
    num_devices: int = 4,
    base_rate: float = 0.3,
    magnitude: float = 6.0,
    echo_magnitude: float = 3.0,
) -> np.ndarray:
    """The pinned ``(S, N)`` rate matrix the mixed-QoS experiments share:
    a flash crowd over the second quarter of the horizon, a calm gap long
    enough for the memory governor to evict idle partitions, then an
    *echo* burst at ``echo_magnitude`` over the final quarter — so the
    echo lands on a cold warm-pool and class-aware shedding, cold-start
    delays, and the degradation ladder are all active in one trace.

    The crowd is *mixed*, not fleet-wide: device 0 holds its base rate
    throughout, modelling a latency-critical tenant that does not
    participate in the crowd — the realistic threat is bulk traffic
    flooding a shared edge, not the premium tenant flooding itself.
    Devices 1..N-1 carry the bursts.

    Deterministic by construction (no RNG) like
    :func:`canonical_flash_crowd`, so QoS-governed vs uniformly-governed
    comparisons in :mod:`repro.experiments.fig_qos`, the QoS benchmark,
    and the CI gate replay identical demand.  Feed each column to
    :meth:`repro.sim.arrivals.TraceArrivals.from_series`."""
    if num_slots < 8 or num_devices < 1:
        raise ValueError("need num_slots >= 8 and num_devices >= 1")
    if base_rate < 0 or magnitude < 1.0 or echo_magnitude < 1.0:
        raise ValueError(
            "need base_rate >= 0, magnitude >= 1 and echo_magnitude >= 1"
        )
    rates = np.full((num_slots, num_devices), base_rate, dtype=np.float64)
    rates[num_slots // 4 : num_slots // 2, 1:] = base_rate * magnitude
    rates[(3 * num_slots) // 4 :, 1:] = base_rate * echo_magnitude
    return rates


def poisson_churn(
    num_slots: int,
    num_devices: int,
    p_down: float,
    p_up: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """``(S, N)`` float 0/1 up-mask from per-device two-state Markov churn
    (geometric sojourns — the discrete-time Poisson process).  Every
    device starts up; with ``p_down == 0`` the mask is all-ones."""
    up = np.ones((num_slots, num_devices), dtype=np.float64)
    if p_down <= 0:
        return up
    state = np.ones(num_devices, dtype=bool)
    for t in range(num_slots):
        draws = rng.random(num_devices)
        state = np.where(state, draws >= p_down, draws < p_up)
        up[t] = state.astype(np.float64)
    return up


def generate_trace(spec: WildTraceSpec, seed: int = 0) -> Trace:
    """Synthesise a full wild trace from ``spec`` under ``seed``.

    The seed is split into one independent stream per channel
    (bandwidth, edge capacity, arrivals, churn), so traces are
    reproducible channel-by-channel: regenerating with the same seed and
    a spec that only disables churn leaves the other channels
    bit-identical.
    """
    link_seq, edge_seq, arrival_seq, churn_seq = np.random.SeedSequence(
        seed
    ).spawn(4)
    link_rng = np.random.default_rng(link_seq)
    edge_rng = np.random.default_rng(edge_seq)
    arrival_rng = np.random.default_rng(arrival_seq)
    churn_rng = np.random.default_rng(churn_seq)

    bandwidth = diurnal_series(
        spec.bandwidth,
        spec.num_slots,
        spec.diurnal_period,
        spec.diurnal_amplitude,
        spec.noise_sigma,
        link_rng,
        num_series=spec.num_devices,
    )
    bandwidth = gilbert_elliott_bandwidth(
        bandwidth, spec.ge_p_bad, spec.ge_p_good, spec.ge_bad_factor, link_rng
    )
    bandwidth = np.clip(bandwidth, spec.min_bandwidth, spec.max_bandwidth)

    edge = diurnal_series(
        spec.edge_flops,
        spec.num_slots,
        spec.diurnal_period,
        spec.diurnal_amplitude / 2.0,
        spec.noise_sigma / 2.0,
        edge_rng,
    )[:, 0]

    rates = flash_crowd_rates(
        spec.arrival_rate,
        spec.num_slots,
        spec.num_devices,
        spec.flash_rate,
        spec.flash_magnitude,
        spec.flash_duration,
        arrival_rng,
    )

    up = poisson_churn(
        spec.num_slots,
        spec.num_devices,
        spec.churn_down,
        spec.churn_up,
        churn_rng,
    )
    # Offline devices report nothing: NaN-mask their per-device series
    # (the schema rejects NaN anywhere a device is up).
    down = up == 0.0
    bandwidth[down] = np.nan
    rates[down] = np.nan

    latency = np.full(
        (spec.num_slots, spec.num_devices), spec.latency, dtype=np.float64
    )
    latency[down] = np.nan

    meta = {"generator": "wild", "seed": seed}
    meta.update({k: v for k, v in asdict(spec).items()})
    return Trace(
        channels=(
            TraceChannel("bandwidth", bandwidth),
            TraceChannel("latency", latency),
            TraceChannel("edge_flops", edge),
            TraceChannel("arrival_rate", rates),
            TraceChannel("up", up),
        ),
        slot_length=spec.slot_length,
        meta=meta,
    )
