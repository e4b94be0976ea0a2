""""In the Wild" — the schemes under a non-stationary trace.

The paper's §V evaluates LEIME under fluctuating wireless bandwidth and
bursty load; the stationary figures cannot show the one thing the online
phase exists for.  This harness generates a seeded wild trace
(:mod:`repro.traces.generators`: diurnal bandwidth + Gilbert-Elliott bad
runs + flash-crowd arrivals + Poisson churn), replays it through the slot
simulator for each of the four compared systems, and contrasts every
scheme's wild-trace TCT with its own static-environment baseline under
the same seed.

Expected outcomes:

* LEIME's drift-plus-penalty policy rebalances per slot, so its wild/
  static degradation factor is the smallest of the four and it stays
  stable through the flash crowds;
* the fixed-strategy benchmarks cannot shift load when the trace turns
  against them — their degradation factors and backlogs are larger.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.simulator import SlotSimulator
from ..traces.generators import WildTraceSpec, generate_trace
from ..traces.replay import replay_trace
from ..units import mbps, ms
from .common import SCHEME_BUILDERS, TestbedConfig, format_rows


@dataclass(frozen=True)
class WildSchemeRow:
    """One scheme's wild-vs-static outcome."""

    scheme: str
    wild_tct: float
    static_tct: float
    wild_backlog: float
    stable: bool

    @property
    def degradation(self) -> float:
        """Wild-trace mean TCT over the static baseline (≥ 1 in practice;
        the smaller, the better the scheme absorbs the dynamics)."""
        if self.static_tct <= 0:
            return float("inf")
        return self.wild_tct / self.static_tct


@dataclass(frozen=True)
class FigWildResult:
    rows: tuple[WildSchemeRow, ...]

    def by_scheme(self, name: str) -> WildSchemeRow:
        for row in self.rows:
            if row.scheme == name:
                return row
        raise KeyError(name)


def wild_spec(
    num_slots: int, num_devices: int, arrival_rate: float
) -> WildTraceSpec:
    """The harness's canonical wild trace: §II-A's 1-30 Mbps range with
    all four dynamics enabled."""
    return WildTraceSpec(
        num_slots=num_slots,
        num_devices=num_devices,
        bandwidth=mbps(10.0),
        latency=ms(20.0),
        arrival_rate=arrival_rate,
        diurnal_period=max(num_slots // 2, 2),
        diurnal_amplitude=0.6,
        noise_sigma=0.2,
        ge_p_bad=0.05,
        ge_p_good=0.3,
        ge_bad_factor=0.2,
        flash_rate=2.0,
        flash_magnitude=3.0,
        flash_duration=8,
        churn_down=0.01,
        churn_up=0.25,
    )


def run_fig_wild(
    num_slots: int = 160,
    seed: int = 0,
    num_devices: int = 4,
    arrival_rate: float = 0.3,
) -> FigWildResult:
    """Replay one wild trace through all four schemes (common randomness:
    every scheme sees the identical trace and arrival draws)."""
    config = TestbedConfig(
        model="inception-v3",
        num_devices=num_devices,
        arrival_rate=arrival_rate,
    )
    spec = wild_spec(num_slots, num_devices, arrival_rate)
    trace = generate_trace(spec, seed=seed)
    rows = []
    for name, builder in SCHEME_BUILDERS.items():
        scheme = builder(config)
        system = config.system(scheme.partition)
        wild = replay_trace(system, trace, scheme.policy, seed=seed)
        static = SlotSimulator(
            system=system, arrivals=config.arrival_processes(), seed=seed
        ).run(scheme.policy, num_slots)
        rows.append(
            WildSchemeRow(
                scheme=name,
                wild_tct=wild.mean_tct,
                static_tct=static.mean_tct,
                wild_backlog=wild.final_backlog,
                stable=wild.is_stable(),
            )
        )
    return FigWildResult(rows=tuple(rows))


def main() -> None:
    result = run_fig_wild()
    print("In the Wild — mean TCT under a dynamic trace vs. static baseline")
    rows = [
        (
            row.scheme,
            f"{row.wild_tct:.3f}",
            f"{row.static_tct:.3f}",
            f"{row.degradation:.2f}x",
            f"{row.wild_backlog:.1f}",
            str(row.stable),
        )
        for row in result.rows
    ]
    print(
        format_rows(
            (
                "scheme",
                "wild TCT (s)",
                "static TCT (s)",
                "degradation",
                "backlog",
                "stable",
            ),
            rows,
        )
    )


if __name__ == "__main__":
    main()
