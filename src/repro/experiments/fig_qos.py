"""QoS — class-aware degradation protects gold through a cold failover.

PR 5's governor treats every task identically: when the flash crowd
hits, the admission gate sheds gold-class traffic exactly as readily as
batch.  This harness replays the pinned mixed-QoS burst
(:func:`~repro.traces.generators.canonical_mixed_qos_burst`: a
``magnitude``× flash crowd followed by an ``echo_magnitude``× echo that
lands on a cold warm-pool) with the canonical edge outage
(:func:`~repro.resilience.faults.canonical_outage_plan`) opening *inside*
the crowd window — so failover and recovery both land cold — through
two governed schemes under common randomness:

* **class-aware** (this PR): the QoS layer with per-class rung biases
  (gold degrades one rung later, batch one earlier), weighted warm-pool
  eviction (gold partitions stay resident, batch thrashes), and a
  utility-per-cost shed budget;
* **uniform** (the PR 5 baseline): the identical memory budget, cold
  starts, and ladder — but every class carries the same weight and a
  zero rung bias, so degradation and shedding are class-blind.  Classes
  exist only as accounting labels, which is exactly what PR 5 gave you.

Both schemes share the device→class map, the arrival draws, and the
fault plan, so every per-class delta is attributable to the class-aware
control alone.

Expected outcomes:

* gold p99 TCT stays within its deadline and the gold deadline-miss
  rate stays near zero under the class-aware scheme;
* the uniform scheme sheds gold at the fleet-wide rate, pushing the
  gold miss rate far above the class-aware one — the SLO violation the
  class-aware ladder exists to prevent;
* batch pays for it: batch shed under class-aware exceeds uniform's —
  degradation is a budget reallocation, not free capacity;
* the scalar and fast event engines replay the class-aware run
  per-task-identically (QoS tags included), the fluid scalar and
  vectorized paths stay byte-identical, and the per-class fluid flow
  conservation ``sum_c generated_c = admitted + shed`` holds exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..chaos.oracles import (
    event_conservation,
    event_results_close,
    records_equal,
)
from ..core.offloading import DriftPlusPenaltyPolicy
from ..resilience import MODE_FULL, OverloadControl
from ..resilience.faults import canonical_outage_plan
from ..resilience.qos import QoSClass, QoSConfig
from ..sim.arrivals import TraceArrivals
from ..sim.events import EventSimulator
from ..sim.fast_events import run_fast
from ..sim.metrics import SimulationResult
from ..sim.simulator import SlotSimulator
from ..traces.generators import canonical_mixed_qos_burst
from .common import TestbedConfig, format_rows, leime_scheme

#: Per-class SLO deadlines (seconds of TCT) — shared by both schemes so
#: the miss rates are directly comparable.
GOLD_DEADLINE_S = 2.0
STANDARD_DEADLINE_S = 6.0
BATCH_DEADLINE_S = 20.0

#: Pinned device→class map (6 devices): one gold, three standard, two
#: batch.  Pinning the map (rather than drawing it from the seed) keeps
#: every class populated at this fleet size, so the figure never hits
#: the empty-class NaN sentinel.
CLASS_MAP = (0, 1, 1, 1, 2, 2)


def _mixed_classes(class_aware: bool) -> tuple[QoSClass, ...]:
    """The three-tier mix; the uniform variant flattens every knob the
    class-aware governor uses (weight, rung bias, shed budget ordering)
    while keeping names and deadlines for accounting."""
    if class_aware:
        return (
            QoSClass(
                "gold",
                share=0.2,
                weight=4.0,
                deadline=GOLD_DEADLINE_S,
                rung_bias=-1,
            ),
            QoSClass(
                "standard",
                share=0.5,
                weight=2.0,
                deadline=STANDARD_DEADLINE_S,
                rung_bias=0,
            ),
            QoSClass(
                "batch",
                share=0.3,
                weight=1.0,
                deadline=BATCH_DEADLINE_S,
                rung_bias=1,
            ),
        )
    return (
        QoSClass(
            "gold", share=0.2, weight=1.0, deadline=GOLD_DEADLINE_S
        ),
        QoSClass(
            "standard", share=0.5, weight=1.0, deadline=STANDARD_DEADLINE_S
        ),
        QoSClass(
            "batch", share=0.3, weight=1.0, deadline=BATCH_DEADLINE_S
        ),
    )


def _qos_config(
    class_aware: bool,
    memory_fraction: float,
    cold_start_seconds: float,
) -> QoSConfig:
    return QoSConfig(
        classes=_mixed_classes(class_aware),
        class_map=CLASS_MAP,
        memory_fraction=memory_fraction,
        cold_start_seconds=cold_start_seconds,
    )


@dataclass(frozen=True)
class QoSSchemeRow:
    """One scheme's fleet-wide outcome under the mixed-QoS burst."""

    scheme: str
    tasks: int
    completed: int
    shed: int
    dropped: int
    p99_tct: float
    max_mode: int
    identity_holds: bool


@dataclass(frozen=True)
class QoSClassRow:
    """One (scheme, class) cell of the per-class SLO table."""

    scheme: str
    qos_class: str
    deadline: float
    generated: int
    completed: int
    shed: int
    p99_tct: float
    deadline_miss_rate: float


@dataclass(frozen=True)
class FigQoSResult:
    magnitude: float
    echo_magnitude: float
    burst: tuple[int, int]
    echo: tuple[int, int]
    outage: tuple[int, int]
    rows: tuple[QoSSchemeRow, ...]
    class_rows: tuple[QoSClassRow, ...]
    event_engines_identical: bool
    fluid_paths_identical: bool
    fluid_class_conservation: bool

    def by_scheme(self, name: str) -> QoSSchemeRow:
        for row in self.rows:
            if row.scheme == name:
                return row
        raise KeyError(name)

    def class_row(self, scheme: str, qos_class: str) -> QoSClassRow:
        for row in self.class_rows:
            if row.scheme == scheme and row.qos_class == qos_class:
                return row
        raise KeyError((scheme, qos_class))

    @property
    def gold_protected(self) -> bool:
        """Class-aware gold stays within its SLO: p99 TCT within the
        deadline and not a single gold task shed."""
        row = self.class_row("class-aware", "gold")
        return row.p99_tct <= row.deadline and row.shed == 0

    @property
    def uniform_gold_violated(self) -> bool:
        """The PR 5 baseline breaks the same SLO on the same draws:
        class-blind rungs shed gold outright (a shed premium task is an
        unserved request — once more than 1% of gold is shed, the
        shed-inclusive p99 is unbounded) and weight-blind eviction
        sends gold's partition cold, so even the survivors' p99 can
        blow through the deadline."""
        row = self.class_row("uniform", "gold")
        return (
            row.shed > 0.01 * max(row.generated, 1)
            or row.p99_tct > row.deadline
        )


def run_fig_qos(
    num_slots: int = 160,
    seed: int = 0,
    base_rate: float = 0.3,
    magnitude: float = 30.0,
    echo_magnitude: float = 3.0,
    memory_fraction: float = 0.5,
    cold_start_seconds: float = 0.5,
    control: OverloadControl | None = None,
) -> FigQoSResult:
    """Replay the mixed-QoS burst + canonical outage, class-aware vs
    uniform (common randomness: both schemes share the seed, the pinned
    class map, and the fault plan, so the arrival/exit/fault draws are
    identical and the deltas isolate the class-aware control)."""
    num_devices = len(CLASS_MAP)
    config = TestbedConfig(
        model="inception-v3",
        num_devices=num_devices,
        arrival_rate=base_rate,
    )
    scheme = leime_scheme(config)
    system = config.system(scheme.partition)
    if control is None:
        control = OverloadControl()
    rates = canonical_mixed_qos_burst(
        num_slots=num_slots,
        num_devices=num_devices,
        base_rate=base_rate,
        magnitude=magnitude,
        echo_magnitude=echo_magnitude,
    )

    def arrivals() -> list[TraceArrivals]:
        return [
            TraceArrivals.from_series(rates[:, i]) for i in range(num_devices)
        ]

    def policy() -> DriftPlusPenaltyPolicy:
        return DriftPlusPenaltyPolicy(v=config.v)

    def event_sim(qos: QoSConfig) -> EventSimulator:
        return EventSimulator(
            system=system,
            arrivals=arrivals(),
            seed=seed,
            faults=canonical_outage_plan(
                num_slots=num_slots, num_devices=num_devices, seed=seed
            ),
            overload=control,
            qos=qos,
        )

    aware_cfg = _qos_config(True, memory_fraction, cold_start_seconds)
    uniform_cfg = _qos_config(False, memory_fraction, cold_start_seconds)

    aware = event_sim(aware_cfg).run(policy(), num_slots)
    aware_fast = run_fast(event_sim(aware_cfg), policy(), num_slots)
    uniform = event_sim(uniform_cfg).run(policy(), num_slots)

    deadlines = {
        "gold": GOLD_DEADLINE_S,
        "standard": STANDARD_DEADLINE_S,
        "batch": BATCH_DEADLINE_S,
    }
    rows = []
    class_rows = []
    for name, result in (("class-aware", aware), ("uniform", uniform)):
        rows.append(
            QoSSchemeRow(
                scheme=name,
                tasks=len(result.tasks),
                completed=len(result.completed),
                shed=result.shed_count,
                dropped=result.dropped_count,
                p99_tct=result.tct_percentile(99.0),
                max_mode=max(result.modes) if result.modes else MODE_FULL,
                identity_holds=not event_conservation(result),
            )
        )
        summary = result.class_summary(deadlines=deadlines)
        for cls in ("gold", "standard", "batch"):
            cell = summary[cls]
            class_rows.append(
                QoSClassRow(
                    scheme=name,
                    qos_class=cls,
                    deadline=deadlines[cls],
                    generated=cell["generated"],
                    completed=cell["completed"],
                    shed=cell["shed"],
                    p99_tct=cell["p99_tct"],
                    deadline_miss_rate=cell["deadline_miss_rate"],
                )
            )

    # --- Fluid cross-check: the class-aware configuration through the
    # analytic queue model, scalar vs vectorized, plus the per-class
    # flow conservation identity.
    def fluid_run(vectorized: bool) -> SimulationResult:
        return SlotSimulator(
            system=system,
            arrivals=arrivals(),
            seed=seed,
            vectorized=vectorized,
            overload=control,
            qos=aware_cfg,
        ).run(policy(), num_slots)

    fluid_scalar = fluid_run(vectorized=False)
    fluid_vec = fluid_run(vectorized=True)
    flow = fluid_vec.class_flow
    conservation = flow is not None and math.isclose(
        sum(flow.generated),
        fluid_vec.total_arrivals + fluid_vec.total_shed,
        rel_tol=1e-12,
        abs_tol=1e-9,
    )

    third = num_slots // 3
    return FigQoSResult(
        magnitude=magnitude,
        echo_magnitude=echo_magnitude,
        burst=(num_slots // 4, num_slots // 2),
        echo=((3 * num_slots) // 4, num_slots),
        outage=(third, third + num_slots // 8),
        rows=tuple(rows),
        class_rows=tuple(class_rows),
        event_engines_identical=event_results_close(aware, aware_fast),
        fluid_paths_identical=records_equal(
            fluid_scalar.records, fluid_vec.records
        ),
        fluid_class_conservation=conservation,
    )


def main() -> None:
    result = run_fig_qos()
    print(
        "QoS — mixed-class burst "
        f"({result.magnitude:.0f}x over slots "
        f"{result.burst[0]}-{result.burst[1]}, "
        f"{result.echo_magnitude:.0f}x echo over "
        f"{result.echo[0]}-{result.echo[1]}) "
        f"with edge outage over slots "
        f"{result.outage[0]}-{result.outage[1]} (cold failover)"
    )
    print()
    print("Fleet level (event simulator):")
    print(
        format_rows(
            (
                "scheme",
                "tasks",
                "completed",
                "shed",
                "dropped",
                "p99 TCT (s)",
                "max rung",
            ),
            [
                (
                    row.scheme,
                    row.tasks,
                    row.completed,
                    row.shed,
                    row.dropped,
                    f"{row.p99_tct:.2f}",
                    row.max_mode,
                )
                for row in result.rows
            ],
        )
    )
    print()
    print("Per-class SLO:")
    print(
        format_rows(
            (
                "scheme",
                "class",
                "deadline (s)",
                "generated",
                "completed",
                "shed",
                "p99 TCT (s)",
                "miss rate",
            ),
            [
                (
                    row.scheme,
                    row.qos_class,
                    f"{row.deadline:.0f}",
                    row.generated,
                    row.completed,
                    row.shed,
                    f"{row.p99_tct:.2f}",
                    f"{row.deadline_miss_rate:.1%}",
                )
                for row in result.class_rows
            ],
        )
    )
    print()
    print(
        "gold protected (class-aware): "
        + ("yes" if result.gold_protected else "NO")
        + " | gold violated (uniform): "
        + ("yes" if result.uniform_gold_violated else "NO")
    )
    print(
        "event engines: "
        + (
            "per-task identical"
            if result.event_engines_identical
            else "DIVERGED"
        )
        + " | fluid paths: "
        + (
            "byte-identical"
            if result.fluid_paths_identical
            else "DIVERGED"
        )
        + " | per-class fluid conservation: "
        + ("holds" if result.fluid_class_conservation else "VIOLATED")
    )


if __name__ == "__main__":
    main()
