"""Fig. 8 — performance across DNN models and devices (Test Case 2, part 2).

Average TCT of LEIME vs the three benchmarks for each of the four DNNs, on
Raspberry Pi devices and on Jetson Nano devices.

Paper outcomes being reproduced: LEIME achieves 1.6-13.2× speedup on the
Pi and 1.1-10.3× on the Nano; Neurosurgeon *tracks* LEIME (same cut
points, no early exits) while Edgent and DDNN fluctuate across models
because their intuitive exit rules interact badly with some architectures.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hardware import JETSON_NANO, Platform, RASPBERRY_PI_3B
from .common import (
    MODEL_NAMES,
    SCHEME_BUILDERS,
    TestbedConfig,
    compare_schemes,
    format_rows,
)


@dataclass(frozen=True)
class DeviceGrid:
    """TCT of every scheme for every model on one device class."""

    device: str
    models: tuple[str, ...]
    tct: dict[str, dict[str, float]]  # tct[model][scheme]

    def speedup_range(self) -> tuple[float, float]:
        """(min, max) speedup of LEIME over any benchmark on any model."""
        ratios = [
            value / self.tct[model]["LEIME"]
            for model in self.models
            for name, value in self.tct[model].items()
            if name != "LEIME"
        ]
        return (min(ratios), max(ratios))


@dataclass(frozen=True)
class Fig8Result:
    grids: tuple[DeviceGrid, ...]


def _grid(
    device: Platform,
    arrival_rate: float,
    num_slots: int,
    seed: int,
) -> DeviceGrid:
    tct: dict[str, dict[str, float]] = {}
    for model in MODEL_NAMES:
        config = TestbedConfig(
            model=model,
            device=device,
            num_devices=4,
            arrival_rate=arrival_rate,
        )
        results = compare_schemes(
            config, tuple(SCHEME_BUILDERS), num_slots=num_slots, seed=seed,
            simulator="event",
        )
        tct[model] = {name: r.mean_tct for name, r in results.items()}
    return DeviceGrid(device=device.name, models=MODEL_NAMES, tct=tct)


def run_fig8(num_slots: int = 150, seed: int = 0) -> Fig8Result:
    """Regenerate Fig. 8: the model × device grid."""
    return Fig8Result(
        grids=(
            _grid(RASPBERRY_PI_3B, arrival_rate=0.2, num_slots=num_slots, seed=seed),
            # The Nano is ~8× faster, so it is exercised at a higher rate
            # (as the paper's Fig. 9 does with its larger arrival range).
            _grid(JETSON_NANO, arrival_rate=0.6, num_slots=num_slots, seed=seed),
        )
    )


def main() -> None:
    result = run_fig8()
    for grid in result.grids:
        print(f"Fig. 8 — average TCT (s) on {grid.device}")
        header = ("scheme",) + grid.models
        rows = []
        for scheme in SCHEME_BUILDERS:
            rows.append(
                (scheme,)
                + tuple(f"{grid.tct[model][scheme]:.2f}" for model in grid.models)
            )
        print(format_rows(header, rows))
        low, high = grid.speedup_range()
        print(f"LEIME speedup range: {low:.1f}x – {high:.1f}x\n")


if __name__ == "__main__":
    main()
