"""Hardware catalog for the LEIME testbed reproduction.

The paper's prototype (§IV-A) uses:

* end devices — 4× Raspberry Pi 3B+ (ARM Cortex-A53 CPU) and 2× NVIDIA
  Jetson Nano (Maxwell GPU);
* edge server — a desktop with an Intel i7-3770 CPU;
* cloud — NVIDIA Tesla V100 GPUs.

We have no physical testbed, so each platform is described by its *effective*
DNN-inference throughput in FLOPS.  Absolute values are calibrated to public
inference measurements and, more importantly, to the capability *ratios* the
paper itself states:

* Jetson Nano is 8.2× a Raspberry Pi 3B+ on Inception v3 (§II-A);
* a GPU edge desktop is ~5× a laptop i5 CPU on ResNet-50 (§II-A);
* Jetson Nano is ">10× faster than Raspberry pi" in the Fig. 2(a) discussion.

The conclusions of every experiment depend on these ratios rather than on the
absolute wall-clock numbers, which is why a calibrated catalog is a faithful
substitute (see DESIGN.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .units import gflops, mbps, ms


@dataclass(frozen=True)
class Platform:
    """A compute platform with an effective inference throughput.

    Attributes:
        name: Human-readable platform name.
        flops: Effective throughput in FLOPS while running DNN inference.
            This is far below the peak datasheet number; it folds in memory
            bandwidth and utilisation, which is how the paper's latency
            model (Eqs. 1-3) uses it.
        per_task_overhead: Fixed seconds of per-inference framework/dispatch
            cost (interpreter, tensor marshalling, kernel launch).  The
            paper's Eqs. fold this into measured layer times; with analytic
            FLOPs we carry it explicitly — without it, a one-conv first
            block would look nearly free on a Raspberry Pi, which real
            PyTorch measurements contradict.
    """

    name: str
    flops: float
    per_task_overhead: float = 0.0

    def __post_init__(self) -> None:
        if self.flops <= 0:
            raise ValueError(f"platform {self.name!r} needs positive FLOPS")
        if self.per_task_overhead < 0:
            raise ValueError("per-task overhead must be non-negative")

    def scaled(self, factor: float, name: str | None = None) -> "Platform":
        """A copy with throughput multiplied by ``factor``.

        Used to emulate background load on a shared node (e.g. the "edge
        system load" sweep of Fig. 2(b)).
        """
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return replace(self, flops=self.flops * factor,
                       name=name if name is not None else self.name)

    def compute_time(self, work_flops: float) -> float:
        """Seconds to execute ``work_flops`` FLOPs on this platform."""
        if work_flops < 0:
            raise ValueError("work must be non-negative")
        return work_flops / self.flops


#: Raspberry Pi 3B+ — ARM Cortex-A53 @1.4 GHz, effective ~3.6 GFLOPS for
#: framework-driven DNN inference.
RASPBERRY_PI_3B = Platform("raspberry-pi-3b+", gflops(3.6), per_task_overhead=0.08)

#: NVIDIA Jetson Nano — 128-core Maxwell GPU.  8.2× the Pi, matching the
#: Inception v3 ratio quoted in §II-A.
JETSON_NANO = Platform("jetson-nano", gflops(3.6 * 8.2), per_task_overhead=0.02)

#: Edge server: Intel i7-3770 desktop (4C/8T @3.4 GHz, AVX).
EDGE_I7_3770 = Platform("edge-i7-3770", gflops(60.0), per_task_overhead=0.01)

#: A laptop-class i5-7200U, used in the §II-A motivation comparison.
LAPTOP_I5_7200U = Platform("laptop-i5-7200u", gflops(12.0), per_task_overhead=0.02)

#: An edge desktop with a GeForce 940MX GPU — 5× the laptop (§II-A).
EDGE_GEFORCE_940MX = Platform("edge-geforce-940mx", gflops(60.0), per_task_overhead=0.015)

#: Cloud: NVIDIA Tesla V100 (effective, single-stream inference).
CLOUD_V100 = Platform("cloud-tesla-v100", gflops(900.0), per_task_overhead=0.005)

#: Catalog keyed by short name, for config files and CLIs.
PLATFORMS: dict[str, Platform] = {
    "raspberry-pi": RASPBERRY_PI_3B,
    "jetson-nano": JETSON_NANO,
    "edge-i7": EDGE_I7_3770,
    "laptop-i5": LAPTOP_I5_7200U,
    "edge-940mx": EDGE_GEFORCE_940MX,
    "cloud-v100": CLOUD_V100,
}


def platform(name: str) -> Platform:
    """Look up a platform by catalog name.

    Raises:
        KeyError: with the list of known names, if ``name`` is unknown.
    """
    try:
        return PLATFORMS[name]
    except KeyError:
        known = ", ".join(sorted(PLATFORMS))
        raise KeyError(f"unknown platform {name!r}; known: {known}") from None


@dataclass(frozen=True)
class NetworkProfile:
    """Bandwidth and propagation delay of one hop (§II-A, Table I).

    Attributes:
        bandwidth: Link bandwidth in bytes/second (``B`` in the paper).
        latency: Propagation/connection latency in seconds (``L``), i.e. the
            per-transfer constant the paper attributes to protocol setup.
    """

    bandwidth: float
    latency: float

    def __post_init__(self) -> None:
        # Chained comparisons are False for NaN, so NaN fails too.
        if not 0 < self.bandwidth < math.inf:
            raise ValueError("bandwidth must be finite and positive")
        if not 0 <= self.latency < math.inf:
            raise ValueError("latency must be finite and non-negative")

    def transfer_time(self, num_bytes: float) -> float:
        """Seconds to move ``num_bytes`` across this hop (serialisation +
        propagation), matching the paper's ``d/B + L`` terms."""
        if num_bytes < 0:
            raise ValueError("payload must be non-negative")
        if num_bytes == 0:
            return 0.0
        return num_bytes / self.bandwidth + self.latency


#: Typical WiFi hop between an end device and the edge (§II-A says the wild
#: range is 1-30 Mbps and 10-200 ms; this is a mid-range default).
WIFI_DEVICE_EDGE = NetworkProfile(bandwidth=mbps(10.0), latency=ms(20.0))

#: Internet hop between the edge server and the cloud — a WAN path with the
#: long propagation delay that makes deep Second-exits attractive (§IV's
#: testbed links the edge to a remote V100 over the Internet).
INTERNET_EDGE_CLOUD = NetworkProfile(bandwidth=mbps(20.0), latency=ms(100.0))
